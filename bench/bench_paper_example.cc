// Reproduces the worked example of Sec. 3.2 / 4.3: the 4-publication
// bibliography HIN, its matricizations A_(1) (4 x 12) and A_(3) (3 x 16),
// the transition tensors O and R (Figs. 3-4), the cosine transition matrix
// W, and the stationary distributions the paper reports:
//
//   [x^DM, x^CV] ~ [[0.90, 0], [0, 0.90], [0, 0.10], [0.10, 0]]
//   [z^DM, z^CV] ~ [[0.33, 0.33], [0.30, 0.37], [0.37, 0.30]]

#include <cstdio>
#include <vector>

#include "bench/common.h"

#include "tmark/core/tmark.h"
#include "tmark/datasets/paper_example.h"
#include "tmark/hin/feature_similarity.h"
#include "tmark/tensor/matricization.h"
#include "tmark/tensor/transition_tensors.h"

namespace {

void PrintDense(const char* title, const tmark::la::DenseMatrix& m) {
  std::printf("%s (%zu x %zu):\n", title, m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      std::printf(" %5.2f", m.At(r, c));
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  tmark::bench::BenchObsSession obs_session("bench_paper_example");
  using namespace tmark;
  const hin::Hin hin = datasets::MakePaperExample();
  // The adjacency tensor A of Sec. 3.1, as its front slices A(:,:,k).
  const std::vector<la::SparseMatrix>& a = hin.relations();

  std::printf("== Worked example (Sec. 3.2 / 4.3) ==\n");
  std::printf("4 publications, 3 relations (%s / %s / %s), %zu tensor "
              "entries\n\n",
              hin.relation_name(0).c_str(), hin.relation_name(1).c_str(),
              hin.relation_name(2).c_str(), hin.NumLinks());

  PrintDense("A_(1) mode-1 matricization",
             tensor::MatricizeMode1(a).ToDense());
  std::printf("\n");
  PrintDense("A_(3) mode-3 matricization",
             tensor::MatricizeMode3(a).ToDense());
  std::printf("\n");

  const tensor::TransitionTensors t = tensor::TransitionTensors::Build(a);
  for (std::size_t k = 0; k < 3; ++k) {
    char title[64];
    std::snprintf(title, sizeof(title), "O(:,:,%zu)  [%s]", k,
                  hin.relation_name(k).c_str());
    PrintDense(title, t.DenseOSlice(k));
  }
  std::printf("\n");
  for (std::size_t k = 0; k < 3; ++k) {
    char title[64];
    std::snprintf(title, sizeof(title), "R(:,:,%zu)  [%s]", k,
                  hin.relation_name(k).c_str());
    PrintDense(title, t.DenseRSlice(k));
  }
  std::printf("\n");

  PrintDense("W (column-normalized cosine similarities, Sec. 4.3)",
             hin::FeatureSimilarity::Build(hin.features()).Dense());
  std::printf("\n");

  core::TMarkClassifier clf;
  clf.Fit(hin, datasets::PaperExampleLabeledNodes());
  PrintDense("stationary [x^DM, x^CV]  (paper: ~[[0.90,0],[0,0.90],"
             "[0,0.10],[0.10,0]])",
             clf.Confidences());
  std::printf("\n");
  PrintDense("stationary [z^DM, z^CV]  (paper: ~[[0.33,0.33],[0.30,0.37],"
             "[0.37,0.30]])",
             clf.LinkImportance());

  const std::vector<std::size_t> pred = clf.PredictSingleLabel();
  std::printf("\npredictions: p3 -> %s (truth CV), p4 -> %s (truth DM)\n",
              hin.class_name(pred[2]).c_str(),
              hin.class_name(pred[3]).c_str());
  return 0;
}
