#include "tmark/hin/hin.h"

#include <algorithm>

#include "tmark/common/check.h"

namespace tmark::hin {

const la::SparseMatrix& Hin::relation(std::size_t k) const {
  TMARK_CHECK(k < relations_.size());
  return relations_[k];
}

const std::string& Hin::relation_name(std::size_t k) const {
  TMARK_CHECK(k < relation_names_.size());
  return relation_names_[k];
}

const std::string& Hin::class_name(std::size_t c) const {
  TMARK_CHECK(c < class_names_.size());
  return class_names_[c];
}

const std::vector<std::uint32_t>& Hin::labels(std::size_t node) const {
  TMARK_CHECK(node < labels_.size());
  return labels_[node];
}

bool Hin::HasLabel(std::size_t node, std::size_t c) const {
  const std::vector<std::uint32_t>& ls = labels(node);
  return std::binary_search(ls.begin(), ls.end(),
                            static_cast<std::uint32_t>(c));
}

std::uint32_t Hin::PrimaryLabel(std::size_t node) const {
  const std::vector<std::uint32_t>& ls = labels(node);
  TMARK_CHECK_MSG(!ls.empty(), "node " << node << " has no label");
  return ls.front();
}

la::SparseMatrix Hin::AggregatedRelation() const {
  la::SparseMatrix agg(num_nodes_, num_nodes_);
  for (const la::SparseMatrix& r : relations_) agg = agg.Add(r);
  return agg;
}

std::size_t Hin::NumLinks() const {
  std::size_t total = 0;
  for (const la::SparseMatrix& r : relations_) total += r.NumNonZeros();
  return total;
}

std::vector<std::size_t> Hin::NodesWithLabels() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    if (!labels_[i].empty()) out.push_back(i);
  }
  return out;
}

}  // namespace tmark::hin
