#ifndef TMARK_HIN_HIN_H_
#define TMARK_HIN_HIN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tmark/common/status.h"
#include "tmark/la/sparse_matrix.h"

namespace tmark::hin {

class HinDelta;

/// A Heterogeneous Information Network over one target node type.
///
/// Following the paper's experimental setup, the heterogeneity lives in the
/// links: the network has `n` target nodes (authors, movies, images,
/// publications), `m` *typed* relations among them (one adjacency matrix per
/// link type — conferences, directors, tags, ...), a sparse bag-of-words
/// feature matrix (n x d), and per-node label sets over `q` classes
/// (singleton sets for single-label tasks, larger sets for ACM-style
/// multi-label tasks).
///
/// Instances are assembled with HinBuilder and then stay put, except for
/// ApplyDelta, which splices a validated batch of mutations (hin_delta.h)
/// into the CSR arrays in place.
class Hin {
 public:
  Hin() = default;

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_relations() const { return relations_.size(); }
  std::size_t num_classes() const { return class_names_.size(); }
  std::size_t feature_dim() const { return features_.cols(); }

  /// Adjacency matrix of the k-th relation; entry (i, j) > 0 means node j
  /// links to node i through relation k (column = source, row = destination,
  /// matching the tensor convention of Sec. 3.1).
  const la::SparseMatrix& relation(std::size_t k) const;
  /// All m relation adjacency matrices, in relation order: the front slices
  /// A(:,:,k) of the (n x n x m) adjacency tensor A of Sec. 3.1.
  const std::vector<la::SparseMatrix>& relations() const { return relations_; }

  /// Human-readable name of the k-th relation (e.g. "SIGMOD", "co-author").
  const std::string& relation_name(std::size_t k) const;

  /// Human-readable name of class c (e.g. "DB", "thriller").
  const std::string& class_name(std::size_t c) const;

  /// Sparse n x d bag-of-words node features.
  const la::SparseMatrix& features() const { return features_; }

  /// Ground-truth label set of a node (sorted, possibly empty).
  const std::vector<std::uint32_t>& labels(std::size_t node) const;

  /// True if `node` carries class `c`.
  bool HasLabel(std::size_t node, std::size_t c) const;

  /// Primary (first) label of a node; requires a non-empty label set.
  std::uint32_t PrimaryLabel(std::size_t node) const;

  /// Single graph summing all relations (used by aggregate-link baselines).
  la::SparseMatrix AggregatedRelation() const;

  /// Total number of stored link entries across all relations.
  std::size_t NumLinks() const;

  /// Indices of nodes whose label set is non-empty.
  std::vector<std::size_t> NodesWithLabels() const;

  /// Applies a mutation batch in place. The batch is validated first
  /// (HinDelta::Validate); on any error the network is left untouched and
  /// the typed Status is returned. Defined in hin_delta.cc.
  Status ApplyDelta(const HinDelta& delta);

 private:
  friend class HinBuilder;

  std::size_t num_nodes_ = 0;
  std::vector<la::SparseMatrix> relations_;
  std::vector<std::string> relation_names_;
  std::vector<std::string> class_names_;
  la::SparseMatrix features_;
  std::vector<std::vector<std::uint32_t>> labels_;
};

}  // namespace tmark::hin

#endif  // TMARK_HIN_HIN_H_
