#pragma once
// Weisfeiler–Lehman subtree features and kernel (Shervashidze et al. [17]),
// specialized for circuit graphs as in Sec. III-B of the paper.
//
// A WlFeaturizer owns a *persistent, shared* label dictionary: the same
// subcircuit structure maps to the same global feature index in every graph
// it has ever featurized. This is what makes the WL-GP gradient
// interpretable — feature j always denotes one specific circuit structure,
// whose human-readable description the featurizer can report
// (`provenance(j)`).
//
// The dictionary stores each label as structure, never as text: a depth-0
// label names a raw node label, and a deeper label names its root label id
// plus the sorted ids of its neighbours' labels, one level shallower. The
// readable string is rendered from that structure on request. (A stored,
// fully expanded depth-6 string repeats every shallower one it contains;
// for a campaign's ~10^5 labels that is a gigabyte.)

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "graph/sparse.hpp"

namespace intooa::graph {

/// WL feature extractor with a growing shared label dictionary.
class WlFeaturizer {
 public:
  /// `max_h` bounds the iteration depth accepted by `features` (the paper
  /// notes h <= 6 suffices for these 13-node circuit graphs).
  explicit WlFeaturizer(int max_h = 6);

  /// Extracts the WL feature vector of `g` with `h` refinement iterations:
  /// the concatenated label counts of iterations 0..h (Fig. 4 of the
  /// paper). New structures extend the shared dictionary; indices of
  /// previously seen structures are stable.
  SparseVec features(const Graph& g, int h);

  /// Per-node compressed label ids at each refinement depth:
  /// result[d][v] is the global feature id of node v after d iterations
  /// (d = 0..h). This is the node-to-structure attribution used by the
  /// interpretability layer: the depth-1 id of a subcircuit node uniquely
  /// names that subcircuit-in-context (e.g. "-gmRs{v2,vin}").
  std::vector<std::vector<std::size_t>> node_labels(const Graph& g, int h);

  /// Maximum iteration depth this featurizer accepts.
  int max_h() const { return max_h_; }

  /// Total number of distinct labels (= feature dimensions) discovered so
  /// far across all featurized graphs.
  std::size_t label_count() const { return labels_.size(); }

  /// WL iteration depth at which feature `id` appears (0 = raw node label).
  int depth_of(std::size_t id) const;

  /// Human-readable description of the circuit structure feature `id`
  /// counts. Depth-0 features are plain node labels ("RCs", "v1", ...);
  /// deeper features show the rooted subtree, e.g. "RCs{v1,vout}".
  std::string provenance(std::size_t id) const;

 private:
  /// One dictionary entry (16 bytes; a campaign dictionary holds ~10^5).
  /// Depth 0: `root` indexes `raw_labels_`. Deeper: `root` is the node's
  /// own label id one level shallower, and children_[first, first + count)
  /// its neighbours' label ids, sorted.
  struct Label {
    std::uint32_t depth;
    std::uint32_t root;
    std::uint32_t first;
    std::uint32_t count;
  };

  std::size_t intern_raw(const std::string& label);
  /// Id of the label (depth, root, sorted `children`), interned in
  /// first-seen order.
  std::size_t intern_subtree(std::uint32_t depth, std::uint32_t root,
                             const std::vector<std::uint32_t>& children);
  /// Doubles `slots_` and re-inserts every depth >= 1 label.
  void grow_slots();
  void render(std::size_t id, std::string& out) const;

  int max_h_;
  std::unordered_map<std::string, std::size_t> raw_ids_;
  std::vector<std::string> raw_labels_;
  std::vector<Label> labels_;
  std::vector<std::uint32_t> children_;
  /// Open-addressed (linear probing) index of the depth >= 1 labels:
  /// label id + 1, 0 = empty. Kept at most half full.
  std::vector<std::uint32_t> slots_;
};

/// Restriction of a full-depth feature vector to the entries of WL depth
/// <= h (the per-h feature view of Eq. 2). Full-depth vectors are computed
/// once per graph; every depth the hyperparameter search considers is a
/// filter of that one vector.
SparseVec filter_by_depth(const SparseVec& full, const WlFeaturizer& featurizer,
                          int h);

/// WL kernel of Eq. 2: inner product of the two graphs' feature vectors
/// under a shared featurizer.
double wl_kernel(WlFeaturizer& featurizer, const Graph& a, const Graph& b,
                 int h);

/// Cosine-normalized variant k(a,b)/sqrt(k(a,a) k(b,b)); used by the WL-GP
/// where it improves conditioning (self-similarity becomes exactly 1).
double wl_kernel_normalized(WlFeaturizer& featurizer, const Graph& a,
                            const Graph& b, int h);

}  // namespace intooa::graph
