#include "graph/wl.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace intooa::graph {

WlFeaturizer::WlFeaturizer(int max_h) : max_h_(max_h) {
  if (max_h < 0) throw std::invalid_argument("WlFeaturizer: max_h < 0");
}

namespace {

// SplitMix64's finalizer: every input bit reaches the low bits that index
// the probe table.
std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::uint64_t subtree_hash(std::uint32_t depth, std::uint32_t root,
                           const std::uint32_t* children, std::size_t count) {
  std::uint64_t h = mix((std::uint64_t{depth} << 32) | root);
  for (std::size_t i = 0; i < count; ++i) h = mix(h ^ children[i]);
  return h;
}

}  // namespace

std::size_t WlFeaturizer::intern_raw(const std::string& label) {
  const auto [it, inserted] = raw_ids_.try_emplace(label, labels_.size());
  if (inserted) {
    labels_.push_back(
        {0, static_cast<std::uint32_t>(raw_labels_.size()), 0, 0});
    raw_labels_.push_back(label);
  }
  return it->second;
}

std::size_t WlFeaturizer::intern_subtree(
    std::uint32_t depth, std::uint32_t root,
    const std::vector<std::uint32_t>& children) {
  const std::size_t subtrees = labels_.size() - raw_labels_.size();
  if (2 * (subtrees + 1) > slots_.size()) grow_slots();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i =
           subtree_hash(depth, root, children.data(), children.size()) & mask;
       ; i = (i + 1) & mask) {
    std::uint32_t& slot = slots_[i];
    if (slot == 0) {
      const auto id = static_cast<std::uint32_t>(labels_.size());
      labels_.push_back({depth, root,
                         static_cast<std::uint32_t>(children_.size()),
                         static_cast<std::uint32_t>(children.size())});
      children_.insert(children_.end(), children.begin(), children.end());
      slot = id + 1;
      return id;
    }
    const Label& l = labels_[slot - 1];
    if (l.depth == depth && l.root == root && l.count == children.size() &&
        std::equal(children.begin(), children.end(),
                   children_.begin() + l.first)) {
      return slot - 1;
    }
  }
}

void WlFeaturizer::grow_slots() {
  std::vector<std::uint32_t> old = std::exchange(
      slots_, std::vector<std::uint32_t>(
                  std::max<std::size_t>(64, 2 * slots_.size()), 0));
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t slot : old) {
    if (slot == 0) continue;
    const Label& l = labels_[slot - 1];
    std::size_t i =
        subtree_hash(l.depth, l.root, children_.data() + l.first, l.count) &
        mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::vector<std::vector<std::size_t>> WlFeaturizer::node_labels(const Graph& g,
                                                                int h) {
  if (h < 0 || h > max_h_) {
    throw std::invalid_argument("WlFeaturizer::node_labels: h out of range");
  }
  const std::size_t n = g.node_count();
  std::vector<std::vector<std::size_t>> levels;
  levels.reserve(static_cast<std::size_t>(h) + 1);

  // Iteration 0: raw node labels.
  std::vector<std::size_t> current(n);
  for (NodeId v = 0; v < n; ++v) current[v] = intern_raw(g.label(v));
  levels.push_back(current);

  // Iterations 1..h: neighborhood aggregation + label compression (the
  // "hash" of Fig. 4(c)), keyed by the integer ids themselves.
  std::vector<std::uint32_t> neigh;
  for (int iter = 1; iter <= h; ++iter) {
    std::vector<std::size_t> next(n);
    for (NodeId v = 0; v < n; ++v) {
      neigh.clear();
      for (NodeId u : g.neighbors(v)) {
        neigh.push_back(static_cast<std::uint32_t>(current[u]));
      }
      std::sort(neigh.begin(), neigh.end());
      next[v] = intern_subtree(static_cast<std::uint32_t>(iter),
                               static_cast<std::uint32_t>(current[v]), neigh);
    }
    current = std::move(next);
    levels.push_back(current);
  }
  return levels;
}

SparseVec WlFeaturizer::features(const Graph& g, int h) {
  INTOOA_SPAN("wl.featurize");
  SparseVec phi;
  for (const auto& level : node_labels(g, h)) {
    for (std::size_t id : level) phi.add(id, 1.0);
  }
  static obs::Gauge& label_gauge = obs::registry().gauge("wl.label_count");
  label_gauge.set_max(static_cast<double>(label_count()));
  return phi;
}

int WlFeaturizer::depth_of(std::size_t id) const {
  if (id >= labels_.size()) {
    throw std::out_of_range("WlFeaturizer::depth_of: unknown label id");
  }
  return static_cast<int>(labels_[id].depth);
}

std::string WlFeaturizer::provenance(std::size_t id) const {
  if (id >= labels_.size()) {
    throw std::out_of_range("WlFeaturizer::provenance: unknown label id");
  }
  std::string out;
  render(id, out);
  return out;
}

void WlFeaturizer::render(std::size_t id, std::string& out) const {
  const Label& l = labels_[id];
  if (l.depth == 0) {
    out += raw_labels_[l.root];
    return;
  }
  render(l.root, out);
  out += '{';
  for (std::size_t i = 0; i < l.count; ++i) {
    if (i) out += ',';
    render(children_[l.first + i], out);
  }
  out += '}';
}

SparseVec filter_by_depth(const SparseVec& full, const WlFeaturizer& featurizer,
                          int h) {
  SparseVec out;
  for (const auto& [idx, val] : full.entries()) {
    if (featurizer.depth_of(idx) <= h) out.add(idx, val);
  }
  return out;
}

double wl_kernel(WlFeaturizer& featurizer, const Graph& a, const Graph& b,
                 int h) {
  return dot(featurizer.features(a, h), featurizer.features(b, h));
}

double wl_kernel_normalized(WlFeaturizer& featurizer, const Graph& a,
                            const Graph& b, int h) {
  const SparseVec fa = featurizer.features(a, h);
  const SparseVec fb = featurizer.features(b, h);
  const double denom = fa.norm() * fb.norm();
  if (denom == 0.0) return 0.0;
  return dot(fa, fb) / denom;
}

}  // namespace intooa::graph
