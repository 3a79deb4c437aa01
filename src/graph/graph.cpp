#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace intooa::graph {

NodeId Graph::add_node(std::string label) {
  labels_.push_back(std::move(label));
  adjacency_.emplace_back();
  return labels_.size() - 1;
}

void Graph::add_edge(NodeId a, NodeId b) {
  check(a);
  check(b);
  if (a == b) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (has_edge(a, b)) return;
  auto insert_sorted = [](std::vector<NodeId>& list, NodeId v) {
    list.insert(std::upper_bound(list.begin(), list.end(), v), v);
  };
  insert_sorted(adjacency_[a], b);
  insert_sorted(adjacency_[b], a);
  ++edge_count_;
}

const std::string& Graph::label(NodeId id) const {
  check(id);
  return labels_[id];
}

const std::vector<NodeId>& Graph::neighbors(NodeId id) const {
  check(id);
  return adjacency_[id];
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  check(a);
  check(b);
  const auto& list = adjacency_[a];
  return std::binary_search(list.begin(), list.end(), b);
}

bool Graph::is_connected() const {
  if (labels_.empty()) return true;
  std::vector<bool> seen(labels_.size(), false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    for (NodeId next : adjacency_[cur]) {
      if (!seen[next]) {
        seen[next] = true;
        ++visited;
        stack.push_back(next);
      }
    }
  }
  return visited == labels_.size();
}

std::string Graph::to_string() const {
  std::string out;
  for (NodeId id = 0; id < labels_.size(); ++id) {
    out += std::to_string(id) + " [" + labels_[id] + "]:";
    for (NodeId n : adjacency_[id]) {
      out += ' ';
      out += std::to_string(n);
    }
    out += "\n";
  }
  return out;
}

void Graph::check(NodeId id) const {
  if (id >= labels_.size()) {
    throw std::out_of_range("Graph: node id out of range");
  }
}

}  // namespace intooa::graph
