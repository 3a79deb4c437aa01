#include "core/candidates.hpp"

#include <stdexcept>

namespace intooa::core {

std::vector<circuit::Topology> generate_candidates(
    const CandidateConfig& config,
    std::span<const circuit::Topology> best_topologies,
    const std::unordered_set<std::size_t>& visited, util::Rng& rng) {
  if (config.pool_size == 0) {
    throw std::invalid_argument("generate_candidates: empty pool requested");
  }
  if (config.mutation_fraction < 0.0 || config.mutation_fraction > 1.0) {
    throw std::invalid_argument(
        "generate_candidates: mutation_fraction out of [0,1]");
  }

  std::vector<circuit::Topology> pool;
  pool.reserve(config.pool_size);
  std::unordered_set<std::size_t> taken;  // avoid duplicates within the pool

  auto try_add = [&](const circuit::Topology& topo) {
    const std::size_t key = topo.index();
    if (visited.count(key) || taken.count(key)) return false;
    taken.insert(key);
    pool.push_back(topo);
    return true;
  };

  const std::size_t want_mutants =
      best_topologies.empty()
          ? 0
          : static_cast<std::size_t>(config.mutation_fraction *
                                     static_cast<double>(config.pool_size));
  const std::size_t max_attempts =
      config.pool_size * config.max_attempts_factor;

  // Mutation half: cycle through the seed designs, each child one expected
  // mutation away from its parent.
  std::size_t attempts = 0;
  while (pool.size() < want_mutants && attempts < max_attempts) {
    const circuit::Topology& parent =
        best_topologies[attempts % best_topologies.size()];
    try_add(parent.mutated(rng, config.expected_mutations));
    ++attempts;
  }

  // Random half (and any shortfall of the mutation half).
  attempts = 0;
  while (pool.size() < config.pool_size && attempts < max_attempts) {
    try_add(circuit::Topology::random(rng));
    ++attempts;
  }
  return pool;
}

}  // namespace intooa::core
