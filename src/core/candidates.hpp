#pragma once
// Candidate generation strategy of Sec. III-D: each BO iteration scores a
// pool of unvisited candidate topologies, a `mutation_fraction` of which
// are single-expected-mutation neighbors of the current best topologies
// (local exploitation) and the rest uniform random samples of the whole
// space (global exploration). Setting mutation_fraction to 0 or 1 yields
// the INTO-OA-r / INTO-OA-m ablations of Sec. IV-A.

#include <cstddef>
#include <span>
#include <unordered_set>
#include <vector>

#include "circuit/topology.hpp"
#include "util/rng.hpp"

namespace intooa::core {

/// Pool-generation configuration (defaults = paper protocol).
struct CandidateConfig {
  std::size_t pool_size = 200;
  double mutation_fraction = 0.5;   ///< 0 = INTO-OA-r, 1 = INTO-OA-m
  double expected_mutations = 1.0;  ///< E[# mutated subcircuits] per child
  std::size_t max_attempts_factor = 50;  ///< bail-out for tiny residual spaces
};

/// Generates up to `config.pool_size` distinct, unvisited candidates.
/// `best_topologies` seeds the mutation half (callers pass the current
/// best designs, best first); when it is empty the whole pool falls back
/// to random sampling. Returns fewer candidates only when the unvisited
/// space is nearly exhausted.
std::vector<circuit::Topology> generate_candidates(
    const CandidateConfig& config,
    std::span<const circuit::Topology> best_topologies,
    const std::unordered_set<std::size_t>& visited, util::Rng& rng);

}  // namespace intooa::core
