#pragma once
// Modified Nodal Analysis AC solver — the substrate that replaces Hspice's
// .AC analysis for this project's linear(ized) netlists (see DESIGN.md,
// substitution table). Unknowns are the non-ground node voltages plus one
// branch current per independent voltage source; the system
//
//   (G + j*omega*C) x = b
//
// is assembled once as real G and C matrices and solved per frequency with
// complex LU; a sweep refactorizes one LU in place across its frequencies.

#include <complex>
#include <span>
#include <vector>

#include "circuit/netlist.hpp"
#include "la/matrix.hpp"

namespace intooa::sim {

/// AC small-signal solver bound to one netlist.
class AcSolver {
 public:
  /// Assembles the stamps. Throws std::invalid_argument when the netlist
  /// has no nodes besides ground.
  explicit AcSolver(const circuit::Netlist& netlist);

  /// Number of MNA unknowns (node voltages + source branch currents).
  std::size_t order() const { return order_; }

  /// Solves at frequency `freq_hz` (>= 0) and returns the complex voltage
  /// of every netlist node, indexed by NetNode (ground = exactly 0).
  /// Throws la::SingularMatrixError when the system is singular at this
  /// frequency.
  std::vector<std::complex<double>> solve(double freq_hz) const;

  /// Solves at every frequency of `freqs_hz` (each >= 0) and returns the
  /// complex voltage of `node` at each, in order: element i is exactly
  /// solve(freqs_hz[i])[node]. One matrix, LU and solution buffer serve
  /// the whole sweep, so no point allocates. Throws like solve() at the
  /// first failing frequency.
  std::vector<std::complex<double>> sweep(std::span<const double> freqs_hz,
                                          circuit::NetNode node) const;

  /// Solves with the independent sources zeroed and a unit AC current
  /// injected into `inj_pos` and drawn from `inj_neg` — the transimpedance
  /// response used by the noise analysis to propagate element noise
  /// currents to the output.
  std::vector<std::complex<double>> solve_current(double freq_hz,
                                                  circuit::NetNode inj_pos,
                                                  circuit::NetNode inj_neg) const;

  /// Convenience: voltage of one node at one frequency.
  std::complex<double> node_voltage(double freq_hz,
                                    circuit::NetNode node) const;

  /// Natural frequencies (poles) of the network with independent sources
  /// zeroed: the s_k solving det(G + s C) = 0 over the capacitive modes.
  /// Used to reject open-loop-unstable designs (RHP poles) whose AC
  /// response would be physically meaningless.
  std::vector<std::complex<double>> poles() const;

  /// The assembled real conductance / capacitance stamp matrices.
  const la::MatrixD& conductance() const { return g_; }
  const la::MatrixD& capacitance() const { return c_; }

 private:
  std::size_t node_count_;  // includes ground
  std::size_t order_;
  la::MatrixD g_;  // conductance stamps (real part at DC)
  la::MatrixD c_;  // capacitance stamps (scaled by j*omega)
  std::vector<double> rhs_;
};

}  // namespace intooa::sim
