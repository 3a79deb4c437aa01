// Unit tests for intooa::sim — MNA stamps against hand-solved circuits,
// AC sweeps, phase unwrapping, metric extraction, pole analysis and the
// open-loop stability guard.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <string>
#include <vector>

#include "circuit/behavioral.hpp"
#include "circuit/library.hpp"
#include "sim/metrics.hpp"
#include "sim/mna.hpp"
#include "la/grid.hpp"
#include "reference_lu.hpp"
#include "util/rng.hpp"

namespace {

using namespace intooa;
using namespace intooa::sim;

constexpr double kPi = std::numbers::pi;

TEST(Mna, ResistiveDivider) {
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto mid = net.node("mid");
  net.add_vsource("src", in, 0, 1.0);
  net.add_resistor("r1", in, mid, 1e3);
  net.add_resistor("r2", mid, 0, 3e3);
  const AcSolver solver(net);
  const auto v = solver.solve(0.0);
  EXPECT_NEAR(v[in].real(), 1.0, 1e-12);
  EXPECT_NEAR(v[mid].real(), 0.75, 1e-12);
  EXPECT_NEAR(v[mid].imag(), 0.0, 1e-12);
}

TEST(Mna, RcLowpassPole) {
  // R = 1k, C = 1u -> fc = 1/(2 pi R C) ~= 159.15 Hz.
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto out = net.node("out");
  net.add_vsource("src", in, 0, 1.0);
  net.add_resistor("r", in, out, 1e3);
  net.add_capacitor("c", out, 0, 1e-6);
  const AcSolver solver(net);
  const double fc = 1.0 / (2.0 * kPi * 1e3 * 1e-6);
  const auto v = solver.solve(fc);
  EXPECT_NEAR(std::abs(v[out]), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(std::arg(v[out]) * 180.0 / kPi, -45.0, 1e-3);
  // Pole from eigenanalysis.
  const auto poles = solver.poles();
  ASSERT_EQ(poles.size(), 1u);
  EXPECT_NEAR(poles[0].real(), -2.0 * kPi * fc, 1.0);
}

TEST(Mna, VccsPolarityAndGain) {
  // Inverting transconductor into a load resistor: vout = -gm*R*vin.
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto out = net.node("out");
  net.add_vsource("src", in, 0, 1.0);
  net.add_vccs("g", out, 0, in, 0, -2e-3, 0.0);
  net.add_resistor("rl", out, 0, 10e3);
  const auto v = AcSolver(net).solve(0.0);
  EXPECT_NEAR(v[out].real(), -20.0, 1e-9);
}

TEST(Mna, VccsPositivePolarity) {
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto out = net.node("out");
  net.add_vsource("src", in, 0, 1.0);
  net.add_vccs("g", out, 0, in, 0, 1e-3, 0.0);
  net.add_resistor("rl", out, 0, 5e3);
  const auto v = AcSolver(net).solve(0.0);
  EXPECT_NEAR(v[out].real(), 5.0, 1e-9);
}

TEST(Mna, TwoSourcesSuperpose) {
  circuit::Netlist net;
  const auto a = net.node("a");
  const auto b = net.node("b");
  net.add_vsource("s1", a, 0, 2.0);
  net.add_vsource("s2", b, 0, 3.0);
  net.add_resistor("r", a, b, 1e3);
  const auto v = AcSolver(net).solve(0.0);
  EXPECT_NEAR(v[a].real(), 2.0, 1e-12);
  EXPECT_NEAR(v[b].real(), 3.0, 1e-12);
}

TEST(Mna, EmptyNetlistRejected) {
  circuit::Netlist net;
  EXPECT_THROW(AcSolver{net}, std::invalid_argument);
}

TEST(Mna, NegativeFrequencyRejected) {
  circuit::Netlist net;
  const auto a = net.node("a");
  net.add_resistor("r", a, 0, 1e3);
  EXPECT_THROW(AcSolver(net).solve(-1.0), std::invalid_argument);
}

TEST(RunAc, GridRespectsOptions) {
  circuit::Netlist net;
  const auto in = net.node("in");
  net.add_vsource("src", in, 0, 1.0);
  net.add_resistor("r", in, 0, 1e3);
  AcOptions opts;
  opts.f_min_hz = 1.0;
  opts.f_max_hz = 1e3;
  opts.points_per_decade = 10;
  const AcSweep sweep = run_ac(net, "in", opts);
  EXPECT_EQ(sweep.freqs_hz.size(), 31u);
  EXPECT_NEAR(sweep.freqs_hz.front(), 1.0, 1e-9);
  EXPECT_NEAR(sweep.freqs_hz.back(), 1e3, 1e-6);
  EXPECT_THROW(run_ac(net, "nope", opts), std::invalid_argument);
}

TEST(Phase, UnwrapAccumulatesSmoothLag) {
  // Three-pole response sweeps through -270 degrees without wrapping
  // artifacts.
  circuit::Netlist net;
  const auto in = net.node("in");
  auto prev = in;
  net.add_vsource("src", in, 0, 1.0);
  for (int i = 0; i < 3; ++i) {
    const std::string idx = std::to_string(i);
    const auto next = net.node("n" + idx);
    net.add_vccs("g" + idx, next, 0, prev, 0, -1e-3, 0.0);
    net.add_resistor("r" + idx, next, 0, 10e3);
    net.add_capacitor("c" + idx, next, 0, 1e-9);
    prev = next;
  }
  const AcSweep sweep = run_ac(net, "n2");
  const auto phase = unwrapped_phase_deg(sweep);
  // Total asymptotic lag of three poles: 270 degrees.
  EXPECT_NEAR(phase.front() - phase.back(), 270.0, 5.0);
  EXPECT_TRUE(std::is_sorted(phase.rbegin(), phase.rend()));
}

TEST(Metrics, SinglePoleAmplifier) {
  // H(s) = A / (1 + s/p): gain A = gm*R = 100 (40 dB),
  // GBW ~= A * fp = gm/(2 pi C).
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto out = net.node("out");
  net.add_vsource("src", in, 0, 1.0);
  net.add_vccs("g", out, 0, in, 0, -1e-3, 50e-6);
  net.add_resistor("r", out, 0, 100e3);
  net.add_capacitor("c", out, 0, 100e-12);
  const auto perf = evaluate_opamp(net, 1.8, "out");
  ASSERT_TRUE(perf.valid) << perf.failure;
  EXPECT_NEAR(perf.gain_db, 40.0, 0.05);
  const double gbw_expected = 1e-3 / (2.0 * kPi * 100e-12);
  EXPECT_NEAR(perf.gbw_hz / gbw_expected, 1.0, 0.02);
  // Single pole: phase margin ~= 90 degrees.
  EXPECT_NEAR(perf.pm_deg, 90.0, 2.0);
  EXPECT_NEAR(perf.power_w, 1.8 * 50e-6, 1e-12);
}

TEST(Metrics, TwoPolePhaseMargin) {
  // Second pole at the dominant-pole GBW: the magnitude droop moves the
  // unity crossing down to x*sqrt(1+x^2)=1 => x ~= 0.786 of GBW, so the
  // exact phase margin is 90 - atan(0.786) ~= 51.8 degrees.
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto mid = net.node("mid");
  const auto out = net.node("out");
  net.add_vsource("src", in, 0, 1.0);
  net.add_vccs("g1", mid, 0, in, 0, -1e-3, 0.0);
  net.add_resistor("r1", mid, 0, 100e3);
  net.add_capacitor("c1", mid, 0, 1e-9);
  // Unity-gain buffer stage with pole at gbw of stage 1.
  const double gbw1 = 1e-3 / (2.0 * kPi * 1e-9);
  net.add_vccs("g2", out, 0, mid, 0, -1e-4, 0.0);
  net.add_resistor("r2", out, 0, 10e3);  // gain 1
  net.add_capacitor("c2", out, 0, 1.0 / (2.0 * kPi * gbw1 * 10e3));
  const auto perf = evaluate_opamp(net, 1.8, "out");
  ASSERT_TRUE(perf.valid) << perf.failure;
  EXPECT_NEAR(perf.pm_deg, 51.8, 3.0);
}

TEST(Metrics, SubUnityGainInvalid) {
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto out = net.node("out");
  net.add_vsource("src", in, 0, 1.0);
  net.add_vccs("g", out, 0, in, 0, -1e-6, 0.0);
  net.add_resistor("r", out, 0, 1e3);  // gain 0.001
  net.add_capacitor("c", out, 0, 1e-12);
  const auto perf = evaluate_opamp(net, 1.8, "out");
  EXPECT_FALSE(perf.valid);
  EXPECT_NE(perf.failure.find("dc gain"), std::string::npos);
}

TEST(Metrics, NoUnityCrossingInvalid) {
  // Pure resistive gain never crosses unity inside the sweep.
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto out = net.node("out");
  net.add_vsource("src", in, 0, 1.0);
  net.add_vccs("g", out, 0, in, 0, -1e-3, 0.0);
  net.add_resistor("r", out, 0, 100e3);
  AcOptions opts;
  opts.check_stability = false;
  const auto perf = evaluate_opamp(net, 1.8, "out", opts);
  EXPECT_FALSE(perf.valid);
  EXPECT_NE(perf.failure.find("no unity-gain crossing"), std::string::npos);
}

TEST(Metrics, UnstableCircuitRejected) {
  // Positive feedback: gm into its own control node with gain > 1 makes an
  // RHP pole; the stability guard must reject it.
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto out = net.node("out");
  net.add_vsource("src", in, 0, 1.0);
  net.add_resistor("rin", in, out, 1e6);
  net.add_vccs("g", out, 0, out, 0, 2e-3, 0.0);  // negative resistance
  net.add_resistor("r", out, 0, 1e3);
  net.add_capacitor("c", out, 0, 1e-12);
  const auto perf = evaluate_opamp(net, 1.8, "out");
  EXPECT_FALSE(perf.valid);
  EXPECT_NE(perf.failure.find("unstable"), std::string::npos);

  // With the guard disabled the AC response is computable.
  AcOptions opts;
  opts.check_stability = false;
  EXPECT_NO_THROW(run_ac(net, "out", opts));
}

TEST(Metrics, NmcAmplifierMatchesMillerTheory) {
  // The classic NMC topology: GBW ~= gm1 / (2 pi Cm).
  circuit::BehavioralConfig cfg;
  cfg.load_cap = 10e-12;
  const auto topo = circuit::named_topology("NMC");
  // Sized so the non-dominant complex pair never lifts |H| back above
  // unity (single-Miller three-stage amps are only robust at modest GBW).
  const std::vector<double> vals = {10e-6, 100e-6, 2e-3, 2e-12};
  const auto net = circuit::build_behavioral(topo, vals, cfg);
  const auto perf = evaluate_opamp(net, cfg.vdd);
  ASSERT_TRUE(perf.valid) << perf.failure;
  const double gbw_miller = 10e-6 / (2.0 * kPi * 2e-12);
  EXPECT_NEAR(perf.gbw_hz / gbw_miller, 1.0, 0.15);
  EXPECT_GT(perf.pm_deg, 45.0);
  // Unloaded three-stage gain = A0^3.
  EXPECT_NEAR(perf.gain_db, 60.0 * std::log10(cfg.stage_intrinsic_gain) / 1.0,
              1.0);
}

TEST(Metrics, BareThreeStageIsUnstableInPhase) {
  // Without compensation the three-stage amp has PM << 0 (or is flagged).
  circuit::BehavioralConfig cfg;
  cfg.load_cap = 10e-12;
  const auto net = circuit::build_behavioral(
      circuit::Topology(), std::vector<double>{100e-6, 100e-6, 1e-3}, cfg);
  const auto perf = evaluate_opamp(net, cfg.vdd);
  if (perf.valid) {
    EXPECT_LT(perf.pm_deg, 20.0);
  }
}

TEST(Metrics, PowerIndependentOfFrequencyGrid) {
  circuit::BehavioralConfig cfg;
  const auto net = circuit::build_behavioral(
      circuit::named_topology("NMC"),
      std::vector<double>{50e-6, 50e-6, 5e-4, 1e-12}, cfg);
  const double expected =
      cfg.vdd * (50e-6 + 50e-6 + 5e-4) / cfg.gm_over_id;
  AcOptions coarse;
  coarse.points_per_decade = 4;
  EXPECT_NEAR(evaluate_opamp(net, cfg.vdd, "vout", coarse).power_w, expected,
              1e-12);
}

TEST(Metrics, SweepTooShortFails) {
  AcSweep sweep;
  sweep.freqs_hz = {1.0};
  sweep.transfer = {{1.0, 0.0}};
  const auto perf = extract_performance(sweep, 0.0);
  EXPECT_FALSE(perf.valid);
}

TEST(Metrics, NonFiniteResponseFails) {
  AcSweep sweep;
  sweep.freqs_hz = {1.0, 10.0};
  sweep.transfer = {{1e3, 0.0}, {std::nan(""), 0.0}};
  const auto perf = extract_performance(sweep, 0.0);
  EXPECT_FALSE(perf.valid);
  EXPECT_NE(perf.failure.find("non-finite"), std::string::npos);
}

// ---- Oracle: the allocation-free sweep against the per-point reference solve

using Cx = std::complex<double>;

// AcSolver::solve(f)[node] exactly as it stood before the sweep: assemble
// G + j*omega*C, factorize with the reference LU, solve against the source
// vector rebuilt from the netlist.
Cx reference_solve(const AcSolver& solver, const circuit::Netlist& net, double f,
              circuit::NetNode node) {
  const std::size_t n = solver.order();
  const double omega = 2.0 * std::numbers::pi * f;
  la::MatrixC a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = {solver.conductance()(i, j), omega * solver.capacitance()(i, j)};
    }
  }
  std::vector<Cx> b(n);
  const std::size_t nv = net.node_count() - 1;
  for (std::size_t k = 0; k < net.vsources().size(); ++k) {
    b[nv + k] = net.vsources()[k].amplitude;
  }
  const oracle::ReferenceLu<Cx> lu(std::move(a));
  const auto x = lu.solve(b);
  return node == 0 ? Cx{} : x[node - 1];
}

TEST(AcSweepOracle, MatchesReferencePerFrequencySolveOnRandomTopologies) {
  util::Rng rng(77);
  const circuit::BehavioralConfig cfg;
  AcOptions opts;
  opts.check_stability = false;  // unstable designs are swept too
  std::size_t swept = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto topo = circuit::Topology::random(rng);
    const auto schema = circuit::make_schema(topo, cfg);
    std::vector<double> unit(schema.size());
    for (auto& u : unit) u = rng.uniform();
    const auto net = circuit::build_behavioral(topo, schema.from_unit(unit), cfg);
    const auto out = *net.find_node("vout");
    const AcSolver solver(net);
    SCOPED_TRACE(topo.to_string());
    // The full grid of run_ac (log grid plus resonance refinements).
    AcSweep sweep;
    try {
      sweep = run_ac(net, "vout", opts);
    } catch (const la::SingularMatrixError& e) {
      // The reference must fail at some grid point with the same message.
      bool threw = false;
      for (double f : la::logspace(opts.f_min_hz, opts.f_max_hz, 193)) {
        try {
          reference_solve(solver, net, f, out);
        } catch (const la::SingularMatrixError& ref) {
          EXPECT_EQ(std::string(ref.what()), e.what());
          threw = true;
          break;
        }
      }
      EXPECT_TRUE(threw);
      continue;
    }
    ASSERT_EQ(sweep.transfer.size(), sweep.freqs_hz.size());
    const auto direct = solver.sweep(sweep.freqs_hz, out);
    for (std::size_t i = 0; i < sweep.freqs_hz.size(); ++i) {
      const Cx want = reference_solve(solver, net, sweep.freqs_hz[i], out);
      ASSERT_TRUE(oracle::same_bits(want, sweep.transfer[i]))
          << "f = " << sweep.freqs_hz[i];
      ASSERT_TRUE(oracle::same_bits(want, direct[i]));
      ASSERT_TRUE(oracle::same_bits(want, solver.solve(sweep.freqs_hz[i])[out]));
    }
    ++swept;
  }
  EXPECT_GT(swept, 30u);
}

TEST(AcSweepOracle, SingularPointThrowsLikeTheReference) {
  // A node reached only through a capacitor floats at DC: the sweep throws
  // at f = 0 with the reference's message, and solves the later points.
  circuit::Netlist net;
  const auto in = net.node("in");
  const auto mid = net.node("mid");
  net.add_vsource("src", in, 0, 1.0);
  net.add_capacitor("c1", in, mid, 1e-12);
  const AcSolver solver(net);
  std::string reference_error;
  try {
    reference_solve(solver, net, 0.0, mid);
  } catch (const la::SingularMatrixError& e) {
    reference_error = e.what();
  }
  ASSERT_FALSE(reference_error.empty());
  const std::vector<double> freqs = {0.0, 1e3};
  try {
    solver.sweep(freqs, mid);
    ADD_FAILURE() << "sweep did not throw";
  } catch (const la::SingularMatrixError& e) {
    EXPECT_EQ(std::string(e.what()), reference_error);
  }
  const std::vector<double> later = {1e3, 1e6};
  const auto v = solver.sweep(later, mid);
  for (std::size_t i = 0; i < later.size(); ++i) {
    EXPECT_TRUE(oracle::same_bits(v[i], reference_solve(solver, net, later[i], mid)));
  }
  EXPECT_THROW(solver.sweep(later, 99), std::out_of_range);
}

}  // namespace
