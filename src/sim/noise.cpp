#include "sim/noise.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

#include "la/grid.hpp"
#include "sim/mna.hpp"

namespace intooa::sim {

namespace {
constexpr double kBoltzmann = 1.380649e-23;

double psd_at(const AcSolver& solver, const circuit::Netlist& netlist,
              circuit::NetNode out, double freq_hz,
              const NoiseOptions& options) {
  const double four_kt = 4.0 * kBoltzmann * options.temperature_k;
  double total = 0.0;
  // Resistor thermal noise: S_I = 4kT/R between the element nodes.
  for (const auto& r : netlist.resistors()) {
    const auto z = solver.solve_current(freq_hz, r.n1, r.n2);
    const double zmag2 = std::norm(z[out]);
    total += four_kt / r.ohms * zmag2;
  }
  // Transconductor channel noise: S_I = 4kT*gamma*gm at the output port.
  for (const auto& g : netlist.vccs()) {
    const auto z = solver.solve_current(freq_hz, g.out_pos, g.out_neg);
    const double zmag2 = std::norm(z[out]);
    total += four_kt * options.gm_noise_gamma * std::fabs(g.gm) * zmag2;
  }
  return total;
}
}  // namespace

double output_noise_psd(const circuit::Netlist& netlist, const std::string& out,
                        double freq_hz, const NoiseOptions& options) {
  const auto out_node = netlist.find_node(out);
  if (!out_node) {
    throw std::invalid_argument("output_noise_psd: unknown node " + out);
  }
  const AcSolver solver(netlist);
  return psd_at(solver, netlist, *out_node, freq_hz, options);
}

NoiseResult run_noise(const circuit::Netlist& netlist, const std::string& out,
                      const NoiseOptions& options) {
  const auto out_node = netlist.find_node(out);
  if (!out_node) {
    throw std::invalid_argument("run_noise: unknown node " + out);
  }
  if (!(options.f_lo_hz > 0.0) || !(options.f_hi_hz > options.f_lo_hz)) {
    throw std::invalid_argument("run_noise: bad frequency range");
  }
  const double decades = std::log10(options.f_hi_hz / options.f_lo_hz);
  const std::size_t n = std::max<std::size_t>(
      2, static_cast<std::size_t>(decades * options.points_per_decade) + 1);

  NoiseResult result;
  result.freqs_hz = la::logspace(options.f_lo_hz, options.f_hi_hz, n);
  result.output_psd.reserve(n);
  result.input_psd.reserve(n);

  const AcSolver solver(netlist);
  const bool has_input = !netlist.vsources().empty();
  const std::vector<std::complex<double>> gain =
      has_input ? solver.sweep(result.freqs_hz, *out_node)
                : std::vector<std::complex<double>>{};
  for (std::size_t i = 0; i < n; ++i) {
    const double sout =
        psd_at(solver, netlist, *out_node, result.freqs_hz[i], options);
    result.output_psd.push_back(sout);
    double sin_ref = 0.0;
    if (has_input) {
      const double gain2 = std::norm(gain[i]);
      if (gain2 > 1e-24) sin_ref = sout / gain2;
    }
    result.input_psd.push_back(sin_ref);
  }

  // Trapezoidal integration over the (linear) frequency axis.
  for (std::size_t i = 1; i < n; ++i) {
    const double df = result.freqs_hz[i] - result.freqs_hz[i - 1];
    result.integrated_output_v2 +=
        0.5 * (result.output_psd[i] + result.output_psd[i - 1]) * df;
  }
  result.rms_output_v = std::sqrt(result.integrated_output_v2);
  return result;
}

}  // namespace intooa::sim
