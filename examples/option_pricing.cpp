// Sparse grids in finance (one of the application domains Sec. 1 and the
// related work cite, e.g. Gaikwad & Toke's option pricing on GPUs):
// pre-compute a basket option price over a 5-dimensional parameter space,
// then answer pricing queries by interpolation instead of re-running the
// pricer.
//
// The "expensive pricer" here is a closed-form approximation of an
// arithmetic basket call (moment-matched Black-Scholes), deliberately
// costly enough per call that the pre-compute/interpolate trade-off is
// realistic. Since option prices do not vanish at the parameter-domain
// boundary, this example uses the non-zero-boundary extension of the
// compact data structure (paper Sec. 4.4).
#include <chrono>
#include <cmath>
#include <cstdio>

#include "csg/core.hpp"
#include "csg/workloads/sampling.hpp"

namespace {

using namespace csg;

/// Map [0,1]^5 to pricing inputs: spot ratio, volatility, rate, maturity,
/// basket correlation.
struct PricingInputs {
  double moneyness;    // S/K in [0.6, 1.4]
  double sigma;        // vol in [0.1, 0.5]
  double rate;         // r in [0.0, 0.08]
  double maturity;     // T in [0.1, 2.0]
  double correlation;  // rho in [0.0, 0.9]
};

PricingInputs decode(const CoordVector& x) {
  return {0.6 + 0.8 * x[0], 0.1 + 0.4 * x[1], 0.08 * x[2], 0.1 + 1.9 * x[3],
          0.9 * x[4]};
}

double norm_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

/// Moment-matched basket call on 4 equally weighted assets: the basket is
/// approximated as lognormal with variance reduced by correlation.
double basket_call_price(const PricingInputs& in) {
  const int assets = 4;
  const double w = 1.0 / assets;
  // Effective basket variance: w^2 * (n + n(n-1) rho) * sigma^2.
  const double var_scale =
      w * w * (assets + assets * (assets - 1) * in.correlation);
  const double sigma_b = in.sigma * std::sqrt(var_scale);
  const double st = sigma_b * std::sqrt(in.maturity);
  if (st < 1e-12) return std::max(in.moneyness - 1.0, 0.0);
  const double fwd = in.moneyness * std::exp(in.rate * in.maturity);
  const double d1 = (std::log(fwd) + 0.5 * st * st) / st;
  const double d2 = d1 - st;
  return std::exp(-in.rate * in.maturity) *
         (fwd * norm_cdf(d1) - norm_cdf(d2));
}

real_t pricer(const CoordVector& x) { return basket_call_price(decode(x)); }

}  // namespace

int main() {
  const dim_t d = 5;
  const level_t n = 6;

  // --- offline: sample the pricer on a boundary sparse grid ---
  BoundaryStorage surface(d, n);
  const auto t0 = std::chrono::steady_clock::now();
  surface.sample(pricer);
  hierarchize(surface);
  const double precompute_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("pre-computed basket option surface: %llu grid points "
              "(boundary grid, d=%u level %u) in %.2f s\n",
              static_cast<unsigned long long>(surface.size()), d, n,
              precompute_s);

  // --- online: interpolated pricing vs direct pricing ---
  const auto queries = workloads::halton_points(d, 5000);
  double max_abs_err = 0, mean_abs_err = 0;
  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<real_t> interpolated = evaluate(surface, queries);
  const double interp_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
          .count();
  const auto t2 = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const double exact = pricer(queries[q]);
    const double err = std::abs(interpolated[q] - exact);
    max_abs_err = std::max(max_abs_err, err);
    mean_abs_err += err;
  }
  const double direct_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t2)
          .count();
  mean_abs_err /= static_cast<double>(queries.size());

  std::printf("priced %zu parameter queries:\n", queries.size());
  std::printf("  interpolated: %8.2f us/query\n",
              interp_s / static_cast<double>(queries.size()) * 1e6);
  std::printf("  direct pricer:%8.2f us/query\n",
              direct_s / static_cast<double>(queries.size()) * 1e6);
  std::printf("  mean |error| = %.2e, max |error| = %.2e (option premium "
              "units)\n",
              mean_abs_err, max_abs_err);

  // A pricing sheet: moneyness x maturity at fixed vol/rate/correlation.
  std::printf("\nprice sheet (sigma=0.30, r=0.04, rho=0.45):\n          ");
  for (double m = 0.7; m <= 1.31; m += 0.1) std::printf("  S/K=%.1f", m);
  std::printf("\n");
  for (double T = 0.25; T <= 2.01; T += 0.25) {
    std::printf("  T=%4.2fy ", T);
    for (double m = 0.7; m <= 1.31; m += 0.1) {
      const CoordVector x{(m - 0.6) / 0.8, (0.30 - 0.1) / 0.4, 0.04 / 0.08,
                          (T - 0.1) / 1.9, 0.45 / 0.9};
      std::printf("  %7.4f", evaluate(surface, x));
    }
    std::printf("\n");
  }
  return 0;
}
