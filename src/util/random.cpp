#include "util/random.hpp"

#include <cmath>

#include "util/errors.hpp"

namespace hammer::util {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Pcg32::next_u32() {
  std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint64_t Pcg32::next_u64() {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

std::uint64_t Pcg32::uniform(std::uint64_t lo, std::uint64_t hi) {
  HAMMER_CHECK(lo <= hi);
  std::uint64_t range = hi - lo + 1;
  if (range == 0) return next_u64();  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + v % range;
}

double Pcg32::uniform01() {
  return static_cast<double>(next_u32()) / 4294967296.0;
}

double Pcg32::gaussian(double mean, double stddev) {
  if (has_spare_gauss_) {
    has_spare_gauss_ = false;
    return mean + stddev * spare_gauss_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform01() - 1.0;
    v = 2.0 * uniform01() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_gauss_ = v * factor;
  has_spare_gauss_ = true;
  return mean + stddev * u * factor;
}

bool Pcg32::chance(double p) { return uniform01() < p; }

std::string Pcg32::alnum(std::size_t n) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out(n, '\0');
  for (auto& c : out) c = kAlphabet[uniform(0, sizeof(kAlphabet) - 2)];
  return out;
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index) {
  // splitmix64 finalizer (Steele et al.) over the offset master state.
  std::uint64_t z = master + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t seed, std::uint64_t kind, std::uint64_t key) {
  // Top 53 bits: every double in [0, 1) on a 2^-53 grid.
  return static_cast<double>(derive_seed(derive_seed(seed, kind), key) >> 11) * 0x1.0p-53;
}

namespace {
double zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(static_cast<double>(i), theta);
  return sum;
}
}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  HAMMER_CHECK(n > 0);
  HAMMER_CHECK(theta >= 0.0 && theta < 1.0);
  zetan_ = zeta(n, theta);
  zeta2theta_ = zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2theta_ / zetan_);
}

std::uint64_t ZipfSampler::sample(Pcg32& rng) const {
  if (theta_ == 0.0) return rng.uniform(0, n_ - 1);
  double u = rng.uniform01();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto idx = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (idx >= n_) idx = n_ - 1;
  return idx;
}

}  // namespace hammer::util
