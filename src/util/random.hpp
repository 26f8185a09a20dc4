// Deterministic pseudo-random utilities.
//
// Pcg32 is a small, fast, reproducible generator (O'Neill's PCG-XSH-RR);
// ZipfSampler implements the Gray et al. rejection-free power-law sampler
// used by YCSB so workload skew matches the literature.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hammer::util {

class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  std::uint32_t next_u32();
  std::uint64_t next_u64();

  // Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  // Uniform double in [0, 1).
  double uniform01();

  // Gaussian via Box-Muller.
  double gaussian(double mean = 0.0, double stddev = 1.0);

  // True with probability p.
  bool chance(double p);

  // Random lowercase-alphanumeric string of length n.
  std::string alnum(std::size_t n);

  // UniformRandomBitGenerator interface so <algorithm> shuffles work.
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }
  result_type operator()() { return next_u32(); }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  bool has_spare_gauss_ = false;
  double spare_gauss_ = 0.0;
};

// Derives a decorrelated child seed from (master, index): splitmix64 over
// the master offset by a golden-ratio multiple of (index + 1). Child i is a
// pure function of the master seed and i — this is how a distributed run
// hands each worker process its own reproducible workload and fault
// streams (disjoint in practice, deterministic always).
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index);

// A uniform draw in [0, 1), a pure function of (seed, kind, key): for
// decisions that must not depend on how many draws came before them.
double unit(std::uint64_t seed, std::uint64_t kind, std::uint64_t key);

// Zipf-distributed sampler over {0, 1, ..., n-1} with parameter theta
// (theta = 0 degenerates to uniform). Uses the YCSB constant-time method.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);

  std::uint64_t sample(Pcg32& rng) const;

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

}  // namespace hammer::util
