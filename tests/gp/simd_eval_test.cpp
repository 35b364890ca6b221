// Differential fuzz of the SIMD bytecode kernels against the scalar
// reference path: for the same compiled program and terminal batch, the
// AVX2 table must produce bit-identical doubles (NaN payloads included) to
// the scalar table. The batches are built to hit every protected-operator
// edge — zero and near-tolerance divisors, ±inf, NaN, -0.0, values at the
// clamp cap — plus ragged tails (count % 4 != 0) and size-1 broadcast
// columns, which exercise the splat kernel and the scalar tail loops.
//
// Labeled sanitizer-critical: the AVX2 loops index raw register rows in
// 4-wide strides; ASan/UBSan verify the tail handling on every ragged
// batch size, and TSan covers the once-per-process dispatch slot being
// resolved from concurrent evaluations.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/gp/compiled.hpp"
#include "carbon/gp/eval_ops.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/simd.hpp"
#include "carbon/gp/tree.hpp"

namespace carbon::gp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Restores the auto-dispatched path when a test finishes, so path forcing
/// cannot leak across tests.
struct PathGuard {
  ~PathGuard() { common::simd::select_path("auto"); }
};

[[nodiscard]] std::uint64_t bits(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}

/// Adversarial terminal value: finite uniforms mixed with every edge the
/// protected operators special-case.
[[nodiscard]] double edge_value(common::Rng& rng) {
  switch (rng.below(12)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return kInf;
    case 3: return -kInf;
    case 4: return kNaN;
    case 5: return detail::kProtectTol;            // just above the guard
    case 6: return -detail::kProtectTol * 0.999;   // just below the guard
    case 7: return rng.uniform(-1e-9, 1e-9);       // protected-div territory
    case 8: return detail::kValueCap;
    case 9: return -detail::kValueCap * 2.0;       // beyond the clamp
    default: return rng.uniform(-1e6, 1e6);
  }
}

struct FuzzBatch {
  std::array<std::vector<double>, kNumTerminals> columns;
  CompiledProgram::TerminalBatch batch;
};

/// Batch of `count` elements; each column independently has a 1-in-4 chance
/// of being a size-1 broadcast (the contract allows broadcasting ANY
/// terminal, not just BRES).
FuzzBatch make_batch(common::Rng& rng, std::size_t count) {
  FuzzBatch fb;
  for (std::size_t t = 0; t < kNumTerminals; ++t) {
    const std::size_t len = rng.below(4) == 0 ? 1 : count;
    fb.columns[t].reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      fb.columns[t].push_back(edge_value(rng));
    }
  }
  for (std::size_t t = 0; t < kNumTerminals; ++t) {
    fb.batch.columns[t] = fb.columns[t];
  }
  fb.batch.count = count;
  return fb;
}

TEST(SimdEval, DispatchReportsAConsistentTable) {
  PathGuard guard;
  const simd::Path forced = common::simd::select_path("scalar");
  EXPECT_EQ(forced, simd::Path::kScalar);
  EXPECT_STREQ(common::simd::path_name(), "scalar");
  EXPECT_EQ(simd::lanes(), 1u);

  const simd::Path requested = common::simd::select_path("avx2");
  if (common::simd::avx2_available()) {
    EXPECT_EQ(requested, simd::Path::kAvx2);
    EXPECT_STREQ(common::simd::path_name(), "avx2");
    EXPECT_EQ(simd::lanes(), 4u);
  } else {
    // Forcing AVX2 without build/CPU support degrades to scalar, visibly.
    EXPECT_EQ(requested, simd::Path::kScalar);
    EXPECT_STREQ(common::simd::path_name(), "scalar");
  }

  // Unknown strings read as auto and must match availability.
  const simd::Path auto_path =
      common::simd::select_path("definitely-not-a-path");
  EXPECT_EQ(auto_path, common::simd::avx2_available() ? simd::Path::kAvx2
                                                      : simd::Path::kScalar);
}

TEST(SimdEval, KernelTablesAgreeBitwiseOnEdgeVectors) {
  if (!common::simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 kernels not available on this build/CPU";
  }
  const simd::Kernels& scalar = simd::detail::scalar_table();
  const simd::Kernels* avx2 = simd::detail::avx2_table();
  ASSERT_NE(avx2, nullptr);

  common::Rng rng(2024);
  // Every ragged length from 1 to 2 full vectors plus a long body.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{6}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{31}, std::size_t{100}, std::size_t{257}}) {
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = edge_value(rng);
      b[i] = edge_value(rng);
    }
    std::vector<double> out_s(n);
    std::vector<double> out_v(n);
    const std::pair<simd::Kernels::BinFn, simd::Kernels::BinFn> ops[] = {
        {scalar.add, avx2->add}, {scalar.sub, avx2->sub},
        {scalar.mul, avx2->mul}, {scalar.div, avx2->div},
        {scalar.mod, avx2->mod}};
    for (const auto& [fs, fv] : ops) {
      fs(a.data(), b.data(), out_s.data(), n);
      fv(a.data(), b.data(), out_v.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(out_s[i]), bits(out_v[i]))
            << "n=" << n << " i=" << i << " a=" << a[i] << " b=" << b[i];
      }
    }
    scalar.splat(a[0], out_s.data(), n);
    avx2->splat(a[0], out_v.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(out_s[i]), bits(out_v[i])) << "splat n=" << n;
    }
    scalar.copy(a.data(), out_s.data(), n);
    avx2->copy(a.data(), out_v.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(out_s[i]), bits(out_v[i])) << "copy n=" << n;
    }
  }
}

TEST(SimdEval, ScalarVsSimdDifferentialFuzz) {
  if (!common::simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 kernels not available on this build/CPU";
  }
  PathGuard guard;
  common::Rng rng(777);

  // Ragged and aligned batch sizes; every count hits the tail loop except
  // the multiples of 4.
  const std::size_t counts[] = {1, 2, 3, 4, 5, 7, 8, 13, 33, 64, 101, 200};

  std::size_t programs = 0;
  std::vector<double> scratch_s;
  std::vector<double> scratch_v;
  for (int round = 0; round < 1040; ++round) {
    GenerateConfig gen;
    const int depth = 2 + static_cast<int>(rng.below(5));
    gen.min_depth = depth;
    gen.max_depth = depth;
    const Tree tree = generate_full(rng, depth, gen);
    const CompiledProgram program = CompiledProgram::compile(tree);
    const std::size_t count = counts[rng.below(std::size(counts))];
    const FuzzBatch fb = make_batch(rng, count);

    std::vector<double> out_s(count);
    std::vector<double> out_v(count);
    ASSERT_EQ(common::simd::select_path("scalar"), simd::Path::kScalar);
    program.evaluate_batch(fb.batch, out_s, scratch_s);
    ASSERT_EQ(common::simd::select_path("avx2"), simd::Path::kAvx2);
    program.evaluate_batch(fb.batch, out_v, scratch_v);

    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(bits(out_s[i]), bits(out_v[i]))
          << tree.to_string() << " count=" << count << " element=" << i;
    }
    ++programs;
  }
  // At least 1000 random programs differentially fuzzed.
  ASSERT_GE(programs, 1000u);
}

TEST(SimdEval, ConcurrentEvaluationsAgreeAcrossThreads) {
  // The dispatch slot is resolved lazily; hammer it from several threads
  // evaluating the same program and require identical outputs. (Under TSan
  // this also proves the once-per-process resolution is race-free.)
  PathGuard guard;
  common::simd::select_path("auto");
  common::Rng rng(31);
  GenerateConfig gen;
  gen.min_depth = 5;
  gen.max_depth = 5;
  const Tree tree = generate_full(rng, 5, gen);
  const CompiledProgram program = CompiledProgram::compile(tree);
  const FuzzBatch fb = make_batch(rng, 129);

  constexpr int kThreads = 4;
  std::vector<std::vector<double>> outs(kThreads,
                                        std::vector<double>(fb.batch.count));
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double> scratch;
      program.evaluate_batch(fb.batch, outs[t], scratch);
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    for (std::size_t i = 0; i < fb.batch.count; ++i) {
      ASSERT_EQ(bits(outs[0][i]), bits(outs[t][i])) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace carbon::gp
