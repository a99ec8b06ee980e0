// Thread-pool semantics (coverage, nesting, clamping, exceptions) and the
// bit-identical-to-serial guarantee of parallel dataset collection and
// parallel per-core placement fits.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "grid/power_grid.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/benchmark_suite.hpp"

namespace vmap {
namespace {

/// Restores the automatic thread-count default when a test ends.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(ParallelFor, CoversAllIndicesExactlyOnce) {
  ThreadCountGuard guard;
  set_thread_count(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, RespectsBeginOffset) {
  ThreadCountGuard guard;
  set_thread_count(3);
  std::vector<std::atomic<int>> hits(10);
  parallel_for(4, 10, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(hits[i].load(), i >= 4 ? 1 : 0);
}

TEST(ParallelFor, SerialAtOneThreadRunsInOrderOnCaller) {
  ThreadCountGuard guard;
  set_thread_count(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(0, 16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NestedCallRunsInlineWithoutDeadlock) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::atomic<int> inner_total{0};
  parallel_for(0, 8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    const auto outer_thread = std::this_thread::get_id();
    // The nested loop must run inline on the same worker.
    parallel_for(0, 4, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      inner_total.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelFor, ConcurrencyClampedToOutstandingTasks) {
  ThreadCountGuard guard;
  set_thread_count(8);
  std::atomic<int> active{0};
  std::atomic<int> high_water{0};
  parallel_for(0, 2, [&](std::size_t) {
    const int now = active.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    active.fetch_sub(1);
  });
  EXPECT_LE(high_water.load(), 2);
}

TEST(ParallelFor, OversubscribedPoolStillCompletes) {
  ThreadCountGuard guard;
  set_thread_count(16);  // far more threads than this machine has cores
  std::atomic<int> total{0};
  parallel_for(0, 64, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadCountGuard guard;
  set_thread_count(4);
  EXPECT_THROW(parallel_for(0, 32,
                            [&](std::size_t i) {
                              if (i == 17) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // Pool still serviceable afterwards.
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 8);
}

TEST(ParallelInvoke, RunsEveryTask) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::atomic<int> mask{0};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < 5; ++t)
    tasks.push_back([&mask, t] { mask.fetch_or(1 << t); });
  parallel_invoke(tasks);
  EXPECT_EQ(mask.load(), 0b11111);
}

/// Byte equality of two matrices. An empty matrix's data() may be null,
/// which memcmp must not see, so zero sizes compare without it.
bool matrices_identical(const linalg::Matrix& x, const linalg::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         (x.rows() * x.cols() == 0 ||
          std::memcmp(x.data(), y.data(),
                      x.rows() * x.cols() * sizeof(double)) == 0);
}

TEST(ParallelMatmul, BlockedKernelsBitIdenticalToReference) {
  ThreadCountGuard guard;
  Rng rng(123);
  linalg::Matrix a(37, 211), b(211, 53);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      a(i, j) = rng.bernoulli(0.1) ? 0.0 : rng.normal();
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  const linalg::Matrix ref = linalg::matmul_reference(a, b);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    const linalg::Matrix c = linalg::matmul(a, b);
    ASSERT_EQ(c.rows(), ref.rows());
    ASSERT_EQ(c.cols(), ref.cols());
    EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                          c.rows() * c.cols() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

TEST(ParallelMatmul, TransposedProductsMatchSerialBitwise) {
  ThreadCountGuard guard;
  Rng rng(321);
  linalg::Matrix a(301, 41), b(301, 29), d(41, 301);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.normal();
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j) d(i, j) = rng.normal();
  set_thread_count(1);
  const linalg::Matrix atb1 = linalg::matmul_at_b(a, b);
  const linalg::Matrix abt1 = linalg::matmul_a_bt(d, d);
  set_thread_count(4);
  const linalg::Matrix atb4 = linalg::matmul_at_b(a, b);
  const linalg::Matrix abt4 = linalg::matmul_a_bt(d, d);
  EXPECT_TRUE(matrices_identical(atb1, atb4));
  EXPECT_TRUE(matrices_identical(abt1, abt4));
}

// --- SIMD microkernel bit-identity ---------------------------------------
//
// Every kern:: kernel must be byte-identical to its kern::ref:: scalar
// oracle with SIMD on and off, across empty/odd/prime lengths — the sizes
// are chosen so every AVX2 main-loop/tail split gets exercised (0 whole
// vectors, exactly one, one plus every tail length, and long runs).

/// Restores the SIMD dispatch choice when a test ends.
class SimdGuard {
 public:
  SimdGuard() : was_(linalg::kern::simd_enabled()) {}
  ~SimdGuard() { linalg::kern::set_simd_enabled(was_); }

 private:
  bool was_;
};

const std::size_t kKernelSizes[] = {0, 1, 2, 3, 5, 7, 8, 13, 16, 17, 31, 64, 97};

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = rng.bernoulli(0.1) ? 0.0 : rng.normal();
  return v;
}

bool bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SimdKernels, ElementwiseBitIdenticalToScalarOracle) {
  SimdGuard guard;
  for (bool simd : {false, true}) {
    linalg::kern::set_simd_enabled(simd);
    for (std::size_t n : kKernelSizes) {
      const std::vector<double> x = random_doubles(n, 1000 + n);
      const std::vector<double> y0 = random_doubles(n, 2000 + n);

      std::vector<double> got = y0, want = y0;
      linalg::kern::axpy(n, 1.7, x.data(), got.data());
      linalg::kern::ref::axpy(n, 1.7, x.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "axpy n=" << n << " simd=" << simd;

      got = y0, want = y0;
      linalg::kern::xpby(n, x.data(), -0.3, got.data());
      linalg::kern::ref::xpby(n, x.data(), -0.3, want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "xpby n=" << n << " simd=" << simd;

      got = y0, want = y0;
      linalg::kern::scale(n, 0.77, got.data());
      linalg::kern::ref::scale(n, 0.77, want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "scale n=" << n;

      got = y0, want = y0;
      linalg::kern::add(n, x.data(), got.data());
      linalg::kern::ref::add(n, x.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "add n=" << n;

      got = y0, want = y0;
      linalg::kern::sub(n, x.data(), got.data());
      linalg::kern::ref::sub(n, x.data(), want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "sub n=" << n;

      got = y0, want = y0;
      linalg::kern::sub_div(n, x.data(), 3.14159, got.data());
      linalg::kern::ref::sub_div(n, x.data(), 3.14159, want.data());
      EXPECT_TRUE(bytes_equal(got, want)) << "sub_div n=" << n;
    }
  }
}

TEST(SimdKernels, PanelKernelsBitIdenticalToScalarOracle) {
  SimdGuard guard;
  for (bool simd : {false, true}) {
    linalg::kern::set_simd_enabled(simd);
    for (std::size_t n : kKernelSizes) {
      const std::vector<double> r0 = random_doubles(n, 10 + n);
      const std::vector<double> r1 = random_doubles(n, 20 + n);
      const std::vector<double> r2 = random_doubles(n, 30 + n);
      const std::vector<double> r3 = random_doubles(n, 40 + n);
      const std::vector<double> a = random_doubles(n, 50 + n);
      const std::vector<double> b = random_doubles(n, 60 + n);

      std::vector<double> panel_got(4 * n, -1.0), panel_want(4 * n, -1.0);
      linalg::kern::pack_panel(n, r0.data(), r1.data(), r2.data(), r3.data(),
                               panel_got.data());
      linalg::kern::ref::pack_panel(n, r0.data(), r1.data(), r2.data(),
                                    r3.data(), panel_want.data());
      EXPECT_TRUE(bytes_equal(panel_got, panel_want))
          << "pack_panel n=" << n << " simd=" << simd;

      std::vector<double> d_got(4, -1.0), d_want(4, -1.0);
      linalg::kern::dot_panel(n, a.data(), panel_got.data(), d_got.data());
      linalg::kern::ref::dot_panel(n, a.data(), panel_want.data(),
                                   d_want.data());
      EXPECT_TRUE(bytes_equal(d_got, d_want)) << "dot_panel n=" << n;

      std::vector<double> da_got(4, -1.0), db_got(4, -1.0);
      std::vector<double> da_want(4, -1.0), db_want(4, -1.0);
      linalg::kern::dot_panel2(n, a.data(), b.data(), panel_got.data(),
                               da_got.data(), db_got.data());
      linalg::kern::ref::dot_panel2(n, a.data(), b.data(), panel_want.data(),
                                    da_want.data(), db_want.data());
      EXPECT_TRUE(bytes_equal(da_got, da_want)) << "dot_panel2 a n=" << n;
      EXPECT_TRUE(bytes_equal(db_got, db_want)) << "dot_panel2 b n=" << n;
    }
  }
}

TEST(SimdKernels, StridedReductionsBitIdenticalToScalarOracle) {
  SimdGuard guard;
  for (bool simd : {false, true}) {
    linalg::kern::set_simd_enabled(simd);
    for (std::size_t n : kKernelSizes) {
      const std::vector<double> x = random_doubles(n, 70 + n);
      const std::vector<double> y = random_doubles(n, 80 + n);
      const double dot_got = linalg::kern::dot(n, x.data(), y.data());
      const double dot_want = linalg::kern::ref::dot(n, x.data(), y.data());
      EXPECT_EQ(std::memcmp(&dot_got, &dot_want, sizeof(double)), 0)
          << "dot n=" << n << " simd=" << simd;
      const double nrm_got = linalg::kern::nrm2sq(n, x.data());
      const double nrm_want = linalg::kern::ref::nrm2sq(n, x.data());
      EXPECT_EQ(std::memcmp(&nrm_got, &nrm_want, sizeof(double)), 0)
          << "nrm2sq n=" << n << " simd=" << simd;
    }
  }
}

TEST(SimdKernels, BlockSubstitutionKernelsBitIdenticalToScalarOracle) {
  SimdGuard guard;
  for (bool simd : {false, true}) {
    linalg::kern::set_simd_enabled(simd);
    for (std::size_t k : {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 19}) {
      for (std::size_t n : kKernelSizes) {
        const std::vector<double> a = random_doubles(n, 90 + n);
        const std::vector<double> y = random_doubles(n * k, 100 + n + k);
        const std::vector<double> x = random_doubles(k, 110 + k);

        std::vector<double> got = random_doubles(k, 120 + k), want = got;
        linalg::kern::block_dot_sub(n, k, a.data(), y.data(), got.data());
        linalg::kern::ref::block_dot_sub(n, k, a.data(), y.data(),
                                         want.data());
        EXPECT_TRUE(bytes_equal(got, want))
            << "block_dot_sub n=" << n << " k=" << k << " simd=" << simd;

        got = y, want = y;
        linalg::kern::block_axpy_sub(n, k, a.data(), x.data(), got.data());
        linalg::kern::ref::block_axpy_sub(n, k, a.data(), x.data(),
                                          want.data());
        EXPECT_TRUE(bytes_equal(got, want))
            << "block_axpy_sub n=" << n << " k=" << k << " simd=" << simd;
      }
    }
  }
}

TEST(SimdKernels, MatmulFamilyBitIdenticalAcrossSimdAndThreads) {
  ThreadCountGuard tguard;
  SimdGuard sguard;
  // Odd/prime/empty shapes, plus one large enough (160·131·97 ≈ 4 Mflop)
  // that dispatch_rows actually fans out at 2+ threads.
  struct Shape {
    std::size_t r, k, c;
  };
  const Shape shapes[] = {{1, 1, 1}, {3, 5, 2},  {7, 13, 5},   {17, 31, 8},
                          {0, 4, 2}, {3, 0, 2},  {3, 5, 0},    {160, 131, 97}};
  for (const Shape& s : shapes) {
    Rng rng(900 + s.r + s.k + s.c);
    linalg::Matrix a(s.r, s.k), b(s.k, s.c);
    linalg::Matrix at(s.k, s.r), bt(s.c, s.k);
    for (std::size_t i = 0; i < s.r; ++i)
      for (std::size_t j = 0; j < s.k; ++j)
        at(j, i) = a(i, j) = rng.bernoulli(0.1) ? 0.0 : rng.normal();
    for (std::size_t i = 0; i < s.k; ++i)
      for (std::size_t j = 0; j < s.c; ++j)
        bt(j, i) = b(i, j) = rng.normal();
    const linalg::Matrix want = linalg::matmul_reference(a, b);
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (bool simd : {false, true}) {
        set_thread_count(threads);
        linalg::kern::set_simd_enabled(simd);
        const std::string tag = " shape=" + std::to_string(s.r) + "x" +
                                std::to_string(s.k) + "x" + std::to_string(s.c) +
                                " threads=" + std::to_string(threads) +
                                " simd=" + std::to_string(simd);
        const linalg::Matrix c1 = linalg::matmul(a, b);
        EXPECT_TRUE(matrices_identical(c1, want)) << "matmul" << tag;
        // Aᵀ·B and A·Bᵀ of the transposed operands compute the same
        // product, each element in the same ascending-k single-accumulator
        // order as matmul_reference — so all three must agree bytewise.
        const linalg::Matrix c2 = linalg::matmul_at_b(at, b);
        EXPECT_TRUE(matrices_identical(c2, want)) << "matmul_at_b" << tag;
        const linalg::Matrix c3 = linalg::matmul_a_bt(a, bt);
        EXPECT_TRUE(matrices_identical(c3, want)) << "matmul_a_bt" << tag;
      }
    }
  }
}

// --- work-quantum chunking helpers ----------------------------------------

TEST(WorkQuantum, RecommendedChunksRespectsFloorsAndCaps) {
  ThreadCountGuard guard;
  set_thread_count(4);
  // Tiny total work: not worth waking the pool.
  EXPECT_EQ(recommended_chunks(1000, 10.0), 1u);
  EXPECT_EQ(recommended_chunks(0, 1e9), 0u);
  // Huge per-item work: capped by item count.
  EXPECT_EQ(recommended_chunks(3, 1e9), 3u);
  // Abundant work: capped by threads * max_per_thread.
  EXPECT_EQ(recommended_chunks(100000, 1e6), 16u);
  EXPECT_EQ(recommended_chunks(100000, 1e6, /*max_per_thread=*/1), 4u);
  // One thread: always inline.
  set_thread_count(1);
  EXPECT_EQ(recommended_chunks(100000, 1e6), 1u);
}

TEST(WorkQuantum, ParallelForChunkedCoversRangeExactlyOnce) {
  ThreadCountGuard guard;
  set_thread_count(4);
  std::vector<std::atomic<int>> hits(977);
  parallel_for_chunked(0, 977, /*flops_per_item=*/1e5,
                       [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i)
                           hits[i].fetch_add(1);
                       });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkQuantum, OrderedReduceIsThreadCountInvariant) {
  ThreadCountGuard guard;
  const std::vector<double> v = random_doubles(4001, 4242);
  const auto partial = [&](std::size_t b, std::size_t e) {
    double s = 0.0;
    for (std::size_t i = b; i < e; ++i) s += v[i] * v[i];
    return s;
  };
  set_thread_count(1);
  const double want = parallel_reduce_ordered(v.size(), 1e4, partial);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    set_thread_count(threads);
    const double got = parallel_reduce_ordered(v.size(), 1e4, partial);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << "threads=" << threads;
  }
}

// --- bit-identity of the collection / fitting layers ---------------------

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ParallelDeterminismTest()
      : setup_(core::small_setup()),
        grid_(setup_.grid),
        plan_(grid_, setup_.floorplan) {
    suite_ = workload::parsec_like_suite();
    suite_.resize(3);
    config_ = setup_.data;
    config_.warmup_steps = 30;
    config_.train_maps_per_benchmark = 40;
    config_.test_maps_per_benchmark = 15;
    config_.calibration_steps = 80;
  }
  ~ParallelDeterminismTest() override { set_thread_count(0); }

  core::Dataset collect_with(std::size_t threads) const {
    set_thread_count(threads);
    return core::DataCollector(grid_, plan_, config_).collect(suite_);
  }

  core::ExperimentSetup setup_;
  grid::PowerGrid grid_;
  chip::Floorplan plan_;
  std::vector<workload::BenchmarkProfile> suite_;
  core::DataConfig config_;
};

TEST_F(ParallelDeterminismTest, CollectionBitIdenticalAcrossThreadCounts) {
  const core::Dataset serial = collect_with(1);
  const core::Dataset parallel = collect_with(4);

  EXPECT_EQ(serial.platform, parallel.platform);
  EXPECT_EQ(serial.workload_hash, parallel.workload_hash);
  EXPECT_EQ(serial.current_scale, parallel.current_scale);
  EXPECT_EQ(serial.candidate_nodes, parallel.candidate_nodes);
  EXPECT_EQ(serial.critical_nodes, parallel.critical_nodes);
  EXPECT_EQ(serial.critical_block, parallel.critical_block);
  EXPECT_TRUE(matrices_identical(serial.x_train, parallel.x_train));
  EXPECT_TRUE(matrices_identical(serial.f_train, parallel.f_train));
  EXPECT_TRUE(matrices_identical(serial.x_test, parallel.x_test));
  EXPECT_TRUE(matrices_identical(serial.f_test, parallel.f_test));
  ASSERT_EQ(serial.benchmarks.size(), parallel.benchmarks.size());
  for (std::size_t b = 0; b < serial.benchmarks.size(); ++b) {
    EXPECT_EQ(serial.benchmarks[b].name, parallel.benchmarks[b].name);
    EXPECT_EQ(serial.benchmarks[b].train_begin,
              parallel.benchmarks[b].train_begin);
    EXPECT_EQ(serial.benchmarks[b].test_end, parallel.benchmarks[b].test_end);
  }
}

TEST_F(ParallelDeterminismTest, PlacementFitBitIdenticalAcrossThreadCounts) {
  set_thread_count(1);
  const core::Dataset data =
      core::DataCollector(grid_, plan_, config_).collect(suite_);
  core::PipelineConfig pc;
  pc.lambda = 6.0;
  const core::PlacementModel serial = core::fit_placement(data, plan_, pc);
  set_thread_count(4);
  const core::PlacementModel parallel = core::fit_placement(data, plan_, pc);

  EXPECT_EQ(serial.sensor_rows(), parallel.sensor_rows());
  EXPECT_EQ(serial.sensor_nodes(), parallel.sensor_nodes());
  ASSERT_EQ(serial.cores().size(), parallel.cores().size());
  for (std::size_t c = 0; c < serial.cores().size(); ++c) {
    const auto& sc = serial.cores()[c];
    const auto& pc2 = parallel.cores()[c];
    EXPECT_EQ(sc.selected_rows, pc2.selected_rows);
    EXPECT_EQ(sc.block_rows, pc2.block_rows);
    EXPECT_TRUE(matrices_identical(sc.alpha, pc2.alpha));
    ASSERT_EQ(sc.intercept.size(), pc2.intercept.size());
    for (std::size_t k = 0; k < sc.intercept.size(); ++k)
      EXPECT_EQ(sc.intercept[k], pc2.intercept[k]);
  }
}

}  // namespace
}  // namespace vmap
