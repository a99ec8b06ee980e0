// Focused unit tests for dataset collection options and pipeline edge
// cases (beyond the end-to-end integration suite): multi-node monitoring,
// FA candidates, column slicing, selection fallbacks, config guards, and the
// lockstep collection's byte identity to per-benchmark simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "chip/floorplan.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/ols_model.hpp"
#include "core/pipeline.hpp"
#include "grid/power_grid.hpp"
#include "grid/transient.hpp"
#include "util/assert.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "workload/activity.hpp"
#include "workload/benchmark_suite.hpp"
#include "workload/power_model.hpp"

namespace vmap::core {
namespace {

/// Tiny collection config so each test can afford its own dataset.
DataConfig tiny_config() {
  DataConfig c = small_setup().data;
  c.warmup_steps = 30;
  c.train_maps_per_benchmark = 40;
  c.test_maps_per_benchmark = 15;
  c.calibration_steps = 80;
  return c;
}

class DatasetPipelineTest : public ::testing::Test {
 protected:
  DatasetPipelineTest()
      : setup_(small_setup()), grid_(setup_.grid), plan_(grid_, setup_.floorplan) {
    suite_ = workload::parsec_like_suite();
    suite_.resize(2);
  }
  Dataset collect(const DataConfig& config) const {
    return DataCollector(grid_, plan_, config).collect(suite_);
  }
  ExperimentSetup setup_;
  grid::PowerGrid grid_;
  chip::Floorplan plan_;
  std::vector<workload::BenchmarkProfile> suite_;
};

TEST_F(DatasetPipelineTest, MultiNodeMonitoringGrowsResponseRows) {
  DataConfig config = tiny_config();
  config.critical_nodes_per_block = 3;
  const Dataset data = collect(config);
  // Small blocks can own fewer than 3 nodes, so K is bounded, not exact.
  EXPECT_GT(data.num_blocks(), plan_.block_count());
  EXPECT_LE(data.num_blocks(), 3 * plan_.block_count());
  ASSERT_EQ(data.critical_block.size(), data.num_blocks());
  // Per-block counts respect block sizes; all nodes belong to their block.
  std::map<std::size_t, std::size_t> per_block;
  for (std::size_t row = 0; row < data.num_blocks(); ++row) {
    ++per_block[data.critical_block[row]];
    const auto owner = plan_.block_of_node(data.critical_nodes[row]);
    ASSERT_TRUE(owner.has_value());
    EXPECT_EQ(*owner, data.critical_block[row]);
  }
  for (const auto& [block_id, count] : per_block)
    EXPECT_LE(count, std::min<std::size_t>(3, plan_.block(block_id).nodes.size()));
}

TEST_F(DatasetPipelineTest, PipelineHandlesMultiNodeMonitoring) {
  DataConfig config = tiny_config();
  config.critical_nodes_per_block = 2;
  const Dataset data = collect(config);

  PipelineConfig pc;
  pc.lambda = 6.0;
  const PlacementModel model = fit_placement(data, plan_, pc);
  const linalg::Matrix pred = model.predict(data.x_test);
  EXPECT_EQ(pred.rows(), data.num_blocks());
  EXPECT_EQ(pred.cols(), data.x_test.cols());
  // Prediction stays accurate with the richer response set.
  EXPECT_LT(relative_error(data.f_test, pred), 0.03);
}

TEST_F(DatasetPipelineTest, FaCandidatesExtendTheCandidateSet) {
  DataConfig ba_config = tiny_config();
  DataConfig fa_config = tiny_config();
  fa_config.include_fa_candidates = true;
  const Dataset ba = collect(ba_config);
  const Dataset fa = collect(fa_config);
  EXPECT_GT(fa.num_candidates(), ba.num_candidates());
  // BA candidates are a subset of the FA-enabled candidate set.
  std::set<std::size_t> fa_nodes(fa.candidate_nodes.begin(),
                                 fa.candidate_nodes.end());
  for (std::size_t node : ba.candidate_nodes)
    EXPECT_TRUE(fa_nodes.count(node)) << "node " << node;
  // And some candidates now genuinely sit inside blocks.
  std::size_t inside = 0;
  for (std::size_t node : fa.candidate_nodes)
    if (plan_.is_fa_node(node)) ++inside;
  EXPECT_GT(inside, 0u);
}

TEST_F(DatasetPipelineTest, CandidateStrideThinsTheLattice) {
  DataConfig dense = tiny_config();
  dense.candidate_stride = 1;
  DataConfig sparse = tiny_config();
  sparse.candidate_stride = 2;
  const Dataset d1 = collect(dense);
  const Dataset d2 = collect(sparse);
  EXPECT_GT(d1.num_candidates(), 2 * d2.num_candidates());
}

TEST_F(DatasetPipelineTest, SliceColsExtractsExactRanges) {
  linalg::Matrix m(2, 5);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      m(r, c) = static_cast<double>(10 * r + c);
  const linalg::Matrix s = slice_cols(m, 1, 4);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_DOUBLE_EQ(s(1, 0), 11.0);
  EXPECT_DOUBLE_EQ(s(0, 2), 3.0);
  EXPECT_THROW(slice_cols(m, 3, 6), vmap::ContractError);
  EXPECT_EQ(slice_cols(m, 2, 2).cols(), 0u);
}

TEST_F(DatasetPipelineTest, RowsForCorePartitionAndCover) {
  const Dataset data = collect(tiny_config());
  std::set<std::size_t> seen_candidates, seen_criticals;
  for (std::size_t c = 0; c < plan_.core_count(); ++c) {
    for (std::size_t row : data.candidate_rows_for_core(plan_, c))
      EXPECT_TRUE(seen_candidates.insert(row).second);
    for (std::size_t row : data.critical_rows_for_core(plan_, c))
      EXPECT_TRUE(seen_criticals.insert(row).second);
  }
  EXPECT_EQ(seen_candidates.size(), data.num_candidates());
  EXPECT_EQ(seen_criticals.size(), data.num_blocks());
}

TEST_F(DatasetPipelineTest, HighThresholdFallsBackToOneSensorPerCore) {
  const Dataset data = collect(tiny_config());
  PipelineConfig pc;
  pc.lambda = 2.0;
  pc.threshold = 1e9;  // rejects everything -> fallback picks the strongest
  const PlacementModel model = fit_placement(data, plan_, pc);
  for (const auto& core : model.cores())
    EXPECT_EQ(core.selected_rows.size(), 1u);
}

TEST_F(DatasetPipelineTest, TopKClampsToCandidatesAndSampleBudget) {
  const Dataset data = collect(tiny_config());
  PipelineConfig pc;
  pc.lambda = 2.0;
  pc.sensors_per_core = 100000;  // more than candidates or samples allow
  const PlacementModel model = fit_placement(data, plan_, pc);
  const std::size_t sample_cap = data.x_train.cols() - 1;
  for (const auto& core : model.cores()) {
    EXPECT_EQ(core.selected_rows.size(),
              std::min(core.candidate_rows.size(), sample_cap));
  }
}

TEST_F(DatasetPipelineTest, ConfigGuardsFireEarly) {
  DataConfig bad = tiny_config();
  bad.dt = 0.0;
  EXPECT_THROW(DataCollector(grid_, plan_, bad), vmap::ContractError);
  bad = tiny_config();
  bad.map_stride = 0;
  EXPECT_THROW(DataCollector(grid_, plan_, bad), vmap::ContractError);
  bad = tiny_config();
  bad.train_maps_per_benchmark = 1;
  EXPECT_THROW(DataCollector(grid_, plan_, bad), vmap::ContractError);

  const Dataset data = collect(tiny_config());
  PipelineConfig pc;
  pc.lambda = 0.0;
  EXPECT_THROW(fit_placement(data, plan_, pc), vmap::ContractError);
  pc.lambda = 1.0;
  pc.threshold = -1.0;
  EXPECT_THROW(fit_placement(data, plan_, pc), vmap::ContractError);
}

TEST_F(DatasetPipelineTest, EmptySuiteRejected) {
  DataCollector collector(grid_, plan_, tiny_config());
  EXPECT_THROW(collector.collect({}), vmap::ContractError);
}

TEST_F(DatasetPipelineTest, SingleBenchmarkCollectionWorks) {
  auto one = suite_;
  one.resize(1);
  const Dataset data =
      DataCollector(grid_, plan_, tiny_config()).collect(one);
  EXPECT_EQ(data.benchmarks.size(), 1u);
  EXPECT_EQ(data.x_train.cols(), tiny_config().train_maps_per_benchmark);
}

bool bytes_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

void expect_same_dataset(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(std::memcmp(&a.current_scale, &b.current_scale, sizeof(double)),
            0);
  EXPECT_EQ(a.candidate_nodes, b.candidate_nodes);
  EXPECT_EQ(a.critical_nodes, b.critical_nodes);
  EXPECT_TRUE(bytes_equal(a.x_train, b.x_train));
  EXPECT_TRUE(bytes_equal(a.f_train, b.f_train));
  EXPECT_TRUE(bytes_equal(a.x_test, b.x_test));
  EXPECT_TRUE(bytes_equal(a.f_test, b.f_test));
}

TEST_F(DatasetPipelineTest, DeterministicAcrossCollections) {
  expect_same_dataset(collect(tiny_config()), collect(tiny_config()));
}

/// The maps of `suite` stepped one benchmark at a time, each on its own
/// one-column simulator, at the calibration results of `data` — the
/// reference the lockstep collection must reproduce byte for byte.
Dataset reference_maps(const Dataset& data, const grid::PowerGrid& grid,
                       const chip::Floorplan& plan,
                       const std::vector<workload::BenchmarkProfile>& suite) {
  const DataConfig& config = data.config;
  Dataset ref = data;
  const workload::PowerModel model(plan, data.current_scale);
  for (std::size_t b = 0; b < suite.size(); ++b) {
    grid::TransientSim sim(grid, config.dt);
    workload::ActivityGenerator generator(
        plan, suite[b], Rng(config.seed + 0x9E3779B9 * (b + 1)));
    linalg::Vector currents(grid.node_count());
    for (std::size_t s = 0; s < config.warmup_steps; ++s) {
      model.to_node_currents(generator.step(), currents);
      sim.step(currents);
    }
    const std::size_t maps =
        config.train_maps_per_benchmark + config.test_maps_per_benchmark;
    for (std::size_t map = 0; map < maps; ++map) {
      for (std::size_t s = 0; s < (map == 0 ? 1 : config.map_stride); ++s) {
        model.to_node_currents(generator.step(), currents);
        sim.step(currents);
      }
      const bool train = map < config.train_maps_per_benchmark;
      linalg::Matrix& x = train ? ref.x_train : ref.x_test;
      linalg::Matrix& f = train ? ref.f_train : ref.f_test;
      const std::size_t dst =
          train ? b * config.train_maps_per_benchmark + map
                : b * config.test_maps_per_benchmark + map -
                      config.train_maps_per_benchmark;
      for (std::size_t r = 0; r < data.candidate_nodes.size(); ++r)
        x(r, dst) = sim.voltages()[data.candidate_nodes[r]];
      for (std::size_t r = 0; r < data.critical_nodes.size(); ++r)
        f(r, dst) = sim.voltages()[data.critical_nodes[r]];
    }
  }
  return ref;
}

TEST_F(DatasetPipelineTest, LockstepCollectionMatchesPerBenchmarkReference) {
  // Nine benchmarks never fill whole 8-column blocks: one thread runs
  // blocks of 4 and 5 columns, four threads blocks of 2 and 3.
  std::vector<workload::BenchmarkProfile> suite =
      workload::parsec_like_suite();
  suite.resize(9);
  DataConfig config = tiny_config();
  config.train_maps_per_benchmark = 12;
  config.test_maps_per_benchmark = 5;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    const Dataset data = DataCollector(grid_, plan_, config).collect(suite);
    expect_same_dataset(data, reference_maps(data, grid_, plan_, suite));
  }
  set_thread_count(0);
}

TEST_F(DatasetPipelineTest, CollectionFactorsTheStepMatrixOnce) {
  metrics::Counter& factorizations =
      metrics::counter("sparse.skyline.factorizations");
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(threads);
    const std::uint64_t before = factorizations.value();
    collect(tiny_config());
    EXPECT_EQ(factorizations.value() - before, 1u) << "threads=" << threads;
  }
  set_thread_count(0);
}

}  // namespace
}  // namespace vmap::core
