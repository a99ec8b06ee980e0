// MonitorFleet integration tests: healthy-path decisions bit-identical to a
// standalone OnlineMonitor (including the micro-batched matmul path),
// overload shed accounting, clean-shutdown drain, a producer lane that
// outlives stop(), and watchdog stall failover in threaded mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "core/online_monitor.hpp"
#include "serve/fleet.hpp"
#include "serve/synthetic.hpp"

namespace vmap::serve {
namespace {

Reading make_reading(ChipId chip, std::uint64_t seq, linalg::Vector values) {
  Reading r;
  r.chip = chip;
  r.sequence = seq;
  r.values = std::move(values);
  return r;
}

/// Reference truth: the same streams through standalone monitors, one per
/// chip, with the alarm-transition sequences recorded.
struct ReferenceRun {
  std::vector<core::OnlineMonitor::Counters> counters;
  std::map<ChipId, std::vector<std::uint64_t>> transitions;
};

ReferenceRun run_reference(const SyntheticFleetSpec& spec,
                           std::size_t num_chips, std::uint64_t samples) {
  auto model = make_synthetic_model(spec);
  ReferenceRun ref;
  for (ChipId chip = 0; chip < num_chips; ++chip) {
    core::OnlineMonitor monitor =
        make_synthetic_monitor(spec, model, /*fault_tolerant=*/false);
    bool prev = false;
    for (std::uint64_t t = 1; t <= samples; ++t) {
      const auto d = monitor.observe(synthetic_reading(spec, chip, t));
      if (d.alarm != prev) ref.transitions[chip].push_back(t);
      prev = d.alarm;
    }
    ref.counters.push_back(monitor.counters());
  }
  return ref;
}

void expect_matches_reference(MonitorFleet& fleet, const ReferenceRun& ref,
                              std::size_t num_chips) {
  const auto states = fleet.persisted_states();
  for (ChipId chip = 0; chip < num_chips; ++chip) {
    const auto& got = states[chip].monitor;
    const auto& want = ref.counters[chip];
    EXPECT_EQ(got.samples, want.samples) << "chip " << chip;
    EXPECT_EQ(got.alarm, want.alarm) << "chip " << chip;
    EXPECT_EQ(got.crossing_streak, want.crossing_streak) << "chip " << chip;
    EXPECT_EQ(got.safe_streak, want.safe_streak) << "chip " << chip;
    EXPECT_EQ(got.alarm_samples, want.alarm_samples) << "chip " << chip;
    EXPECT_EQ(got.alarm_episodes, want.alarm_episodes) << "chip " << chip;
  }
  std::map<ChipId, std::vector<std::uint64_t>> transitions;
  for (const AlarmEvent& e : fleet.drain_alarms())
    transitions[e.chip].push_back(e.sequence);
  for (ChipId chip = 0; chip < num_chips; ++chip) {
    auto it = ref.transitions.find(chip);
    const std::vector<std::uint64_t> want =
        it == ref.transitions.end() ? std::vector<std::uint64_t>{}
                                    : it->second;
    EXPECT_EQ(transitions[chip], want) << "chip " << chip;
  }
}

// ---- Bit-identity, pump mode --------------------------------------------

TEST(MonitorFleet, PumpModeDecisionsAreBitIdenticalToStandaloneMonitor) {
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 5;
  constexpr std::uint64_t kSamples = 400;

  // batch_predictions on: same-model healthy chips go through the blocked
  // matmul micro-batch path. Bit-identity with the standalone monitor is
  // exactly the claim predict_from_sensor_readings_batch documents.
  FleetConfig fc;
  fc.shards = 3;
  fc.max_batch = 16;
  fc.batch_predictions = true;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId lane = fleet.register_producer();

  for (std::uint64_t t = 1; t <= kSamples; ++t) {
    for (ChipId chip = 0; chip < kChips; ++chip) {
      const auto result = fleet.ingest(
          lane, make_reading(chip, t, synthetic_reading(spec, chip, t)));
      ASSERT_TRUE(result.accepted);
    }
    if (t % 50 == 0) fleet.pump();
  }
  fleet.pump();

  expect_matches_reference(fleet, run_reference(spec, kChips, kSamples),
                           kChips);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.enqueued, kChips * kSamples);
  EXPECT_EQ(stats.processed, kChips * kSamples);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(MonitorFleet, UnbatchedPathMatchesToo) {
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 3;
  constexpr std::uint64_t kSamples = 200;
  FleetConfig fc;
  fc.batch_predictions = false;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId lane = fleet.register_producer();
  for (std::uint64_t t = 1; t <= kSamples; ++t)
    for (ChipId chip = 0; chip < kChips; ++chip)
      fleet.ingest(lane,
                   make_reading(chip, t, synthetic_reading(spec, chip, t)));
  fleet.pump();
  expect_matches_reference(fleet, run_reference(spec, kChips, kSamples),
                           kChips);
}

// ---- Admission / overload -----------------------------------------------

TEST(MonitorFleet, UnknownChipIsRefused) {
  MonitorFleet fleet;
  const ProducerId lane = fleet.register_producer();
  const auto result =
      fleet.ingest(lane, make_reading(7, 1, linalg::Vector(3)));
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.reason, RejectReason::kUnknownChip);
}

TEST(MonitorFleet, OverloadShedsNewestAndCountsEveryDrop) {
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 1;
  fc.producer_ring_capacity = 8;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId lane = fleet.register_producer();

  std::size_t accepted = 0, shed = 0;
  for (std::uint64_t t = 1; t <= 50; ++t) {
    const auto result =
        fleet.ingest(lane, make_reading(0, t, synthetic_reading(spec, 0, t)));
    if (result.accepted) {
      ++accepted;
    } else {
      EXPECT_EQ(result.reason, RejectReason::kShed);
      ++shed;
    }
  }
  // reject-newest: the first 8 stay
  EXPECT_EQ(accepted, fc.producer_ring_capacity);
  EXPECT_EQ(shed, 50u - fc.producer_ring_capacity);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(fleet.chip_stats(0).shed, shed);

  // Everything admitted is decided — overload sheds, it never loses.
  fleet.pump();
  EXPECT_EQ(fleet.stats().processed, accepted);
  EXPECT_EQ(fleet.chip_stats(0).samples, accepted);
}

// ---- Threaded mode ------------------------------------------------------

TEST(MonitorFleet, ThreadedModeDrainsEverythingOnStop) {
  SyntheticFleetSpec spec;
  constexpr std::size_t kChips = 4;
  constexpr std::uint64_t kSamples = 300;
  FleetConfig fc;
  fc.shards = 2;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (std::size_t c = 0; c < kChips; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId lane = fleet.register_producer();

  fleet.start();
  std::uint64_t enqueued = 0;
  for (std::uint64_t t = 1; t <= kSamples; ++t)
    for (ChipId chip = 0; chip < kChips; ++chip)
      if (fleet
              .ingest(lane,
                      make_reading(chip, t, synthetic_reading(spec, chip, t)))
              .accepted)
        ++enqueued;
  fleet.stop();

  // stop() drains: every admitted reading was decided, none lost. Per-chip
  // order is preserved (one worker per shard), so the decisions also match
  // the standalone reference exactly.
  EXPECT_EQ(fleet.stats().processed, enqueued);
  if (enqueued == kChips * kSamples)
    expect_matches_reference(fleet, run_reference(spec, kChips, kSamples),
                             kChips);
}

TEST(MonitorFleet, LaneKeepsServingAcrossStopAndPump) {
  // One producer lane through a whole lifecycle: threaded serving, stop(),
  // then more readings on the same lane decided by pump(). The stopped
  // fleet keeps admitting, and the chip's monitor sees one unbroken,
  // in-order stream across the mode switch.
  SyntheticFleetSpec spec;
  constexpr std::uint64_t kRunning = 200;
  constexpr std::uint64_t kSamples = 400;
  FleetConfig fc;
  fc.shards = 2;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId lane = fleet.register_producer();

  std::uint64_t enqueued = 0;
  auto feed = [&](std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t t = first; t <= last; ++t)
      if (fleet.ingest(lane, make_reading(0, t, synthetic_reading(spec, 0, t)))
              .accepted)
        ++enqueued;
  };
  fleet.start();
  feed(1, kRunning);
  fleet.stop();
  EXPECT_EQ(fleet.stats().processed, enqueued);

  feed(kRunning + 1, kSamples);
  EXPECT_EQ(fleet.pump(), kSamples - kRunning);

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(enqueued, kSamples);
  EXPECT_EQ(stats.enqueued, enqueued);
  EXPECT_EQ(stats.processed, enqueued);
  EXPECT_EQ(stats.shed, 0u);
  expect_matches_reference(fleet, run_reference(spec, 1, kSamples), 1);
}

TEST(MonitorFleet, WatchdogFailsOverAStalledShardAndSuspendsTheCulprit) {
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 2;
  fc.stall_timeout_ms = 80.0;
  fc.watchdog_period_ms = 10.0;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  // Chips 0 and 2 share shard 0 (chip % shards); chip 1 is on shard 1.
  for (int c = 0; c < 3; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId lane = fleet.register_producer();

  // Chip 0 wedges its worker for far longer than the stall timeout.
  fleet.set_chaos_delay_ms(0, 1200.0);
  fleet.start();
  std::uint64_t enqueued = 0;
  auto feed = [&](ChipId chip, std::uint64_t seq) {
    if (fleet.ingest(lane, make_reading(chip, seq,
                                        synthetic_reading(spec, chip, seq)))
            .accepted)
      ++enqueued;
  };
  feed(0, 1);  // the poison reading
  for (std::uint64_t t = 1; t <= 40; ++t) {
    feed(2, t);  // same shard, behind the stall
    feed(1, t);  // other shard, must keep flowing throughout
  }

  // Wait for the watchdog to declare the stall and fail the shard over.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fleet.stats().stall_failovers == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(fleet.stats().stall_failovers, 1u);

  // The culprit was poison-pilled; its neighbors keep being served by the
  // replacement worker.
  EXPECT_EQ(fleet.chip_mode(0), ChipMode::kSuspended);
  for (std::uint64_t t = 41; t <= 60; ++t) feed(2, t);
  fleet.stop();

  // Zero loss across the failover: every admitted reading was decided
  // (the suspended chip's as counted drops, the rest as samples).
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.processed, enqueued);
  const ChipStats survivor = fleet.chip_stats(2);
  EXPECT_EQ(survivor.samples, survivor.accepted);
  EXPECT_GT(survivor.samples, 0u);
  // The unrelated shard never noticed: all 40 of chip 1's readings decided.
  EXPECT_EQ(fleet.chip_stats(1).samples, 40u);
}

TEST(MonitorFleet, WokenStalledWorkerNeverTouchesTheReplacementsBatch) {
  // Regression for the failover ownership race: the stalled worker used to
  // rely on the resettable inflight_stolen flag, so if it woke while the
  // replacement was mid-batch under continuous load it would claim the
  // replacement's items — indexing its stale precomputed vector out of
  // bounds and running the same chip's monitor from two threads. With
  // generation-based ownership the woken worker must exit untouched, so
  // the survivor chip's stream stays bit-identical to a standalone monitor
  // even though the staller wakes squarely inside the replacement's run.
  SyntheticFleetSpec spec;
  FleetConfig fc;
  fc.shards = 1;  // both chips share the shard: the load rides behind the stall
  fc.stall_timeout_ms = 60.0;
  fc.watchdog_period_ms = 10.0;
  MonitorFleet fleet(fc);
  auto model = make_synthetic_model(spec);
  for (int c = 0; c < 2; ++c)
    fleet.add_chip(make_synthetic_monitor(spec, model, false), model);
  const ProducerId lane = fleet.register_producer();

  constexpr std::uint64_t kSamples = 400;
  // Chip 0 wedges the original worker well past the failover; chip 1's
  // per-reading delay keeps the replacement mid-batch when the staller
  // finally wakes (~700ms in, with ~800ms of replacement work queued).
  fleet.set_chaos_delay_ms(0, 700.0);
  fleet.set_chaos_delay_ms(1, 2.0);
  fleet.start();
  std::uint64_t enqueued = 0;
  ASSERT_TRUE(
      fleet.ingest(lane, make_reading(0, 1, synthetic_reading(spec, 0, 1)))
          .accepted);
  ++enqueued;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (std::uint64_t t = 1; t <= kSamples; ++t)
    if (fleet.ingest(lane, make_reading(1, t, synthetic_reading(spec, 1, t)))
            .accepted)
      ++enqueued;

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fleet.stats().processed < enqueued &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  fleet.stop();

  EXPECT_GE(fleet.stats().stall_failovers, 1u);
  EXPECT_EQ(fleet.chip_mode(0), ChipMode::kSuspended);
  // Zero loss and zero double-processing across the wake-up.
  EXPECT_EQ(fleet.stats().processed, enqueued);

  // Chip 1's stream survived the failover in order and untouched by the
  // woken staller: counters and alarm transitions match the standalone
  // reference bit-exactly.
  const ReferenceRun ref = run_reference(spec, 2, kSamples);
  const auto states = fleet.persisted_states();
  const auto& got = states[1].monitor;
  const auto& want = ref.counters[1];
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.alarm, want.alarm);
  EXPECT_EQ(got.crossing_streak, want.crossing_streak);
  EXPECT_EQ(got.safe_streak, want.safe_streak);
  EXPECT_EQ(got.alarm_samples, want.alarm_samples);
  EXPECT_EQ(got.alarm_episodes, want.alarm_episodes);
  std::vector<std::uint64_t> transitions;
  for (const AlarmEvent& e : fleet.drain_alarms())
    if (e.chip == 1) transitions.push_back(e.sequence);
  const auto it = ref.transitions.find(1);
  const std::vector<std::uint64_t> want_transitions =
      it == ref.transitions.end() ? std::vector<std::uint64_t>{} : it->second;
  EXPECT_EQ(transitions, want_transitions);
}

}  // namespace
}  // namespace vmap::serve
