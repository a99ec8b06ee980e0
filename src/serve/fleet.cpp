#include "serve/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <map>
#include <utility>

#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace vmap::serve {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;
/// How long an idle worker sleeps before polling its rings again.
constexpr double kIdleWaitMs = 2.0;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// One same-model group of batch readings staged for a blocked-matmul
/// prediction. The values are copied out up front so the (potentially
/// slow) matmul can run *after* the batch is published to the shard's
/// inflight slot — i.e. while the watchdog can already steal it — without
/// ever reading shared state.
struct PredictionGroup {
  const core::PlacementModel* model = nullptr;
  std::vector<std::size_t> indices;  ///< batch positions, column order
  linalg::Matrix readings;           ///< q_count x indices.size()
};

std::vector<PredictionGroup> build_prediction_plan(
    const std::vector<std::unique_ptr<ChipDomain>>& chips,
    const std::vector<Reading>& batch) {
  // Group eligible readings by shared model: one Q x B blocked matmul per
  // model instead of B matvecs. Eligible = chip opted into batching, is on
  // the healthy fast path, and the reading is well-formed — anything else
  // falls back to the per-sample path inside the monitor, so a wrong
  // grouping guess can cost a wasted column but never change a decision.
  std::map<const core::PlacementModel*, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Reading& r = batch[i];
    const ChipDomain& domain = *chips[r.chip];
    if (!domain.batchable()) continue;
    if (r.values.size() != domain.sensors()) continue;
    bool finite = true;
    for (std::size_t q = 0; q < r.values.size() && finite; ++q)
      finite = std::isfinite(r.values[q]);
    if (!finite) continue;
    groups[domain.shared_model()].push_back(i);
  }
  std::vector<PredictionGroup> plan;
  for (auto& [model, indices] : groups) {
    if (indices.size() < 2) continue;  // matvec already optimal for one
    PredictionGroup group;
    group.model = model;
    const std::size_t q_count = model->sensor_rows().size();
    group.readings = linalg::Matrix(q_count, indices.size());
    for (std::size_t j = 0; j < indices.size(); ++j) {
      const linalg::Vector& values = batch[indices[j]].values;
      for (std::size_t q = 0; q < q_count; ++q)
        group.readings(q, j) = values[q];
    }
    group.indices = std::move(indices);
    plan.push_back(std::move(group));
  }
  return plan;
}

void run_prediction_plan(const std::vector<PredictionGroup>& plan,
                         std::vector<linalg::Vector>& precomputed) {
  for (const PredictionGroup& group : plan) {
    const linalg::Matrix predictions =
        group.model->predict_from_sensor_readings_batch(group.readings);
    for (std::size_t j = 0; j < group.indices.size(); ++j)
      precomputed[group.indices[j]] = predictions.col(j);
  }
}

}  // namespace

MonitorFleet::MonitorFleet(FleetConfig config) : config_(config) {
  config_.shards = std::max<std::size_t>(1, config_.shards);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  config_.producer_ring_capacity =
      std::max<std::size_t>(1, config_.producer_ring_capacity);
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string prefix = "serve.shard" + std::to_string(i);
    shard->depth_gauge = &metrics::gauge(prefix + ".queue_depth");
    shard->inflight_age_gauge = &metrics::gauge(prefix + ".inflight_age_ms");
    shards_.push_back(std::move(shard));
  }
}

MonitorFleet::~MonitorFleet() { stop(); }

ChipId MonitorFleet::add_chip(
    core::OnlineMonitor monitor,
    std::shared_ptr<const core::PlacementModel> shared_model) {
  VMAP_REQUIRE(!running(), "add_chip while the fleet is running");
  ChipDomain::Config dc;
  dc.quarantine_after = config_.quarantine_after;
  dc.probation = config_.probation;
  dc.suspend_after = config_.suspend_after;
  const ChipId id = static_cast<ChipId>(chips_.size());
  chips_.push_back(std::make_unique<ChipDomain>(
      id, std::move(monitor), std::move(shared_model), dc));
  chaos_delay_ms_.push_back(std::make_unique<std::atomic<double>>(0.0));
  return id;
}

ProducerId MonitorFleet::register_producer() {
  VMAP_REQUIRE(!running(), "register_producer while the fleet is running");
  const ProducerId id = producer_count_++;
  for (auto& shard : shards_)
    shard->rings.push_back(
        std::make_unique<SpscRing<Reading>>(config_.producer_ring_capacity));
  return id;
}

IngestResult MonitorFleet::ingest(ProducerId producer, Reading reading) {
  if (!accepting_.load(std::memory_order_acquire))
    return {false, RejectReason::kStopped};
  if (reading.chip >= chips_.size())
    return {false, RejectReason::kUnknownChip};
  VMAP_REQUIRE(producer < producer_count_, "unknown producer id");
  const ChipId chip = reading.chip;
  reading.ingest_ms = now_ms();
  ingested_.fetch_add(1, kRelaxed);
  Shard& shard = *shards_[shard_of(chip)];
  if (shard.rings[producer]->push(std::move(reading))) {
    enqueued_.fetch_add(1, kRelaxed);
    return {true, RejectReason::kNone};
  }
  // Ring full: shed the newest, so what was already admitted still drains
  // within a bounded delay.
  shed_.fetch_add(1, kRelaxed);
  chips_[chip]->count_shed();
  return {false, RejectReason::kShed};
}

std::vector<Reading> MonitorFleet::take_batch(Shard& shard) {
  const std::size_t from_handback =
      std::min(config_.max_batch, shard.handback.size());
  std::vector<Reading> batch(
      std::make_move_iterator(shard.handback.begin()),
      std::make_move_iterator(shard.handback.begin() + from_handback));
  shard.handback.erase(shard.handback.begin(),
                       shard.handback.begin() + from_handback);
  Reading reading;
  for (auto& ring : shard.rings)
    while (batch.size() < config_.max_batch && ring->pop(reading))
      batch.push_back(std::move(reading));
  return batch;
}

std::size_t MonitorFleet::drain_shard(Shard& shard) {
  std::size_t handled = 0;
  for (;;) {
    std::vector<Reading> batch;
    {
      std::lock_guard<std::mutex> lock(shard.inflight_mutex);
      batch = take_batch(shard);
    }
    if (batch.empty()) return handled;
    handled += batch.size();
    std::vector<linalg::Vector> precomputed(batch.size());
    if (config_.batch_predictions)
      run_prediction_plan(build_prediction_plan(chips_, batch), precomputed);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double delay = chaos_delay_ms_[batch[i].chip]->load(kRelaxed);
      if (delay > 0) sleep_ms(delay);
      decide_one(batch[i],
                 precomputed[i].size() ? &precomputed[i] : nullptr);
      shard.handled.fetch_add(1, kRelaxed);
    }
  }
}

std::size_t MonitorFleet::pump() {
  VMAP_REQUIRE(!running(), "pump() is the non-threaded mode; stop() first");
  std::vector<std::size_t> handled(shards_.size(), 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i)
    tasks.push_back(
        [this, i, &handled] { handled[i] = drain_shard(*shards_[i]); });
  parallel_invoke(tasks);
  std::size_t total = 0;
  for (std::size_t n : handled) total += n;
  return total;
}

void MonitorFleet::start() {
  VMAP_REQUIRE(!running(), "fleet is already running");
  watchdog_stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.last_handled = shard.handled.load(kRelaxed);
    shard.stalled_since_ms = -1.0;
    std::uint64_t gen = 0;
    {
      std::lock_guard<std::mutex> lock(shard.inflight_mutex);
      gen = shard.generation;
    }
    shard.worker =
        std::thread([this, &shard, gen] { worker_loop(shard, gen); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void MonitorFleet::stop() {
  if (!running_.exchange(false)) return;
  watchdog_stop_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  // Stop admission: each worker drains what its shard holds and exits.
  accepting_.store(false, std::memory_order_release);
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  // The watchdog is joined, so no new retirements can appear. A retired
  // worker exits as soon as its stall ends.
  for (auto& worker : retired_workers_)
    if (worker.joinable()) worker.join();
  retired_workers_.clear();
  // Ring residue: a producer racing stop() can land a push after its
  // shard's worker checked the rings for the last time. Decide the
  // stragglers here — stop() never discards an admitted reading — then
  // reopen admission so the stopped fleet can still be ingested into and
  // pump()ed.
  for (auto& shard : shards_) drain_shard(*shard);
  accepting_.store(true, std::memory_order_release);
}

void MonitorFleet::worker_loop(Shard& shard, std::uint64_t my_gen) {
  for (;;) {
    std::vector<PredictionGroup> plan;
    std::size_t size = 0;
    {
      std::unique_lock<std::mutex> lock(shard.inflight_mutex);
      std::vector<Reading> batch;
      for (;;) {
        if (shard.generation != my_gen) return;  // replaced by a failover
        batch = take_batch(shard);
        if (!batch.empty()) break;
        // This worker owns the generation, so it is the rings' only
        // consumer and "empty" is exact.
        if (!accepting_.load(std::memory_order_acquire)) return;
        // Producers never signal (their lane stays mutex-free), so an idle
        // worker polls.
        lock.unlock();
        sleep_ms(kIdleWaitMs);
        lock.lock();
      }
      // Publish in the same section that took the batch, so the watchdog
      // can steal any of it from here on. The plan holds copies of the
      // readings, so the prediction matmuls run after publishing, outside
      // the lock — a stall inside them leaves the whole batch stealable.
      if (config_.batch_predictions)
        plan = build_prediction_plan(chips_, batch);
      size = batch.size();
      shard.inflight = std::move(batch);
      shard.inflight_pos = 0;
      shard.inflight_stolen = false;
      shard.inflight_since_ms.store(now_ms(), kRelaxed);
    }
    std::vector<linalg::Vector> precomputed(size);
    run_prediction_plan(plan, precomputed);
    if (!decide_inflight(shard, precomputed, my_gen)) return;
  }
}

bool MonitorFleet::decide_inflight(
    Shard& shard, const std::vector<linalg::Vector>& precomputed,
    std::uint64_t my_gen) {
  for (;;) {
    Reading reading;
    std::size_t index = 0;
    {
      std::lock_guard<std::mutex> lock(shard.inflight_mutex);
      if (shard.generation != my_gen)
        return false;  // failed over mid-batch: remainder was stolen
      if (shard.inflight_pos >= shard.inflight.size()) break;
      index = shard.inflight_pos++;
      reading = std::move(shard.inflight[index]);
      // Published before any potential stall so the watchdog can name the
      // chip to poison-pill.
      shard.current_chip.store(reading.chip, std::memory_order_release);
    }
    const double delay = chaos_delay_ms_[reading.chip]->load(kRelaxed);
    if (delay > 0) sleep_ms(delay);
    decide_one(reading,
               precomputed[index].size() ? &precomputed[index] : nullptr);
    // Clear only if still ours: a replacement worker may have published
    // its own current chip while this (now stalled-and-woken) worker was
    // finishing its claimed reading.
    ChipId mine = reading.chip;
    shard.current_chip.compare_exchange_strong(mine, kNoChip,
                                               std::memory_order_release,
                                               std::memory_order_relaxed);
    shard.handled.fetch_add(1, kRelaxed);
  }
  std::lock_guard<std::mutex> lock(shard.inflight_mutex);
  if (shard.generation != my_gen) return false;
  shard.inflight.clear();
  shard.inflight_pos = 0;
  shard.inflight_since_ms.store(0.0, kRelaxed);
  return true;
}

void MonitorFleet::decide_one(const Reading& reading,
                              const linalg::Vector* precomputed) {
  ChipDomain& domain = *chips_[reading.chip];
  ChipDomain::Outcome outcome = domain.process(reading, precomputed);
  processed_.fetch_add(1, kRelaxed);
  if (outcome.accepted && outcome.alarm_transition) {
    AlarmEvent event;
    event.chip = reading.chip;
    event.sequence = reading.sequence;
    event.asserted = outcome.decision.alarm;
    event.worst_voltage = outcome.decision.worst_voltage;
    event.worst_row = outcome.decision.worst_row;
    event.latency_ms = now_ms() - reading.ingest_ms;
    static metrics::Histogram& alarm_latency = metrics::histogram(
        "serve.alarm_latency_ms", metrics::default_time_buckets_ms());
    alarm_latency.observe(event.latency_ms);
    {
      std::lock_guard<std::mutex> lock(alarm_mutex_);
      alarms_.push_back(event);
    }
    alarm_events_.fetch_add(1, kRelaxed);
  }
}

void MonitorFleet::watchdog_loop() {
  while (!watchdog_stop_.load(std::memory_order_acquire)) {
    sleep_ms(config_.watchdog_period_ms);
    const double now = now_ms();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& shard = *shards_[i];
      const std::uint64_t handled = shard.handled.load(kRelaxed);
      std::size_t backlog = 0;
      for (const auto& ring : shard.rings) backlog += ring->approx_size();
      {
        std::lock_guard<std::mutex> lock(shard.inflight_mutex);
        backlog += shard.handback.size();
        shard.depth_gauge->set(static_cast<double>(backlog));
        backlog += shard.inflight.size() - shard.inflight_pos;
      }
      const double since = shard.inflight_since_ms.load(kRelaxed);
      shard.inflight_age_gauge->set(since > 0 ? now - since : 0.0);
      if (handled != shard.last_handled || backlog == 0) {
        shard.last_handled = handled;
        shard.stalled_since_ms = -1.0;
        continue;
      }
      if (shard.stalled_since_ms < 0) {
        shard.stalled_since_ms = now;
        continue;
      }
      if (now - shard.stalled_since_ms >= config_.stall_timeout_ms) {
        fail_over(i);
        shard.stalled_since_ms = -1.0;
        shard.last_handled = shard.handled.load(kRelaxed);
      }
    }
  }
}

void MonitorFleet::fail_over(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];

  // 1. Steal the un-decided remainder of the inflight batch to the front of
  //    the hand-back list (it predates everything still there and in the
  //    rings), revoke the old worker's batch ownership, and identify the
  //    chip the stuck worker is buried in.
  ChipId culprit = kNoChip;
  std::uint64_t new_gen = 0;
  {
    std::lock_guard<std::mutex> lock(shard.inflight_mutex);
    if (shard.inflight_stolen) return;  // failover already in flight
    shard.handback.insert(
        shard.handback.begin(),
        std::make_move_iterator(shard.inflight.begin() +
                                static_cast<std::ptrdiff_t>(
                                    shard.inflight_pos)),
        std::make_move_iterator(shard.inflight.end()));
    shard.inflight.clear();
    shard.inflight_pos = 0;
    shard.inflight_stolen = true;
    shard.inflight_since_ms.store(0.0, kRelaxed);
    // From here on the old worker exits on its first look at the shard
    // instead of racing the replacement.
    new_gen = ++shard.generation;
    culprit = shard.current_chip.load(std::memory_order_acquire);
  }

  // 2. Poison-pill the culprit so the replacement worker cannot be wedged
  //    by the same chip. The stuck worker only ever touches this chip's
  //    monitor from here on, and only to be told "suspended" — the domain
  //    boundary is what makes the concurrent handoff safe.
  if (culprit != kNoChip) chips_[culprit]->suspend();

  // 3. Park the stuck worker for stop() to join, and hand the shard to a
  //    replacement owning the new generation: it drains the hand-back list
  //    before the rings, so the original order is preserved.
  retired_workers_.push_back(std::move(shard.worker));
  shard.worker =
      std::thread([this, &shard, new_gen] { worker_loop(shard, new_gen); });
  stall_failovers_.fetch_add(1, kRelaxed);
  static metrics::Counter& failovers =
      metrics::counter("serve.stall_failovers");
  failovers.add();
}

std::vector<AlarmEvent> MonitorFleet::drain_alarms() {
  std::lock_guard<std::mutex> lock(alarm_mutex_);
  std::vector<AlarmEvent> out;
  out.swap(alarms_);
  return out;
}

FleetStats MonitorFleet::stats() const {
  FleetStats s;
  s.ingested = ingested_.load(kRelaxed);
  s.enqueued = enqueued_.load(kRelaxed);
  s.shed = shed_.load(kRelaxed);
  s.processed = processed_.load(kRelaxed);
  s.alarm_events = alarm_events_.load(kRelaxed);
  s.stall_failovers = stall_failovers_.load(kRelaxed);
  for (const auto& chip : chips_) {
    const ChipMode mode = chip->mode();
    if (mode == ChipMode::kQuarantined) ++s.chips_quarantined;
    if (mode == ChipMode::kSuspended) ++s.chips_suspended;
  }
  return s;
}

ChipStats MonitorFleet::chip_stats(ChipId chip) const {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  return chips_[chip]->stats();
}

ChipMode MonitorFleet::chip_mode(ChipId chip) const {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  return chips_[chip]->mode();
}

void MonitorFleet::suspend_chip(ChipId chip) {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  chips_[chip]->suspend();
}

void MonitorFleet::resume_chip(ChipId chip) {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  chips_[chip]->resume();
}

void MonitorFleet::set_chaos_delay_ms(ChipId chip, double delay_ms) {
  VMAP_REQUIRE(chip < chips_.size(), "unknown chip id");
  chaos_delay_ms_[chip]->store(delay_ms, kRelaxed);
}

std::vector<ChipDomain::PersistedState> MonitorFleet::persisted_states()
    const {
  std::vector<ChipDomain::PersistedState> states;
  states.reserve(chips_.size());
  for (const auto& chip : chips_) states.push_back(chip->persisted_state());
  return states;
}

Status MonitorFleet::restore_states(
    const std::vector<ChipDomain::PersistedState>& states) {
  if (states.size() != chips_.size())
    return Status::InvalidArgument(
        "checkpoint carries " + std::to_string(states.size()) +
        " chips, fleet has " + std::to_string(chips_.size()));
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    const Status st = chips_[i]->restore(states[i]);
    if (!st.ok())
      return Status(st.code(),
                    "chip " + std::to_string(i) + ": " + st.message());
  }
  return Status::Ok();
}

}  // namespace vmap::serve
