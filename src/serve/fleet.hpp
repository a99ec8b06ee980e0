#pragma once
// MonitorFleet: the multi-chip serving engine.
//
// Registers N chips (each its own ChipDomain fault domain), admits sensor
// readings through per-producer SPSC lanes (one ring per shard), and
// decides them in micro-batches — same-model healthy chips are grouped so
// their OLS predictions run through the blocked matmul kernels in one call
// (bit-identical to the per-sample path; see
// PlacementModel::predict_from_sensor_readings_batch). Alarm transitions are
// appended to an in-process sink with their ingest-to-decision latency.
//
// Two execution modes share the same decision path:
//
//  * pump() — deterministic: the caller drains every shard on the global
//    thread pool (one parallel task per shard) and returns when all queued
//    readings are decided. This is the mode tests and the bit-identity
//    harness use.
//  * start()/stop() — threaded: one worker thread per shard plus a watchdog.
//    A worker takes a batch from its shard's hand-back list and rings,
//    copies out its prediction plan and publishes it to the shard's
//    inflight slot in one inflight_mutex section, so no popped reading is
//    ever invisible to the watchdog. The watchdog declares a shard stalled
//    when its backlog stops advancing for stall_timeout_ms, then fails it
//    over: the inflight batch remainder is stolen into the shard's
//    hand-back list (which the next consumer drains before the rings, in
//    original order), the chip being processed is suspended (poison pill),
//    and a replacement worker takes over. Batch ownership is a per-shard
//    generation counter bumped at each failover: every worker carries the
//    generation it was spawned with, and the moment the shard's generation
//    moves past it the worker stops touching the shard and exits — so a
//    stalled worker that wakes while its replacement is mid-batch can never
//    claim the replacement's items or run a chip's monitor concurrently
//    with it. No admitted reading is ever silently lost — every one is
//    decided, or dropped with a per-chip counter naming why.
//
// Overload: a push into a full producer ring sheds the newest reading
// (counted per chip and fleet-wide, reported to the caller as kShed).
// Shutdown: stop() lets the workers drain what was admitted before joining,
// then decides whatever a racing producer landed after the last drain.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/online_monitor.hpp"
#include "core/pipeline.hpp"
#include "serve/chip_domain.hpp"
#include "serve/spsc_ring.hpp"
#include "serve/types.hpp"
#include "util/metrics.hpp"
#include "util/status.hpp"

namespace vmap::serve {

class MonitorFleet {
 public:
  explicit MonitorFleet(FleetConfig config = {});
  ~MonitorFleet();
  MonitorFleet(const MonitorFleet&) = delete;
  MonitorFleet& operator=(const MonitorFleet&) = delete;

  /// Registers a chip; returns its dense id. Pass the PlacementModel the
  /// monitor was built from as `shared_model` to let the fleet micro-batch
  /// this chip's healthy-path predictions with same-model peers (typical
  /// fleets monitor many dies of one design). Only valid while not running.
  ChipId add_chip(core::OnlineMonitor monitor,
                  std::shared_ptr<const core::PlacementModel> shared_model =
                      nullptr);
  std::size_t num_chips() const { return chips_.size(); }

  /// Registers an ingestion lane for one producer thread: one SPSC ring
  /// per shard. Only valid while not running. Each chip's feed must stay
  /// on one lane, or the per-chip sequence check would see the lanes'
  /// interleaving as stale replays.
  ProducerId register_producer();

  /// Admission: stamps the ingest time, routes to the owning shard's ring
  /// of this lane, and sheds the newest reading when that ring is full.
  /// Mutex-free; safe only from the single thread driving `producer`. The
  /// decision itself happens later on the shard (pump() or a worker).
  IngestResult ingest(ProducerId producer, Reading reading);

  /// Deterministic mode: decides everything currently queued, one parallel
  /// task per shard on the global pool. Not concurrent with start().
  /// Returns the number of readings handled.
  std::size_t pump();

  /// Threaded mode: spawns one worker per shard plus the watchdog.
  void start();
  /// Drains what was admitted, joins every worker (and every failed-over
  /// worker). The stopped fleet still admits readings for pump().
  /// Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Removes and returns all alarm transitions recorded since the last
  /// drain, in decision order per shard.
  std::vector<AlarmEvent> drain_alarms();

  FleetStats stats() const;
  ChipStats chip_stats(ChipId chip) const;
  ChipMode chip_mode(ChipId chip) const;
  void suspend_chip(ChipId chip);
  void resume_chip(ChipId chip);

  /// Chaos hook: every reading for `chip` sleeps this long before being
  /// decided. A large delay turns the owning shard into a stall (the
  /// watchdog's failover scenario); small ones model slow feeds.
  void set_chaos_delay_ms(ChipId chip, double delay_ms);

  const FleetConfig& config() const { return config_; }

  /// Checkpoint support: per-chip persisted state, chip order == chip id.
  /// Only call while idle (not running, or between pump() calls).
  std::vector<ChipDomain::PersistedState> persisted_states() const;
  /// Restores persisted_states() onto an identically-built fleet (same
  /// chips in the same order). InvalidArgument on a count mismatch; any
  /// per-chip shape mismatch aborts the restore with that chip's status.
  Status restore_states(
      const std::vector<ChipDomain::PersistedState>& states);

 private:
  /// One ingestion/decision lane.
  struct Shard {
    /// One SPSC ingestion ring per registered producer. The vector itself
    /// only changes while the fleet is stopped; ring consumption is
    /// serialized by inflight_mutex (see take_batch).
    std::vector<std::unique_ptr<SpscRing<Reading>>> rings;
    /// Items handled since start; the watchdog's liveness signal.
    std::atomic<std::uint64_t> handled{0};
    /// Guards handback, the inflight slot and generation.
    std::mutex inflight_mutex;
    /// Readings stolen from a failed-over batch. They predate everything
    /// still in the rings, so the next consumer drains them first.
    std::vector<Reading> handback;
    /// Inflight micro-batch, shared with the watchdog for theft.
    std::vector<Reading> inflight;
    std::size_t inflight_pos = 0;
    /// Set by a failover's steal, cleared by the replacement's first
    /// publish: a second failover before then has nothing to steal.
    bool inflight_stolen = false;
    /// Batch-ownership epoch. fail_over() bumps it; a worker whose
    /// spawn-time generation no longer matches has been replaced and must
    /// exit without touching the shard. Unlike inflight_stolen (reset by
    /// the replacement's next publish), this never moves backwards, so a
    /// late-waking retired worker cannot mistake the replacement's batch
    /// for its own.
    std::uint64_t generation = 0;
    std::atomic<ChipId> current_chip{kNoChip};
    std::thread worker;
    // Watchdog bookkeeping (watchdog-thread-owned).
    std::uint64_t last_handled = 0;
    double stalled_since_ms = -1.0;
    /// Observability: registry gauges cached at construction (registration
    /// takes a lock; updates are relaxed stores). Depth tracks the shard's
    /// undecided backlog; inflight age is how long the current published
    /// batch has been outstanding — 0 when none is.
    metrics::Gauge* depth_gauge = nullptr;
    metrics::Gauge* inflight_age_gauge = nullptr;
    /// now_ms() when the current inflight batch was published; 0 between
    /// batches. Written by the owning worker, read by the watchdog.
    std::atomic<double> inflight_since_ms{0.0};
  };

  /// `my_gen` is the shard generation this worker owns; the loop exits as
  /// soon as a failover moves the shard past it.
  void worker_loop(Shard& shard, std::uint64_t my_gen);
  /// Takes up to max_batch readings: the hand-back list first, then the
  /// rings in producer order. Caller holds shard.inflight_mutex.
  std::vector<Reading> take_batch(Shard& shard);
  /// Decides everything the shard holds, unpublished (pump() and the
  /// shutdown residue). Only valid while no worker consumes the shard.
  /// Returns the number of readings handled.
  std::size_t drain_shard(Shard& shard);
  /// Decides the batch published to the shard's inflight slot, claiming
  /// one reading at a time so the watchdog can steal the remainder;
  /// `precomputed` holds the batched predictions by batch position.
  /// Returns false when the shard failed over out from under the caller
  /// (shard.generation != my_gen): the remainder is now the replacement's
  /// responsibility and the caller must exit.
  bool decide_inflight(Shard& shard,
                       const std::vector<linalg::Vector>& precomputed,
                       std::uint64_t my_gen);
  void decide_one(const Reading& reading, const linalg::Vector* precomputed);
  void watchdog_loop();
  void fail_over(std::size_t shard_index);
  std::size_t shard_of(ChipId chip) const {
    return static_cast<std::size_t>(chip) % shards_.size();
  }

  FleetConfig config_;
  std::size_t producer_count_ = 0;
  std::vector<std::unique_ptr<ChipDomain>> chips_;
  std::vector<std::unique_ptr<std::atomic<double>>> chaos_delay_ms_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> watchdog_stop_{false};
  std::thread watchdog_;
  /// Failed-over workers. Watchdog-owned; stop() joins them after joining
  /// the watchdog.
  std::vector<std::thread> retired_workers_;

  std::mutex alarm_mutex_;
  std::vector<AlarmEvent> alarms_;

  std::atomic<std::uint64_t> ingested_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> alarm_events_{0};
  std::atomic<std::uint64_t> stall_failovers_{0};
};

}  // namespace vmap::serve
