#pragma once
// Shared vocabulary of the multi-chip monitoring service.
//
// A MonitorFleet serves many chips, each with its own OnlineMonitor and its
// own fault domain: one chip's poisoned feed (NaN storms, stale replays,
// malformed vectors) is rejected, quarantined, or suspended at that chip's
// boundary and can never crash the fleet or corrupt a neighbor's alarm
// state. These types carry readings in, alarm events out, and the
// per-chip / fleet-wide accounting that the chaos harness and checkpoints
// rely on.

#include <cstddef>
#include <cstdint>
#include <string>

#include "linalg/vector.hpp"

namespace vmap::serve {

/// Dense chip handle assigned by MonitorFleet::add_chip (0-based).
using ChipId = std::uint32_t;

/// Dense producer handle assigned by MonitorFleet::register_producer
/// (0-based). A producer owns one SPSC ingestion ring per shard; the id
/// must only ever be used from one thread at a time.
using ProducerId = std::size_t;

inline constexpr ChipId kNoChip = static_cast<ChipId>(-1);

/// One sensor-reading sample as ingested by the fleet.
struct Reading {
  ChipId chip = kNoChip;
  /// Per-chip monotonically increasing sample number; a reading whose
  /// sequence does not advance past the chip's last accepted one is stale
  /// (duplicate delivery, replayed feed) and is rejected.
  std::uint64_t sequence = 0;
  linalg::Vector values;  ///< aligned with the chip model's sensor_rows()
  /// Stamped by MonitorFleet::ingest (steady-clock ms); alarm latency is
  /// measured from this instant to the decision that raised the alarm.
  double ingest_ms = 0.0;
};

/// Why a reading was not accepted into a chip's monitor.
enum class RejectReason {
  kNone = 0,        ///< accepted
  kUnknownChip,     ///< chip id was never registered
  kMalformed,       ///< reading size does not match the chip's sensor count
  kNonFinite,       ///< NaN/Inf with no safe fallback (see ChipDomain)
  kStale,           ///< sequence did not advance
  kSuspended,       ///< chip is suspended; feed is ignored
  kQuarantined,     ///< chip is quarantined; reading only feeds probation
  kShed,            ///< producer ring full: overload shed (reject-newest)
  kStopped,         ///< fleet is not accepting readings
};
const char* reject_reason_name(RejectReason reason);

/// Per-chip serving mode. Healthy/degraded follow the monitor's own state;
/// quarantine and suspension are the fleet's fault-domain overlay.
enum class ChipMode {
  kHealthy = 0,
  kDegraded,     ///< monitor predicting through its fallback bank
  kQuarantined,  ///< feed misbehaving: readings dropped, probation running
  kSuspended,    ///< fault domain sealed (poison feed or stall poison pill)
};
const char* chip_mode_name(ChipMode mode);

/// Outcome of MonitorFleet::ingest — admission into the producer's ring
/// for the owning shard; the decision itself is made later on that shard.
struct IngestResult {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;
};

/// Emitted whenever a chip's debounced alarm asserts or releases.
struct AlarmEvent {
  ChipId chip = kNoChip;
  std::uint64_t sequence = 0;
  bool asserted = false;        ///< true = alarm raised, false = released
  double worst_voltage = 0.0;   ///< V at the deciding sample
  std::size_t worst_row = 0;
  double latency_ms = 0.0;      ///< ingest-to-decision latency
};

/// Tuning knobs of the fleet. Defaults favor the chaos-harness scale
/// (hundreds of chips, thousands of readings/sec per shard).
struct FleetConfig {
  std::size_t shards = 4;      ///< independent fault/throughput lanes
  std::size_t max_batch = 64;  ///< readings per micro-batch drain
  /// Watchdog: a shard with backlog that has not advanced for this long is
  /// declared stalled and failed over.
  double stall_timeout_ms = 250.0;
  double watchdog_period_ms = 20.0;
  /// Consecutive rejected readings before a chip is quarantined.
  std::size_t quarantine_after = 8;
  /// Clean-looking readings required to leave quarantine.
  std::size_t probation = 16;
  /// Bad readings observed while quarantined before the chip is suspended.
  std::size_t suspend_after = 3;
  /// Group same-model healthy chips into blocked-matmul micro-batches.
  bool batch_predictions = true;
  /// Capacity of each producer→shard SPSC ingestion ring: the bounded
  /// backlog of one lane into one shard. A full ring sheds the newest
  /// reading.
  std::size_t producer_ring_capacity = 4096;
};

/// Per-chip accounting snapshot (all counters since registration/restore).
struct ChipStats {
  ChipId chip = kNoChip;
  ChipMode mode = ChipMode::kHealthy;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_nonfinite = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t dropped_quarantined = 0;
  std::uint64_t dropped_suspended = 0;
  std::uint64_t shed = 0;  ///< readings lost to overload at this chip's shard
  std::uint64_t quarantine_episodes = 0;
  std::uint64_t last_sequence = 0;
  // Mirrors of the monitor's own accounting, for fleet-level reporting.
  std::uint64_t samples = 0;
  std::uint64_t alarm_samples = 0;
  std::uint64_t alarm_episodes = 0;
  std::uint64_t degraded_samples = 0;
  std::uint64_t degraded_episodes = 0;
  bool alarm_active = false;
};

/// Fleet-wide accounting snapshot.
struct FleetStats {
  std::uint64_t ingested = 0;   ///< ingest() calls that named a known chip
  std::uint64_t enqueued = 0;   ///< admitted into a producer ring
  std::uint64_t shed = 0;       ///< rejected-newest under overload
  std::uint64_t processed = 0;  ///< readings decided by shard workers
  std::uint64_t alarm_events = 0;
  std::uint64_t stall_failovers = 0;
  std::uint64_t chips_quarantined = 0;  ///< current count
  std::uint64_t chips_suspended = 0;    ///< current count
};

}  // namespace vmap::serve
