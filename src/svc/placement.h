// Backend placement policy of the svc scheduler.
//
// DecidePlacement is a *pure function* of its input: the Section 4.6 FPGA
// cost model and the calibrated CPU model predict the service time of the
// job on each backend, each backend's current backlog (model seconds of
// already-placed, unfinished work) is added as queueing delay, and the
// backend with the lower end-to-end latency wins. Ties — within a relative
// epsilon — go to the FPGA: the paper's core argument (Sections 2, 5.4) is
// that offloading frees the CPU cores for other work, so at equal latency
// the device is strictly preferable.
//
// Purity is what makes the deterministic replay mode possible: given the
// same job stream and the same virtual backlog evolution, every run makes
// identical decisions regardless of thread interleaving.
#pragma once

#include <cstdint>

#include "fpga/config.h"
#include "hash/hash_function.h"
#include "svc/job.h"

namespace fpart::svc {

/// Everything the policy is allowed to look at.
struct PlacementInput {
  JobKind kind = JobKind::kPartition;

  /// Partition jobs: input cardinality. Join jobs: build/probe cardinality.
  /// Rebalance jobs: the tuples the rebuild touches (n_tuples).
  uint64_t n_tuples = 0;
  uint64_t r_tuples = 0;
  uint64_t s_tuples = 0;

  /// Circuit / request configuration.
  int tuple_width = 8;
  uint32_t fanout = 2048;
  OutputMode mode = OutputMode::kPad;
  LinkKind link = LinkKind::kXeonFpga;
  HashMethod hash = HashMethod::kMurmur;
  Interference interference = Interference::kAlone;

  /// Queueing delay in model seconds on each backend, as the scheduler's
  /// BacklogLedger quotes it (backlog_ledger.h): wall time, the CPU
  /// backlog over the active workers and the least-backlogged device's
  /// backlog; virtual time, the earliest free worker/device clock minus
  /// the job's arrival.
  double fpga_backlog_seconds = 0.0;
  double cpu_backlog_seconds = 0.0;

  /// EWMA-corrected cost plumbing (svc/admission.h): multiplicative
  /// scales the admission controller learned for this job's
  /// (backend, size-class) cells, applied to the static Section 4.6/4.8
  /// estimates. 1.0 = trust the static model (the default, and always the
  /// value in deterministic mode, where learning is off so replays stay
  /// bit-identical). `device_cost_scale` covers the device-side phases
  /// (FPGA partitioning passes); `cpu_cost_scale` covers CPU service time
  /// (partition/join/build+probe).
  double cpu_cost_scale = 1.0;
  double device_cost_scale = 1.0;
};

/// The policy's verdict plus the estimates that produced it (the scheduler
/// records them for backlog accounting and observability).
struct PlacementDecision {
  Backend backend = Backend::kCpu;
  /// Service time (model seconds, no queueing) on each path. For joins the
  /// FPGA path is the hybrid join (device partitioning + CPU build/probe).
  double est_fpga_seconds = 0.0;
  double est_cpu_seconds = 0.0;
  /// Portion of est_fpga_seconds spent holding the device lease — what the
  /// arbiter backlog is charged. Equals est_fpga_seconds for partition
  /// jobs; for hybrid joins it covers only the partitioning passes.
  double device_seconds = 0.0;
  /// End-to-end latency estimates including the backlog queueing delay.
  double fpga_latency_seconds = 0.0;
  double cpu_latency_seconds = 0.0;
  /// The two latencies were within the tie epsilon (FPGA chosen).
  bool tie = false;
};

/// Relative latency margin inside which the FPGA is preferred even when it
/// is nominally slower (it frees the host cores).
inline constexpr double kPlacementTieEpsilon = 0.05;

/// Rebalance (layout maintenance) rebuilds are a memcpy-speed snapshot plus
/// one scatter pass; a flat tuple rate is close enough for backlog
/// accounting (the svc.place.err_pct histograms measure how close).
inline constexpr double kRebalanceTuplesPerSecond = 250e6;

/// Zero-tuple jobs (empty relations on both sides) run on the CPU with
/// zero estimates: there is nothing to stream, so a device lease
/// round-trip is pure overhead — and the cost model's rate equations are
/// undefined at n = 0. Rebalance jobs always run on the CPU: there is no
/// device kernel for a rebuild of host-resident buckets, so their device
/// latency is +inf.
PlacementDecision DecidePlacement(const PlacementInput& in);

}  // namespace fpart::svc
