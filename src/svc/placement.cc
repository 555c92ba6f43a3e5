#include "svc/placement.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/cost_model.h"
#include "model/cpu_model.h"

namespace fpart::svc {
namespace {

// A CPU placement runs on the one worker thread that executes the job.
constexpr size_t kCpuThreads = 1;

PlacementDecision DecidePartition(const PlacementInput& in) {
  PlacementDecision d;
  const FpgaCostModel fpga(in.tuple_width, in.fanout);
  d.est_fpga_seconds =
      in.device_cost_scale * fpga.PredictSeconds(in.n_tuples, in.mode,
                                                 LayoutMode::kRid, in.link,
                                                 in.interference);
  d.device_seconds = d.est_fpga_seconds;
  d.est_cpu_seconds =
      in.cpu_cost_scale *
      CpuCostModel::PartitionSeconds(in.n_tuples, kCpuThreads, in.hash);
  d.fpga_latency_seconds = in.fpga_backlog_seconds + d.est_fpga_seconds;
  d.cpu_latency_seconds = in.cpu_backlog_seconds + d.est_cpu_seconds;
  return d;
}

PlacementDecision DecideJoin(const PlacementInput& in) {
  PlacementDecision d;
  const FpgaCostModel fpga(in.tuple_width, in.fanout);
  // Hybrid path (Section 5): the device partitions both relations under
  // the lease, the host runs build+probe afterwards.
  d.device_seconds =
      in.device_cost_scale *
      (fpga.PredictSeconds(in.r_tuples, in.mode, LayoutMode::kRid, in.link,
                           in.interference) +
       fpga.PredictSeconds(in.s_tuples, in.mode, LayoutMode::kRid, in.link,
                           in.interference));
  d.est_fpga_seconds =
      d.device_seconds +
      in.cpu_cost_scale *
          CpuCostModel::BuildProbeSeconds(in.r_tuples + in.s_tuples,
                                          in.r_tuples, in.fanout,
                                          kCpuThreads);
  d.est_cpu_seconds =
      in.cpu_cost_scale *
      CpuCostModel::JoinSeconds(in.r_tuples, in.s_tuples, in.fanout,
                                kCpuThreads, in.hash);
  // The hybrid join is gated on the device from the start (partitioning is
  // its first phase), so the whole path waits out the device backlog.
  d.fpga_latency_seconds = in.fpga_backlog_seconds + d.est_fpga_seconds;
  d.cpu_latency_seconds = in.cpu_backlog_seconds + d.est_cpu_seconds;
  return d;
}

PlacementDecision DecideRebalance(const PlacementInput& in) {
  PlacementDecision d;
  d.backend = Backend::kCpu;
  d.est_cpu_seconds =
      in.cpu_cost_scale *
      (static_cast<double>(in.n_tuples) / kRebalanceTuplesPerSecond);
  d.cpu_latency_seconds = in.cpu_backlog_seconds + d.est_cpu_seconds;
  d.fpga_latency_seconds = std::numeric_limits<double>::infinity();
  return d;
}

}  // namespace

PlacementDecision DecidePlacement(const PlacementInput& in) {
  // Empty jobs never earn a device lease (see placement.h).
  if (in.n_tuples + in.r_tuples + in.s_tuples == 0) {
    PlacementDecision d;
    d.backend = Backend::kCpu;
    d.cpu_latency_seconds = in.cpu_backlog_seconds;
    d.fpga_latency_seconds = in.fpga_backlog_seconds;
    return d;
  }
  if (in.kind == JobKind::kRebalance) return DecideRebalance(in);
  PlacementDecision d = in.kind == JobKind::kPartition ? DecidePartition(in)
                                                       : DecideJoin(in);
  const Backend device_backend =
      in.kind == JobKind::kPartition ? Backend::kFpga : Backend::kHybrid;
  const double margin = kPlacementTieEpsilon *
                        std::max(d.fpga_latency_seconds,
                                 d.cpu_latency_seconds);
  if (d.fpga_latency_seconds <= d.cpu_latency_seconds) {
    d.backend = device_backend;
  } else if (d.fpga_latency_seconds - d.cpu_latency_seconds <= margin) {
    // Nominally slower on the device, but within the tie margin: still
    // offload, because the device run leaves the host cores free.
    d.backend = device_backend;
    d.tie = true;
  } else {
    d.backend = Backend::kCpu;
  }
  return d;
}

}  // namespace fpart::svc
