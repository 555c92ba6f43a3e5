#!/usr/bin/env python3
"""Validate that the bench binaries' --json output follows the documented
fpart.obs.v1 envelope (docs/observability.md).

Runs micro_sim, micro_partition, ext_join_algorithms and ext_service in
--json mode (small workloads) and asserts, for each document:

* the envelope keys schema/benchmark/config/results/metrics, with
  schema == "fpart.obs.v1";
* every metrics entry carries type + unit, counters a "value", histograms
  count/sum/min/max/mean/p50/p99;
* the metric names each binary is documented to emit are present.

Usage: python3 scripts/check_bench_schema.py [--bindir build/bench]
"""
import argparse
import json
import os
import re
import subprocess
import sys

ENVELOPE_KEYS = ["schema", "benchmark", "config", "results", "metrics"]

# The pinning policies ParseAffinityPolicy accepts (canonical spellings —
# AffinityPolicyName output). Any other value in a config "affinity" field
# is a bug in the emitting bench.
VALID_AFFINITY = {"none", "compact", "scatter", "numa-local"}

# Hardware counter keys (obs/perf_counters.h): per-phase perf_event deltas.
# They appear both as registry metrics and as per-row result fields, and
# only when the host exposes a PMU — absence is fine, garbage names are not.
HW_KEY_RE = re.compile(
    r"^hw\.(histogram|scatter)\."
    r"(cycles|instructions|llc_misses|dtlb_misses)$")

EXT_SERVICE_METRICS = [
    "svc.jobs.submitted", "svc.jobs.completed",
    "svc.placed.cpu", "svc.placed.fpga",
    "svc.job.queue_us", "svc.job.total_us",
    "svc.fpga.lease_wait_us",
    "svc.device.0.grants", "svc.device.0.busy_us",
    "svc.device.1.grants", "svc.device.1.busy_us",
    "svc.class.interactive.submitted",
    "svc.class.interactive.completed",
    "svc.class.interactive.total_us",
    "svc.class.batch.completed",
    "svc.class.besteffort.completed",
]

# Cluster-layer metrics ext_cluster must publish (docs/observability.md:
# shard.* is the routing/migration account, svc.remote.* the cross-node
# traffic). All are registered at cluster construction, so they are
# present — possibly zero — in every document.
EXT_CLUSTER_METRICS = [
    "shard.lookups", "shard.migrations", "shard.rebalances",
    "shard.epoch", "shard.imbalance",
    "svc.remote.submitted", "svc.remote.completed",
    "svc.remote.bytes", "svc.remote.hop_us",
    "svc.jobs.submitted", "svc.jobs.completed",
]

# Streaming-store metrics ext_stream must publish (docs/streaming.md).
# The stream.store/ingest/read families are registered at store
# construction, so they are present in every arm; the hotspot/rebalance
# job counters only exist once the repartition loop actually ran, so the
# --repartition off arm checks the base set only.
EXT_STREAM_METRICS = [
    "stream.ingest.tuples", "stream.ingest.batches",
    "stream.ingest.drain_us", "stream.ingest.buffered",
    "stream.read.ops", "stream.read.scan_tuples", "stream.read.us",
    "stream.store.buckets", "stream.store.depth", "stream.store.epoch",
    "stream.store.tuples", "stream.store.imbalance",
    "stream.rebalance.splits", "stream.rebalance.merges",
    "stream.rebalance.stale", "stream.rebalance.moved_tuples",
    "svc.jobs.submitted", "svc.jobs.completed",
    "svc.place.err_pct.cpu.small",
]
EXT_STREAM_METRICS_ON = EXT_STREAM_METRICS + [
    "stream.hotspot.ticks", "stream.hotspot.split_decisions",
    "stream.hotspot.merge_decisions", "stream.rebalance.jobs",
]

# The drift-schedule + repartition knobs every ext_stream document must
# carry (the A/B arms are distinguished by config, not by shape).
EXT_STREAM_CONFIG_KEYS = [
    "ops", "batch", "clients", "read_frac", "keys",
    "theta0", "theta1", "shift_start_op", "shift_end_op", "rotate_every",
    "seed", "deterministic", "repartition", "tick_every_drains",
    "flip_delay_ticks", "split_min_tuples", "windows",
    "drain_engine",
]

# Result-object keys ext_stream must report, and the fields each carries.
EXT_STREAM_RESULT_KEYS = {
    "ingest": ["tuples", "batches", "tuples_per_sec"],
    "store": ["buckets", "depth", "epoch", "imbalance"],
    "rebalance": ["jobs", "splits", "merges", "stale", "abandoned",
                  "ticks"],
    "phase_pre": ["reads", "scan_p50", "scan_p95", "scan_p99", "p99_us"],
    "phase_shift": ["reads", "scan_p50", "scan_p95", "scan_p99", "p99_us"],
    "phase_post": ["reads", "scan_p50", "scan_p95", "scan_p99", "p99_us"],
    "keys_accounted": ["ingested", "resident", "lost", "duplicated",
                       "checksum_ok"],
    "foreground": ["jobs", "completed", "failed"],
}

# Result-object keys ext_cluster must report, and the fields each carries.
EXT_CLUSTER_RESULT_KEYS = {
    "latency": ["p50_us", "p95_us", "p99_us", "mean_us"],
    "remote": ["submitted", "completed", "bytes", "share", "mean_hop_us"],
    "migration": ["migrations", "rebalances", "epoch", "load_imbalance"],
    "jobs_accounted": ["completed", "failed", "shed", "lost",
                       "epoch_violations"],
}

# (case name, binary, args, metric names the run must publish,
#  config keys the document must carry).
CASES = [
    ("micro_sim", "micro_sim", ["--json", "200000"],
     ["sim.runs", "sim.cycles", "sim.flush_drain_cycles",
      "sim.hash_lane.input_lines",
      "sim.write_combiner.stall_cycles",
      "sim.write_back.dummy_tuples", "qpi.read_lines",
      "qpi.write_lines", "qpi.read_stall_cycles",
      "qpi.write_stall_cycles", "qpi.bytes"],
     []),
    ("micro_partition", "micro_partition", ["--json", "1000000"],
     ["cpu.partition.runs", "cpu.partition.tuples",
      "cpu.partition.histogram_us",
      "cpu.partition.scatter_us"],
     ["affinity", "hw_counters"]),
    # Affinity sweep benches: every row carries an affinity_none vs
    # affinity_<policy> variant; hw.* fields ride along when a PMU exists.
    ("fig04_cpu_partitioning", "fig04_cpu_partitioning",
     ["--json", "400000"],
     ["cpu.partition.runs", "cpu.partition.histogram_us",
      "cpu.partition.scatter_us"],
     ["affinity", "hw_counters", "num_nodes"]),
    ("fig11_threads", "fig11_threads", ["--json"],
     ["join.radix.runs", "join.matches", "cpu.partition.runs"],
     ["affinity", "hw_counters", "num_nodes"]),
    ("ext_join_algorithms", "ext_join_algorithms", ["--json"],
     ["join.radix.runs", "join.matches",
      "cpu.partition.runs"],
     []),
    ("ext_service", "ext_service",
     ["--json", "--jobs", "2000", "--clients", "4",
      "--fpga_devices", "2", "--classes", "8,3,1"],
     EXT_SERVICE_METRICS,
     ["sim_mode", "sim_cache", "sim_cache_warmup", "affinity"]),
    # Memoization: the run must additionally publish the cache counters.
    # Warmup pre-runs every job shape, so the "warmup" result row must be
    # present. The service only reads its hits, so sim.cache.copied_bytes
    # must be 0 (checked in validate()).
    ("ext_service_cache", "ext_service",
     ["--json", "--jobs", "2000", "--clients", "4",
      "--fpga_devices", "2", "--classes", "8,3,1",
      "--sim_cache", "1", "--sim_cache_warmup", "1"],
     EXT_SERVICE_METRICS + ["sim.cache.hits", "sim.cache.misses",
                            "sim.cache.entries", "sim.cache.bytes",
                            "sim.cache.copied_bytes"],
     ["sim_mode", "sim_cache", "sim_cache_warmup", "affinity"]),
    # SLO-aware admission control (svc/admission.h): the run must publish
    # the svc.adm.*/svc.slo.* account, the per-class slo_* attainment rows
    # and the "admission" result row; deterministic mode additionally
    # proves zero admitted-then-missed (the binary exits non-zero
    # otherwise, which the returncode check above already enforces).
    ("ext_service_admission", "ext_service",
     ["--json", "--jobs", "2000", "--clients", "4",
      "--fpga_devices", "2", "--classes", "8,3,1",
      "--sim_cache", "1", "--deterministic", "1", "--rate", "16000",
      "--admission", "1", "--slo", "0.5,2,8"],
     EXT_SERVICE_METRICS + ["svc.adm.considered", "svc.adm.admitted",
                            "svc.adm.rejected.slo",
                            "svc.adm.rejected.deadline",
                            "svc.adm.predicted_us",
                            "svc.slo.rejected.interactive",
                            "svc.slo.rejected.batch",
                            "svc.slo.rejected.besteffort",
                            "svc.adm.correction.cpu.small",
                            "svc.adm.correction.fpga.large"],
     ["sim_mode", "sim_cache", "admission", "slo_seconds"]),
    # The cluster bench (docs/distributed.md): shard-routed federation of
    # service nodes, migration off ...
    ("ext_cluster", "ext_cluster",
     ["--json", "--jobs", "600", "--clients", "4", "--nodes", "2"],
     EXT_CLUSTER_METRICS,
     ["nodes", "buckets", "keys", "zipf", "migration", "rebalance_every",
      "rebalance_top_k", "link_gbs", "sim_mode"]),
    # ... and migration on under a hot-key workload: the rebalance cadence
    # must have fired and every epoch must trace to the migration log.
    ("ext_cluster_migration", "ext_cluster",
     ["--json", "--jobs", "600", "--clients", "4", "--nodes", "4",
      "--zipf", "1.2", "--migration", "on", "--rebalance-every", "100"],
     EXT_CLUSTER_METRICS,
     ["nodes", "buckets", "keys", "zipf", "migration", "rebalance_every",
      "rebalance_top_k", "link_gbs", "sim_mode"]),
    # The streaming store (docs/streaming.md): drifting-Zipf ingest with
    # online repartitioning on ...
    ("ext_stream", "ext_stream",
     ["--json", "--ops", "2000", "--clients", "3"],
     EXT_STREAM_METRICS_ON, EXT_STREAM_CONFIG_KEYS),
    # ... and the A/B control arm with repartitioning off: same envelope,
    # zero rebalance jobs, and the key audit must still hold.
    ("ext_stream_off", "ext_stream",
     ["--json", "--ops", "2000", "--clients", "3", "--repartition", "off"],
     EXT_STREAM_METRICS, EXT_STREAM_CONFIG_KEYS),
]

# Result-object keys ext_service must report per priority class and per
# device (the per-class latency percentiles and the utilization mix).
EXT_SERVICE_RESULT_KEYS = [
    "class_interactive", "class_batch", "class_besteffort",
    "device_0", "device_1",
]

HISTOGRAM_FIELDS = ["count", "sum", "min", "max", "mean", "p50", "p99"]


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(name: str, doc: dict, expected_metrics,
             expected_config=()) -> None:
    for key in ENVELOPE_KEYS:
        if key not in doc:
            fail(f"{name}: envelope key '{key}' missing")
    if doc["schema"] != "fpart.obs.v1":
        fail(f"{name}: schema is {doc['schema']!r}, not 'fpart.obs.v1'")
    if not isinstance(doc["config"], dict) or not doc["config"]:
        fail(f"{name}: config must be a non-empty object")
    if not isinstance(doc["results"], dict) or not doc["results"]:
        fail(f"{name}: results must be a non-empty object")
    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        fail(f"{name}: metrics must be an object")
    for mname, m in metrics.items():
        if "type" not in m or "unit" not in m:
            fail(f"{name}: metric {mname} lacks type/unit")
        if m["type"] in ("counter",) and "value" not in m:
            fail(f"{name}: counter {mname} lacks value")
        if m["type"] == "histogram":
            for field in HISTOGRAM_FIELDS:
                if field not in m:
                    fail(f"{name}: histogram {mname} lacks {field}")
    for mname in expected_metrics:
        if mname not in metrics:
            fail(f"{name}: documented metric '{mname}' missing "
                 f"(have: {sorted(metrics)})")
    for ckey in expected_config:
        if ckey not in doc["config"]:
            fail(f"{name}: documented config key '{ckey}' missing "
                 f"(have: {sorted(doc['config'])})")
    # Affinity and hw.* validation applies to every document that carries
    # them, whichever bench emitted it.
    affinity = doc["config"].get("affinity")
    if affinity is not None and affinity not in VALID_AFFINITY:
        fail(f"{name}: unknown affinity value {affinity!r} "
             f"(expected one of {sorted(VALID_AFFINITY)})")
    hw_cfg = doc["config"].get("hw_counters")
    if hw_cfg is not None and hw_cfg not in ("available", "unavailable"):
        fail(f"{name}: hw_counters must be available|unavailable, "
             f"got {hw_cfg!r}")
    hw_fields = 0
    for rname, robj in doc["results"].items():
        if not isinstance(robj, dict):
            continue
        for fkey, fval in robj.items():
            if not fkey.startswith("hw."):
                continue
            if not HW_KEY_RE.match(fkey):
                fail(f"{name}: result {rname} has malformed hw key "
                     f"'{fkey}'")
            if not isinstance(fval, (int, float)) or fval < 0:
                fail(f"{name}: result {rname} hw key '{fkey}' must be a "
                     f"non-negative number, got {fval!r}")
            hw_fields += 1
    for mname in metrics:
        if mname.startswith("hw.") and not HW_KEY_RE.match(mname):
            fail(f"{name}: malformed hw metric name '{mname}'")
    # Counters absent when the PMU is absent, present when it is not —
    # never half-emitted.
    if hw_cfg == "unavailable" and hw_fields > 0:
        fail(f"{name}: hw_counters=unavailable but {hw_fields} hw.* "
             f"result fields present")
    if name.startswith("ext_service"):
        for rkey in EXT_SERVICE_RESULT_KEYS:
            if rkey not in doc["results"]:
                fail(f"{name}: result object '{rkey}' missing "
                     f"(have: {sorted(doc['results'])})")
        for cls in ("interactive", "batch", "besteffort"):
            obj = doc["results"][f"class_{cls}"]
            for field in ("count", "p50_us", "p95_us", "p99_us",
                          "weight_share"):
                if field not in obj:
                    fail(f"{name}: class_{cls} lacks '{field}'")
        # A hit shares the cached output; any copy-on-write detach means
        # some consumer wrote into (or read non-const from) a shared hit.
        copied = metrics.get("sim.cache.copied_bytes", {}).get("value", 0)
        if copied != 0:
            fail(f"{name}: sim.cache.copied_bytes is {copied}, expected 0 "
                 f"(hits must be read in place)")
        if doc["config"].get("sim_cache_warmup") == 1:
            warm = doc["results"].get("warmup")
            if not isinstance(warm, dict) or "runs" not in warm:
                fail(f"{name}: sim_cache_warmup=1 but no warmup result "
                     f"row with a 'runs' field")
        if doc["config"].get("admission") == 1:
            adm = doc["results"].get("admission")
            if not isinstance(adm, dict):
                fail(f"{name}: admission=1 but no 'admission' result row")
            for field in ("considered", "admitted", "rejected",
                          "rejected_slo", "rejected_deadline",
                          "missed_after_admit"):
                if field not in adm:
                    fail(f"{name}: admission row lacks '{field}'")
            # The tentpole invariant: an admitted job never finishes past
            # the budget its (deterministic-mode exact) prediction fit.
            if doc["config"].get("deterministic") == 1 and \
                    adm["missed_after_admit"] != 0:
                fail(f"{name}: {adm['missed_after_admit']} admitted jobs "
                     f"missed their budget in deterministic mode")
            if adm["considered"] < adm["admitted"]:
                fail(f"{name}: considered {adm['considered']} < admitted "
                     f"{adm['admitted']}")
            for cls in ("interactive", "batch", "besteffort"):
                row = doc["results"].get(f"slo_{cls}")
                if not isinstance(row, dict):
                    fail(f"{name}: admission=1 but no 'slo_{cls}' row")
                for field in ("slo_us", "completed", "within_slo",
                              "attainment", "p99_us", "rejected"):
                    if field not in row:
                        fail(f"{name}: slo_{cls} lacks '{field}'")
    if name.startswith("ext_cluster"):
        for rkey, fields in EXT_CLUSTER_RESULT_KEYS.items():
            obj = doc["results"].get(rkey)
            if not isinstance(obj, dict):
                fail(f"{name}: result object '{rkey}' missing "
                     f"(have: {sorted(doc['results'])})")
            for field in fields:
                if field not in obj:
                    fail(f"{name}: result '{rkey}' lacks '{field}'")
        for n in range(int(doc["config"]["nodes"])):
            obj = doc["results"].get(f"node_{n}")
            if not isinstance(obj, dict):
                fail(f"{name}: per-node result 'node_{n}' missing")
            for field in ("jobs", "remote_jobs", "load",
                          "virtual_makespan_seconds"):
                if field not in obj:
                    fail(f"{name}: node_{n} lacks '{field}'")
        if "determinism_hash" not in doc["results"]:
            fail(f"{name}: determinism_hash missing")
        acct = doc["results"]["jobs_accounted"]
        if acct["lost"] != 0 or acct["epoch_violations"] != 0:
            fail(f"{name}: {acct['lost']} lost jobs, "
                 f"{acct['epoch_violations']} epoch violations")
        mig = doc["results"]["migration"]
        if mig["epoch"] != mig["migrations"]:
            fail(f"{name}: epoch {mig['epoch']} != migrations "
                 f"{mig['migrations']} (one migration == one epoch)")
        if doc["config"].get("migration") == 1 and mig["rebalances"] == 0:
            fail(f"{name}: migration on but no rebalance scan ran")
    if name.startswith("ext_stream"):
        for rkey, fields in EXT_STREAM_RESULT_KEYS.items():
            obj = doc["results"].get(rkey)
            if not isinstance(obj, dict):
                fail(f"{name}: result object '{rkey}' missing "
                     f"(have: {sorted(doc['results'])})")
            for field in fields:
                if field not in obj:
                    fail(f"{name}: result '{rkey}' lacks '{field}'")
        for w in range(int(doc["config"]["windows"])):
            obj = doc["results"].get(f"window_{w:02d}")
            if not isinstance(obj, dict):
                fail(f"{name}: time-series row 'window_{w:02d}' missing")
            for field in ("op_lo", "reads", "scan_p50", "scan_p99",
                          "p99_us"):
                if field not in obj:
                    fail(f"{name}: window_{w:02d} lacks '{field}'")
        acct = doc["results"]["keys_accounted"]
        if acct["lost"] != 0 or acct["duplicated"] != 0:
            fail(f"{name}: {acct['lost']} lost / {acct['duplicated']} "
                 f"duplicated keys across epoch flips")
        if acct["checksum_ok"] != 1:
            fail(f"{name}: key fingerprint checksum mismatch")
        if doc["config"].get("deterministic") == 1 and \
                "determinism_hash" not in doc["results"]:
            fail(f"{name}: deterministic run without determinism_hash")
        if doc["config"].get("repartition") == 0 and \
                doc["results"]["rebalance"]["jobs"] != 0:
            fail(f"{name}: repartition off but rebalance jobs ran")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--bindir", default="build/bench")
    args = parser.parse_args()

    env = dict(os.environ)
    # Small join workload so the check stays fast.
    env.setdefault("FPART_SCALE", "0.0625")

    checked = 0
    for case, binary, argv, expected, expected_config in CASES:
        path = os.path.join(args.bindir, binary)
        if not os.path.exists(path):
            fail(f"{path} not built")
        proc = subprocess.run([path] + argv, capture_output=True, text=True,
                              env=env, timeout=600)
        if proc.returncode != 0:
            fail(f"{case} exited {proc.returncode}: {proc.stderr}")
        try:
            doc = json.loads(proc.stdout)
        except ValueError as e:
            fail(f"{case}: output is not valid JSON ({e}):\n{proc.stdout}")
        validate(case, doc, expected, expected_config)
        checked += 1
    print(f"OK: {checked} bench JSON documents match fpart.obs.v1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
