#!/usr/bin/env python3
"""Builds and runs fpart's end-to-end benchmark (bench/e2e/README.md).

One workload, as the benchmark contract in BENCHMARK.json calls it:

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints `workload metric value unit` lines and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics; with --trace 1 the run
records spans (written to .bench_build/e2e/traces/NAME.json) and the
metrics are its per_layer metrics, 0 for a layer the workload bypasses.

Without --workload it runs all four workloads, one process each, and
prints their metric lines. --repeat N runs each workload N times with
seeds seed..seed+N-1 and prints the median and quartiles of every
end-to-end metric. --smoke runs the contract command of all four at
FPART_SCALE=0.0625 with short runs, traced and untraced, and checks that
its last line is strict JSON holding every metric with its unit and that
nothing failed.

e2e_bench is built into .bench_build/e2e on first use. The exit code is
non-zero if the build fails or any output check fails.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
WORKLOADS = ["batch_cold", "svc_open", "svc_replay", "stream_drift"]
# svc_replay's determinism hash at full scale for the default seed and the
# held-out one. Every run checks that all its passes agree; a full-scale run
# of one of these seeds also checks the recorded value.
REPLAY_HASHES = {42: "0x71db1b72579cb3f7", 7: "0x5864b38c68ead619"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds e2e_bench; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "e2e_bench")


def run_bench(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process and parses what it printed."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--trace", os.path.join(BUILD, "traces", workload + ".json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    res = {"metrics": {}, "notes": {}, "fails": [], "attempted": 0,
           "failed": 0, "rc": proc.returncode}
    for line in proc.stdout.splitlines():
        parts = line.split(" ", 3)
        if parts[0] == "metric" and len(parts) == 4:
            value = float(parts[2])
            if math.isfinite(value):
                res["metrics"][parts[1]] = (value, parts[3])
            else:
                res["fails"].append("metric %s is %s" % (parts[1], parts[2]))
        elif parts[0] == "note" and len(parts) >= 3:
            res["notes"][parts[1]] = " ".join(parts[2:])
        elif parts[0] == "fail":
            res["fails"].append(line[5:])
        elif parts[0] == "ops" and len(parts) == 3:
            res["attempted"], res["failed"] = int(parts[1]), int(parts[2])
    if proc.returncode != 0 and not res["fails"]:
        res["fails"].append("e2e_bench exited with code %d" % proc.returncode)
    full_scale = float(os.environ.get("FPART_SCALE", "1")) == 1.0
    got = res["notes"].get("replay_hash")
    want = REPLAY_HASHES.get(seed)
    if workload == "svc_replay" and full_scale and want and got != want:
        res["fails"].append("replay hash %s != recorded %s" % (got, want))
    return res


def select(res, specs, fill_missing):
    """The metrics named in `specs`, checked against their units. A metric
    e2e_bench did not print is an error, or 0 when `fill_missing` (a
    per-layer metric of a layer the workload does not use)."""
    out = {}
    for m in specs:
        if m["name"] in res["metrics"]:
            value, unit = res["metrics"][m["name"]]
            if unit != m["unit"]:
                res["fails"].append("%s printed in %s, expected %s"
                                    % (m["name"], unit, m["unit"]))
        elif fill_missing:
            value = 0.0
        else:
            res["fails"].append("metric %s not printed" % m["name"])
            continue
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def print_lines(workload, res):
    for name, (value, unit) in res["metrics"].items():
        print("%s %s %r %s" % (workload, name, value, unit))
    for why in res["fails"]:
        print("%s FAIL %s" % (workload, why))


def ok(res):
    return res["rc"] == 0 and res["failed"] == 0 and not res["fails"]


def contract_run(args, spec, binary):
    res = run_bench(binary, args.workload, args.seed, args.seconds,
                    args.trace)
    metrics = select(res, spec["per_layer"] if args.trace else
                     spec["end_to_end"], fill_missing=bool(args.trace))
    print_lines(args.workload, res)
    print(json.dumps({"correct": ok(res),
                      "attempted": max(1, res["attempted"]),
                      "failed": res["failed"] or (0 if ok(res) else 1),
                      "metrics": metrics}, allow_nan=False))
    return 0 if ok(res) else 1


def repeat_run(args, spec, binary, workloads):
    status = 0
    for w in workloads:
        runs = [run_bench(binary, w, args.seed + k, args.seconds, args.trace)
                for k in range(args.repeat)]
        status |= 0 if all(ok(r) for r in runs) else 1
        names = [m["name"] for m in
                 (spec["per_layer"] if args.trace else spec["end_to_end"])]
        for name in names:
            vals = [r["metrics"][name][0] for r in runs if name in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print("%s %s median %r q1 %r q3 %r spread %.4f n %d"
                  % (w, name, med, q1, q3, spread, len(vals)))
        for r in runs:
            for why in r["fails"]:
                print("%s FAIL %s" % (w, why))
    return status


def strict_json(line):
    """json.loads that refuses NaN and Infinity, as strict parsers do."""
    def reject(name):
        raise ValueError("non-standard constant " + name)
    return json.loads(line, parse_constant=reject)


def smoke_run(spec, binary):
    """Runs the contract command of every workload, untraced and traced, at
    FPART_SCALE=0.0625 with 2 s runs. Its last line must parse as strict
    JSON, hold every metric of BENCHMARK.json with its unit and report no
    failure; every per-layer metric must be printed by some workload."""
    env = dict(os.environ, FPART_SCALE="0.0625")
    errors = []
    printed = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            where = "%s trace=%d" % (w, trace)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w,
                 "--seed", "42", "--seconds", "2", "--trace", str(trace),
                 "--bin", binary], stdout=subprocess.PIPE, text=True, env=env)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write(proc.stdout)
            for line in lines[:-1]:
                parts = line.split(" ")
                if len(parts) == 4 and parts[0] == w and parts[1] != "FAIL":
                    printed[parts[1]] = parts[3]
            try:
                result = strict_json(lines[-1])
            except (IndexError, ValueError) as e:
                errors.append("%s: last line is not strict JSON: %s"
                              % (where, e))
                continue
            specs = spec["per_layer"] if trace else spec["end_to_end"]
            if set(result["metrics"]) != {m["name"] for m in specs}:
                errors.append("%s: metrics differ from BENCHMARK.json" % where)
            for m in specs:
                got = result["metrics"].get(m["name"], {}).get("unit")
                if got != m["unit"]:
                    errors.append("%s: %s has unit %s, expected %s"
                                  % (where, m["name"], got, m["unit"]))
            if proc.returncode != 0 or not result["correct"] or \
                    result["failed"] != 0:
                errors.append("%s: %d of %d ops failed, exit code %d"
                              % (where, result["failed"], result["attempted"],
                                 proc.returncode))
    for m in spec["per_layer"]:
        if m["name"] not in printed:
            errors.append("per-layer metric %s printed by no workload"
                          % m["name"])
        elif printed[m["name"]] != m["unit"]:
            errors.append("per-layer metric %s printed in %s, expected %s"
                          % (m["name"], printed[m["name"]], m["unit"]))
    for e in sorted(set(errors)):
        print("SMOKE FAIL " + e)
    return 1 if errors else 0


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin", help="use this e2e_bench instead of building")
    args = p.parse_args()
    try:
        binary = args.bin or build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1
    if args.smoke:
        return smoke_run(spec, binary)
    if args.repeat > 0:
        return repeat_run(args, spec, binary,
                          [args.workload] if args.workload else WORKLOADS)
    if args.workload:
        return contract_run(args, spec, binary)
    status = 0
    for w in WORKLOADS:
        res = run_bench(binary, w, args.seed, args.seconds, args.trace)
        print_lines(w, res)
        status |= 0 if ok(res) else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
