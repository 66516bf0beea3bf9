#!/usr/bin/env python3
"""Runs the Falcon repository benchmark.

Builds benchmark/ (its own CMake project over ../src) into build-bench/, runs
each workload in a fresh falcon_bench process and prints every metric as
`<workload> <metric> <value> <unit>`.

  run.py --workload W --seed N --seconds S --trace 0|1
      One run. The last stdout line is a JSON object with the keys correct,
      attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
      with --trace 0, its per-layer metrics with --trace 1. A traced run also
      runs the same seed untraced first: the traced run must reproduce its
      simulated results and engine counters exactly, and the difference in
      host throughput is trace.overhead_frac.
  run.py [--trace]             every workload, one process each
  run.py --check               determinism and steady-state checks
  run.py --self-test           the benchmark's own tests

Exits non-zero when a check fails or the program cannot be built or run.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / "build-bench"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ["tpcc", "ycsb_b_zipf_b8", "ycsb_a_uniform", "bank_2shard"]
# Simulated-clock and counter-derived metrics: identical for a given seed.
DETERMINISTIC = ["sim_tput_mtps", "sim_p50_us", "sim_p999_us", "media_write_amp",
                 "nvm_space_amp", "commit_frac"]
RUN_TIMEOUT_S = 160
STEADY_STATE_TOLERANCE = 0.05


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; all tool output goes to stderr."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", str(BUILD), "-j", jobs]):
            try:
                subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
            except (OSError, subprocess.CalledProcessError) as e:
                raise BenchError(f"build failed: {e}") from e


def launcher():
    """Runs the program with address-space randomization off, when possible.

    The cache model sees DRAM addresses (MVOCC version heaps), so simulated
    results repeat across processes only if the heap lands at the same place.
    """
    setarch = shutil.which("setarch")
    if setarch is not None:
        cmd = [setarch, platform.machine(), "-R"]
        if subprocess.run(cmd + ["true"], capture_output=True).returncode == 0:
            return cmd
    log("warning: cannot disable address-space randomization; "
        "MVOCC simulated results may vary between processes")
    return []


def parse(text):
    out = {"metrics": {}, "units": {}, "counters": {}, "checks": [], "info": []}
    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        if f[0] == "metric" and len(f) == 4:
            out["metrics"][f[1]] = float(f[2])
            out["units"][f[1]] = f[3]
        elif f[0] == "counter" and len(f) == 3:
            out["counters"][f[1]] = int(f[2])
        elif f[0] == "check" and len(f) >= 3:
            out["checks"].append((f[1], f[2] == "pass", " ".join(f[3:])))
        elif f[0] == "info":
            out["info"].append(" ".join(f[1:]))
        elif f[0] == "result" and len(f) == 7:
            out["attempted"], out["failed"], out["check_failures"] = (
                int(f[2]), int(f[4]), int(f[6]))
    if "attempted" not in out:
        raise BenchError("falcon_bench printed no result line")
    return out


def run_binary(workload, seed, seconds, trace, prefix):
    cmd = prefix + [str(BUILD / "falcon_bench"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace_{workload}.json")]
    # FALCON_TRACE and friends would change the engine's allocations.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FALCON_")}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload}: falcon_bench exited with {proc.returncode}")
    return parse(proc.stdout)


def differences(a, b):
    """Deterministic metrics and engine counters that differ between runs."""
    diffs = [f"{m}: {a['metrics'][m]!r} vs {b['metrics'][m]!r}"
             for m in DETERMINISTIC if a["metrics"][m] != b["metrics"][m]]
    for name in sorted(set(a["counters"]) | set(b["counters"])):
        if a["counters"].get(name) != b["counters"].get(name):
            diffs.append(f"counter {name}: {a['counters'].get(name)} vs "
                         f"{b['counters'].get(name)}")
    return diffs


def print_run(workload, run):
    for name, value in run["metrics"].items():
        print(f"{workload} {name} {value!r} {run['units'][name]}")
    for name, ok, detail in run["checks"]:
        print(f"{workload} check.{name} {'pass' if ok else 'FAIL ' + detail}")
    for info in run["info"]:
        print(f"{workload} # {info}")


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {e}") from e


def one_run(workload, seed, seconds, trace):
    """One run of one workload, with a JSON result as the last line."""
    spec = load_spec()
    prefix = launcher()
    run = run_binary(workload, seed, seconds, False, prefix)
    problems = [f"check {n}: {d}" for n, ok, d in run["checks"] if not ok]
    names = [m["name"] for m in spec["end_to_end"]]
    if trace:
        base = run
        run = run_binary(workload, seed, seconds, True, prefix)
        problems += [f"check {n}: {d}" for n, ok, d in run["checks"] if not ok]
        problems += [f"traced run differs: {d}" for d in differences(base, run)]
        base_tput = base["metrics"]["host_tput_ktps"]
        run["metrics"]["trace.overhead_frac"] = (
            (base_tput - run["metrics"]["host_tput_ktps"]) / base_tput)
        run["units"]["trace.overhead_frac"] = "ratio"
        names = [m["name"] for m in spec["per_layer"]]
    print_run(workload, run)
    for p in problems:
        log(f"{workload}: {p}")
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in names:
            if m["name"] not in run["metrics"]:
                raise BenchError(f"{workload}: metric {m['name']} was not reported")
            metrics[m["name"]] = {"value": run["metrics"][m["name"]], "unit": m["unit"]}
    correct = not problems and run["check_failures"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


def all_runs(workloads, seed, seconds, trace):
    prefix = launcher()
    failures = 0
    for wl in workloads:
        run = run_binary(wl, seed, seconds, trace, prefix)
        print_run(wl, run)
        failures += run["check_failures"] + run["failed"]
    return 1 if failures else 0


def check(workloads, seed, seconds):
    """Two untraced runs and one traced run of one seed must agree exactly;
    media write amplification must be steady across the window's halves."""
    prefix = launcher()
    failures = 0
    for wl in workloads:
        a = run_binary(wl, seed, seconds, False, prefix)
        b = run_binary(wl, seed, seconds, False, prefix)
        t = run_binary(wl, seed, seconds, True, prefix)
        for label, other in (("second untraced run", b), ("traced run", t)):
            diffs = differences(a, other)
            print(f"{wl} {label}: {'identical' if not diffs else 'DIFFERS'} "
                  f"({len(a['counters'])} counters, {len(DETERMINISTIC)} metrics)")
            for d in diffs:
                print(f"{wl}   {d}")
            failures += len(diffs)
        first = a["metrics"]["media_write_amp_first_half"]
        second = a["metrics"]["media_write_amp_second_half"]
        drift = abs(second / first - 1) if first else math.inf
        ok = drift <= STEADY_STATE_TOLERANCE
        print(f"{wl} steady state: media_write_amp {first:.4f} -> {second:.4f} "
              f"({drift:+.2%}) {'ok' if ok else 'NOT STEADY'}")
        failures += 0 if ok else 1
        for run in (a, b, t):
            failures += run["check_failures"]
    return 1 if failures else 0


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_problems(spec):
    """BENCHMARK.json against the shape the benchmark promises."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)}")
    names = set()
    for kind, wanted in (("workloads", {"name", "why"}),
                         ("end_to_end", {"name", "unit", "better", "bound"}),
                         ("per_layer", {"name", "unit", "better"})):
        for entry in spec.get(kind, []):
            if set(entry) != wanted:
                problems.append(f"{kind} entry keys {sorted(entry)}")
                continue
            if not NAME_RE.match(entry["name"]) or entry["name"] in names:
                problems.append(f"bad or repeated name {entry['name']}")
            names.add(entry["name"])
            if "unit" in entry and not UNIT_RE.match(entry["unit"]):
                problems.append(f"bad unit {entry['unit']}")
            if "better" in entry and entry["better"] not in ("higher", "lower"):
                problems.append(f"bad direction for {entry['name']}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} outside (0, 0.25]")
    if [w["name"] for w in spec.get("workloads", [])] != WORKLOADS:
        problems.append("workloads differ from run.py's")
    setup = [m for m in spec.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s does not have the largest bound")
    return problems


def self_test():
    failures = 0
    proc = subprocess.run([str(BUILD / "falcon_bench_selftest")])
    failures += proc.returncode != 0
    spec = load_spec()
    for p in spec_problems(spec):
        print(f"BENCHMARK.json: {p}")
        failures += 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", "bank_2shard",
               "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=2 * RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"--trace {trace}: last line is not JSON")
            failures += 1
            continue
        wanted = [m["name"] for m in spec[kind]]
        problems = []
        if proc.returncode != 0 or result.get("correct") is not True:
            problems.append("run not correct")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"keys {sorted(result)}")
        if sorted(result.get("metrics", {})) != sorted(wanted):
            problems.append("metric names differ from BENCHMARK.json")
        for name, m in result.get("metrics", {}).items():
            if set(m) != {"value", "unit"} or m["unit"] != units.get(name) or \
                    not isinstance(m["value"], (int, float)) or math.isnan(m["value"]):
                problems.append(f"metric {name}: {m}")
        for line in lines[:-1]:
            f = line.split()
            if len(f) == 4 and f[1] in units and f[3] != units[f[1]]:
                problems.append(f"{f[1]} printed in {f[3]}, declared in {units[f[1]]}")
        print(f"--trace {trace} output: {'ok' if not problems else '; '.join(problems)}")
        failures += len(problems)
    print("self-test:", "passed" if failures == 0 else f"{failures} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in (0, 3600]")
    try:
        build()
        workloads = [args.workload] if args.workload else WORKLOADS
        if args.self_test:
            return self_test()
        if args.check:
            return check(workloads, args.seed, args.seconds)
        if args.workload:
            return one_run(args.workload, args.seed, args.seconds, args.trace == 1)
        return all_runs(workloads, args.seed, args.seconds, args.trace == 1)
    except BenchError as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
