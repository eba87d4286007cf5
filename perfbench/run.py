#!/usr/bin/env python3
"""perfbench: one command that builds mlpsim from source, runs one
workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload epoch-sweep --seed 1 \
        --seconds 40 --trace 0

Run from the root of an mlpsim checkout. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (the span file and the layer table are
written under .bench_out/). Build output, the host-speed probe and
notes go to stderr.

    python3 perfbench/run.py --smoke

runs every workload on tiny inputs, untraced and traced, and checks
that each prints every metric BENCHMARK.json names (the benchmark's own
test; it takes seconds once built).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("epoch-sweep", "cyclesim-stream", "daemon-mix")
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build mlpbench + mlpsimd; returns the bin dir."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed:", " ".join(cmd))
            return None
    return out


def probe(bin_dir, when):
    done = subprocess.run([os.path.join(bin_dir, "mlpbench"), "--probe"],
                          capture_output=True, text=True)
    if done.returncode == 0:
        log("host probe %s: %s" % (when, done.stdout.strip()))


def child_pids(pid):
    """Direct children of pid, found through /proc/<n>/stat."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and fields[1] == str(pid):
            kids.append(int(entry))
    return kids


def threads_of(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_mlpbench(bin_dir, args, sample_threads):
    """Run mlpbench; returns (returncode, stdout, peak threads)."""
    cmd = [os.path.join(bin_dir, "mlpbench")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    peak = 0
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if sample_threads:
        while proc.poll() is None and time.monotonic() < deadline:
            peak = max([peak, threads_of(proc.pid)] +
                       [threads_of(k) for k in child_pids(proc.pid)])
            time.sleep(0.02)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("mlpbench timed out after %d s" % RUN_TIMEOUT_S)
        return None, "", peak
    return proc.returncode, out, peak


def run_workload(bin_dir, workload, seed, seconds, trace, smoke):
    out_dir = os.path.join(ROOT, ".bench_out", workload)
    os.makedirs(out_dir, exist_ok=True)
    args = ["--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%s" % seconds, "--trace=%d" % trace,
            "--out-dir=" + out_dir]
    if smoke:
        args.append("--smoke")
    code, out, peak = run_mlpbench(bin_dir, args, sample_threads=trace)
    lines = out.strip().splitlines()
    if code is None or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("mlpbench printed no result line")
        return None
    if trace:
        result["metrics"]["util.threads_peak"] = {"value": peak,
                                                  "unit": "count"}
        # A layer the workload never calls has no spans: it reads 0.
        for m in benchmark_spec()["per_layer"]:
            result["metrics"].setdefault(
                m["name"], {"value": 0, "unit": m["unit"]})
        cpus = os.cpu_count() or 1
        if peak > cpus:
            log("CHECK FAILED: a process ran %d threads on %d CPUs"
                % (peak, cpus))
            result["correct"] = False
    if code not in (0, 1):
        log("mlpbench exited with code %d" % code)
        return None
    return result


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(bin_dir):
    spec = benchmark_spec()
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(bin_dir, workload, 1, 1, trace, True)
            missing = [] if result is None else [
                m["name"] for m in spec[key]
                if m["name"] not in result["metrics"]
                or result["metrics"][m["name"]]["unit"] != m["unit"]]
            good = (result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] > 0
                    and not missing)
            if key == "end_to_end" and good:
                good = all(result["metrics"][m["name"]]["value"] > 0
                           for m in spec[key])
            log("smoke %-15s trace=%d: %s%s" % (
                workload, trace, "ok" if good else "FAILED",
                " (missing %s)" % ", ".join(missing) if missing else ""))
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs")
    opts = parser.parse_args()
    if not opts.smoke and opts.workload is None:
        parser.error("--workload is required (or --smoke)")
    if opts.seed < 0:
        parser.error("--seed must be >= 0")

    bin_dir = build()
    if bin_dir is None:
        return 2
    if opts.smoke:
        return smoke(bin_dir)

    probe(bin_dir, "before")
    result = run_workload(bin_dir, opts.workload, opts.seed, opts.seconds,
                          opts.trace, False)
    probe(bin_dir, "after")
    if result is None:
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
