"""qvbs benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; qvbs is imported from ./src. Each
pass over a workload's seeded inputs runs in a fresh interpreter
(bench/worker.py), so exact_frontier and dense_oracle start with cold caches
and query_stream warms its caches within the pass. Passes repeat while
another would end within half a pass of --seconds; at least one runs. A few
extra interpreters only import qvbs, to sample the set-up time.

--trace 0 reports the end-to-end metrics: medians over passes, and for the
latency percentiles each operation's median over passes. Every time is
rescaled to a reference host speed (speed.py); the raw times are printed on
the line before the result. --trace 1
runs one untraced and one traced pass and reports the per-layer metrics of
the traced one, the difference of their wall times being the tracing
overhead. The last line of standard output is the result JSON; the lines
before it record the machine, the seed and every pass. Spans of a traced
pass are written to .bench_work/. Exits nonzero, without a result, when the
workload cannot be run at all.
"""

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER
from speed import REF_CHUNK_S

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("exact_frontier", "query_stream", "dense_oracle")
SETUP_PROBES = 11
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("query_p50_ms", "ms"),
              ("query_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class HarnessError(Exception):
    pass


def spawn(args, workdir, deadline, trace=False, setup_only=False):
    """Run one worker process; return (raw setup seconds, its JSON line)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir]
    cmd += ["--trace"] * trace + ["--tiny"] * args.tiny
    cmd += ["--setup-only"] * setup_only
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise HarnessError("worker passed the %.0f s deadline" % DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise HarnessError("worker failed (exit %s): %s" % (
            proc.returncode, (ready + err).strip()[-2000:]))
    return setup, json.loads(out.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qvbs", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def reports_repeat(workload, seed, tiny, passes):
    """Exact reports must be byte-identical across the passes of this run and
    across runs of the same seed on the same source."""
    digests = [p["digests"] for p in passes if "digests" in p]
    if not digests:
        return True
    same = all(d == digests[0] for d in digests)
    path = os.path.join(WORK, "digests", "%s-%s-%d%s.json" % (
        workload, source_digest(), seed, "-tiny" * tiny))
    if os.path.exists(path):
        with open(path) as fh:
            same = same and json.load(fh) == digests[0]
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(digests[0], fh, sort_keys=True)
    return same


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run(args):
    if args.workload not in WORKLOADS:
        raise HarnessError("unknown workload %r" % args.workload)
    if not os.path.isfile(os.path.join(ROOT, "src", "qvbs", "cli.py")):
        raise HarnessError("no qvbs sources under %s" % os.path.join(ROOT, "src"))
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    os.makedirs(workdir)
    try:
        setups = [spawn(args, workdir, deadline, setup_only=True)
                  for _ in range(1 if args.tiny else SETUP_PROBES)]
        passes = []
        if args.trace:
            for trace in (False, True):
                setups.append(spawn(args, workdir, deadline, trace=trace))
                passes.append(setups[-1][1])
        else:
            t0 = time.monotonic()
            while True:
                setups.append(spawn(args, workdir, deadline))
                passes.append(setups[-1][1])
                used = time.monotonic() - t0
                per_pass = used / len(passes)
                # another pass may overrun --seconds by at most half a pass
                if (used + per_pass / 2 > args.seconds
                        or time.monotonic() + per_pass > deadline):
                    break
        if args.trace:
            kept = os.path.join(WORK, "spans-%s-%d.txt" % (args.workload,
                                                           args.seed))
            shutil.move(passes[1]["spans_file"], kept)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    silent = sum(p["silent"] for p in passes)
    repeat = reports_repeat(args.workload, args.seed, args.tiny, passes)
    setup_s = [raw * REF_CHUNK_S / res["setup_chunk_s"] for raw, res in setups]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine(), "setup_s": setup_s,
            "raw_setup_s": [raw for raw, _ in setups],
            "pass_wall_s": [p["wall_s"] for p in passes],
            "raw_pass_wall_s": [p["raw_wall_s"] for p in passes],
            "chunk_median_s": [p["chunk_median_s"] for p in passes],
            "ops_per_pass": passes[0]["attempted"],
            "silent_failures": silent, "reports_repeat": repeat,
            "failures": passes[0]["failures"]}
    print(json.dumps({"info": info}))

    if args.trace:
        plain, traced = passes
        values = dict(traced["per_layer"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        values["trace.overhead_frac"] = values["trace.overhead_s"] / plain["wall_s"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        # passes repeat the same operations: take each one's median latency
        ops = [statistics.median(dts) for dts in zip(*(p["op_s"] for p in passes))]
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "query_p50_ms": 1000 * statistics.median(ops),
            "query_p90_ms": 1000 * percentile(ops, 90),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": silent == 0 and repeat, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few operations per workload, for the self-check")
    args = p.parse_args()
    try:
        result = run(args)
    except HarnessError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
