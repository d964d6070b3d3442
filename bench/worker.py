"""One benchmark process: import qvbs, say "ready", run one pass, report.

    python3 bench/worker.py --workload W --seed N --workdir DIR
        [--trace] [--tiny] [--setup-only]

The parent times spawn-to-"ready" as the set-up time, so everything the
workload needs from qvbs is imported before the line is printed. A burst of
calibration chunks (speed.py) timed right after it lets the parent rescale
the set-up time; the pass result follows as one JSON line, its times
rescaled by the chunks timed during the pass.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, SRC)
    cli = importlib.import_module("qvbs.cli")  # the set-up being measured
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit("qvbs was imported from %s, not from %s" % (cli.__file__, SRC))
    print("ready", flush=True)

    sys.path.insert(0, BENCH)
    import speed
    setup_chunk_s = speed.burst()
    if args.setup_only:
        print(json.dumps({"setup_chunk_s": setup_chunk_s}), flush=True)
        return

    import layers
    import workloads
    from tracer import Tracer

    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    if args.trace:
        tracer = Tracer()
        collect = layers.install(tracer)
    probe = speed.SpeedProbe()
    probe.start()
    result = workloads.run_pass(args.workload, inputs, args.workdir)
    probe.stop()
    t0, t1 = result.pop("t0"), result.pop("t1")
    result["raw_wall_s"] = t1 - t0
    result["wall_s"] = probe.scaled(t0, t1)
    result["op_s"] = [probe.scaled(a, b) for a, b in result.pop("op_times")]
    result["chunk_median_s"] = statistics.median(probe.costs)
    result["setup_chunk_s"] = setup_chunk_s
    if args.trace:
        result["per_layer"] = collect()
        attempted, failed = workloads.wide_range(inputs)
        result["per_layer"]["cli.wide_range.attempted"] = attempted
        result["per_layer"]["cli.wide_range.failed"] = failed
        result["spans_file"] = os.path.join(args.workdir, "spans.txt")
        tracer.write_spans(result["spans_file"])
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
