"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Run from the repository root.  Set-up is interpreter start, `import
geosplit` and input generation; the worker reports the moment it was ready
on the system-wide monotonic clock, so the parent, which noted when it
started the process, can measure set-up.  It then runs the job list once,
with the host's speed sampled around and inside the jobs (hostspeed.py),
and prints one JSON object on its last stdout line: the jobs' times in
nominal seconds, the raw wall time, checks and peak memory.
"""

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402  (imports geosplit)
from geosplit import geodesics  # noqa: E402

STATE_DIR = ".perfbench"
SAMPLE_PERIOD_S = 0.1  # host-speed samples inside a job, untraced repetitions only


def peak_rss_mb():
    """Larger of this process's and its reaped children's peak RSS (Linux: KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return os.path.abspath(path)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    trace_dir = None
    if args.trace and args.workload == "cli_readme":
        trace_dir = fresh_dir(os.path.join(STATE_DIR, "cli-spans"))
        jobs = workloads.cli_readme(rng, trace_dir)
    else:
        jobs = workloads.WORKLOADS[args.workload](rng)
    ready = time.monotonic()
    ready_speed = hostspeed.speed_factor()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_speed": ready_speed}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ctx = workloads.Context(fresh_dir(os.path.join(STATE_DIR, "work", args.workload)))
    # a periodic sample inside a traced span would count as that layer's time
    sampler = hostspeed.Sampler(None if args.trace else SAMPLE_PERIOD_S)
    if not args.trace:
        geodesics.Pool = sampler.pool(geodesics.Pool)
    sampler.start()
    try:
        spans = workloads.run_jobs(jobs, ctx, sampler)
    finally:
        sampler.stop()
    durations = sampler.durations()
    latencies = []
    for jid, a, b in spans:
        t = sampler.normalised(a, b, durations)
        if jid in ctx.child_times:
            # the command's own process sampled the host's speed while it ran;
            # only the rest (spawn, interpreter start) keeps this process's estimate
            raw = b - a - sampler.sampled_time(a, b)
            child = ctx.child_times[jid]
            t = child["nominal"] + t * max(raw - child["window"], 0.0) / raw
        latencies.append((jid, t))
    raw_wall = spans[-1][2] - spans[0][1] - sampler.sampled_time(spans[0][1], spans[-1][2])

    result = {"ready": ready, "ready_speed": ready_speed,
              "wall": sum(s for _, s in latencies), "raw_wall": raw_wall,
              "units": ctx.units, "latencies": latencies, "checks": ctx.checks,
              "outputs": ctx.outputs, "rss_mb": peak_rss_mb()}
    if tracer is not None:
        spans = tracer.all_spans()
        if trace_dir is not None:
            for name in sorted(os.listdir(trace_dir)):
                with open(os.path.join(trace_dir, name)) as fh:
                    spans.extend(json.load(fh))
        with open(os.path.join(STATE_DIR, f"spans-{args.workload}.json"), "w") as fh:
            json.dump({"seed": args.seed, "spans": spans}, fh)
        result["layers"] = tracing.layer_metrics(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
