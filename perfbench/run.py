"""geosplit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; geosplit is imported from src/.  Every
repetition is a fresh interpreter (perfbench/worker.py) that runs the
workload's fixed job list once, so caches start cold as they do for a user.
Repetitions continue while the next one is expected to end within S
seconds (at least MIN_REPS run), and each timing is the median over them.
Timings are in nominal seconds: converted at the host's speed, sampled
while they were measured, to the speed of hostspeed.NOMINAL_S, so that a
shared host slowing down does not read as the program slowing down.  Set-up time is also sampled from
SETUP_SPAWNS extra interpreters that only set up.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones,
plus the tracing overhead (traced minus untraced wall time).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
`attempted` and `failed` count checks.  Failed composite-route checks are
a known defect of the program and are counted, not fatal; any other failed
check makes `correct` false.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import hostspeed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact_tables", "dual_sweep", "geodesic_tally", "cli_readme")
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
SETUP_SPAWNS = 8
BUDGET_S = 170  # the whole run must end well inside 180 s
COMPOSITE = "composite"  # check category of the known composite-route defect


class RepFailed(Exception):
    pass


def spawn(workload, seed, *flags, timeout):
    """Run one worker; returns (parsed result, its set-up time in nominal
    seconds).  Set-up runs from the spawn to the moment the worker is ready;
    the host's speed is sampled just before the spawn and, by the worker,
    just after it is ready."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    speed = hostspeed.speed_factor()
    spawned = time.monotonic()
    # own process group, so a timeout also stops the worker's pool and CLI children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"worker timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RepFailed(f"worker exited {proc.returncode}: {err[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise RepFailed("worker printed no result")
    res = json.loads(lines[-1])
    return res, (res["ready"] - spawned) * statistics.harmonic_mean([speed, res["ready_speed"]])


def measure(args):
    start = time.monotonic()

    def remaining():
        return BUDGET_S - (time.monotonic() - start)

    setup = []
    for _ in range(SETUP_SPAWNS):
        _, setup_s = spawn(args.workload, args.seed, "--setup-only", timeout=remaining())
        setup.append(setup_s)
    plain, traced, took = [], [], []
    while True:
        t0 = time.monotonic()
        res, setup_s = spawn(args.workload, args.seed, timeout=remaining())
        setup.append(setup_s)
        plain.append(res)
        if args.trace:
            res, _ = spawn(args.workload, args.seed, "--trace", timeout=remaining())
            traced.append(res)
        took.append(time.monotonic() - t0)
        # start another repetition only if it should end within --seconds
        next_end = time.monotonic() - start + statistics.median(took)
        enough = len(traced) >= MIN_TRACED_PAIRS if args.trace else len(plain) >= MIN_REPS
        if (enough and next_end > args.seconds) or took[-1] > remaining():
            break
    return setup, plain, traced


def checks_of(reps):
    """All checks of all repetitions, plus one per repeated CLI command that
    its stdout is byte-identical to the first repetition's."""
    checks = [tuple(c) for r in reps for c in r["checks"]]
    first = reps[0]["outputs"]
    for r in reps[1:]:
        for cid, digest in sorted(r["outputs"].items()):
            same = first.get(cid) == digest
            checks.append((f"cli {cid} stdout repeats", same, "invariant",
                           "" if same else "stdout differs between repetitions"))
    return checks


def end_to_end(setup, reps, attempted, failed):
    walls = [r["wall"] for r in reps]
    # each job's latency is its median over the repetitions
    by_job = {}
    for r in reps:
        for jid, s in r["latencies"]:
            by_job.setdefault(jid, []).append(s)
    latency = [statistics.median(v) for v in by_job.values()]
    samples = sum(len(v) for v in by_job.values())
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "items_per_s": (statistics.median(r["units"] / r["wall"] for r in reps), "1/s",
                        len(reps)),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB", len(reps)),
        "pass_frac": ((attempted - failed) / attempted, "ratio", attempted),
        "cmd_p50_s": (statistics.median(latency), "s", samples),
        "cmd_max_s": (max(latency), "s", samples),
    }


def per_layer(plain, traced):
    units = dict(tracing.LAYER_METRICS)
    out = {}
    for name, unit in units.items():
        # counts repeat exactly; median_low keeps them whole numbers
        mid = statistics.median if unit == "s" else statistics.median_low
        out[name] = (mid(r["layers"][name] for r in traced), unit, len(traced))
    untraced = statistics.median(r["wall"] for r in plain)
    overhead = statistics.median(r["wall"] for r in traced) - untraced
    out["trace.overhead_s"] = (overhead, "s", len(traced))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "geosplit", "__init__.py")):
        print("error: run from the repository root (src/geosplit not found)", file=sys.stderr)
        return 2
    try:
        setup, plain, traced = measure(args)
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    checks = checks_of(reps)
    attempted = len(checks)
    bad = [c for c in checks if not c[1]]
    correct = all(c[2] == COMPOSITE for c in bad)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(setup, plain, attempted, len(bad))

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} repetitions={len(plain)} traced={len(traced)}")
    print(f"# checks: attempted={attempted} failed={len(bad)} "
          f"failed_frac={len(bad)}/{attempted}={len(bad) / attempted:.4f}")
    for name in sorted({c[0] for c in bad}):
        detail = next(c[3] for c in bad if c[0] == name)
        print(f"#   failed [{next(c[2] for c in bad if c[0] == name)}] {name}: {detail}")
    print("# wall_s per repetition: " + " ".join(f"{r['wall']:.3f}" for r in plain)
          + ("  traced: " + " ".join(f"{r['wall']:.3f}" for r in traced) if traced else ""))
    print("# raw wall seconds, before host-speed normalisation: "
          + " ".join(f"{r['raw_wall']:.3f}" for r in plain))
    for name, (value, unit, n) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
