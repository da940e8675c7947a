"""The benchmark's workloads: fixed job lists, their inputs and their checks.

Each workload is a list of jobs with dependencies.  The seed picks a
random order that respects the dependencies and draws the sampled inputs;
the level grids and cutoffs are fixed, so every seed does the same work.
Every check compares two independent routes or tests an invariant; none
compares against stored output.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from geosplit import (
    ClassData,
    SubgroupSpec,
    conjugacy_classes,
    density_table,
    density_table_closed_form,
    density_table_composite,
    dual_type_report,
    empirical_tally,
    enumerate_primitive_classes,
    ratio_identity_check,
    venkov_zograf_check,
    xi_order,
)
from geosplit.census import census_payload, census_table_from_payload, load_census, write_census
from geosplit.core import Family
from geosplit.geodesics import li

GAMMA0, GAMMA1, GAMMA = Family.GAMMA0, Family.GAMMA1, Family.GAMMA
ALL = (GAMMA0, GAMMA1, GAMMA)

# Checks in this category compare the composite route with the census.  The
# current route fails them (wrong gamma0 xi_order, wrong Gamma1/Gamma tables),
# so they are counted as failed checks; any other failed check makes the run
# incorrect.
COMPOSITE = "composite"


class Job:
    def __init__(self, jid, fn, deps=(), children=False):
        self.id = jid
        self.fn = fn
        self.deps = tuple(deps)
        self.children = children  # runs child processes other than a geosplit pool


class Context:
    """State shared by the jobs of one repetition."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.checks = []  # (name, ok, category, detail)
        self.units = 0
        self.outputs = {}  # command id -> stdout digest (cli_readme)
        self.child_times = {}  # command id -> host-speed timing from timed_cli.py
        self.memo = {}

    def check(self, name, ok, detail="", category="invariant"):
        self.checks.append((name, bool(ok), category, "" if ok else str(detail)))


def order_jobs(jobs, rng):
    """A random topological order of the jobs."""
    done, out = set(), []
    pending = list(jobs)
    while pending:
        ready = [j for j in pending if all(d in done for d in j.deps)]
        pick = ready[rng.randrange(len(ready))]
        pending.remove(pick)
        done.add(pick.id)
        out.append(pick)
    return out


# ---------------------------------------------------------------------------
# shared checks on density tables

def check_table(ctx, name, table):
    """Invariants of any splitting-density table: every type is a partition
    of the index, and the action is transitive, so by Burnside the mean
    number of fixed cosets is exactly 1."""
    ctx.check(f"{name} weights", all(sum(lam) == table.index for lam in table.entries),
              "a type does not partition the index")
    fixed = sum((d * lam.count(1) for lam, d in table.entries.items()), Fraction(0))
    ctx.check(f"{name} burnside", fixed == 1, f"mean fixed points {fixed}")


def same_table(ctx, name, got, want, category="invariant"):
    ctx.check(f"{name} entries", got.entries == want.entries, "entries differ", category)
    ctx.check(f"{name} index", got.index == want.index, f"{got.index} != {want.index}", category)
    ctx.check(f"{name} xi_order", got.xi_order == want.xi_order,
              f"{got.xi_order} != {want.xi_order}", category)


# ---------------------------------------------------------------------------
# exact_tables: census, closed forms, composites and the census cache

CENSUS_GRID = [(f, n) for n in (12, 15, 21, 25, 27) for f in ALL] + [
    (f, n) for n in (32, 75) for f in (GAMMA0, GAMMA1)]
CLOSED_GRID = [(f, n) for n in (25, 27) for f in ALL] + [
    (f, n) for n in (3**5, 29**2) for f in (GAMMA0, GAMMA1)]
COMPOSITE_GRID = [(f, n) for n in (12, 15, 21) for f in ALL] + [(GAMMA0, 75), (GAMMA1, 75)]
CACHE_CASE = (GAMMA0, 27)


def exact_tables(rng):
    def classes(n):
        def run(ctx):
            ctx.memo[("classes", n)] = conjugacy_classes(n)
        return Job(f"classes:{n}", run)

    def census(f, n):
        def run(ctx):
            t = density_table(SubgroupSpec(f, n), classes=ctx.memo[("classes", n)])
            ctx.memo[("census", f, n)] = t
            ctx.units += 1
            check_table(ctx, f"census {f.value}({n})", t)
        return Job(f"census:{f.value}:{n}", run, [f"classes:{n}"])

    def closed(f, n):
        has_census = (f, n) in CENSUS_GRID

        def run(ctx):
            t = density_table_closed_form(SubgroupSpec(f, n))
            ctx.units += 1
            check_table(ctx, f"closed {f.value}({n})", t)
            if has_census:
                same_table(ctx, f"closed == census {f.value}({n})", t, ctx.memo[("census", f, n)])
        return Job(f"closed:{f.value}:{n}", run, [f"census:{f.value}:{n}"] if has_census else [])

    def composite(f, n):
        def run(ctx):
            t = density_table_composite(SubgroupSpec(f, n))
            ctx.units += 1
            same_table(ctx, f"composite == census {f.value}({n})", t,
                       ctx.memo[("census", f, n)], COMPOSITE)
        return Job(f"composite:{f.value}:{n}", run, [f"census:{f.value}:{n}"])

    def cache(f, n):
        def run(ctx):
            path = os.path.join(ctx.workdir, f"census-{f.value}-{n}.json")
            if os.path.exists(path):
                os.remove(path)
            write_census(path, census_payload(f, n))
            loaded = load_census(path)
            # verify the way `geosplit census` does: recompute and compare
            ctx.check(f"cache {f.value}({n}) verifies", loaded == census_payload(f, n),
                      "reloaded cache differs from a fresh census")
            t = census_table_from_payload(loaded)
            ctx.units += 1
            same_table(ctx, f"cache == census {f.value}({n})", t, ctx.memo[("census", f, n)])
        return Job(f"cache:{f.value}:{n}", run, [f"census:{f.value}:{n}"])

    jobs = [classes(n) for n in sorted({n for _, n in CENSUS_GRID})]
    jobs += [census(f, n) for f, n in CENSUS_GRID]
    jobs += [closed(f, n) for f, n in CLOSED_GRID]
    jobs += [composite(f, n) for f, n in COMPOSITE_GRID]
    jobs.append(cache(*CACHE_CASE))
    return order_jobs(jobs, rng)


# ---------------------------------------------------------------------------
# dual_sweep: cycle type against Moebius type for every element

DUAL_GRID = [(f, n) for n in range(9, 15) for f in ALL] + [(GAMMA0, 19), (GAMMA1, 19)]


def dual_sweep(rng):
    def dual(f, n):
        def run(ctx):
            count, mismatches = dual_type_report(n, f)
            ctx.units += count
            ctx.check(f"dual {f.value}({n}) covers Xi", count == xi_order(n),
                      f"{count} elements, |Xi| = {xi_order(n)}")
            ctx.check(f"dual {f.value}({n}) cycle == moebius", not mismatches,
                      f"{len(mismatches)} mismatches, first {mismatches[:1]}")
        return Job(f"dual:{f.value}:{n}", run)

    return order_jobs([dual(f, n) for f, n in DUAL_GRID], rng)


# ---------------------------------------------------------------------------
# geodesic_tally: one enumeration shared by tallies and zeta checks

CUTOFF = 3 * 10**5
TALLY_COVERS = [(GAMMA0, 5), (GAMMA1, 7), (GAMMA, 5), (GAMMA0, 11)]
ZETA_S = 2.0
RATIO_P = 3
VENKOV_COVER = (GAMMA, 5)
ZETA_TOL = 1e-9
TALLY_TOL = 0.05
PGT_RANGE = (0.8, 1.2)


def enum_jobs():
    return min(2, len(os.sched_getaffinity(0)))


def geodesic_tally(rng):
    def enumerate_(ctx):
        classes = enumerate_primitive_classes(CUTOFF, jobs=enum_jobs())
        ctx.memo["classes"] = classes
        ratio = len(classes) / li(CUTOFF)
        ctx.check("pi(x)/li(x) in range", PGT_RANGE[0] <= ratio <= PGT_RANGE[1], f"{ratio:.4f}")

    def class_data(ctx):
        ctx.memo["data"] = ClassData(CUTOFF, classes=ctx.memo["classes"])

    def tally(f, n):
        def run(ctx):
            s = SubgroupSpec(f, n)
            classes = ctx.memo["classes"]
            t = empirical_tally(s, CUTOFF, classes=classes)
            theory = density_table(s)
            ctx.units += len(classes)
            ctx.check(f"tally {s} total", t.total == len(classes), f"{t.total} != {len(classes)}")
            for lam, d in theory.entries.items():
                if d >= Fraction(1, 10):
                    err = abs(t.counts.get(lam, 0) / t.total - float(d))
                    ctx.check(f"tally {s} {lam}", err <= TALLY_TOL, f"error {err:.4f}")
        return Job(f"tally:{f.value}:{n}", run, ["enumerate"])

    def ratio(ctx):
        r = ratio_identity_check(RATIO_P, ZETA_S, CUTOFF, ctx.memo["data"])
        ctx.units += len(ctx.memo["classes"])
        ctx.check(f"ratio identity p={RATIO_P}", r["discrepancy"] < ZETA_TOL, r["discrepancy"])

    def venkov(ctx):
        s = SubgroupSpec(*VENKOV_COVER)
        r = venkov_zograf_check(ZETA_S, CUTOFF, s, ctx.memo["data"])
        ctx.units += len(ctx.memo["classes"])
        ctx.check(f"venkov {s}", r["discrepancy"] < ZETA_TOL, r["discrepancy"])

    jobs = [Job("enumerate", enumerate_), Job("class_data", class_data, ["enumerate"])]
    jobs += [tally(f, n) for f, n in TALLY_COVERS]
    jobs += [Job("ratio", ratio, ["class_data"]), Job("venkov", venkov, ["class_data"])]
    return order_jobs(jobs, rng)


# ---------------------------------------------------------------------------
# cli_readme: every README command, each in a fresh interpreter

README = [
    ("densities_tsv", "densities --family gamma0 --level 3 --format tsv"),
    ("densities_composite", "densities --family gamma0 --level 75 --composite"),
    ("densities_closed_form", "densities --family gamma1 --level 9 --closed-form"),
    ("type", "type --matrix 2,1,1,1 --family gamma0 --level 3"),
    ("empirical", "empirical --family gamma0 --level 5 --x 1e6 --scan-anomalous"),
    ("census_write", "census --level 25"),
    ("census_verify", "census --level 25"),
    ("zeta_ratio", "zeta-check --p 3 --s 2 --x 10000"),
    ("zeta_venkov", "zeta-check --p 5 --s 2 --x 10000 --check venkov --family gamma --level 5"),
]
WORDS = 3  # sampled `type --matrix` inputs per repetition
WORD_LENGTH = 12
WORD_COVER = ("gamma0", 3, 4)  # family, level, index


def st_word(rng):
    """A random word in S and T as a,b,c,d."""
    m = (1, 0, 0, 1)
    for _ in range(WORD_LENGTH):
        a, b, c, d = m
        m = (b, -a, d, -c) if rng.random() < 0.5 else (a, a + b, c, c + d)
    return ",".join(map(str, m))


def _check_cli(ctx, cid, out):
    if cid == "densities_composite":
        got = json.loads(out)["xi_order"]
        ctx.check("cli composite xi_order", got == xi_order(75), f"{got} != {xi_order(75)}",
                  COMPOSITE)
    elif cid == "densities_closed_form":
        ctx.check("cli closed-form diff empty", "closed-form diff entries: 0\n" in out, out[-80:])
    elif cid == "type":
        ctx.check("cli type prints 2,2", out.splitlines()[:1] == ["2,2"], out)
    elif cid.startswith("type_words"):
        lines = out.splitlines()
        lam = lines[0].split(",")
        ctx.check(f"cli {cid} routes agree", lines[1] == f"moebius: {lines[0]}", out)
        ctx.check(f"cli {cid} weight", sum(map(int, lam)) == WORD_COVER[2], out)
    elif cid == "empirical":
        rows = [ln.split("\t") for ln in out.splitlines()[1:] if not ln.startswith("#")]
        for part, _count, _emp, theo, err in rows:
            if Fraction(theo) >= Fraction(1, 10):
                ctx.check(f"cli empirical {part}", float(err) <= TALLY_TOL, err)
    elif cid == "census_write":
        ctx.check("cli census writes", out.startswith("cache written:"), out)
    elif cid == "census_verify":
        ctx.check("cli census verifies", out.startswith("cache verified:"), out)
    elif cid.startswith("zeta"):
        disc = json.loads(out)["discrepancy"]
        ctx.check(f"cli {cid} discrepancy", disc < ZETA_TOL, disc)


def cli_readme(rng, trace_dir=None):
    """Jobs running the README commands.  Each command runs under
    timed_cli.py, which samples the host's speed inside the process; with
    `trace_dir`, under traced_cli.py, which leaves its spans there."""
    commands = [(cid, argv.split()) for cid, argv in README]
    for i in range(WORDS):
        fam, level, _ = WORD_COVER
        commands.append((f"type_words{i}",
                         ["type", f"--matrix={st_word(rng)}", "--family", fam, "--level", str(level)]))

    def command(cid, argv):
        def run(ctx):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
            env["GEODESIC_CACHE_DIR"] = ctx.workdir
            env["TMPDIR"] = ctx.workdir
            here = os.path.dirname(__file__)
            if trace_dir is None:
                timing_file = os.path.join(ctx.workdir, f"{cid}.timing.json")
                cmd = [sys.executable, os.path.join(here, "timed_cli.py"), timing_file] + argv
            else:
                span_file = os.path.join(trace_dir, f"{cid}.json")
                cmd = [sys.executable, os.path.join(here, "traced_cli.py"),
                       span_file, cid.rstrip("0123456789")] + argv
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
            if trace_dir is None and os.path.exists(timing_file):
                with open(timing_file) as fh:
                    ctx.child_times[cid] = json.load(fh)
            ctx.units += 1
            ctx.outputs[cid] = hashlib.sha256(proc.stdout.encode()).hexdigest()
            ok = proc.returncode == 0
            ctx.check(f"cli {cid} exit 0", ok, f"exit {proc.returncode}: {proc.stderr[-200:]}")
            if ok:
                _check_cli(ctx, cid, proc.stdout)
        deps = ["census_write"] if cid == "census_verify" else []
        return Job(cid, run, deps, children=True)

    return order_jobs([command(cid, argv) for cid, argv in commands], rng)


WORKLOADS = {
    "exact_tables": exact_tables,
    "dual_sweep": dual_sweep,
    "geodesic_tally": geodesic_tally,
    "cli_readme": cli_readme,
}


def run_jobs(jobs, ctx, sampler):
    """Run the jobs in order, sampling the host's speed around each (and
    inside, unless it runs child processes); returns (job id, start, end)
    per job.  A job that raises counts as one failed check of its own."""
    spans = []
    for job in jobs:
        sampler.sample()
        with sampler.children() if job.children else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                job.fn(ctx)
            except Exception as exc:  # a crash is reported as a failed check
                category = COMPOSITE if job.id.startswith("composite") else "invariant"
                ctx.check(f"{job.id} ran", False, f"{type(exc).__name__}: {exc}", category)
            end = time.perf_counter()
        sampler.sample()
        spans.append((job.id, start, end))
    return spans
