"""Batch front end.

Exit codes: 0 success, 1 usage error (also a file or directory that cannot
be opened or made), 2 resource cap exceeded, 3 internal consistency
failure (e.g. the cycle and Moebius routes disagreeing, or a stale or
unreadable census cache).  All output orderings are fixed, so identical
flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .census import (
    census_payload,
    closed_form_prime_power,
    density_table,
    density_table_closed_form,
    density_table_composite,
    load_census,
    write_census,
)
from .core import (
    CapExceeded,
    ConsistencyError,
    Family,
    IntegerMatrix,
    SubgroupSpec,
    canon,
    capped_xi_order,
    partition_str,
    xi_orders,
)
from .cosets import build_coset_table, splitting_type_cycles, splitting_type_moebius
from .geodesics import empirical_tally, tally_cutoff, tally_json, tally_tsv
from .zeta import ratio_identity_check, venkov_zograf_check

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _family(value):
    try:
        return Family(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {value!r}")


def _available_cores():
    """The cores this process may run on (its CPU affinity) where the
    platform reports them, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser():
    parser = _Parser(prog="geosplit", description=__doc__)
    parser.add_argument("--cache-dir", default=".geosplit-cache",
                        help="census cache directory (GEODESIC_CACHE_DIR overrides)")
    parser.add_argument("--jobs", type=int, default=_available_cores(),
                        help="parallelism degree for the trace enumeration")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("densities", help="theoretical density table")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--closed-form", action="store_true",
                   help="also compute the closed-form table and diff it")
    p.add_argument("--composite", action="store_true",
                   help="assemble the table by coprime-factor convolution")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("type", help="splitting type of one matrix")
    p.add_argument("--matrix", required=True, help="a,b,c,d with det 1")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("empirical", help="empirical vs theoretical densities")
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--scan-anomalous", action="store_true")
    p.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("census", help="write or verify the census cache")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--family", type=_family, default=Family.GAMMA0)
    p.add_argument("--trust-cache", action="store_true",
                   help="accept an existing cache file without recomputation")

    p = sub.add_parser("zeta-check", help="numerical zeta identity checks")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--check", choices=("ratio", "venkov"), default="ratio")
    p.add_argument("--family", type=_family, default=Family.GAMMA1,
                   help="cover family for --check venkov")
    p.add_argument("--level", type=int, default=None,
                   help="cover level for --check venkov (default: p)")
    return parser


def _emit(text, output):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_text(table, fmt):
    rows = [(partition_str(lam), f"{frac.numerator}/{frac.denominator}")
            for lam, frac in sorted(table.entries.items(), reverse=True)]
    if fmt == "tsv":
        lines = ["partition\tdensity"]
        lines += [f"{a}\t{b}" for a, b in rows]
        return "\n".join(lines) + "\n"
    doc = {
        "family": table.subgroup.family.value,
        "level": table.subgroup.level,
        "xi_order": table.xi_order,
        "index": table.index,
        "densities": dict(rows),
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_densities(args):
    spec = SubgroupSpec(args.family, args.level)
    if args.closed_form:
        closed_form_prime_power(args.level)  # refused before the census runs
    # the census or composite table first, so that the census cap and the
    # composite route's refusal of prime powers come before the closed table
    table = density_table_composite(spec) if args.composite else density_table(spec)
    closed = density_table_closed_form(spec) if args.closed_form else None
    out, diff = _table_text(table, args.format), {}
    if closed is not None:
        out += _table_text(closed, args.format)
        diff = {
            lam: (table.entries.get(lam), closed.entries.get(lam))
            for lam in set(table.entries) | set(closed.entries)
            if table.entries.get(lam) != closed.entries.get(lam)
        }
        out += f"closed-form diff entries: {len(diff)}\n"
    _emit(out, args.output)
    if diff:
        print("error: closed-form table disagrees with the census", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_type(args):
    try:
        a, b, c, d = map(int, args.matrix.split(","))
    except ValueError:
        raise ValueError(f"--matrix takes four integers a,b,c,d, got {args.matrix!r}") from None
    m = IntegerMatrix(a, b, c, d)  # a determinant other than 1 is a ValueError
    spec = SubgroupSpec(args.family, args.level)
    table = build_coset_table(spec)
    g = canon(m.a, m.b, m.c, m.d, args.level)
    lam_cycles = splitting_type_cycles(g, table)
    lam_moebius = splitting_type_moebius(g, table)
    print(partition_str(lam_cycles))
    print(f"moebius: {partition_str(lam_moebius)}")
    print(f"M(gamma): {xi_orders([g], args.level)[0]}")
    if lam_cycles != lam_moebius:
        print("error: cycle and Moebius types disagree", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_empirical(args):
    spec = SubgroupSpec(args.family, args.level)
    tally_cutoff(args.x)  # refuse a bad cutoff before the census
    theory = density_table(spec)
    tally = empirical_tally(spec, args.x, jobs=args.jobs,
                            scan_anomalous=args.scan_anomalous)
    text = tally_tsv(tally, theory) if args.format == "tsv" else tally_json(tally, theory)
    _emit(text, args.output)
    return EXIT_OK


def cmd_census(args):
    capped_xi_order(args.level)  # refuse a bad level before making the directory
    cache_dir = os.environ.get("GEODESIC_CACHE_DIR") or args.cache_dir
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"census-{args.family.value}-{args.level}.json")
    if os.path.exists(path):
        try:
            cached = load_census(path)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(f"error: unreadable census cache {path}: {exc}", file=sys.stderr)
            return EXIT_INCONSISTENT
        if args.trust_cache:
            print(f"cache trusted: {path}")
            return EXIT_OK
        fresh = census_payload(args.family, args.level)
        if cached == fresh:
            print(f"cache verified: {path}")
            return EXIT_OK
        print(f"error: stale census cache {path}", file=sys.stderr)
        return EXIT_INCONSISTENT
    payload = census_payload(args.family, args.level)
    write_census(path, payload)
    print(f"cache written: {path} ({len(payload['classes'])} classes)")
    return EXIT_OK


def cmd_zeta_check(args):
    # the checks refuse bad arguments and over-cap covers before they
    # enumerate the classes
    if args.check == "ratio":
        result = ratio_identity_check(args.p, args.s, args.x, jobs=args.jobs)
    else:
        level = args.level if args.level is not None else args.p
        spec = SubgroupSpec(args.family, level)
        result = venkov_zograf_check(args.s, args.x, spec, jobs=args.jobs)
        result = {"p": args.p, "s": args.s, "cutoff": float(args.x),
                  "family": args.family.value, "level": level, **result}
    sys.stdout.write(json.dumps(result, indent=2) + "\n")
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    handlers = {
        "densities": cmd_densities,
        "type": cmd_type,
        "empirical": cmd_empirical,
        "census": cmd_census,
        "zeta-check": cmd_zeta_check,
    }
    try:
        return handlers[args.command](args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
