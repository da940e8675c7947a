"""Splitting types held as runs (`core.Partition`): the class against the
flat tuple of parts it stands for, and the two outputs whose size the runs
bound: the Gamma1(101^2) closed form, whose types partition an index of
5.2e7, and the Gamma(150) table on stdout."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from geosplit.cli import main
from geosplit.core import Partition, parse_partition, partition, partition_str

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# part -> multiplicity; one part may repeat more than 10^5 times
runs_strategy = st.dictionaries(st.integers(1, 40), st.integers(1, 6), max_size=5).flatmap(
    lambda counts: st.one_of(
        st.just(counts),
        st.integers(1, 40).map(lambda part: {**counts, part: 100_003})))


def flat(counts):
    return tuple(sorted((p for p, k in counts.items() for _ in range(k)), reverse=True))


@settings(max_examples=40, deadline=None)
@given(st.lists(runs_strategy, min_size=1, max_size=6))
def test_partition_agrees_with_the_flat_tuple(many):
    lams = [Partition(counts) for counts in many]
    flats = [flat(counts) for counts in many]
    for lam, parts in zip(lams, flats):
        assert tuple(lam) == parts and list(lam) == list(parts)
        assert partition(parts) == lam and partition(reversed(parts)) == lam
        assert sum(lam) == sum(parts) and len(lam) == len(parts)
        counts = Counter(parts)
        for part in range(0, 42):
            assert lam.count(part) == counts[part]
            assert (part in lam) == (part in counts)
        assert partition_str(lam) == ",".join(map(str, parts))
        if parts:
            assert parse_partition(partition_str(lam)) == lam
        assert pickle.loads(pickle.dumps(lam)) == lam
    for (a, fa), (b, fb) in zip(zip(lams, flats), zip(lams[1:], flats[1:])):
        assert (a == b) == (fa == fb)
        assert (a < b) == (fa < fb) and (a <= b) == (fa <= fb) and (a > b) == (fa > fb)
        if a == b:
            assert hash(a) == hash(b)
    assert [tuple(lam) for lam in sorted(lams)] == sorted(flats)
    assert [tuple(lam) for lam in sorted(lams, reverse=True)] == sorted(flats, reverse=True)
    assert len({*lams}) == len({*flats})


@pytest.mark.parametrize("bad", [[3, 0, 1], [-2]])
def test_partition_refuses_parts_below_one(bad):
    with pytest.raises(ValueError, match="must be positive"):
        partition(bad)
    assert Partition({3: 0, 2: 1}) == partition([2])
    assert partition_str(partition([])) == "" and len(partition([])) == 0


CLOSED_101 = """
import json
from fractions import Fraction
from geosplit.census import density_table_closed_form
from geosplit.core import Family, SubgroupSpec
t = density_table_closed_form(SubgroupSpec(Family.GAMMA1, 101**2))
print(json.dumps({
    "types": len(t.entries),
    "weights": all(sum(p * k for p, k in lam.runs) == t.index for lam in t.entries),
    "burnside": sum((d * lam.count(1) for lam, d in t.entries.items()), Fraction(0)) == 1,
    "rss_mb": int(next(line.split()[1] for line in open("/proc/self/status")
                       if line.startswith("VmHWM:"))) / 1024,
}))
"""


def test_gamma1_101_squared_closed_form_stays_small():
    """The 21 types partition an index of 5.2e7, and the table is built in
    a fresh interpreter under 200 MB peak RSS; every type has the index as
    its weight and the mean number of fixed cosets is 1 (Burnside).  The
    peak is the child's VmHWM: Linux carries the parent's peak over exec
    into `getrusage`'s ru_maxrss, which then reads the test runner's."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", CLOSED_101], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    got = json.loads(out)
    assert got["types"] == 21 and got["weights"] and got["burnside"]
    assert got["rss_mb"] < 200, got


def test_gamma_150_table_stdout_is_pinned():
    """The 6.75 MB table of Gamma(150), written from the runs at the output
    boundary, is byte-identical to the flat-tuple one."""
    out = StringIO()
    with redirect_stdout(out):
        assert main(["densities", "--family", "gamma", "--level", "150"]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest.startswith("8e4155d3b99455b7")
