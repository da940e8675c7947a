"""Golden closed-form tables.

For each (family, level) below, `density_table_closed_form` must give the
table whose digest is recorded: the SHA-256 of the JSON list of its sorted
entries (partition, numerator, denominator) followed by its index and
|Xi(N)|.  The digests pin every exact fraction of every type.

The digests live in tests/golden/closed_sha256.json.  After a change that is
meant to alter the closed-form tables, rewrite them with

    PYTHONPATH=src python tests/test_closed_golden.py --write

and review the diff of that file.
"""

import hashlib
import json
import os
import sys

import pytest

from geosplit.census import density_table_closed_form
from geosplit.core import Family, SubgroupSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "closed_sha256.json")
CASES = [(f, n) for n in (243, 343, 625, 841) for f in ("gamma0", "gamma1")] + [
    ("gamma", 25), ("gamma", 27)
]


def closed_digest(family, level):
    """SHA-256 of the sorted entries, index and xi_order of the closed table."""
    table = density_table_closed_form(SubgroupSpec(Family(family), level))
    rows = [[list(lam), frac.numerator, frac.denominator]
            for lam, frac in sorted(table.entries.items())]
    doc = json.dumps([rows, table.index, table.xi_order], separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(f"{f}/{n}" for f, n in CASES)


@pytest.mark.parametrize("family,level", CASES)
def test_closed_table_matches_golden(family, level):
    assert closed_digest(family, level) == load_golden()[f"{family}/{level}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_closed_golden.py --write")
    digests = {f"{f}/{n}": closed_digest(f, n) for f, n in CASES}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
