"""Golden census cache files.

For each (family, level) below, the bytes that `write_census` writes for
`census_payload(family, level)` must have the recorded SHA-256.  The digests
pin the whole document: class order, representatives, sizes, orders, family
labels, splitting types and every density fraction.

The digests live in tests/golden/census_sha256.json.  After a change that is
meant to alter the census documents, rewrite them with

    PYTHONPATH=src python tests/test_census_golden.py --write

and review the diff of that file.
"""

import hashlib
import json
import os
import sys

import pytest

from geosplit.census import census_payload, write_census
from geosplit.core import Family

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "census_sha256.json")
CASES = [(f, n) for n in (12, 25, 27) for f in ("gamma0", "gamma1", "gamma")] + [
    (f, n) for n in (32, 75, 105) for f in ("gamma0", "gamma1")
]


def census_digest(family, level, workdir):
    """SHA-256 of the census file written for (family, level)."""
    path = os.path.join(workdir, f"census_{family}_{level}.json")
    write_census(path, census_payload(Family(family), level))
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(f"{f}/{n}" for f, n in CASES)


@pytest.mark.parametrize("family,level", CASES)
def test_census_file_matches_golden(family, level, tmp_path):
    assert census_digest(family, level, str(tmp_path)) == load_golden()[f"{family}/{level}"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_census_golden.py --write")
    with tempfile.TemporaryDirectory() as workdir:
        digests = {f"{f}/{n}": census_digest(f, n, workdir) for f, n in CASES}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
