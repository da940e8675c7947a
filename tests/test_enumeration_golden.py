"""Golden primitive-class columns.

For each cutoff below, `enumerate_primitive_classes` must give the columns
whose digest is recorded: the SHA-256 of each column's dtype string and
little-endian bytes, in the order trace, a, b, c.  The digests pin every
class and its order, and the int64 dtype of the columns.

The digests live in tests/golden/enumeration_sha256.json.  After a change
that is meant to alter the enumeration, rewrite them with

    PYTHONPATH=src python tests/test_enumeration_golden.py --write

and review the diff of that file.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from geosplit.geodesics import enumerate_primitive_classes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "enumeration_sha256.json")
CUTOFFS = [10**6, 10**7]
JOBS = min(2, os.cpu_count() or 1)


def columns_digest(classes):
    """SHA-256 of the dtype and values of the columns (trace, a, b, c)."""
    h = hashlib.sha256()
    for v in (classes.trace, classes.a, classes.b, classes.c):
        v = np.ascontiguousarray(v, dtype=v.dtype.newbyteorder("<"))
        h.update(v.dtype.str.encode())
        h.update(v.tobytes())
    return h.hexdigest()


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_cutoff():
    assert sorted(load_golden()) == sorted(str(x) for x in CUTOFFS)


def test_columns_at_1e6_match_golden(classes_1e6):
    assert columns_digest(classes_1e6) == load_golden()[str(10**6)]


def test_columns_at_1e7_match_golden():
    classes = enumerate_primitive_classes(10**7, jobs=JOBS)
    assert columns_digest(classes) == load_golden()[str(10**7)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_enumeration_golden.py --write")
    digests = {str(x): columns_digest(enumerate_primitive_classes(x)) for x in CUTOFFS}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
