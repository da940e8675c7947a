import os

import pytest

from geosplit.geodesics import enumerate_primitive_classes, max_trace

JOBS = min(2, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def classes_1e6():
    """Primitive classes with norm < 1e6, shared by the heavy tests."""
    return enumerate_primitive_classes(10**6, jobs=JOBS)


@pytest.fixture(scope="session")
def classes_1e5(classes_1e6):
    return classes_1e6.below(max_trace(10**5))


@pytest.fixture(scope="session")
def classes_1e4(classes_1e6):
    return classes_1e6.below(max_trace(10**4))
