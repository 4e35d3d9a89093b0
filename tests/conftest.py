import os

# Only the tests import numpy, for int64 oracles that never call BLAS: one
# OpenBLAS thread saves the worker threads numpy would start (and spin) at
# its import.  A value set before the run still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from g9cov.session import get_session  # noqa: E402
from oracles import decode_rows  # noqa: E402


@pytest.fixture(scope="session")
def sess():
    return get_session()


@pytest.fixture(scope="session")
def table(sess):
    return sess.table


@pytest.fixture(scope="session")
def reps(sess):
    return sess.reps


@pytest.fixture(scope="session")
def engine(sess):
    return sess.engine


@pytest.fixture(scope="session")
def chars(sess):
    """The characters of the session as CycNum rows, rows by rep id."""
    return decode_rows(sess.traces)
