import pytest

from g9cov.session import get_session
from oracles import decode_rows


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
