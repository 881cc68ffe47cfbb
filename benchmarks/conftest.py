import pytest

from benchmarks.ledger import Session


@pytest.fixture(scope="session")
def bench_ledger():
    """This session's ledger entries, appended when the session ends."""
    session = Session()
    yield session
    session.flush()
