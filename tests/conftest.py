import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from xlconsist.answers import store_records

# tests import sibling helper modules (oracles, multilingual pairs)
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

DATA_DIR = Path(__file__).parent / "data"


def answer_cells(answer_set):
    """{(lang, item): text} of every answer `answer_set` holds, item by item
    in the order each item was first set."""
    return {
        (lang, item_id): column[at]
        for at, item_id in enumerate(answer_set.item_ids)
        for lang, column in answer_set.by_language.items()
        if column[at] is not None
    }


def last_records(path):
    """{(lang, item): (raw, text, status)} of each cell's last record in the
    answers store at `path`."""
    _, last = store_records(path)
    return {key: (record["raw"], record["text"], record["status"]) for key, record in last.items()}


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process, running or exited but not
    waited for."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    assert pid != 0, "a child process was left running"
    raise AssertionError(f"child process {pid} was left un-reaped (wait status {status})")
