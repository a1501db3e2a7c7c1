import os
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

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
