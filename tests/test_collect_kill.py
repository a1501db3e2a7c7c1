"""`xlconsist collect` killed with SIGKILL, then resumed: the store ends with
the cells and statuses of an uninterrupted run, each cell stored once.

A kill skips every `finally` block, so the manifest and the stats file are
never written and no handle is closed. Each case kills a `collect` that
this test started, in its own process, after some store lines, and
resumes it with the manifest and stats file missing, left from another
run (stale) or torn (the first half of another run's file, as a kill while
that run wrote it leaves), with and without --retry-failed. The mock
endpoint runs in its own process and answers after 10 ms, so a kill lands
mid-run.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import xlconsist
from xlconsist.answers import load_answers
from xlconsist.cli import cli
from xlconsist.fixtures import bundled_fixture_path

SRC = Path(xlconsist.__file__).resolve().parents[1]
CELLS = 84  # 3 languages x 28 items in the bundled fixture


@pytest.fixture
def endpoint():
    """The URL of `python -m xlconsist.mockllm --latency 0.01` on a free port."""
    mock = subprocess.Popen(
        [sys.executable, "-u", "-m", "xlconsist.mockllm", "--port", "0", "--latency", "0.01"],
        env={"PYTHONPATH": str(SRC)}, stdout=subprocess.PIPE, text=True,
    )
    try:
        yield re.search(r"http://\S+", mock.stdout.readline()).group()
    finally:
        mock.kill()
        mock.wait()
        mock.stdout.close()


def collect_args(url, store, concurrency, retry_failed=False):
    return ["collect", "--dataset", str(bundled_fixture_path()), "--out", str(store),
            "--endpoint", url, "--model", "canned", "--shots", "1", "--seed", "11",
            "--run-id", "killed", "--concurrency", str(concurrency),
            *(["--retry-failed"] if retry_failed else [])]


def collect_until_killed(url, store, records, retry_failed):
    """Start `collect` in a child, one request at a time, and SIGKILL it once
    the store holds `records` records (for 0, once the store exists)."""
    child = subprocess.Popen(
        [sys.executable, "-m", "xlconsist.cli", *collect_args(url, store, 1, retry_failed)],
        env={"PYTHONPATH": str(SRC)}, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while child.poll() is None and time.monotonic() < deadline:
            if store.exists() and (records == 0 or
                                   store.read_bytes().count(b"\n") >= records + 1):
                break
            time.sleep(0.001)
        assert child.poll() is None, "collect ended before it was killed"
    finally:
        child.kill()
        child.wait()


def collect(url, store, retry_failed=False):
    result = CliRunner().invoke(cli, collect_args(url, store, 4, retry_failed))
    assert result.exit_code == 0, result.output
    return load_answers(store)


def sidecars(store):
    """The manifest and stats file of `store`."""
    return Path(f"{store}.manifest.json"), Path(f"{store}.stats.json")


@pytest.mark.parametrize("kills, retry_failed, manifest, stats", [
    ((0,), False, "missing", "missing"),
    ((1,), True, "stale", "stale"),
    ((25,), False, "stale", "missing"),
    ((10, 40), True, "missing", "stale"),
    ((30,), False, "torn", "torn"),
], ids=["at-open", "after-1", "after-25", "after-10-then-40", "after-30-torn-sidecars"])
def test_killed_collect_resumes_to_the_uninterrupted_cells(
    tmp_path, endpoint, kills, retry_failed, manifest, stats
):
    uninterrupted = tmp_path / "uninterrupted.jsonl"
    reference = collect(endpoint, uninterrupted)
    store = tmp_path / "a.jsonl"
    for records in kills:
        collect_until_killed(endpoint, store, records, retry_failed)
    assert not any(path.exists() for path in sidecars(store))  # the kill skipped them
    stored = len(load_answers(store).answers) if store.stat().st_size else 0
    assert stored >= kills[-1]
    for state, left, path in zip((manifest, stats), sidecars(uninterrupted), sidecars(store)):
        if state == "stale":  # another run's file
            shutil.copyfile(left, path)
        elif state == "torn":
            whole = left.read_bytes()
            path.write_bytes(whole[:len(whole) // 2])

    resumed = collect(endpoint, store, retry_failed)

    assert (resumed.answers, resumed.raw, resumed.statuses) == (
        reference.answers, reference.raw, reference.statuses)
    assert store.read_bytes().count(b"\n") == 1 + CELLS  # the header, then each cell once
    manifest_path, stats_path = sidecars(store)
    written = json.loads(manifest_path.read_text(encoding="utf-8"))
    expected = json.loads(sidecars(uninterrupted)[0].read_text(encoding="utf-8"))
    assert written["statuses"] == expected["statuses"]
    assert json.loads(stats_path.read_text(encoding="utf-8"))["cells_sent"] == CELLS - stored
