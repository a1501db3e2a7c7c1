#!/usr/bin/env python3
"""Benchmark `xlconsist score` and `xlconsist collect` end to end.

    python3 perfbench/run.py --workload score-paper --seed 1 --seconds 55 --trace 0

Run from the repository root. Workloads (see workloads.py for why each):
score-paper and collect, which BENCHMARK.json lists, and score-longform,
for runs by hand.

Set-up (generate inputs from the seed, write the dataset, answers and
vector cache or canned answers, start the mock endpoint until it answers)
runs five times; `setup_s` is the median. Then passes run, at least three
and as many more as end within --seconds, each in its own process, so
nothing but files on disk carries from one pass to the next. Every pass's
output is checked (checks.py).

--trace 0 reports the end-to-end metrics: setup_s, cells_per_s (cells /
median pass time), peak_rss_mb (median over passes of the pass process's
peak RSS) and ok_rate (1 - error_rate, which is printed too but cannot be
a bounded metric since it is 0 when all is well; a failed check fails
every cell of its pass). --trace 1 alternates untraced and traced passes
and reports the per-layer metrics (spans.py) as medians over the traced
passes, plus the tracing overhead: median traced over median untraced
pass time.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The run record (interpreter and numpy versions, nproc, chrF
kernel, workload shape, every pass) is printed before it and written to
.perfbench_runs/. The exit code is 1 when any output check fails and 2
when the checkout has no xlconsist sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MiB",
    "ok_rate": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the kernel is whichever the checkout imports, never a forced fallback
    env.pop("XLCONSIST_PURE_PYTHON", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class MockEndpoint:
    """`python -m xlconsist.mockllm` in its own process at zero latency."""

    def __init__(self, canned: Path, env: dict[str, str]):
        self.port = free_port()
        self.url = f"http://127.0.0.1:{self.port}/v1/chat/completions"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "xlconsist.mockllm", "--port", str(self.port),
             "--answers", str(canned), "--latency", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"mock endpoint exited with {self.process.returncode}")
            try:
                with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/", timeout=1) as r:
                    if r.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("mock endpoint did not answer")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def set_up(workloads, name: str, seed: int, directory: Path, env):
    """One timed set-up; returns (seconds, inputs, paths, endpoint or None)."""
    start = time.perf_counter()
    inputs = workloads.generate(name, seed)
    paths = workloads.write_inputs(inputs, directory)
    endpoint = None
    if name == workloads.COLLECT:
        endpoint = MockEndpoint(paths["canned"], env)
        try:
            endpoint.wait_ready()
        except BaseException:
            endpoint.stop()
            raise
    return time.perf_counter() - start, inputs, paths, endpoint


def command(workloads, inputs, paths, out: Path, endpoint) -> list[str]:
    if endpoint is None:
        return ["score", "--dataset", str(paths["dataset"]), "--answers", str(paths["answers"]),
                "--cache", str(out / "vectors.bin"), "--provider-kind", "cache-only",
                "--dims", str(workloads.DIMS), "--seed", str(inputs.seed),
                "--out-dir", str(out / "report")]
    return ["collect", "--dataset", str(paths["dataset"]), "--out", str(out / "answers.jsonl"),
            "--endpoint", endpoint.url, "--model", workloads.MODEL, "--run-id", workloads.RUN_ID,
            "--shots", str(workloads.COLLECT_SHOTS), "--seed", str(inputs.seed),
            "--concurrency", str(workloads.COLLECT_CONCURRENCY),
            "--languages", ",".join(inputs.languages)]


def run_pass(argv: list[str], out: Path, env, trace: bool) -> dict:
    result = out / "pass.json"
    own = [str(result)] + (["--trace", str(out / "spans.json")] if trace else [])
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), *own, "--", *argv],
            env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout"}
    if done.returncode != 0 or not result.is_file():
        return {"status": f"runner exit {done.returncode}", "stderr": done.stderr[-2000:]}
    outcome = json.loads(result.read_text(encoding="utf-8"))
    if outcome["status"] != 0:
        outcome["stderr"] = done.stderr[-2000:]
    return outcome


def run_passes(workloads, checks, spans, args, work: Path, env):
    """Set up, then run passes for args.seconds, alternating untraced and
    traced passes with --trace 1. Returns (setup times, inputs, passes)."""
    endpoint = None
    try:
        setup_times = []
        for repeat in range(1 if args.trace else SETUP_REPEATS):
            if endpoint is not None:
                endpoint.stop()
            seconds, inputs, paths, endpoint = set_up(
                workloads, args.workload, args.seed, work / f"setup{repeat}", env
            )
            setup_times.append(seconds)

        passes = []
        rounds: list[float] = []
        deadline = time.perf_counter() + args.seconds
        # start another round only if a typical round still ends by the deadline
        while len(passes) < MIN_PASSES or (
            time.perf_counter() + statistics.median(rounds) <= deadline
        ):
            round_start = time.perf_counter()
            for traced in (False, True) if args.trace else (False,):
                out = work / f"pass{len(passes)}"
                out.mkdir()
                if endpoint is None:
                    # a pristine copy: closing the cache appends an index block
                    shutil.copyfile(paths["cache"], out / "vectors.bin")
                argv = command(workloads, inputs, paths, out, endpoint)
                outcome = run_pass(argv, out, env, traced)
                outcome["traced"] = traced
                if outcome["status"] != 0:
                    outcome["problems"] = [f"pass failed: {outcome['status']}"]
                elif endpoint is None:
                    report = out / "report" / "report.json"
                    if report.is_file():
                        outcome["report"] = report.read_bytes()
                    else:
                        outcome["problems"] = ["no report.json written"]
                else:
                    outcome["problems"] = checks.check_store(
                        out / "answers.jsonl", out / "answers.jsonl.manifest.json",
                        inputs.answers,
                    )
                if traced and outcome["status"] == 0:
                    doc = json.loads((out / "spans.json").read_text(encoding="utf-8"))
                    outcome["layers"] = spans.layer_metrics(doc)
                    outcome["missing_hooks"] = doc["missing"]
                shutil.rmtree(out)
                passes.append(outcome)
            rounds.append(time.perf_counter() - round_start)
    finally:
        if endpoint is not None:
            endpoint.stop()
    return setup_times, inputs, passes


def check_reports(checks, inputs, passes) -> dict:
    """Check every score pass's report; returns the scores of a correct one."""
    completed = [p for p in passes if "report" in p]
    if not completed:
        return {}
    reports = [p.pop("report") for p in completed]
    verdicts = checks.check_score_passes(reports, checks.expected_report(inputs))
    for outcome, problems in zip(completed, verdicts):
        outcome["problems"] = problems
    return json.loads(reports[0])["metrics"] if not verdicts[0] else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("score-paper", "score-longform", "collect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xlconsist" / "cli.py").is_file():
        print(f"no xlconsist sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("XLCONSIST_PURE_PYTHON", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np

    import checks
    import spans
    import workloads

    runs = ROOT / ".perfbench_runs"
    work = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    setup_times, inputs, passes = run_passes(workloads, checks, spans, args, work, child_env())
    shutil.rmtree(work, ignore_errors=True)
    scores = check_reports(checks, inputs, passes)

    failed_passes = [p for p in passes if p["problems"]]
    attempted = inputs.cells * len(passes)
    failed = inputs.cells * len(failed_passes)
    good = [p for p in passes if not p["problems"]]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    if args.trace:
        metrics = {name: median(p["layers"][name] for p in traced) for name in spans.LAYER_METRICS}
        untraced_s = median(p["seconds"] for p in untraced)
        metrics["trace.overhead_ratio"] = (
            median(p["seconds"] for p in traced) / untraced_s if untraced_s else 0.0
        )
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
        units["trace.overhead_ratio"] = "ratio"
    else:
        median_pass = median(p["seconds"] for p in untraced)
        metrics = {
            "setup_s": median(setup_times),
            "cells_per_s": inputs.cells / median_pass if median_pass else 0.0,
            "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
            "ok_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS

    kernel = next((p for p in passes if "chrf_kernel" in p), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "chrf_kernel": kernel.get("chrf_kernel"),
        "extension_built": kernel.get("extension_built"),
        "shape": inputs.shape(),
        "setup_s": setup_times,
        "scores": scores,
        "error_rate": failed / attempted,
        "passes": passes,
    }
    (runs / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({key: value for key, value in record.items() if key != "passes"}))
    for outcome in failed_passes:
        print(f"check failed: {outcome['problems'][:5]}", file=sys.stderr)
    for hook in next((p["missing_hooks"] for p in traced), []):
        print(f"not traced, its metrics read 0: {hook}", file=sys.stderr)
    print(f"{'error_rate':<34} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} cells in {len(passes)} passes)")
    for name, value in metrics.items():
        print(f"{name:<34} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed_passes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed_passes else 0


if __name__ == "__main__":
    sys.exit(main())
