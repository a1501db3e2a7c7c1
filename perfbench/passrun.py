"""One pass: run an `xlconsist` command in this process, report time and memory.

    python perfbench/passrun.py RESULT.json [--trace SPANS.json] -- score --dataset ...

The clock covers the CLI call only, not interpreter start or imports.
RESULT.json gets the exit status, seconds, peak RSS and the active chrF
kernel. With --trace, the layers' public names are wrapped first and the
spans are written to SPANS.json after the clock stops.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, command = argv[:split], argv[split + 1 :]
    result_path = own[0]
    trace_path = own[own.index("--trace") + 1] if "--trace" in own else None

    from xlconsist import cli
    from xlconsist.textmetrics import backend_name

    tracer = None
    if trace_path:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    def invoke():
        try:
            cli.cli.main(args=command, prog_name="xlconsist")
        except SystemExit as exc:
            return exc.code or 0
        return 0

    cpu_start = time.process_time()
    start = time.perf_counter()
    if tracer is None:
        status = invoke()
    else:
        status = tracer.call(f"cli.{command[0]}", invoke, (), {})
    seconds = time.perf_counter() - start
    cpu_seconds = time.process_time() - cpu_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    try:
        from xlconsist.textmetrics import _ngram_cy  # noqa: F401

        extension_built = True
    except ImportError:
        extension_built = False
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "status": status if isinstance(status, int) else 1,
                "seconds": seconds,
                "cpu_seconds": cpu_seconds,
                "peak_rss_mb": peak_kib / 1024.0,
                "chrf_kernel": backend_name(),
                "extension_built": extension_built,
            },
            handle,
        )
    if tracer is not None:
        tracer.dump(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
