"""One function call in a forked child while this process works on: the one
place that `score` forks, for its store child and its chrF workers."""

from __future__ import annotations

import gc
import os
import pickle
import signal

from .errors import XlconsistError


def fork_cpus() -> int:
    """The CPUs a scoring pass forks processes onto: those in the affinity
    mask, or 0 (run inline) without fork or sched_getaffinity, or with one
    CPU. The one rule for every `Forked`."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    cpus = len(os.sched_getaffinity(0))
    return cpus if cpus > 1 else 0


class Forked:
    """`fn(*args)`, started in a forked child when `fork_cpus()` allows,
    else run inline by `result`.

    The child gets `fn` and its arguments through fork, not by pickling.
    It runs with gc disabled: a collection would walk (and so copy the
    pages of) every object it inherited, and it makes no garbage that must
    be freed before it exits. It pickles `(True, value)` or
    `(False, exception)` into a pipe and exits. `result`, called once,
    returns the value or raises the exception (pickled, so no traceback
    comes with it). `close` kills the child if it still runs (as after an
    error before `result`) and reaps it; a child that has sent its reply
    exits on its own, so closing later, not right after `result`, keeps
    its exit off this process's path.
    """

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args
        self._pid = self._reply = None
        if fork_cpus() > 0:
            self._reply, write = os.pipe()
            try:
                self._pid = os.fork()
            except OSError:
                os.close(self._reply)
                os.close(write)
                raise
            if self._pid == 0:
                status = 1
                try:
                    os.close(self._reply)
                    gc.disable()
                    try:
                        reply = True, fn(*args)
                    except Exception as exc:  # sent to the parent, which raises it
                        reply = False, exc
                    # pickled whole first, so that a failure here sends no partial reply
                    data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
                    with open(write, "wb") as stream:
                        stream.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)

    def result(self):
        if self._pid is None:
            return self.fn(*self.args)
        reply, self._reply = self._reply, None
        with open(reply, "rb") as stream:
            data = stream.read()
        if not data:
            _, status = os.waitpid(self._pid, 0)
            self._pid = None
            raise XlconsistError(
                f"the forked {self.fn.__module__}.{self.fn.__qualname__} exited without a "
                f"reply (exit code {os.waitstatus_to_exitcode(status)})"
            )
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self._reply is not None:
            os.close(self._reply)
            self._reply = None
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
