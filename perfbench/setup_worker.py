"""Job set-up in a process of its own, fed requests over a pipe.

The process that spawns jobs must never hold set-up's matrices: a child
inherits its parent's peak RSS as a floor of its own ``ru_maxrss`` (fork
copies the parent's pages, vfork records the parent's high-water mark at
exec).  So set-up runs here, and the benchmark talks to this script over
its stdin and stdout, one pickled request and reply at a time.  The script
ends when its stdin closes.

A plain subprocess rather than a ``multiprocessing`` pool: a pool started
with ``spawn`` also starts a resource-tracker process that nobody waits
for, and it would outlive the benchmark.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import traceback
from pathlib import Path

from jobs import bootstrap

# Time a worker gets to end after its stdin closes, before it is killed.
STOP_TIMEOUT_S = 30.0


class SetUpWorker:
    """A running ``setup_worker.py``; use as a context manager so that the
    process is always stopped and waited for."""

    def __init__(self, env: dict[str, str]):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def __enter__(self) -> SetUpWorker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def timed_set_up(self, *args):
        """``scenarios.timed_set_up(*args)`` in the worker."""
        pickle.dump(args, self._proc.stdin)
        self._proc.stdin.flush()
        try:
            ok, value = pickle.load(self._proc.stdout)
        except EOFError:
            raise RuntimeError(f"set-up worker ended with code {self._proc.wait()}") from None
        if not ok:
            raise RuntimeError(f"set-up failed in the worker:\n{value}")
        return value

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except BrokenPipeError:  # the worker has already ended
            pass
        try:
            self._proc.wait(STOP_TIMEOUT_S)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        finally:
            self._proc.stdout.close()


def serve() -> None:
    bootstrap()
    from scenarios import timed_set_up

    # Replies go to the pipe alone; anything else printed goes to stderr.
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    requests = sys.stdin.buffer
    while True:
        try:
            args = pickle.load(requests)
        except EOFError:
            break
        try:
            reply = (True, timed_set_up(*args))
        except Exception:
            reply = (False, traceback.format_exc())
        pickle.dump(reply, replies)
        replies.flush()


if __name__ == "__main__":
    serve()
