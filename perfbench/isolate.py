"""Run one benchmark item in a forked child so that a crash kills only it.

The benchmark process imports npeit once, then forks a child per item.
The child inherits the interpreter with its imports done, runs the item,
sends its JSON result back through a pipe and leaves with ``os._exit``.
A child that dies by a signal, exits without a result or outlives its
timeout is a failed item; the benchmark records it and goes on.

Forking is safe here because the parent runs no Python threads of its own
at fork time: the drivers' thread pools live only in the children.
OpenBLAS stops its workers at ``fork`` and restarts them on the next BLAS
call, which each child makes from its main thread before its item (see
``warm_blas`` in ``run.py``).
"""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import time
import traceback
from dataclasses import dataclass


@dataclass
class Outcome:
    ok: bool
    #: the child's JSON result when it sent one
    value: dict | None
    #: why the item failed: "signal 6 (SIGABRT)", "exit 1", "timeout" or
    #: "raised <type>: <message>"; None on success
    failure: str | None
    #: peak resident memory of the child in MiB (it includes the pages
    #: the child shares with the warm parent)
    peak_rss_mb: float
    #: last line the child wrote to its stderr log, e.g. glibc's abort text
    log_tail: str


def run_in_child(fn, arg, log_path: str, timeout: float) -> Outcome:
    """Call ``fn(arg)`` in a forked child; ``fn`` returns a JSON-able dict."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(read_fd)
        code = 0
        try:
            # an aborting item must not leave a core file in the checkout
            resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
            log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                             0o644)
            os.dup2(log_fd, 1)
            os.dup2(log_fd, 2)
            try:
                payload = {"ok": True, "value": fn(arg)}
            except Exception as exc:  # the item raised: report, not crash
                traceback.print_exc()
                payload = {"ok": False,
                           "failure": f"raised {type(exc).__name__}: {exc}"}
            data = json.dumps(payload).encode()
            view = memoryview(data)
            while view:
                view = view[os.write(write_fd, view):]
        except BaseException:
            code = 70
        finally:
            os._exit(code)

    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([read_fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)

    rss = usage.ru_maxrss / 1024.0
    tail = _last_line(log_path)
    if timed_out:
        return Outcome(False, None, f"timeout after {timeout:.0f} s", rss, tail)
    if os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        return Outcome(False, None,
                       f"signal {sig} ({signal.Signals(sig).name})", rss, tail)
    code = os.WEXITSTATUS(status)
    if code != 0 or not chunks:
        return Outcome(False, None, f"exit {code}", rss, tail)
    payload = json.loads(b"".join(chunks))
    if not payload["ok"]:
        return Outcome(False, None, payload["failure"], rss, tail)
    return Outcome(True, payload["value"], None, rss, tail)


def _last_line(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            lines = handle.read().decode("utf-8", "replace").strip()
    except OSError:
        return ""
    return lines.splitlines()[-1][:200] if lines else ""
