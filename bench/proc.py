"""Run one child process to completion under a deadline, with its own rusage.

The child is reaped with ``os.wait4`` on its pid, so ``ru_maxrss`` is that
child's peak RSS alone; ``getrusage(RUSAGE_CHILDREN)`` would instead keep
the running maximum over every child reaped so far.
"""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Finished:
    exit_code: int
    stdout: bytes
    stderr: bytes
    maxrss_mb: float
    marker_s: float | None  # seconds from spawn until ``marker`` appeared on stdout


def run(argv: list[str], timeout: float, *, cwd=None, env=None, marker: bytes | None = None) -> Finished:
    """Run ``argv``, draining stdout and stderr; kill it and raise TimeoutError past ``timeout``."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = bytearray(), bytearray()
    marker_s = None
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                left = start + timeout - perf_counter()
                if left <= 0:
                    raise TimeoutError(f"{argv[:4]} still running after {timeout:.0f} s")
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    key.data.extend(chunk)
                    if marker and marker_s is None and key.data is out and marker in out:
                        marker_s = perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        # os.kill, not proc.kill: Popen would reap the child itself first.
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    return Finished(proc.returncode, bytes(out), bytes(err), usage.ru_maxrss / 1024, marker_s)
