"""Start benchmark jobs from a small process, so that each job's peak RSS is its own.

Linux carries the peak RSS of the process that starts a child into the
child's own maximum at exec, so a job started from the benchmark
process would report at least the benchmark's peak (which grows with
the documents it checks). This process imports little and starts every
job; it runs with the job environment, which its jobs inherit.

Protocol: one JSON request per line on stdin, ``[argv, cwd, timeout,
stderr_path]``; one JSON reply per line on stdout, ``[wall seconds,
exit code or null on timeout, max RSS in KiB]``. It exits at the end of
stdin; on SIGTERM it kills the running job first.
"""

import json
import os
import select
import signal
import subprocess
import sys
import time


def spawn(argv: list[str], cwd: str, timeout: float, stderr_path: str):
    """Run argv to completion; return (wall seconds, exit code or None on timeout, max RSS KiB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        ready = []
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
                wall = time.perf_counter() - start
            finally:
                os.close(pidfd)
        finally:
            # Also on an exception here: never leave a job running.
            if not ready:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, (proc.returncode if ready else None), usage.ru_maxrss


def main() -> None:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        print(json.dumps(spawn(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
