"""Start benchmark children from a small process, so their peak RSS is their own.

Linux carries the peak RSS of the process that forks into the
``ru_maxrss`` of the program it execs.  Children started straight from
run.py, which holds inputs of hundreds of MB, would report run.py's peak
instead of their own.  This helper is started first and stays small; it
reads one JSON request per stdin line and answers with one JSON line:

    {"argv": [...], "stderr": path, "timeout": s}
    -> {"rc": exit code, "wall": seconds, "maxrss_kb": peak RSS}

Children inherit this process's environment.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], stderr_path: str, timeout: float) -> dict:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stderr"], request["timeout"])
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
