"""Start children for the benchmark and report each one's own costs.

    python3 bench/launcher.py PYTHON

Reads one JSON request per stdin line, {"argv", "cwd", "stdout",
"stderr"}, runs `PYTHON -m gridfree *argv` there with stdout and stderr
sent to the named files, reaps it with wait4, and answers one JSON line,
{"code", "wall_s", "cpu_s", "maxrss_kib"}.  It exits at end of input.

A child's ru_maxrss is at least the peak RSS of the process it was
spawned from, so children are spawned from this small process rather than
from the benchmark, whose memory grows while it checks outputs.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    python = sys.argv[1]
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([python, "-m", "gridfree", *req["argv"]], cwd=req["cwd"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kib": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
