"""Runs benchmark jobs on behalf of ``run.py`` from a small process.

Linux carries a parent's peak RSS at fork time into the child's
``ru_maxrss``, so jobs forked from the benchmark itself (which holds
numpy, scipy and the instances) would all report its peak. This process
imports little and stays small. It reads one JSON request per line on
stdin, ``{"argv": [...], "stderr": path}``, runs the command to
completion and answers with one JSON line: ``wall_s`` from spawn to
exit, ``exit_code``, ``maxrss_kb`` from ``wait4`` and ``stdout``. It
exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=subprocess.PIPE, stderr=err)
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall_s, "exit_code": proc.returncode,
                          "maxrss_kb": usage.ru_maxrss,
                          "stdout": stdout.decode(errors="replace")}), flush=True)


if __name__ == "__main__":
    main()
