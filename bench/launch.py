"""Run one command to its exit and print its wall time, CPU time, peak RSS
and exit code as one JSON line.

    python3 -I bench/launch.py <stdout file> <program> [args...]

``run.py`` starts every timed process through this small process, not
directly. On Linux a child's ``ru_maxrss`` starts from the peak RSS of the
process that spawned it, and the harness grows past 100 MiB while it builds
references and reads reports; this process stays near 10 MiB. Standard
error goes to ``<stdout file>.err``.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
    }))


if __name__ == "__main__":
    main()
