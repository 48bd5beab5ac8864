"""Start the CLI commands of a run from a small process of their own.

Usage: python launcher.py < requests

Prints ``{"ready": true}`` once started, so that its own start-up does not
overlap the benchmark's timing.  Then reads one JSON request per stdin line,
``{"argv": [...], "cwd": ..., "timeout": seconds}``, runs it to completion
and answers with one JSON line
``{"code", "stdout", "stderr", "seconds"}`` (``code`` is null on timeout).
At end of input it prints ``{"peak_rss_mb": ...}``, the peak RSS of the
commands it ran.

A child's peak RSS as the kernel reports it includes the memory of the
process that spawned it, up to its exec, so commands spawned by the
benchmark process (which holds 256x256 grids for its checks) would report
that process's size.  This launcher imports nothing heavy and stays a few
megabytes, well under any physeg command.
"""

import json
import resource
import subprocess
import sys
import time


def main():
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], cwd=request["cwd"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=request["timeout"])
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
        seconds = time.perf_counter() - t0
        reply = {"code": code, "stdout": out, "stderr": err, "seconds": seconds}
        print(json.dumps(reply), flush=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak}), flush=True)


if __name__ == "__main__":
    main()
