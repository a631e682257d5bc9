"""Time what a fresh process pays before its first round.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload>

Prints the seconds from before ``import repro`` until the workload's
runner is built and its first target connection has been opened and
closed.  ``run.py`` starts several of these and reports the median as
``setup_s``.
"""

import sys
import time

start = time.perf_counter()
import repro  # noqa: E402,F401 - the import is part of what is timed

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup()
print(f"{time.perf_counter() - start:.6f}")
