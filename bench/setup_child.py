"""Time one cold set-up: import qssgeo and draw a workload's inputs from a seed.

Usage: python3 bench/setup_child.py WORKLOAD SEED [--smoke]

``run.py`` starts this in a fresh interpreter, with qssgeo's sources on
PYTHONPATH, and reads the elapsed seconds from the last line it prints.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports numpy and qssgeo)

workloads.make(sys.argv[1], int(sys.argv[2]), smoke="--smoke" in sys.argv[3:])
print(time.perf_counter() - t0)
