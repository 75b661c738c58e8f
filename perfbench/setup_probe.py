"""Time importing adaptbt plus one workload's set-up, in this interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD WORKDIR

Run in a fresh interpreter per sample. Prints the elapsed nanoseconds and
then the median time of host-speed calibration chunks taken right after.
Imports nothing but the standard modules needed to start the clock, so
adaptbt's own import cost is inside the measurement.
"""

import os
import sys
import time

start = time.perf_counter_ns()
_here = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_here), "src"))
import adaptbt  # noqa: E402,F401
import workloads  # noqa: E402

workloads.setup(sys.argv[1], sys.argv[2])
elapsed = time.perf_counter_ns() - start

from calibrate import Calibration  # noqa: E402

calibration = Calibration()
for _ in range(20):
    calibration.sample()
print(elapsed, calibration.median_ns())
