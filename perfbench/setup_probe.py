"""Cold set-up of one workload's chip, timed in this fresh process.

Prints the seconds taken to build the chip and its distance matrix plus
eccentricity, including numpy's first BLAS call. Started by
``bench.measure_setup``; by hand:

    python3 perfbench/setup_probe.py grow-wide
"""

import sys
import time

from run import use_source_tree

use_source_tree()

from inputs import WORKLOADS  # noqa: E402

t0 = time.perf_counter()
WORKLOADS[sys.argv[1]].build_chip().distances.eccentricity
print(time.perf_counter() - t0)
