"""Time one set-up of a workload: import obsurf, then build its inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken. run.py starts this several times, each in a
fresh process, and reports the median as setup_s.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import obsurf.cli  # noqa: E402,F401  (the CLI's import cost is set-up too)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - t0)
