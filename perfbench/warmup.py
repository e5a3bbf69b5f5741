"""One cold set-up for ``setup_s``: a fresh interpreter imports gpcpd from the
checkout's ``src/`` and finishes one untimed warm-up solve on the workload's
own route. Exits 0 only when that solve succeeded.

    python3 perfbench/warmup.py <workload> <seed> <index>
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gpcpd  # noqa: E402
from workloads import WORKLOADS, warmup_input  # noqa: E402

if __name__ == "__main__":
    name, seed, index = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    inp = warmup_input(WORKLOADS[name], seed, index)
    _, report = gpcpd.decompose(inp.tensor, inp.case.rank, inp.options)
    sys.exit(0 if report.success else 1)
