"""Import ctkdsim and build one workload's inputs, then exit.

    python3 bench/setup_probe.py <workload> <seed>

run.py times this whole process, start to exit, as ``setup_s``.
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
