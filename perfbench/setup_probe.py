"""The set-up step of a benchmark run: import srdepth.cli and write the
workload's input files.  run.py runs it in a fresh interpreter and times it
from launch to exit, since a CLI user pays the interpreter start and the
import on every invocation.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

import srdepth.cli  # noqa: E402,F401

workload, seed = sys.argv[1], int(sys.argv[2])
workloads.write_inputs(workloads.make_inputs(workload, seed), workloads.WORK / workload)
