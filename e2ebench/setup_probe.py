"""Build one workload's fixed inputs in a fresh interpreter, then exit.

``run.py`` times this script from launch to exit to measure set-up:
interpreter start, imports and the workload's fixed inputs.

    python3 e2ebench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import ops  # noqa: E402

if __name__ == "__main__":
    ops.WORKLOADS[sys.argv[1]].build_inputs(int(sys.argv[2]))
