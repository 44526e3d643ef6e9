"""Set-up cost probe: import lrpovm and build one workload's inputs.

Run in a fresh interpreter from the checkout root by ``run.py``:

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (imports lrpovm from src/)

workloads.WORKLOADS[sys.argv[1]].build_inputs(int(sys.argv[2]))
