"""End-to-end benchmark of the whole stack: five workloads, per-layer attribution.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the repository root.
"""

from pathlib import Path

#: scratch space (transient checkpoints, the children's detail files).  It
#: is inside the checkout and ignored by git, not in the system temporary
#: directory: the benchmark contract lets a run write only inside its checkout
WORK_ROOT = Path(__file__).with_name(".work")
