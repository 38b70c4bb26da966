"""Measure one workload of the end-to-end benchmark.

Usage, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload hit_resident --seed 7 \\
        --seconds 20 --trace 0

See ``benchmarks/e2e/README.md`` and :mod:`benchmarks.e2e.worker`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.worker import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
