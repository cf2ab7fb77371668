"""phode benchmark: run one workload through ``phode.cli.main`` in-process.

    python3 perfbench/run.py --workload cli-docs --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload is generated from the seed, each job's output is
checked against NumPy-only references, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from alternating traced and untraced passes with ``--trace 1``).
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# fix the BLAS thread count before NumPy loads; 1 <= nproc everywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "phode" / "cli.py").is_file():
        sys.exit(f"perfbench: no phode sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness
    sys.exit(harness.main())
