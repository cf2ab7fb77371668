"""Print a sha1 of every job's output in one benchmark workload, and a total.

    python3 tools/output_digest.py --workload cosim-3block --seed 41

The jobs of the workload are generated by ``perfbench/workloads.py`` (read,
never changed) in a temporary directory and run once each, in order,
through ``phode.cli.main`` of the checkout that holds this script.  A job's
sha1 covers its exit code, its standard output and the bytes of its output
files; ``total`` is the sha1 of all job sha1s.  Two checkouts that print
the same total wrote the same bytes in every job of that workload and seed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # the BLAS thread count of perfbench/run.py, fixed before NumPy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import phode.cli  # noqa: E402
import workloads  # noqa: E402


def job_digests(workload: str, seed: int) -> list:
    """(kind, sha1) of every job of ``workload`` at ``seed``, in job order."""
    if Path(phode.cli.__file__).resolve().parent != ROOT / "src" / "phode":
        raise SystemExit(f"output_digest: imported phode from {phode.cli.__file__}, "
                         f"not {ROOT / 'src'}")
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.WORKLOADS[workload](np.random.default_rng(seed), Path(tmp)).jobs
        for job in jobs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = phode.cli.main(job.argv)
            h = hashlib.sha1(f"exit {code}\n{stdout.getvalue()}".encode())
            for path in map(Path, job.outputs):
                h.update(path.read_bytes() if path.is_file() else b"no file")
            out.append((job.kind, h.hexdigest()))
    return out


def total(digests: list) -> str:
    return hashlib.sha1("".join(d for _, d in digests).encode()).hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Digest the outputs of one benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    digests = job_digests(args.workload, args.seed)
    for i, (kind, d) in enumerate(digests):
        print(f"{i:4d}  {kind:<9} {d}")
    print(f"total {total(digests)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
