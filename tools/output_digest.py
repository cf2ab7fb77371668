"""Print a sha1 of every job's output in one benchmark workload, and a total.

    python3 tools/output_digest.py --workload cosim-3block --seed 41
    python3 tools/output_digest.py --workload cli-docs --seed 41 --parent HEAD~1

The jobs of the workload are generated by ``perfbench/workloads.py`` (read,
never changed) in a temporary directory and run once each, in order,
through ``phode.cli.main`` of the checkout that holds this script.  A job's
sha1 covers its exit code, its standard output and the bytes of its output
files; ``total`` is the sha1 of all job sha1s.  Two checkouts that print
the same total wrote the same bytes in every job of that workload and seed.

With ``--parent REV`` the revision REV is unpacked as ``tools/bench_pairs.py``
does (``git archive | tar -x``), this script digests the same workload and
seed there in a process of its own, and both totals are printed, followed
by the first job whose digest differs; the exit code is 1 on any
difference, 0 when every job wrote the same bytes.
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
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "perfbench", ROOT / "tools"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import phode.cli  # noqa: E402
import workloads  # noqa: E402
from bench_pairs import unpack  # noqa: E402


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


def parent_digests(rev: str, workload: str, seed: int) -> tuple:
    """The short commit id of ``rev`` and (kind, sha1) of every job of
    ``workload`` at ``seed`` there, from this script run in the unpacked
    tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        commit = unpack(rev, tree)
        script = tree / "tools" / "output_digest.py"
        script.parent.mkdir(exist_ok=True)
        shutil.copyfile(__file__, script)
        proc = subprocess.run([sys.executable, str(script), "--workload", workload,
                               "--seed", str(seed)], cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"output_digest: {rev} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return commit, [tuple(line.split()[1:]) for line in proc.stdout.splitlines()[:-1]]


def first_difference(parent: list, change: list) -> int | None:
    """Index of the first job whose (kind, sha1) differs between the two
    lists, or that only one of them has; None when they are equal."""
    for i, (a, b) in enumerate(zip(parent, change)):
        if a != b:
            return i
    return None if len(parent) == len(change) else min(len(parent), len(change))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Digest the outputs of one benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--parent", default=None, metavar="REV",
                   help="also digest the workload at git revision REV; exit 1 on a difference")
    args = p.parse_args(argv)
    digests = job_digests(args.workload, args.seed)
    if args.parent is None:
        for i, (kind, d) in enumerate(digests):
            print(f"{i:4d}  {kind:<9} {d}")
        print(f"total {total(digests)}")
        return 0
    commit, parent = parent_digests(args.parent, args.workload, args.seed)
    print(f"parent {commit:<10} total {total(parent)}")
    print(f"change {'':<10} total {total(digests)}")
    i = first_difference(parent, digests)
    if i is None:
        print(f"same bytes in all {len(digests)} jobs")
        return 0
    sides = [" ".join(jobs[i]) if i < len(jobs) else "no job" for jobs in (parent, digests)]
    print(f"first difference: job {i}: parent {sides[0]}, change {sides[1]}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
