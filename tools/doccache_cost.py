"""Measure what the command line's document cache (phode.doccache) saves and
costs on one benchmark workload.

    python3 tools/doccache_cost.py --workload sim-dense --seed 41

The jobs of the workload are generated by ``perfbench/workloads.py`` (read,
never changed) in a temporary directory, ``XDG_CACHE_HOME`` is pointed at an
empty temporary directory, and every job runs once through
``phode.cli.main`` (the cold pass), then once more (the warm pass).  Each
pass counts the reads of documents of at least ``doccache.MIN_BYTES``
bytes and the hits among them, and its wall time.  Then, for every distinct
document that was read through the cache, three reads are timed (the median
of ``--repeat``): ``plain`` is ``Path.read_text`` and ``parse_system_text``
(the reader without a cache), ``miss`` is a read on an empty cache (key,
lookup, decode, parse, store and eviction) and ``hit`` a read on the entry
the miss stored.  ``first_key_s`` is what a process pays once, at its first
key: importing ``hashlib`` and hashing the package's source, the median of
``--repeat`` fresh processes.  Prints one JSON object.
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
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import phode.cli  # noqa: E402
import workloads  # noqa: E402
from phode import doccache  # noqa: E402
from phode.fileio import parse_system_text  # noqa: E402

FIRST_KEY = ("import time; import phode.cli; from phode import doccache; "
             "t = time.perf_counter(); doccache.key_of(b''); "
             "print(time.perf_counter() - t)")


def use_cache(folder: str):
    os.environ["XDG_CACHE_HOME"] = folder


def run_pass(jobs) -> float:
    """Run every job once; returns the wall time."""
    wall = 0.0
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            phode.cli.main(job.argv)
            wall += time.perf_counter() - t0
    return wall


def timed(calls: dict, repeat: int) -> dict:
    """Median seconds of ``repeat`` runs of each ``calls[name]`` (a pair of
    setup and call, only the call timed), the runs of the calls interleaved
    and their order reversed every other round, so that drift of the host
    and of the heap falls on all of them alike."""
    times = {name: [] for name in calls}
    for r in range(repeat):
        for name in (list(calls) if r % 2 == 0 else list(calls)[::-1]):
            setup, call = calls[name]
            setup()
            gc.collect()
            t0 = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(t) for name, t in times.items()}


def measure(workload: str, seed: int, repeat: int) -> dict:
    out = {"workload": workload, "seed": seed, "min_bytes": doccache.MIN_BYTES}
    reads, paths = [], {}
    get, read = doccache.get, phode.cli._read

    def counted_get(key):
        obj = get(key)
        if key is not None:
            reads.append(obj is not None)
        return obj

    def noted_read(path, parse, cached=False):
        if cached and os.path.isfile(path) and os.path.getsize(path) >= doccache.MIN_BYTES:
            paths.setdefault(Path(path).read_bytes(), path)
        return read(path, parse, cached)

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.ExitStack() as stack:
        stack.callback(setattr, doccache, "get", get)
        stack.callback(setattr, phode.cli, "_read", read)
        old = os.environ.get("XDG_CACHE_HOME")
        stack.callback(lambda: os.environ.pop("XDG_CACHE_HOME", None) if old is None
                       else use_cache(old))
        doccache.get, phode.cli._read = counted_get, noted_read
        use_cache(str(Path(tmp, "xdg")))
        work = Path(tmp, "work")
        work.mkdir()
        wl = workloads.WORKLOADS[workload](np.random.default_rng(seed), work)
        for name in ("cold", "warm"):
            reads.clear()
            wall = run_pass(wl.jobs)
            out[f"{name}_pass"] = {"wall_s": round(wall, 4), "cached_reads": len(reads),
                                   "hits": sum(reads)}
        doccache.get, phode.cli._read = get, read
        docs = []
        for data, path in paths.items():
            warm = tempfile.mkdtemp(dir=tmp)
            use_cache(warm)
            read(path, parse_system_text, True)        # the entry of the hits

            def cached():
                read(path, parse_system_text, True)

            row = timed({"plain_s": (lambda: None, lambda: parse_system_text(
                             Path(path).read_text(encoding="utf-8"))),
                         "miss_s": (lambda: use_cache(tempfile.mkdtemp(dir=tmp)), cached),
                         "hit_s": (lambda: use_cache(warm), cached)}, repeat)
            docs.append({"bytes": len(data), **row})
    out["documents"] = len(docs)
    out["total"] = {k: round(sum(d[k] for d in docs), 4)
                    for k in ("plain_s", "miss_s", "hit_s")}
    out["miss_over_plain"] = round(out["total"]["miss_s"] / out["total"]["plain_s"], 3) \
        if docs else None
    firsts = [float(subprocess.run([sys.executable, "-c", FIRST_KEY], check=True,
                                   capture_output=True, text=True,
                                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}
                                   ).stdout) for _ in range(repeat)]
    out["first_key_s"] = round(statistics.median(firsts), 4)
    out["per_document"] = [{k: round(v, 5) if k != "bytes" else v for k, v in d.items()}
                           for d in sorted(docs, key=lambda d: -d["bytes"])]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeat", type=int, default=9)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    print(json.dumps(measure(args.workload, args.seed, args.repeat)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
