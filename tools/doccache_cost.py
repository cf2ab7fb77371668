"""Measure what the command line's document cache (phode.doccache) saves and
costs on one benchmark workload.

    python3 tools/doccache_cost.py --workload sim-dense --seed 41

The jobs of the workload are generated by ``perfbench/workloads.py`` (read,
never changed) in a temporary directory, ``XDG_CACHE_HOME`` is pointed at an
empty temporary directory, and every job runs once through
``phode.cli.main`` (the cold pass), then once more (the warm pass); then,
once every input is settled (its mtime and ctime ``doccache.SETTLED_NS``
old), twice more: the memo pass, whose first read of each settled file
records its memo, and the settled pass.  Each pass counts, per kind of
document (``system`` documents and the ``trajectory`` CSVs that ``report``
reads), the reads of at least ``doccache.MIN_BYTES`` bytes, the hits among
them and the status hits among those (found by the file's status, not its
bytes), the structural checks it runs (``checks``: calls of
``phode.core._checks``, which a hit whose entry records its systems'
figures does not make) and its wall time.  On the cold pass a CSV that
``simulate -o`` or ``cosim -o`` wrote is a hit already; a CSV that a pass
rewrites is never settled when it is read.

Then, for every distinct document that was read through the cache, these
reads are timed (the median of ``--repeat``): ``plain`` is the read without
a cache (``Path.read_text`` and ``parse_system_text`` for a system
document, ``phode.cli._read`` uncached for a CSV), ``miss`` a read on an
empty cache (key, lookup, decode, parse, store and eviction) and ``hit`` a
read on the entry the miss stored, both of a file that is not settled;
``status`` is the read of a settled file whose memo is there (an
``fstat``, the memo and the entry); for a system document ``load`` is what
a command pays for it on that entry, the hit and the structure check
(``phode.cli._load``).  ``key_s`` times the document's key
(``doccache.key_of``).  For every distinct CSV of at least ``MIN_BYTES``
that a command wrote, ``render_s`` times ``write_trajectory`` and
``write_s`` the write of its text without a key, and the writer's
additions are timed on their own: ``key_s`` hashes the text a slice at a
time as ``phode.cli._write`` does, ``has_s`` is the existence check that
finds the entry and ``store_s`` the check, table and store on an empty
cache.  ``has_s``, and each ``hit_s``, ``status_s``, ``load_s`` and key
time of which one call takes under ``MEAN_BELOW_S``, is the mean of
``MEAN_CALLS`` calls in a row.  ``first_key_s`` is what a process pays
once, at its first key (a ``phode simulate`` whose output is large pays it
even when its document is small): importing ``hashlib`` and hashing the
package's source, the median of ``--repeat`` fresh processes.  Prints one
JSON object.
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
import types  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import phode.cli  # noqa: E402
import phode.core  # noqa: E402
import workloads  # noqa: E402
from phode import doccache  # noqa: E402
from phode.fileio import parse_system_text, write_trajectory  # noqa: E402

FIRST_KEY = ("import time; import phode.cli; from phode import doccache; "
             "t = time.perf_counter(); doccache.key_of(b''); "
             "print(time.perf_counter() - t)")
KINDS = (doccache.SYSTEM, doccache.TRAJECTORY)
# calls timed at once, as their mean, where one takes under ``MEAN_BELOW_S``:
# one alone, right after the collection that ``timed`` makes, reads about
# 0.2 ms of cold processor caches
MEAN_CALLS = 100
MEAN_BELOW_S = 1e-3
PASSES = ("cold", "warm", "memo", "settled")


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


@contextlib.contextmanager
def clock_at(settled: bool):
    """Within, ``phode.cli._read`` dates a file's status by a clock at which
    every file written before is settled (``SETTLED_NS`` and a second
    ahead), or none is (the epoch)."""
    real, ahead = phode.cli.time, doccache.SETTLED_NS + 10 ** 9
    phode.cli.time = types.SimpleNamespace(
        time_ns=(lambda: time.time_ns() + ahead) if settled else (lambda: 0))
    try:
        yield
    finally:
        phode.cli.time = real


def timed(calls: dict, repeat: int) -> dict:
    """Median seconds of ``repeat`` runs of each ``calls[name]`` (setup,
    call and count: after the setup, ``count`` calls in a row are timed and
    their mean kept), the runs of the calls interleaved and their order
    reversed every other round, so that drift of the host and of the heap
    falls on all of them alike."""
    times = {name: [] for name in calls}
    for r in range(repeat):
        for name in (list(calls) if r % 2 == 0 else list(calls)[::-1]):
            setup, call, count = calls[name]
            setup()
            gc.collect()
            t0 = time.perf_counter()
            for _ in range(count):
                call()
            times[name].append((time.perf_counter() - t0) / count)
    return {name: statistics.median(t) for name, t in times.items()}


def calls_for(call) -> int:
    """How many calls of ``call`` ``timed`` takes at once: ``MEAN_CALLS``
    when one (after a first, untimed) takes under ``MEAN_BELOW_S``, else 1."""
    call()
    t0 = time.perf_counter()
    call()
    return MEAN_CALLS if time.perf_counter() - t0 < MEAN_BELOW_S else 1


def slice_key(text: str) -> str:
    """The key ``phode.cli._write`` computes of a CSV's text as it writes it."""
    h = doccache.hasher(doccache.TRAJECTORY)
    step = phode.cli._WRITE_SLICE_CHARS
    for a in range(0, len(text), step):
        h.update(text[a:a + step].encode())
    return h.hexdigest()


def summary(rows: list, keys: tuple) -> dict:
    """The count, the totals of ``keys`` and the rows, largest first."""
    return {"count": len(rows),
            "total": {k: round(sum(r[k] for r in rows), 4) for k in keys},
            "rows": [{k: round(v, 5) if k != "bytes" else v for k, v in r.items()}
                     for r in sorted(rows, key=lambda r: -r["bytes"])]}


def time_reads(paths: dict, parse, kind: str, tmp: str, repeat: int) -> dict:
    """The plain, miss, hit and status times of reading each of ``paths``
    (bytes to path) as ``kind`` documents with ``parse``, its key, and for a
    system document the load: a hit and the structure check
    (``phode.cli._load``)."""
    read, rows = phode.cli._read, []
    for data, path in paths.items():
        warm = tempfile.mkdtemp(dir=tmp)
        use_cache(warm)
        read(path, parse, True, kind)               # the entry of the hits
        with clock_at(True):
            read(path, parse, True, kind)           # and the memo of the status reads

        def cached():
            with clock_at(False):
                read(path, parse, True, kind)

        def settled():
            with clock_at(True):
                read(path, parse, True, kind)

        def key():
            doccache.key_of(data, kind)

        plain = ((lambda: parse_system_text(Path(path).read_text(encoding="utf-8")))
                 if kind == doccache.SYSTEM else (lambda: read(path, parse)))
        calls = {"plain_s": (lambda: None, plain, 1),
                 "miss_s": (lambda: use_cache(tempfile.mkdtemp(dir=tmp)), cached, 1),
                 "hit_s": (lambda: use_cache(warm), cached, calls_for(cached)),
                 "status_s": (lambda: use_cache(warm), settled, calls_for(settled)),
                 "key_s": (lambda: None, key, calls_for(key))}
        if kind == doccache.SYSTEM:
            def load():     # a document that fails the check is refused after it
                with contextlib.suppress(phode.cli.CliError), clock_at(False):
                    phode.cli._load(path)

            calls["load_s"] = (lambda: use_cache(warm), load, calls_for(load))
        rows.append({"bytes": len(data), **timed(calls, repeat)})
    out = summary(rows, ("plain_s", "miss_s", "hit_s", "status_s", "key_s")
                  + (("load_s",) if kind == doccache.SYSTEM else ()))
    out["miss_over_plain"] = (round(out["total"]["miss_s"] / out["total"]["plain_s"], 3)
                              if rows else None)
    return out


def time_writes(outputs: dict, tmp: str, repeat: int) -> dict:
    """The render and the write of each CSV of ``outputs`` (text to
    trajectory and report) and what the writer adds to them: the key, the
    existence check of an entry that is there and the store of one that is
    not."""
    rows = []
    for text, (traj, rep) in outputs.items():
        out, key = Path(tempfile.mkdtemp(dir=tmp), "out.csv"), slice_key(text)
        warm = tempfile.mkdtemp(dir=tmp)
        use_cache(warm)
        phode.cli._store_table(key, traj, rep)
        def store_table():
            phode.cli._store_table(key, traj, rep)

        row = timed({"render_s": (lambda: None, lambda: write_trajectory(traj, rep), 1),
                     "write_s": (lambda: None, lambda: phode.cli._write(str(out), text), 1),
                     "key_s": (lambda: None, lambda: slice_key(text),
                               calls_for(lambda: slice_key(text))),
                     "has_s": (lambda: use_cache(warm), store_table, MEAN_CALLS),
                     "store_s": (lambda: use_cache(tempfile.mkdtemp(dir=tmp)),
                                 store_table, 1)}, repeat)
        rows.append({"bytes": len(text), **row})
    out = summary(rows, ("render_s", "write_s", "key_s", "has_s", "store_s"))
    total = out["total"]
    for name, adds in (("cold", total["key_s"] + total["store_s"]),
                       ("warm", total["key_s"] + total["has_s"])):
        out[f"{name}_adds_over_output"] = (
            round(adds / (total["render_s"] + total["write_s"]), 3) if rows else None)
    return out


def measure(workload: str, seed: int, repeat: int) -> dict:
    out = {"workload": workload, "seed": seed, "min_bytes": doccache.MIN_BYTES}
    reads, hits, status_hits = [], [], []
    paths = {kind: {} for kind in KINDS}
    outputs = {}
    get, recall = doccache.get, doccache.recall
    read, write = phode.cli._read, phode.cli._write_trajectory
    checks, checked = phode.core._checks, []

    def counted_checks(*args):
        checked.append(1)
        return checks(*args)

    def counted_get(key, kind=doccache.SYSTEM):     # a status hit's get too
        obj = get(key, kind)
        if obj is not None:
            hits.append(kind)
        return obj

    def counted_recall(memo, kind=doccache.SYSTEM):
        obj = recall(memo, kind)
        if obj is not None:
            status_hits.append(kind)
        return obj

    def noted_read(path, parse, cached=False, kind=doccache.SYSTEM):
        if cached and os.path.isfile(path) and os.path.getsize(path) >= doccache.MIN_BYTES:
            paths[kind].setdefault(Path(path).read_bytes(), path)
            reads.append(kind)
        return read(path, parse, cached, kind)

    def noted_write(path, traj, rep):
        write(path, traj, rep)
        if path not in (None, "-") and os.path.getsize(path) >= doccache.MIN_BYTES:
            outputs.setdefault(Path(path).read_text(), (traj, rep))

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.ExitStack() as stack:
        stack.callback(setattr, doccache, "get", get)
        stack.callback(setattr, doccache, "recall", recall)
        stack.callback(setattr, phode.core, "_checks", checks)
        stack.callback(setattr, phode.cli, "_read", read)
        stack.callback(setattr, phode.cli, "_write_trajectory", write)
        old = os.environ.get("XDG_CACHE_HOME")
        stack.callback(lambda: os.environ.pop("XDG_CACHE_HOME", None) if old is None
                       else use_cache(old))
        doccache.get, doccache.recall, phode.cli._read = counted_get, counted_recall, noted_read
        phode.core._checks = counted_checks
        phode.cli._write_trajectory = noted_write
        use_cache(str(Path(tmp, "xdg")))
        work = Path(tmp, "work")
        work.mkdir()
        wl = workloads.WORKLOADS[workload](np.random.default_rng(seed), work)
        # a tick beyond the settle time of the last input written
        settled = time.time_ns() + doccache.SETTLED_NS + 10 ** 8
        for name in PASSES:
            if name == "memo":
                time.sleep(max(0, settled - time.time_ns()) / 1e9)
            for counts in (reads, hits, status_hits, checked):
                counts.clear()
            wall = run_pass(wl.jobs)
            out[f"{name}_pass"] = {"wall_s": round(wall, 4), "checks": len(checked), **{
                kind: {"reads": reads.count(kind), "hits": hits.count(kind),
                       "status_hits": status_hits.count(kind)} for kind in KINDS}}
        doccache.get, doccache.recall, phode.cli._read = get, recall, read
        phode.cli._write_trajectory, phode.core._checks = write, checks
        out["documents"] = time_reads(paths[doccache.SYSTEM], parse_system_text,
                                      doccache.SYSTEM, tmp, repeat)
        out["trajectories"] = time_reads(paths[doccache.TRAJECTORY],
                                         phode.cli._trajectory_table,
                                         doccache.TRAJECTORY, tmp, repeat)
        out["writes"] = time_writes(outputs, tmp, repeat)
    firsts = [float(subprocess.run([sys.executable, "-c", FIRST_KEY], check=True,
                                   capture_output=True, text=True,
                                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}
                                   ).stdout) for _ in range(repeat)]
    out["first_key_s"] = round(statistics.median(firsts), 4)
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
