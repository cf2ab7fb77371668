"""``tools/doccache_cost.py`` counts the hits and the status hits of a cold,
a warm and two settled passes per kind of document and the structural
checks of each pass, times each cached document's and trajectory's read
without a cache, on a miss, on a hit and by its settled file's status, its
key, a document's load (hit and structure check), and what the writer of
a large trajectory CSV adds to its write; a call under a millisecond is
timed as the mean of many."""

import importlib.util
import os
import time
from pathlib import Path

import numpy as np

import phode.cli
from phode import doccache
from phode.fileio import dump_document

from util import random_linear_ph

spec = importlib.util.spec_from_file_location(
    "doccache_cost", Path(__file__).parents[1] / "tools" / "doccache_cost.py")
doccache_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(doccache_cost)


def two_reads(rng, work):
    """A workload that validates one big document twice and a small one
    once, writes a big CSV of the small one, to a file and to standard
    output, and reports the file twice."""
    big, small, csv = work / "big.json", work / "small.json", work / "traj.csv"
    big.write_text(dump_document(random_linear_ph(rng, n=60, m=3)))
    small.write_text(dump_document(random_linear_ph(rng, n=4)))
    assert small.stat().st_size < doccache.MIN_BYTES <= big.stat().st_size
    Job = doccache_cost.workloads.Job
    simulate = ["simulate", str(small), "--x0", "1,0,0,0", "--t1", "10", "--dt", "0.01"]
    jobs = [Job("validate", ["validate", str(p)]) for p in (big, small, big)]
    jobs += [Job("simulate", simulate + ["-o", str(csv)]), Job("simulate", simulate),
             Job("report", ["report", str(csv), str(small)]),
             Job("report", ["report", str(csv), str(small)])]
    return doccache_cost.workloads.Workload(jobs)


def test_passes_and_timed_reads(monkeypatch):
    monkeypatch.setitem(doccache_cost.workloads.WORKLOADS, "two-reads", two_reads)
    monkeypatch.setattr(doccache, "SETTLED_NS", 2 * 10 ** 8)
    before = os.environ.get("XDG_CACHE_HOME")
    out = doccache_cost.measure("two-reads", 1, 1)
    assert os.environ.get("XDG_CACHE_HOME") == before
    # the CSV that simulate wrote is a hit at its first report, but never
    # settled: each pass writes it anew
    assert out["cold_pass"]["system"] == {"reads": 2, "hits": 1, "status_hits": 0}
    for name in ("cold", "warm", "memo", "settled"):
        assert out[f"{name}_pass"]["trajectory"] == {"reads": 2, "hits": 2, "status_hits": 0}
    assert out["warm_pass"]["system"] == {"reads": 2, "hits": 2, "status_hits": 0}
    # once the big document is settled, its first read records its memo
    assert out["memo_pass"]["system"] == {"reads": 2, "hits": 2, "status_hits": 1}
    assert out["settled_pass"]["system"] == {"reads": 2, "hits": 2, "status_hits": 2}
    # the small document is checked at each of its five loads, the big one
    # once, when its entry is stored: its hits take the entry's figures
    assert out["cold_pass"]["checks"] == 6
    assert out["warm_pass"]["checks"] == out["settled_pass"]["checks"] == 5
    for name in ("documents", "trajectories"):
        assert out[name]["count"] == 1 and len(out[name]["rows"]) == 1
        row = out[name]["rows"][0]
        assert row["bytes"] >= doccache.MIN_BYTES
        assert all(row[k] > 0 for k in ("plain_s", "miss_s", "hit_s", "status_s", "key_s"))
        assert {"status_s", "key_s"} <= set(out[name]["total"])
    # a stored system document costs a command its hit and its structure check
    assert out["documents"]["rows"][0]["load_s"] > 0
    assert "load_s" in out["documents"]["total"]
    assert "load_s" not in out["trajectories"]["rows"][0]
    # the CSV on standard output is no large output
    assert out["writes"]["count"] == 1
    row = out["writes"]["rows"][0]
    assert row["bytes"] == out["trajectories"]["rows"][0]["bytes"]
    assert all(row[k] > 0 for k in ("render_s", "write_s", "key_s", "has_s", "store_s"))
    assert out["writes"]["cold_adds_over_output"] > out["writes"]["warm_adds_over_output"] > 0

    assert out["first_key_s"] > 0


def test_timed_key_is_that_of_the_written_file(tmp_path):
    text = "t,H,balance_residual\n" + "0.5,1.25,0\n" * 20000
    out = tmp_path / "out.csv"
    key = phode.cli._write(str(out), text, doccache.TRAJECTORY)
    assert key == doccache_cost.slice_key(text)
    assert key == doccache.key_of(out.read_bytes(), doccache.TRAJECTORY)


def test_sub_millisecond_calls_are_timed_as_means():
    assert doccache_cost.calls_for(lambda: None) == doccache_cost.MEAN_CALLS
    assert doccache_cost.calls_for(lambda: time.sleep(2 * doccache_cost.MEAN_BELOW_S)) == 1
    made, setups = [], []
    out = doccache_cost.timed({"once": (lambda: setups.append("once"), lambda: made.append(1), 1),
                               "mean": (lambda: setups.append("mean"),
                                        lambda: made.append(2), 7)}, 3)
    # each round sets up once and makes count calls; the time is per call
    assert sorted(made) == [1] * 3 + [2] * 21 and len(setups) == 6
    assert set(out) == {"once", "mean"} and all(v > 0 for v in out.values())


def test_clocks_settle_every_file_or_none(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    doc = tmp_path / "big.json"
    doc.write_text(dump_document(random_linear_ph(np.random.default_rng(0), n=60, m=3)))
    for settled, memos in ((False, 0), (True, 1)):
        with doccache_cost.clock_at(settled):
            phode.cli._read(str(doc), phode.cli.parse_system_text, True)
        assert len(list((tmp_path / "xdg" / "phode").glob("*.memo"))) == memos
    assert phode.cli.time is time
