"""``tools/doccache_cost.py`` counts the hits of a cold and a warm pass and
times each cached document's read without a cache, on a miss and on a hit."""

import importlib.util
import os
from pathlib import Path

import numpy as np

from phode import doccache
from phode.fileio import dump_document

from util import random_linear_ph

spec = importlib.util.spec_from_file_location(
    "doccache_cost", Path(__file__).parents[1] / "tools" / "doccache_cost.py")
doccache_cost = importlib.util.module_from_spec(spec)
spec.loader.exec_module(doccache_cost)


def two_reads(rng, work):
    """A workload that validates one big document twice and a small one once."""
    big, small = work / "big.json", work / "small.json"
    big.write_text(dump_document(random_linear_ph(rng, n=60, m=3)))
    small.write_text(dump_document(random_linear_ph(rng, n=4)))
    assert small.stat().st_size < doccache.MIN_BYTES <= big.stat().st_size
    jobs = [doccache_cost.workloads.Job("validate", ["validate", str(p)])
            for p in (big, small, big)]
    return doccache_cost.workloads.Workload(jobs)


def test_cold_and_warm_passes_and_timed_reads(monkeypatch):
    monkeypatch.setitem(doccache_cost.workloads.WORKLOADS, "two-reads", two_reads)
    before = os.environ.get("XDG_CACHE_HOME")
    out = doccache_cost.measure("two-reads", 1, 1)
    assert os.environ.get("XDG_CACHE_HOME") == before
    assert out["cold_pass"]["cached_reads"] == 2 and out["cold_pass"]["hits"] == 1
    assert out["warm_pass"]["cached_reads"] == 2 and out["warm_pass"]["hits"] == 2
    assert out["documents"] == 1 and len(out["per_document"]) == 1
    row = out["per_document"][0]
    assert row["bytes"] >= doccache.MIN_BYTES
    assert all(row[k] > 0 for k in ("plain_s", "miss_s", "hit_s"))
    assert out["first_key_s"] > 0
