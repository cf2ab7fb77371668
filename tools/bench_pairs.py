"""Run alternating parent/change pairs of the benchmark and write the result.

    python3 tools/bench_pairs.py --out BENCH_8.json --seed 41 \
        --claim wall_s@cosim-3block cosim-3block:10 cli-docs:3 sim-dense:3

Each ``WORKLOAD:PAIRS`` argument runs ``perfbench/run.py --workload WORKLOAD
--seed SEED --seconds SECONDS --trace 0`` PAIRS times on each side, with
SECONDS the ``run_seconds`` of ``BENCHMARK.json``.  The parent side is
``git archive --parent`` (default ``HEAD``) unpacked by ``tar`` into a
temporary directory; the change side is the checkout that holds this
script, uncommitted edits included.  Odd pairs run the parent first, even
pairs the change first, and each run compiles into a fresh bytecode cache
of its own (see ``run_side``).  Every side keeps the result line of its
run (the last line: ``correct``, ``attempted``, ``failed``, ``metrics``)
and its ``known_defect_probes`` line; per workload the output has each
side's medians and quartiles, per metric the number of pairs the change
won (ties count for neither side), and a ``verdict`` per end-to-end metric
(see ``verdict``): ``--claim METRIC@WORKLOAD`` names the metric the change
claims to improve on that workload.  ``--traced N`` then runs N more
alternating pairs per workload with ``--trace 1`` and keeps, under
``traced``, each side's medians and quartiles of the per-layer metrics
(such as ``cli.self_s``) and the pairs the change won.  The file is
rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
HOST_KEYS = ("python", "numpy", "scipy", "nproc", "blas_threads")


def parse_output(text: str) -> dict:
    """The result line of one benchmark run, with its probes and host info
    (``run``) attached."""
    lines = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    if not lines or "metrics" not in lines[-1]:
        raise ValueError("benchmark output has no result line")
    side = dict(lines[-1])
    for line in lines[:-1]:
        for key in ("run", "known_defect_probes"):
            if key in line:
                side[key] = line[key]
    return side


def _values(pairs: list) -> dict:
    """Per side and metric the values of all pairs, in pair order."""
    names = list(pairs[0]["change"]["metrics"])
    return {s: {k: np.array([p[s]["metrics"][k]["value"] for p in pairs]) for k in names}
            for s in SIDES}


def _sign(better: str) -> int:
    """+1 where lower values are better, -1 where higher are."""
    return 1 if better == "lower" else -1


def summarize(pairs: list, better: dict) -> dict:
    """Per side the median and quartiles of every metric over the pairs, and
    per metric the pairs the change won; ``better`` maps a metric name to
    "lower" or "higher"."""
    values = _values(pairs)
    wins = {k: int(np.sum(_sign(better.get(k, "lower")) * (c - values["parent"][k]) < 0))
            for k, c in values["change"].items()}
    return {"medians": {s: {k: float(np.median(v)) for k, v in values[s].items()}
                        for s in SIDES},
            "quartiles": {s: {k: np.percentile(v, [25, 75]).tolist()
                              for k, v in values[s].items()} for s in SIDES},
            "change_wins": wins}


def verdict(pairs: list, end_to_end: dict, claim: str | None = None) -> dict:
    """Per metric of one workload's pairs, ``end_to_end`` mapping a metric
    name to its ``BENCHMARK.json`` entry (``better``, ``bound``).

    The claimed metric is a "gain" when the change won at least nine tenths
    of the pairs (ties count for neither side) and the medians differ, in
    the change's favour, by more than the distance between the parent's
    quartiles; otherwise "not met".  Any other metric is "worse" when the
    change's median is past the parent's by more than its bound (a fraction
    of the parent's median), "unresolved" when the distance between the
    parent's quartiles exceeds that bound and not every change run beats
    every parent run, and "ok" otherwise.
    """
    values = _values(pairs)
    out = {}
    for k, change in values["change"].items():
        if k not in end_to_end:
            continue
        sign = _sign(end_to_end[k]["better"])
        parent = values["parent"][k]
        gap = sign * (np.median(parent) - np.median(change))
        q1, q3 = np.percentile(parent, [25, 75])
        if k == claim:
            wins = int(np.sum(sign * (change - parent) < 0))
            out[k] = "gain" if 10 * wins >= 9 * len(pairs) and gap > q3 - q1 else "not met"
            continue
        bound = end_to_end[k]["bound"] * abs(np.median(parent))
        if -gap > bound:
            out[k] = "worse"
        elif q3 - q1 > bound and np.max(sign * change) >= np.min(sign * parent):
            out[k] = "unresolved"
        else:
            out[k] = "ok"
    return out


def run_side(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``.  Its bytecode goes to a fresh cache
    directory of its own (``PYTHONPYCACHEPREFIX``), written by the run
    whatever ``PYTHONDONTWRITEBYTECODE`` says: a checkout's ``__pycache__``
    would otherwise give the change side compiled modules that the
    unpacked parent lacks, and ``setup_s`` would favour it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=tree, capture_output=True, text=True,
                              env={**env, "PYTHONPYCACHEPREFIX": cache})
    try:
        return parse_output(proc.stdout)
    except ValueError:
        raise SystemExit(f"bench_pairs: {workload} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")


def run_pair(trees: dict, workload: str, i: int, n: int, seed: int, seconds: float,
             trace: int = 0):
    """Pair i of n, the parent first when i is odd; returns the pair and the
    change side's host record."""
    sides, label = {}, " traced" if trace else ""
    for side in (SIDES if i % 2 else SIDES[::-1]):
        print(f"bench_pairs: {workload}{label} pair {i}/{n} {side}", file=sys.stderr)
        sides[side] = run_side(trees[side], workload, seed, seconds, trace)
    runs = {s: sides[s].pop("run") for s in SIDES}
    return {"pair": i, **sides}, {k: runs["change"][k] for k in HOST_KEYS}


def unpack(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into the new directory dest; returns the
    short commit id."""
    commit = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--parent", default="HEAD")
    p.add_argument("--seed", type=int, default=41)
    p.add_argument("--claim", default=None, metavar="METRIC@WORKLOAD",
                   help="the end-to-end metric the change claims to improve, and where")
    p.add_argument("--traced", type=int, default=0, metavar="N",
                   help="traced pairs per workload after the untraced ones")
    args = p.parse_args(argv)
    if args.traced < 0:
        p.error("--traced must be at least 0")
    try:
        args.plan = [(w, int(n)) for w, n in (item.rsplit(":", 1) for item in args.plan)]
    except ValueError:
        p.error("each plan item is WORKLOAD:PAIRS")
    if any(n < 1 for _, n in args.plan):
        p.error("PAIRS must be at least 1")
    if args.claim is not None:
        metric, _, workload = args.claim.partition("@")
        if not metric or workload not in dict(args.plan):
            p.error("--claim is METRIC@WORKLOAD with WORKLOAD in the plan")
        args.claim = (metric, workload)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"]
    claim, claim_workload = args.claim or (None, None)
    if claim is not None and claim not in end_to_end:
        raise SystemExit(f"bench_pairs: {claim} is not an end-to-end metric of BENCHMARK.json")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        doc = {"parent_commit": unpack(args.parent, trees["parent"]),
               "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                          f"--seconds {seconds:g} --trace 0",
               "host": None, "seed": args.seed, "pairs": dict(args.plan),
               "traced_pairs": args.traced,
               "order": "odd pairs run the parent first, even pairs the change first",
               "claim": args.claim and "@".join(args.claim), "workloads": {}}
        for workload, n in args.plan:
            entry = doc["workloads"][workload] = {}
            pairs, traced = [], []
            for i in range(1, n + 1):
                pair, doc["host"] = run_pair(trees, workload, i, n, args.seed, seconds)
                pairs.append(pair)
                entry.update(summarize(pairs, better),
                             verdict=verdict(pairs, end_to_end,
                                             claim if workload == claim_workload else None),
                             pairs=pairs)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
            for i in range(1, args.traced + 1):
                traced.append(run_pair(trees, workload, i, args.traced, args.seed, seconds,
                                       trace=1)[0])
                entry["traced"] = {**summarize(traced, better), "pairs": traced}
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
