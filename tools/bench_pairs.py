"""Run alternating parent/change pairs of the benchmark and write the result.

    python3 tools/bench_pairs.py --out BENCH_7.json --seed 41 \
        cosim-3block:5 cli-docs:3 sim-dense:3

Each ``WORKLOAD:PAIRS`` argument runs ``perfbench/run.py --workload WORKLOAD
--seed SEED --seconds SECONDS --trace 0`` PAIRS times on each side, with
SECONDS the ``run_seconds`` of ``BENCHMARK.json``.  The parent side is
``git archive --parent`` (default ``HEAD``) unpacked by ``tar`` into a
temporary directory; the change side is the checkout that holds this
script, uncommitted edits included.  Odd pairs run the parent first, even
pairs the change first.  Every side keeps the result line of its run (the
last line: ``correct``, ``attempted``, ``failed``, ``metrics``) and its
``known_defect_probes`` line; per workload the output has each side's
medians and quartiles and, per metric, the number of pairs the change won
(ties count for neither side).  The file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
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


def summarize(pairs: list, better: dict) -> dict:
    """Per side the median and quartiles of every metric over the pairs, and
    per metric the pairs the change won; ``better`` maps a metric name to
    "lower" or "higher"."""
    names = list(pairs[0]["change"]["metrics"])
    values = {s: {k: [p[s]["metrics"][k]["value"] for p in pairs] for k in names}
              for s in SIDES}
    wins = {}
    for k in names:
        sign = 1 if better.get(k, "lower") == "lower" else -1
        wins[k] = sum(sign * (c - p) < 0
                      for p, c in zip(values["parent"][k], values["change"][k]))
    return {"medians": {s: {k: float(np.median(v)) for k, v in values[s].items()}
                        for s in SIDES},
            "quartiles": {s: {k: np.percentile(v, [25, 75]).tolist()
                              for k, v in values[s].items()} for s in SIDES},
            "change_wins": wins}


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    try:
        return parse_output(proc.stdout)
    except ValueError:
        raise SystemExit(f"bench_pairs: {workload} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")


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
    p.add_argument("--claim", default="none")
    args = p.parse_args(argv)
    try:
        args.plan = [(w, int(n)) for w, n in (item.rsplit(":", 1) for item in args.plan)]
    except ValueError:
        p.error("each plan item is WORKLOAD:PAIRS")
    if any(n < 1 for _, n in args.plan):
        p.error("PAIRS must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        doc = {"parent_commit": unpack(args.parent, trees["parent"]),
               "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                          f"--seconds {seconds:g} --trace 0",
               "host": None, "seed": args.seed, "pairs": dict(args.plan),
               "order": "odd pairs run the parent first, even pairs the change first",
               "claim": args.claim, "workloads": {}}
        for workload, n in args.plan:
            pairs = []
            for i in range(1, n + 1):
                sides = {}
                for side in (SIDES if i % 2 else SIDES[::-1]):
                    print(f"bench_pairs: {workload} pair {i}/{n} {side}", file=sys.stderr)
                    sides[side] = run_side(trees[side], workload, args.seed, seconds)
                runs = {s: sides[s].pop("run") for s in SIDES}
                doc["host"] = {k: runs["change"][k] for k in HOST_KEYS}
                pairs.append({"pair": i, **sides})
                doc["workloads"][workload] = {**summarize(pairs, better), "pairs": pairs}
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
