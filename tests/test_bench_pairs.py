import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result_line(**values):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_parse_output_keeps_result_probes_and_run():
    probes = {"cosim_default_sweeps": {"passed": True, "detail": "reported: exit 0"}}
    text = "\n".join([json.dumps({"run": {"python": "3.11.7", "nproc": 2}}),
                      json.dumps({"known_defect_probes": probes}),
                      json.dumps(result_line(wall_s=0.3))]) + "\n"
    side = bench_pairs.parse_output(text)
    assert side["metrics"]["wall_s"]["value"] == 0.3 and side["failed"] == 0
    assert side["known_defect_probes"] == probes
    assert side["run"]["nproc"] == 2


@pytest.mark.parametrize("text", ["", "Traceback (most recent call last):\n",
                                  json.dumps({"run": {}}) + "\n"])
def test_parse_output_without_result_line_raises(text):
    with pytest.raises(ValueError):
        bench_pairs.parse_output(text)


def test_summarize_medians_quartiles_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 2.5, 5.0]
    pairs = [{"pair": i + 1, "parent": result_line(wall_s=p, rate=p),
              "change": result_line(wall_s=c, rate=c)}
             for i, (p, c) in enumerate(zip(parent, change))]
    out = bench_pairs.summarize(pairs, {"wall_s": "lower", "rate": "higher"})
    assert out["medians"] == {"parent": {"wall_s": 2.5, "rate": 2.5},
                              "change": {"wall_s": 2.25, "rate": 2.25}}
    assert out["quartiles"]["parent"]["wall_s"] == [1.75, 3.25]
    assert out["quartiles"]["change"]["wall_s"] == [1.625, 3.125]
    # the tie in pair 2 counts for neither side
    assert out["change_wins"] == {"wall_s": 2, "rate": 1}


def test_first_pass_medians_and_quartiles():
    firsts = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 0.25, 0.75, 1.0]}
    pairs = [{s: {"raw_pass_wall_s": [firsts[s][i], 0.125, 0.125]} for s in firsts}
             for i in range(4)]
    assert bench_pairs.first_pass(pairs) == {
        "parent": {"median": 2.5, "quartiles": [1.75, 3.25]},
        "change": {"median": 0.625, "quartiles": [0.4375, 0.8125]}}


def test_plan_arguments():
    args = bench_pairs.parse_args(["--out", "B.json", "cosim-3block:5", "sim-dense:3"])
    assert args.plan == [("cosim-3block", 5), ("sim-dense", 3)]
    assert args.parent == "HEAD" and args.seed == 41
    for bad in ("cosim-3block", "cosim-3block:x", "cosim-3block:0"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["--out", "B.json", bad])


END_TO_END = {"wall_s": {"better": "lower", "bound": 0.2},
              "rate": {"better": "higher", "bound": 0.1}}


def pairs_of(parent, change, metric="wall_s"):
    return [{"pair": i + 1, "parent": result_line(**{metric: p}),
             "change": result_line(**{metric: c})}
            for i, (p, c) in enumerate(zip(parent, change))]


@pytest.mark.parametrize("parent, change, expected", [
    # 10/10 wins, gap 0.9 against a parent quartile spread of 0.045
    ([10.0 + 0.01 * i for i in range(10)], [9.0 + 0.01 * i for i in range(10)], "gain"),
    # 9/10 wins is enough
    ([10.0] * 10, [9.0] * 9 + [11.0], "gain"),
    # 8/10 wins is not
    ([10.0] * 10, [9.0] * 8 + [11.0] * 2, "not met"),
    # every pair won, but the gap (0.5) is inside the parent's spread (9.0)
    ([1.0, 10.0] * 5, [0.5, 9.5] * 5, "not met"),
    # 3/3 pairs of a short repeat
    ([10.0, 10.1, 10.2], [9.0, 9.1, 9.2], "gain"),
    ([10.0, 10.1, 10.2], [9.0, 9.1, 10.3], "not met"),
])
def test_verdict_of_the_claimed_metric(parent, change, expected):
    pairs = pairs_of(parent, change)
    assert bench_pairs.verdict(pairs, END_TO_END, claim="wall_s") == {"wall_s": expected}


@pytest.mark.parametrize("metric, parent, change, expected", [
    # within the bound: 10 → 11.9 is +19% of a 20% bound
    ("wall_s", [10.0, 10.0, 10.0], [11.9, 11.9, 11.9], "ok"),
    ("wall_s", [10.0, 10.0, 10.0], [12.1, 12.1, 12.1], "worse"),
    # higher is better: 10 → 8.9 is 11% worse against a 10% bound
    ("rate", [10.0, 10.0, 10.0], [8.9, 8.9, 8.9], "worse"),
    ("rate", [10.0, 10.0, 10.0], [12.0, 12.0, 12.0], "ok"),
    # parent quartiles 7..13 spread past the bound of 2 (20% of 10): cannot tell
    ("wall_s", [4.0, 8.0, 12.0, 16.0], [9.0, 9.0, 9.0, 9.0], "unresolved"),
    # unless every change run beats every parent run
    ("wall_s", [4.0, 8.0, 12.0, 16.0], [3.0, 3.0, 3.0, 3.0], "ok"),
    # worse wins over unresolved
    ("wall_s", [4.0, 8.0, 12.0, 16.0], [20.0, 20.0, 20.0, 20.0], "worse"),
])
def test_verdict_of_other_metrics(metric, parent, change, expected):
    pairs = pairs_of(parent, change, metric)
    assert bench_pairs.verdict(pairs, END_TO_END) == {metric: expected}


def test_verdict_skips_metrics_without_bound():
    pairs = pairs_of([1.0], [2.0], "ns_per_byte")
    assert bench_pairs.verdict(pairs, END_TO_END) == {}


def test_claim_argument():
    args = bench_pairs.parse_args(["--out", "B.json", "--claim", "wall_s@cosim-3block",
                                   "cosim-3block:10", "cli-docs:3"])
    assert args.claim == ("wall_s", "cosim-3block")
    assert bench_pairs.parse_args(["--out", "B.json", "cli-docs:3"]).claim is None
    for bad in ("wall_s", "wall_s@sim-dense", "@cosim-3block"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["--out", "B.json", "--claim", bad, "cosim-3block:10"])


def test_traced_argument():
    assert bench_pairs.parse_args(["--out", "B.json", "cli-docs:3"]).traced == 0
    assert bench_pairs.parse_args(["--out", "B.json", "--traced", "2", "cli-docs:3"]).traced == 2
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--out", "B.json", "--traced", "-1", "cli-docs:3"])


def canned_run(side, trace, k):
    """Output of the k-th run of one side: an untraced run reports wall_s, a
    traced one the per-layer cli.self_s and fileio.self_s."""
    run = {"python": "3.11.7", "numpy": "1.26", "scipy": "1.11", "nproc": 2,
           "blas_threads": "1", "raw_pass_wall_s": [1.5 + 0.5 * (side == "parent") + k, 1.0]}
    if trace:
        values = {"cli.self_s": (0.4 if side == "parent" else 0.1) + 0.01 * k,
                  "fileio.self_s": 1.0 + 0.01 * k}
    else:
        values = {"wall_s": (2.5 if side == "parent" else 2.4) + 0.01 * k}
    probes = {"cosim_default_sweeps": {"passed": True, "detail": "reported"}}
    return "\n".join([json.dumps({"run": run}), json.dumps({"known_defect_probes": probes}),
                      json.dumps(result_line(**values))]) + "\n"


def test_traced_pairs_keep_per_layer_medians_and_quartiles(tmp_path, monkeypatch):
    calls = []

    def run_side(tree, workload, seed, seconds, trace):
        side = "parent" if tree != bench_pairs.ROOT else "change"
        calls.append((side, trace))
        k = sum(1 for c in calls if c == (side, trace))
        return bench_pairs.parse_output(canned_run(side, trace, k))

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: "abc1234")
    out = tmp_path / "B.json"
    assert bench_pairs.main(["--out", str(out), "--traced", "4", "cli-docs:2"]) == 0
    # untraced pairs first, then the traced ones, each pair alternating sides
    assert calls == [("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
                     ("parent", 1), ("change", 1), ("change", 1), ("parent", 1),
                     ("parent", 1), ("change", 1), ("change", 1), ("parent", 1)]
    doc = json.loads(out.read_text())
    assert doc["traced_pairs"] == 4 and doc["host"]["nproc"] == 2
    entry = doc["workloads"]["cli-docs"]
    assert entry["verdict"] == {"wall_s": "ok"}
    assert entry["pairs"][1]["parent"]["raw_pass_wall_s"] == [4.0, 1.0]
    assert entry["first_pass_wall_s"]["parent"]["median"] == 3.5
    assert entry["first_pass_wall_s"]["change"]["quartiles"] == [2.75, 3.25]
    traced = entry["traced"]
    assert [p["pair"] for p in traced["pairs"]] == [1, 2, 3, 4]
    assert "run" not in traced["pairs"][0]["change"]
    assert traced["pairs"][0]["parent"]["known_defect_probes"]["cosim_default_sweeps"]["passed"]
    assert traced["medians"]["parent"]["cli.self_s"] == pytest.approx(0.425)
    assert traced["medians"]["change"]["cli.self_s"] == pytest.approx(0.125)
    assert traced["quartiles"]["parent"]["cli.self_s"] == pytest.approx([0.4175, 0.4325])
    assert traced["change_wins"] == {"cli.self_s": 4, "fileio.self_s": 0}
    assert "verdict" not in traced


def test_no_traced_section_by_default(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_side", lambda tree, w, seed, s, trace:
                        bench_pairs.parse_output(canned_run("change", trace, 1)))
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, dest: "abc1234")
    out = tmp_path / "B.json"
    assert bench_pairs.main(["--out", str(out), "cli-docs:1"]) == 0
    assert "traced" not in json.loads(out.read_text())["workloads"]["cli-docs"]


def test_each_run_compiles_into_a_fresh_cache_of_its_own(tmp_path, monkeypatch):
    # a checkout's __pycache__ must not speed up the change side only
    runs = []

    def fake_run(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        runs.append((cwd, cache, cache.is_dir() and not any(cache.iterdir()), env))
        return SimpleNamespace(stdout=canned_run("change", 0, 1), stderr="", returncode=0)

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent = tmp_path / "parent"
    for tree in (parent, bench_pairs.ROOT, bench_pairs.ROOT):
        side = bench_pairs.run_side(tree, "cli-docs", 41, 1.0, 0)
        assert side["metrics"]["wall_s"]["value"] == pytest.approx(2.41)
    assert [cwd for cwd, *_ in runs] == [parent, bench_pairs.ROOT, bench_pairs.ROOT]
    caches = [cache for _, cache, *_ in runs]
    assert len(set(caches)) == 3 and all(fresh for _, _, fresh, _ in runs)
    assert not any(cache.exists() for cache in caches)   # removed after the run
    for cache in caches:
        for tree in (parent, bench_pairs.ROOT):
            assert tree not in cache.parents
    # each side writes its own cache, so both run from compiled modules
    assert all("PYTHONDONTWRITEBYTECODE" not in env for *_, env in runs)


def test_each_run_starts_from_an_empty_document_cache(tmp_path, monkeypatch):
    # no run may read the document cache entries of another
    caches = []

    def fake_run(argv, cwd, env, **kwargs):
        cache = Path(env["XDG_CACHE_HOME"])
        assert cache.is_dir() and not any(cache.iterdir())
        (cache / "phode").mkdir()
        caches.append(cache)
        return SimpleNamespace(stdout=canned_run("change", 0, 1), stderr="", returncode=0)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for tree in (tmp_path / "parent", bench_pairs.ROOT, bench_pairs.ROOT):
        bench_pairs.run_side(tree, "cli-docs", 41, 1.0, 0)
    assert len(set(caches)) == 3 and tmp_path not in caches
    assert not any(cache.exists() for cache in caches)   # removed after the run
