import importlib.util
import json
from pathlib import Path

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


def test_plan_arguments():
    args = bench_pairs.parse_args(["--out", "B.json", "cosim-3block:5", "sim-dense:3"])
    assert args.plan == [("cosim-3block", 5), ("sim-dense", 3)]
    assert args.parent == "HEAD" and args.seed == 41
    for bad in ("cosim-3block", "cosim-3block:x", "cosim-3block:0"):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["--out", "B.json", bad])
