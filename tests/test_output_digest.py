"""``tools/output_digest.py`` digests every job's output of a benchmark
workload; two runs on one checkout print the same digests."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).parents[1] / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def test_two_runs_print_the_same_digests(capsys):
    runs = []
    for _ in range(2):
        assert output_digest.main(["--workload", "cosim-3block", "--seed", "1"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    *jobs, total = runs[0]
    assert len(jobs) == 15 and total.startswith("total ") and len(total.split()[1]) == 40
    assert {line.split()[1] for line in jobs} == {"condense", "simulate", "report", "cosim"}
