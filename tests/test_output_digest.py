"""``tools/output_digest.py`` digests every job's and probe's output of a
benchmark workload; two runs on one checkout print the same digests, and ``--parent``
compares them with those of a git revision."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

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
    # 15 jobs and the cosim_default_sweeps probe
    assert len(jobs) == 16 and total.startswith("total ") and len(total.split()[1]) == 40
    assert {line.split()[1] for line in jobs} == {"condense", "simulate", "report", "cosim",
                                                  "probe:cosim_default_sweeps"}
    assert jobs[-1].split()[1] == "probe:cosim_default_sweeps"


def in_git_checkout() -> bool:
    root = Path(__file__).parents[1]
    return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=root,
                          capture_output=True).returncode == 0


@pytest.mark.skipif(not in_git_checkout(), reason="--parent unpacks a git revision")
def test_head_against_itself_is_the_same_bytes(capsys):
    assert output_digest.main(["--workload", "cosim-3block", "--seed", "1",
                               "--parent", "HEAD"]) == 0
    parent, change, verdict = capsys.readouterr().out.splitlines()
    assert parent.startswith("parent ") and change.startswith("change ")
    assert parent.split()[-1] == change.split()[-1]
    assert verdict == "same bytes in all 15 jobs and 1 probe"


def test_first_differing_job_exits_1(capsys, monkeypatch):
    jobs = [("condense", "a" * 40), ("simulate", "b" * 40), ("report", "c" * 40)]
    changed = jobs[:1] + [("simulate", "d" * 40)] + jobs[2:]
    monkeypatch.setattr(output_digest, "job_digests", lambda workload, seed: changed)
    monkeypatch.setattr(output_digest, "parent_digests",
                        lambda rev, workload, seed: ("abc1234", jobs))
    assert output_digest.main(["--workload", "cosim-3block", "--seed", "1",
                               "--parent", "HEAD"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"first difference: job 1: parent simulate {'b' * 40}, change simulate {'d' * 40}")


def test_first_difference():
    a, b = [("x", "1"), ("y", "2")], [("x", "1"), ("y", "3")]
    assert output_digest.first_difference(a, a) is None
    assert output_digest.first_difference(a, b) == 1
    assert output_digest.first_difference(a, a[:1]) == 1
    assert output_digest.first_difference([], a) == 0
