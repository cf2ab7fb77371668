"""The benchmark's tracer wraps names that ``phode.cli`` and
``phode.coupling`` must keep providing, and its jobs use options that the
commands must keep taking; a refactor that drops one of them breaks
benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import phode.cli
import phode.coupling
from phode.cli import CliError, build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name in ["main", *tracing.LAYERS] if not hasattr(phode.cli, name)]
    assert not missing
    assert callable(phode.coupling.condense_skew)


def test_every_benchmark_command_line_parses(tmp_path, monkeypatch):
    # workloads.py imports refs.py from its own directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, build in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = build(np.random.default_rng(1), work)
        for argv in [job.argv for job in wl.jobs] + [probe.argv for probe in wl.probes]:
            try:
                _, extras = build_parser(argv[0]).parse_known_args(argv[1:])
            except CliError as exc:
                pytest.fail(f"{name}: {argv}: {exc}")
            assert extras == [], (name, argv)
