"""The benchmark's tracer wraps names that ``phode.cli`` and
``phode.coupling`` must keep providing; a refactor that drops one of them
breaks traced benchmark runs."""

import importlib.util
from pathlib import Path

import phode.cli
import phode.coupling

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name in ["main", *tracing.LAYERS] if not hasattr(phode.cli, name)]
    assert not missing
    assert callable(phode.coupling.condense_skew)
