"""Spans around the calls ``phode.cli`` makes into each package module.

While a :class:`Tracer` is installed, every public name that ``phode.cli``
calls into is replaced by a wrapper that records a span (name, start,
end, parent, job id) plus the bytes or steps the call handled.
``phode.coupling.condense_skew`` is wrapped too, because ``integrate``
reaches it there.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import phode.cli
import phode.coupling

# name -> module (the layer) ; the root span of a job is "cli.main"
LAYERS = {
    "parse_system_text": "fileio",
    "dump_document": "fileio",
    "read_trajectory": "fileio",
    "write_trajectory": "fileio",
    "validate_structure": "core",
    "decouple_auto": "decoupling",
    "decouple_with_ports": "decoupling",
    "condense_skew": "coupling",
    "condense_general": "coupling",
    "build_phdae": "coupling",
    "eliminate_ports": "coupling",
    "implicit_midpoint": "integrate",
    "strang_split": "integrate",
    "dynamic_iteration": "integrate",
    "energy_report": "integrate",
}


def _work(name, args, kwargs, result):
    """Bytes or steps a call handled (0 where none are counted)."""
    if name in ("parse_system_text", "read_trajectory"):
        return len(args[0])
    if name in ("dump_document", "write_trajectory"):
        return len(result)
    if name in ("implicit_midpoint", "strang_split"):
        return result.steps
    if name == "energy_report":
        return args[0].steps
    if name == "dynamic_iteration":
        return result.steps * kwargs["sweeps"] * len(args[0].subsystems)
    return 0


class Tracer:
    def __init__(self):
        self.passes = []     # one span list per traced pass
        self.spans = []      # [name, start, end, parent index, job, work]
        self._stack = []
        self._saved = []
        self.job = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = _work(name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Start a new pass and wrap the traced names."""
        self.spans = []
        self.passes.append(self.spans)
        targets = [(phode.cli, name) for name in LAYERS]
        targets += [(phode.cli, "main"), (phode.coupling, "condense_skew")]
        for mod, name in targets:
            fn = getattr(mod, name)
            self._saved.append((mod, name, fn))
            setattr(mod, name, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            mod, name, fn = self._saved.pop()
            setattr(mod, name, fn)

    def dump(self, path: Path):
        with open(path, "w") as f:
            for k, spans in enumerate(self.passes):
                for name, t0, t1, parent, job, work in spans:
                    f.write(json.dumps({"pass": k, "name": name, "start": t0, "end": t1,
                                        "parent": parent, "job": job, "work": work}) + "\n")


def pass_metrics(spans, kinds, scale) -> dict:
    """Per-layer metrics of one traced pass.  ``kinds`` maps job id to
    job kind and ``scale`` gives each job's host-speed factor.  Self time
    is a span's duration minus its children's."""
    child = defaultdict(float)
    for name, t0, t1, parent, job, work in spans:
        if parent is not None:
            child[parent] += (t1 - t0) * scale[job]
    self_s, calls, work = defaultdict(float), defaultdict(int), defaultdict(int)
    for i, (name, t0, t1, parent, job, w) in enumerate(spans):
        self_s[name] += (t1 - t0) * scale[job] - child[i]
        calls[name] += 1
        work[name] += w

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    m = {"cli.self_s": self_s["main"], "cli.jobs": calls["main"]}
    for mod in ("fileio", "core", "decoupling", "coupling", "integrate"):
        m[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if LAYERS.get(k) == mod)
    for name in ("parse_system_text", "dump_document", "write_trajectory", "read_trajectory"):
        m[f"fileio.{name}.self_s"] = self_s[name]
        m[f"fileio.{name}.ns_per_byte"] = per(self_s[name], work[name], 1e9)
    m["fileio.json_bytes_in"] = work["parse_system_text"]
    m["fileio.json_bytes_out"] = work["dump_document"]
    m["fileio.csv_bytes_out"] = work["write_trajectory"]
    m["fileio.csv_bytes_in"] = work["read_trajectory"]
    m["core.validate_structure.self_s"] = self_s["validate_structure"]
    m["core.validate_structure.calls"] = calls["validate_structure"]
    for name in ("decouple_auto", "decouple_with_ports"):
        m[f"decoupling.{name}.self_s"] = self_s[name]
    for name in ("condense_skew", "condense_general", "build_phdae", "eliminate_ports"):
        m[f"coupling.{name}.self_s"] = self_s[name]
    m["coupling.condense_skew.calls"] = calls["condense_skew"]
    cosim_jobs = sum(1 for k in kinds.values() if k == "cosim")
    cosim_skew = sum(1 for name, _, _, _, job, _ in spans
                     if name == "condense_skew" and kinds.get(job) == "cosim")
    m["coupling.condense_skew.calls_per_cosim_job"] = per(cosim_skew, cosim_jobs, 1.0)
    for name in ("implicit_midpoint", "strang_split", "energy_report"):
        m[f"integrate.{name}.self_s"] = self_s[name]
        m[f"integrate.{name}.us_per_step"] = per(self_s[name], work[name], 1e6)
    m["integrate.steps"] = work["implicit_midpoint"] + work["strang_split"]
    m["integrate.dynamic_iteration.self_s"] = self_s["dynamic_iteration"]
    m["integrate.dynamic_iteration.us_per_block_step"] = per(
        self_s["dynamic_iteration"], work["dynamic_iteration"], 1e6)
    m["integrate.block_steps"] = work["dynamic_iteration"]
    return m


UNITS = {"self_s": "s", "ns_per_byte": "ns/B", "us_per_step": "us",
         "us_per_block_step": "us", "calls": "count", "jobs": "count",
         "steps": "count", "block_steps": "count", "calls_per_cosim_job": "count"}


def unit(metric: str) -> str:
    if metric.startswith("trace."):
        return "s"
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("bytes_in") or last.endswith("bytes_out"):
        return "B"
    return UNITS[last]
