"""JSON system/network documents and CSV trajectory files.

System files are JSON with kind "linear", "network" or "phdae" (a network
coupled by a linear port relation); matrices are nested row-major arrays.
Linear documents may instead reference a registered model constructor by
name.  Trajectories are CSV with columns t, x1..xn, H, balance_residual,
printed with 17 significant digits so a re-read reproduces the stored
values bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .core import LinearPHSystem
from .coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation,
                       PHDAESystem, build_phdae)
from .integrate import EnergyReport, Trajectory
from . import models

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed system document."""


def _mat(doc, key, rows=None, cols=None, required=True, default=None):
    if key not in doc:
        if required:
            raise ParseError(f"missing field {key!r}")
        if default is not None:
            return default
        return None
    try:
        m = np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {key!r} is not a numeric matrix") from exc
    if not np.all(np.isfinite(m)):
        raise ParseError(f"field {key!r} has non-finite entries")
    if m.ndim == 1:
        m = m.reshape(1, -1) if m.size else m.reshape(0, 0)
    if m.ndim != 2:
        raise ParseError(f"field {key!r} must be a 2-d array")
    if rows is not None and m.shape[0] != rows:
        raise ParseError(f"field {key!r} has {m.shape[0]} rows, expected {rows}")
    if cols is not None and m.shape[1] != cols:
        raise ParseError(f"field {key!r} has {m.shape[1]} columns, expected {cols}")
    return m


def _parse_linear(doc) -> LinearPHSystem:
    if "model" in doc:
        name = doc["model"]
        if name not in models.REGISTRY:
            raise ParseError(f"unknown model {name!r}; known: {sorted(models.REGISTRY)}")
        params_cls, ctor = models.REGISTRY[name]
        try:
            params = params_cls(**doc.get("params", {}))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad parameters for model {name!r}: {exc}") from exc
        return ctor(params)
    if "n" not in doc:
        raise ParseError("missing field 'n'")
    try:
        n = int(doc["n"])
    except (TypeError, ValueError) as exc:
        raise ParseError("field 'n' must be an integer") from exc
    if n < 0:
        raise ParseError("field 'n' must be nonnegative")
    J = _mat(doc, "J", n, n)
    R = _mat(doc, "R", n, n)
    E = _mat(doc, "E", n, n, required=False, default=np.eye(n))
    L = _mat(doc, "L", n, n, required=False, default=np.eye(n))
    B = _mat(doc, "B", required=False)
    if B is None or B.size == 0:
        B = np.zeros((n, 0))
    elif B.shape[0] != n:
        raise ParseError(f"field 'B' has {B.shape[0]} rows, expected {n}")
    m = B.shape[1]
    kwargs = {}
    for key, shape in (("P", (n, m)), ("S", (m, m)), ("N", (m, m))):
        val = _mat(doc, key, *shape, required=False)
        if val is not None:
            kwargs[key] = val
    try:
        return LinearPHSystem(E=E, J=J, R=R, B=B, L=L, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_network(doc) -> CoupledNetwork:
    subs = [_parse_linear(d) for d in doc.get("subsystems", [])]
    if not subs:
        raise ParseError("network document has no subsystems")
    cdoc = doc.get("coupling")
    if cdoc is None:
        raise ParseError("network document has no coupling")
    ports = tuple(_mat({"b": b}, "b", rows=s.n)
                  for b, s in zip(cdoc.get("ports", []), subs))
    if len(ports) != len(subs):
        raise ParseError("one internal port matrix per subsystem required")
    mt = sum(b.shape[1] for b in ports)
    ctype = cdoc.get("type", "skew")
    try:
        if ctype in ("skew", "general"):
            C = _mat(cdoc, "C", mt, mt)
            coupling = CouplingSpec(port_matrices=ports, C=C)
        elif ctype == "relation":
            M = _mat(cdoc, "M", None, mt)
            N = _mat(cdoc, "N", None, mt)
            coupling = LinearPortRelation(port_matrices=ports, M=M, N=N)
        else:
            raise ParseError(f"unknown coupling type {ctype!r}")
        return CoupledNetwork(subsystems=tuple(subs), coupling=coupling)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_system_text(text: str):
    """Parse a JSON system document into a system, network or
    :class:`PHDAESystem` (structure validation is the caller's business)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    version = doc.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}")
    kind = doc.get("kind", "linear")
    if kind == "linear":
        return _parse_linear(doc)
    if kind == "network":
        return _parse_network(doc)
    if kind == "phdae":
        net = _parse_network(doc)
        if not isinstance(net.coupling, LinearPortRelation):
            raise ParseError("phdae documents require a coupling of type 'relation'")
        return build_phdae(net)
    raise ParseError(f"unknown kind {kind!r}")


def parse_ports_text(text: str):
    """Parse a JSON ports document ``{"ports": [Bhat_1, ...], "blocks":
    [{"i": i, "j": j, "C": C_ij}, ...]}`` into the port matrices and the
    coupling blocks keyed by (i, j)."""
    try:
        doc = json.loads(text)
        ports = [_mat({"ports": b}, "ports") for b in doc["ports"]]
        blocks = {(int(b["i"]), int(b["j"])): _mat(b, "C") for b in doc.get("blocks", [])}
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed ports document: {exc}") from exc
    return ports, blocks


def _mat_out(m: np.ndarray) -> list:
    return np.atleast_2d(m).tolist()


def system_to_doc(sys: LinearPHSystem) -> dict:
    doc = {
        "format": FORMAT_VERSION,
        "kind": "linear",
        "n": sys.n,
        "E": _mat_out(sys.E),
        "J": _mat_out(sys.J),
        "R": _mat_out(sys.R),
        "B": _mat_out(sys.B) if sys.m else [],
        "L": _mat_out(sys.L),
    }
    if np.any(sys.P) or np.any(sys.S) or np.any(sys.N):
        doc.update(P=_mat_out(sys.P), S=_mat_out(sys.S), N=_mat_out(sys.N))
    return doc


def network_to_doc(net: CoupledNetwork) -> dict:
    cdoc = {"ports": [_mat_out(b) for b in net.coupling.port_matrices]}
    if isinstance(net.coupling, CouplingSpec):
        cdoc["type"] = "skew" if net.coupling.is_skew else "general"
        cdoc["C"] = _mat_out(net.coupling.C)
    else:
        cdoc["type"] = "relation"
        cdoc["M"] = _mat_out(net.coupling.M)
        cdoc["N"] = _mat_out(net.coupling.N)
    return {
        "format": FORMAT_VERSION,
        "kind": "network",
        "subsystems": [system_to_doc(s) for s in net.subsystems],
        "coupling": cdoc,
    }


def _layout(value, pad: str) -> str:
    """JSON text of ``value`` in the two-space layout, except that a list
    whose first item is a number (a matrix row) is encoded on one line."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = (inner + json.dumps(k) + ": " + _layout(v, inner) for k, v in value.items())
        return "{" + ",".join(items) + pad + "}"
    if isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        return "[" + ",".join(inner + _layout(v, inner) for v in value) + pad + "]"
    return json.dumps(value)


def dump_document(obj) -> str:
    """Serialize a system, network or :class:`PHDAESystem` as a JSON
    document with one matrix row per line; numbers are written as
    ``json.dumps`` writes them (``float.__repr__``), so a re-read is
    bit-exact."""
    if isinstance(obj, LinearPHSystem):
        doc = system_to_doc(obj)
    elif isinstance(obj, CoupledNetwork):
        doc = network_to_doc(obj)
    elif isinstance(obj, PHDAESystem):
        doc = network_to_doc(obj.network)
        doc["kind"] = "phdae"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return _layout(doc, "\n") + "\n"


# ---------------------------------------------------------------------------
# trajectory CSV

def write_trajectory(traj: Trajectory, report: EnergyReport) -> str:
    """Render a trajectory and its energy report as CSV text with
    deterministic 17-significant-digit formatting."""
    n = traj.x.shape[1] if traj.x.ndim == 2 else 0
    if len(report.residuals) not in (0, max(traj.steps, 0)):
        raise ValueError("energy report length does not match the trajectory")
    res = np.zeros(len(traj.t))
    if len(report.residuals):
        res[1:] = report.residuals
    table = np.column_stack([traj.t, traj.x.reshape(len(traj.t), n), traj.H, res])
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "balance_residual"])
    # '%.17g' renders exactly as format(v, '.17g'): a re-read is bit-exact
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def read_trajectory(text: str):
    """Read a trajectory CSV back into (t, x, H, residuals) arrays.

    The data lines are converted in one ``np.loadtxt`` pass.  A bad
    header, a row whose cell count differs from the header's, a blank
    line, a cell that is not a plain decimal number (``1_0``, which Python's
    ``float`` takes, included) and a non-finite value raise a ParseError.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty trajectory file")
    header = lines[0].split(",")
    if header[0] != "t" or header[-2:] != ["H", "balance_residual"]:
        raise ParseError("unexpected trajectory header")
    rows, cells = lines[1:], len(header)
    data = np.empty((0, cells))
    if rows:
        # loadtxt compares rows only with each other and skips blank lines
        try:
            data = _loadtxt(rows)
        except ValueError as exc:
            raise ParseError(_ragged_row(rows, cells) or _bad_cell(rows, exc)) from exc
        if data.shape != (len(rows), cells):
            raise ParseError(_ragged_row(rows, cells))
    if not np.all(np.isfinite(data)):
        raise ParseError("trajectory has non-finite values")
    return data[:, 0], data[:, 1:-2], data[:, -2], data[:, -1]


def _loadtxt(rows: list) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=float)


def _bad_cell(rows: list, exc: ValueError) -> str:
    """Message naming the first row with a cell that ``_loadtxt`` refuses,
    counted from 1 as in ``_ragged_row``."""
    for k, row in enumerate(rows):
        try:
            _loadtxt([row])
        except ValueError as row_exc:
            # loadtxt counts the rows it is given from 0, columns from 1
            return f"row {k + 1}: non-numeric cell: {row_exc}".replace(" at row 0,", " in")
    return f"non-numeric cell: {exc}"


def _ragged_row(rows: list, cells: int) -> str | None:
    """Message naming the first row without ``cells`` cells, if any."""
    for k, row in enumerate(rows):
        if not row:
            return f"row {k + 1} is blank"
        if row.count(",") + 1 != cells:
            return f"row {k + 1} has {row.count(',') + 1} cells, header has {cells}"
    return None
