"""JSON system/network documents and CSV trajectory files.

System files are JSON with kind "linear", "network" or "phdae" (a network
coupled by a linear port relation); matrices are nested row-major arrays.
Linear documents may instead reference a registered model constructor by
name.  Trajectories are CSV with columns t, x1..xn, H, balance_residual,
printed with 17 significant digits so a re-read reproduces the stored
values bit-exactly.
"""

from __future__ import annotations

import itertools
import json
import re
import warnings

import numpy as np

from .core import LinearPHSystem
from .coupling import CoupledNetwork, CouplingSpec, LinearPortRelation
from .integrate import EnergyReport, Trajectory
from . import models

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed system document."""


def _mat(doc, key, rows=None, cols=None, required=True):
    """The matrix of field ``key``, or None when an optional field is
    missing.  The field's nested lists are popped out of ``doc``, so they
    are freed once converted."""
    if key not in doc:
        if required:
            raise ParseError(f"missing field {key!r}")
        return None
    try:
        m = np.array(doc.pop(key), dtype=float)
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
    E = _mat(doc, "E", n, n, required=False)
    L = _mat(doc, "L", n, n, required=False)
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
        return LinearPHSystem(E=np.eye(n) if E is None else E, J=J, R=R, B=B,
                              L=np.eye(n) if L is None else L, **kwargs)
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
    """Parse a JSON system document into a system or a network; a phdae
    document is its relation network (structure validation is the
    caller's business)."""
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
        return net
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


def system_to_doc(sys: LinearPHSystem) -> dict:
    """The document of a system, each matrix a 2-D array."""
    doc = {
        "format": FORMAT_VERSION,
        "kind": "linear",
        "n": sys.n,
        "E": np.atleast_2d(sys.E),
        "J": np.atleast_2d(sys.J),
        "R": np.atleast_2d(sys.R),
        "B": np.atleast_2d(sys.B) if sys.m else [],
        "L": np.atleast_2d(sys.L),
    }
    if np.any(sys.P) or np.any(sys.S) or np.any(sys.N):
        doc.update(P=np.atleast_2d(sys.P), S=np.atleast_2d(sys.S), N=np.atleast_2d(sys.N))
    return doc


def network_to_doc(net: CoupledNetwork) -> dict:
    """The document of a network, each matrix a 2-D array."""
    cdoc = {"ports": [np.atleast_2d(b) for b in net.coupling.port_matrices]}
    if isinstance(net.coupling, CouplingSpec):
        cdoc["type"] = "skew" if net.coupling.is_skew else "general"
        cdoc["C"] = np.atleast_2d(net.coupling.C)
    else:
        cdoc["type"] = "relation"
        cdoc["M"] = np.atleast_2d(net.coupling.M)
        cdoc["N"] = np.atleast_2d(net.coupling.N)
    return {
        "format": FORMAT_VERSION,
        "kind": "network",
        "subsystems": [system_to_doc(s) for s in net.subsystems],
        "coupling": cdoc,
    }


# the one formatter of matrix entries: json.dumps writes a float this way
_repr = float.__repr__


def _rows(m: np.ndarray, field: str) -> list:
    """The JSON text of each row of the 2-D array ``m``, as ``json.dumps``
    writes the row's list.

    Each distinct magnitude is formatted once, and a negative entry takes
    its magnitude's text behind a "-" (``repr(-x) == "-" + repr(x)`` for
    every finite x >= 0, -0.0 included), so a skew or symmetric matrix, an
    identity or a block of zeros costs a fraction of its entries' formats.
    A non-finite entry, which JSON cannot hold, raises a FloatingPointError.
    """
    mags, index = np.unique(np.abs(m), return_inverse=True)
    # sorted, so a NaN or an infinity comes last
    if mags.size and not np.isfinite(mags[-1]):
        raise FloatingPointError(f"field {field!r} has non-finite entries")
    texts = list(map(_repr, mags.tolist()))
    texts += ["-" + t for t in texts]
    cells = np.array(texts, dtype=object)[index.reshape(m.shape) + len(mags) * np.signbit(m)]
    return ["[" + ", ".join(row) + "]" for row in cells.tolist()]


def _layout(value, pad: str, field: str = "") -> str:
    """JSON text of ``value`` in the two-space layout, except that each row
    of a matrix (an array, under the field ``field``) is written on one
    line."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = (inner + json.dumps(k) + ": " + _layout(v, inner, k) for k, v in value.items())
        return "{" + ",".join(items) + pad + "}"
    if isinstance(value, np.ndarray):
        rows = _rows(value, field)
        return "[" + ",".join(inner + row for row in rows) + pad + "]" if rows else "[]"
    if isinstance(value, list) and value and isinstance(value[0], (list, dict, np.ndarray)):
        return "[" + ",".join(inner + _layout(v, inner, field) for v in value) + pad + "]"
    return json.dumps(value)


def dump_document(obj, kind: str | None = None) -> str:
    """Serialize a system or network as a JSON document with one matrix
    row per line; ``kind="phdae"`` labels a relation network as a phdae
    document.  Numbers are written as ``json.dumps`` writes them
    (``float.__repr__``), so a re-read is bit-exact.  A matrix with a
    non-finite entry raises a FloatingPointError naming its field."""
    if isinstance(obj, LinearPHSystem):
        doc = system_to_doc(obj)
    elif isinstance(obj, CoupledNetwork):
        doc = network_to_doc(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if kind is not None and kind != doc["kind"]:
        if kind != "phdae" or doc.get("coupling", {}).get("type") != "relation":
            raise ValueError(f"cannot write a {doc['kind']} document as kind {kind!r}")
        doc["kind"] = kind
    return _layout(doc, "\n") + "\n"


# ---------------------------------------------------------------------------
# trajectory CSV

# values rendered by one '%' at most: each block of rows is formatted from
# its own tuple of Python floats, so the floats, the tuple and the format
# string alive at once stay bounded however long the trajectory is
_CSV_BLOCK_VALUES = 2 ** 14


def write_trajectory(traj: Trajectory, report: EnergyReport) -> str:
    """Render a trajectory and its energy report as CSV text with
    deterministic 17-significant-digit formatting, in blocks of rows of
    at most ``_CSV_BLOCK_VALUES`` values (at least one row each)."""
    rows = len(traj.t)
    n = traj.x.shape[1] if traj.x.ndim == 2 else 0
    if len(report.residuals) not in (0, max(traj.steps, 0)):
        raise ValueError("energy report length does not match the trajectory")
    res = np.zeros(rows)
    if len(report.residuals):
        res[1:] = report.residuals
    x = traj.x.reshape(rows, n)
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "balance_residual"])
    # '%.17g' renders exactly as format(v, '.17g'): a re-read is bit-exact
    row = ",".join(["%.17g"] * (n + 3)) + "\n"
    k = max(1, _CSV_BLOCK_VALUES // (n + 3))
    parts = [header + "\n"]
    for a in range(0, rows, k):
        block = np.column_stack([traj.t[a:a + k], x[a:a + k], traj.H[a:a + k], res[a:a + k]])
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def read_trajectory(text: str):
    """Read a trajectory CSV back into (t, x, H, residuals) arrays.

    The data lines are converted in one ``np.loadtxt`` pass, which takes
    them one at a time from the text (see ``_lines``), so no copy of the
    whole text is made.  A bad header, a row whose cell count differs from
    the header's, a blank line, a cell that is not a plain decimal number
    (``1_0``, which Python's ``float`` takes, included) and a non-finite
    value raise a ParseError.
    """
    lines = _lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty trajectory file")
    header = header.split(",")
    if header[0] != "t" or header[-2:] != ["H", "balance_residual"]:
        raise ParseError("unexpected trajectory header")
    cells = len(header)
    data = np.empty((0, cells))
    first = next(lines, None)
    if first is not None:
        # loadtxt compares rows only with each other and skips blank lines,
        # so the rows it is given are counted (seen[0]) as it takes them
        seen = [0]
        rows = (row for seen[0], row in enumerate(itertools.chain([first], lines), 1))
        try:
            # rows that are all blank give loadtxt no data, which it warns
            # of; the shape check below names the first blank row
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = _loadtxt(rows)
        except ValueError as exc:
            raise ParseError(_ragged_row(text, cells) or _bad_cell(exc)) from exc
        if data.shape != (seen[0], cells):
            raise ParseError(_ragged_row(text, cells))
    if not np.all(np.isfinite(data)):
        raise ParseError("trajectory has non-finite values")
    return data[:, 0], data[:, 1:-2], data[:, -2], data[:, -1]


# characters of the text that ``_lines`` copies and splits at a time, at
# least (the piece runs on to the end of the line this many characters in)
_READ_BLOCK_CHARS = 2 ** 16


def _lines(text: str):
    """The lines of ``text.splitlines()``, one at a time.

    The text is split piece by piece.  Each piece runs to the first line
    end at or after ``_READ_BLOCK_CHARS`` characters: a "\n", a "\r\n" or a
    "\r" not followed by "\n".  It thus ends with a line end that
    ``splitlines`` knows and splits no "\r\n", so the lines of the pieces
    are those of the text.
    """
    size, pos = len(text), 0
    nl = cr = -1         # the next "\n" and "\r" at or after cut; size if none
    while pos < size:
        cut = pos + _READ_BLOCK_CHARS - 1
        if nl < cut:
            nl = text.find("\n", cut) % (size + 1)
        if cr < cut:
            cr = text.find("\r", cut) % (size + 1)
        end = min(nl, cr + text.startswith("\n", cr + 1)) + 1
        yield from text[pos:end].splitlines()
        pos = end


def _loadtxt(rows) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=float)


# loadtxt's conversion error counts the rows it is given from 0, columns from 1
_LOADTXT_CELL = re.compile(r"(.*) at row (\d+),( column \d+\.)", re.DOTALL)


def _bad_cell(exc: ValueError) -> str:
    """Message naming the row of the cell that ``_loadtxt`` refused,
    counted from 1 as in ``_ragged_row``."""
    cell = _LOADTXT_CELL.fullmatch(str(exc))
    if cell is None:
        return f"non-numeric cell: {exc}"
    return f"row {int(cell[2]) + 1}: non-numeric cell: {cell[1]} in{cell[3]}"


def _ragged_row(text: str, cells: int) -> str | None:
    """Message naming the first data row without ``cells`` cells, if any."""
    rows = _lines(text)
    next(rows)           # the header
    for k, row in enumerate(rows):
        if not row:
            return f"row {k + 1} is blank"
        if row.count(",") + 1 != cells:
            return f"row {k + 1} has {row.count(',') + 1} cells, header has {cells}"
    return None
