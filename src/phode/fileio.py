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
import sys
import warnings

import numpy as np

from .core import LinearPHSystem, _clip, _float_array
from .coupling import CoupledNetwork, CouplingSpec, LinearPortRelation
from .integrate import EnergyReport, Trajectory
from . import models

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed system document."""


def _mat(doc, key, n=None, required=True):
    """The matrix of field ``key`` (present, of JSON numbers, finite and 2-D;
    n x n when ``n`` is given), or None when an optional field is missing.  The
    field's nested lists are popped out of ``doc``, so they are freed once
    converted.  Other shapes are for the system or network to check."""
    if key not in doc:
        if required:
            raise ParseError(f"missing field {key!r}")
        return None
    try:
        m = _float_array(doc.pop(key))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field {key!r} is not a numeric matrix") from exc
    except OverflowError as exc:     # a JSON integer beyond the float range
        raise ParseError(f"field {key!r} has non-finite entries") from exc
    if not np.isfinite(m).all():
        raise ParseError(f"field {key!r} has non-finite entries")
    if m.ndim == 1:
        m = m.reshape(1, -1) if m.size else m.reshape(0, 0)
    if m.ndim != 2:
        raise ParseError(f"field {key!r} must be a 2-d array")
    if n is not None and m.shape[0] != n:
        raise ParseError(f"field {key!r} has {m.shape[0]} rows, expected {_clip(str(n))}")
    if n is not None and m.shape[1] != n:
        raise ParseError(f"field {key!r} has {m.shape[1]} columns, expected {_clip(str(n))}")
    return m


def _typed(doc: dict, key: str, rule: str, default=None):
    """``doc[key]`` (``default``, if given, for a missing key) of the JSON type ``rule``."""
    v = doc[key] if default is None else doc.get(key, default)
    if not isinstance(v, dict if rule == "an object" else list) or (
            rule.endswith("objects") and not all(isinstance(d, dict) for d in v)):
        raise ParseError(f"field {key!r} must be {rule}, got {_clip(json.dumps(v))}")
    return v


def _quoted(v) -> str:
    """A document's value in an error line: a string as Python quotes it,
    any other value as JSON text."""
    return _clip(repr(v) if isinstance(v, str) else json.dumps(v))


def _parse_linear(doc) -> LinearPHSystem:
    if "model" in doc:
        try:
            sys = models.build(doc["model"], _typed(doc, "params", "an object", {}))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        for key in ("E", "J", "R", "B", "L", "P", "S", "N"):    # parameters may overflow
            _mat({key: getattr(sys, key)}, key)
        return sys
    if "n" not in doc:
        raise ParseError("missing field 'n'")
    n = _integer(doc, "n", "field")
    if n < 0:
        raise ParseError("field 'n' must be nonnegative")
    J, R = _mat(doc, "J", n), _mat(doc, "R", n)
    E, L, B, P, S, N = (_mat(doc, key, required=False) for key in "ELBPSN")
    try:
        return LinearPHSystem(E=np.eye(n) if E is None else E, J=J, R=R,
                              B=np.zeros((n, 0)) if B is None or B.size == 0 else B,
                              L=np.eye(n) if L is None else L, P=P, S=S, N=N)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_network(doc) -> CoupledNetwork:
    subs = [_parse_linear(d) for d in _typed(doc, "subsystems", "an array of objects", [])]
    if not subs:
        raise ParseError("network document has no subsystems")
    if doc.get("coupling") is None:
        raise ParseError("network document has no coupling")
    cdoc = _typed(doc, "coupling", "an object")
    ports = tuple(_mat({"ports": b}, "ports") for b in _typed(cdoc, "ports", "an array", []))
    ctype = cdoc.get("type", "skew")
    try:
        if ctype in ("skew", "general"):
            coupling = CouplingSpec(port_matrices=ports, C=_mat(cdoc, "C"))
        elif ctype == "relation":
            coupling = LinearPortRelation(port_matrices=ports, M=_mat(cdoc, "M"),
                                          N=_mat(cdoc, "N"))
        else:
            raise ParseError(f"unknown coupling type {_quoted(ctype)}")
        return CoupledNetwork(subsystems=tuple(subs), coupling=coupling)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _object(pairs: list) -> dict:
    """A JSON object; a key given twice in it raises a ParseError."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {_clip(repr(key))}")
            seen.add(key)
    return doc


def _numbers_object(pairs: list) -> dict:
    """``_object`` of ``pairs``; a JSON true or false in an array, where no
    field of a document holds one, raises a ParseError naming the key."""
    for key, value in pairs:
        arrays = [value] if type(value) is list else []
        while arrays:
            items = arrays.pop()
            types = set(map(type, items))
            if bool in types:
                entry = json.dumps(next(v for v in items if type(v) is bool))
                raise ParseError(f"field {_clip(repr(key))} has an entry {entry}, not a number")
            if list in types:
                arrays += [v for v in items if type(v) is list]
    return _object(pairs)


def _holds_true_or_false(text: str) -> bool:
    """Whether the word true or false is in ``text``.  Only a text that
    holds one needs ``_numbers_object``'s scan; the words are found from
    their letters u and s, which a document's keys hold a few times and
    its numbers never, so the search runs at memchr's speed."""
    for letter, word, at in (("u", "true", 2), ("s", "false", 3)):
        i = text.find(letter)
        while i >= 0:
            if i >= at and text.startswith(word, i - at):
                return True
            i = text.find(letter, i + 1)
    return False


def _integer_literal(text: str) -> int:
    """A JSON integer; one of more digits than CPython's default text limit
    (4300, held on every version) or a lower limit set for it raises a ParseError."""
    digits = len(text.lstrip("-"))
    limit = min(4300, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)
    if digits > limit:
        raise ParseError(f"integer of {digits} digits is too long (at most {limit})")
    return int(text)


def _json_object(text: str) -> dict:
    """The JSON object of a document; a decode error, a key given twice in
    one object, a boolean in an array, an integer too long to convert,
    nesting too deep for the decoder and a root that is not an object raise
    a ParseError."""
    hook = _numbers_object if _holds_true_or_false(text) else _object
    try:
        doc = json.loads(text, object_pairs_hook=hook, parse_int=_integer_literal)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("document is nested too deeply to decode") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    return doc


def parse_system_text(text: str):
    """Parse a JSON system document into a system or a network; a phdae
    document is its relation network (structure validation is the
    caller's business)."""
    doc = _json_object(text)
    version = _integer(doc, "format", "field") if "format" in doc else FORMAT_VERSION
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {_clip(str(version))}")
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
    raise ParseError(f"unknown kind {_quoted(kind)}")


def parse_ports_text(text: str):
    """Parse a JSON ports document ``{"ports": [Bhat_1, ...], "blocks":
    [{"i": i, "j": j, "C": C_ij}, ...]}`` into the port matrices and the
    coupling blocks keyed by (i, j)."""
    doc = _json_object(text)
    try:
        ports = [_mat({"ports": b}, "ports") for b in _typed(doc, "ports", "an array")]
        blocks = {}
        for b in _typed(doc, "blocks", "an array of objects", []):
            ij = (_integer(b, "i", "block index"), _integer(b, "j", "block index"))
            if ij in blocks:
                raise ParseError(f"block {_clip(str(ij))} given twice")
            blocks[ij] = _mat(b, "C")
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    return ports, blocks


def _integer(doc: dict, key: str, what: str) -> int:
    """The value of ``key`` in ``doc``, a JSON integer, so neither 0.5, "2"
    nor true; ``what`` names the key ("field" or "block index") when it
    is not."""
    i = doc[key]
    if type(i) is not int:
        raise ParseError(f"{what} {key!r} must be an integer, got {_clip(json.dumps(i))}")
    return i


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


# distinct values below which a group's numbers are formatted by
# ``float.__repr__`` one at a time rather than by the kernel: a kernel pass
# costs about 150 us however few values it is given, and then about 270 ns
# per value against 550-950 ns for ``float.__repr__`` (2-core VM)
_KERNEL_MIN_VALUES = 512


def _texts(values: np.ndarray) -> list:
    """``float.__repr__`` of each of the finite ``values``, from the kernel
    in passes of at most ``_BLOCK_VALUES`` values."""
    if len(values) < _KERNEL_MIN_VALUES:
        return list(map(_repr, values.tolist()))
    texts = []
    for a in range(0, len(values), _BLOCK_VALUES):
        texts += _render(values[a:a + _BLOCK_VALUES], 1, shortest=True).splitlines()
    return texts


def _matrices(value, field: str = ""):
    """The (field, array) pairs of a document, in document order."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _matrices(v, k)
    elif isinstance(value, np.ndarray):
        yield field, value
    elif isinstance(value, list):
        for v in value:
            yield from _matrices(v, field)


# entries of the matrices whose values are formatted together, at most
# (a larger matrix is formatted alone): a document of small matrices is one
# group, and the texts of a group take no more than those of a matrix of
# this size would
_GROUP_ENTRIES = 2 ** 14


def _rows(matrices: list) -> list:
    """For each (field, 2-D array) of ``matrices`` the JSON text of each
    of the array's rows, as ``json.dumps`` writes the row's list.

    The distinct values of consecutive arrays of at most
    ``_GROUP_ENTRIES`` entries in all are formatted together, told apart
    by their bits (so -0.0 keeps its own text), and a symmetric matrix, an
    identity or a block of zeros costs a fraction of its entries' formats.
    A non-finite entry, which JSON cannot hold, raises a FloatingPointError
    naming its field.
    """
    rows, group, size = [], [], 0
    for field, m in matrices:
        if group and size + m.size > _GROUP_ENTRIES:
            rows += _group_rows(group)
            group, size = [], 0
        group.append((field, m))
        size += m.size
    return rows + _group_rows(group) if group else rows


def _group_rows(matrices: list) -> list:
    """``_rows`` of one group, its distinct values formatted at once."""
    bits, index = np.unique(np.concatenate([m.ravel() for _, m in matrices]).view(np.int64),
                            return_inverse=True)
    values = bits.view(np.float64)
    if not np.isfinite(values).all():
        field = next(f for f, m in matrices if not np.all(np.isfinite(m)))
        raise FloatingPointError(f"field {field!r} has non-finite entries")
    texts = np.array(_texts(values), dtype=object)
    rows, at = [], 0
    for _, m in matrices:
        cells = texts[index[at:at + m.size].reshape(m.shape)]
        rows.append(["[" + ", ".join(row) + "]" for row in cells.tolist()])
        at += m.size
    return rows


def _layout(value, pad: str, rows=None) -> str:
    """JSON text of ``value`` in the two-space layout, except that each row
    of a matrix (an array) is written on one line; ``rows`` are the rows
    of the arrays still to be written (``_rows`` of them all at first)."""
    if rows is None:
        rows = iter(_rows(list(_matrices(value))))
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = (inner + json.dumps(k) + ": " + _layout(v, inner, rows) for k, v in value.items())
        return "{" + ",".join(items) + pad + "}"
    if isinstance(value, np.ndarray):
        lines = next(rows)
        return "[" + ",".join(inner + row for row in lines) + pad + "]" if lines else "[]"
    if isinstance(value, list) and value and isinstance(value[0], (list, dict, np.ndarray)):
        return "[" + ",".join(inner + _layout(v, inner, rows) for v in value) + pad + "]"
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
# the float-text kernel

# values rendered by one kernel pass at most: a pass holds about 370 bytes
# of temporaries per value (1.5 MB at 2**12), so its memory stays bounded
# however many values there are; passes of 2**12 values run as fast as
# larger ones
_BLOCK_VALUES = 2 ** 12


def _pow10_table(lo: int, hi: int):
    """10**p for p = lo..hi as double-double pairs (th, tl): th is 10**p
    correctly rounded and tl the remainder 10**p - th correctly rounded,
    both from exact integer arithmetic."""
    th, tl = [], []
    for p in range(lo, hi + 1):
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        th.append(num / den)          # int / int is correctly rounded
        h_num, h_den = th[-1].as_integer_ratio()
        tl.append((num * h_den - h_num * den) / (den * h_den))
    return np.array(th), np.array(tl)


def _split(a):
    """Veltkamp's split of a into a1 + a2, each half of a's 53 bits, so a
    product of two halves is exact."""
    c = a * 134217729.0              # 2**27 + 1
    a1 = c - (c - a)
    return a1, a - a1


# the kernel's range is 1e-280 <= |x| <= 1e280: there x * 10**(16 - k), k
# off by one included, neither overflows in a split nor underflows in a
# low part
_P10_MIN = -266
_P10, _P10_TAIL = _pow10_table(_P10_MIN, 298)
_P10_1, _P10_2 = _split(_P10)

# A cell is written into seven little-endian 8-byte words, NUL where it
# has no character: 0 the sign, a "0" before the point and (byte 7) the
# first digit if before it; 1 and 2 digits 2-17 before the point; 3 the
# point, up to three zeros and (byte 7) the first digit if after it; 4 and
# 5 digits 2-17 after the point; 6 the exponent and (byte 7) separator.
# All word arithmetic is int64: a word's top byte is at most "9" (0x39).
# the four ASCII digits of 0..9999
_DIGIT4 = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
           % 10 + ord("0")).astype(np.uint8)
_WORD4 = _DIGIT4.view("<u4").ravel().astype(np.int64)     # 4 digits, in order
# trailing zero digits of 0..9999 (4 for 0)
_ZEROS4 = np.sum(np.cumprod(_DIGIT4[:, ::-1] == ord("0"), axis=1, dtype=np.int8), axis=1)
# the first j bytes of a word, j = 0..8
_PREFIX = np.array([(1 << 8 * j) - 1 for j in range(8)] + [-1], np.int64)
# row w - 1, column j: the bytes of word w = 1, 2 that hold digits before
# digit j = 0..17 (word w holds digits 8w - 7 to 8w, counted from 0)
_BEFORE = _PREFIX[np.clip(np.arange(18) - np.array([[1], [9]]), 0, 8)]
# the point and j zeros after it, j = 0..3
_POINT_ZEROS = np.array([int.from_bytes(b"." + b"0" * j, "little") for j in range(4)], np.int64)
# "e", the sign and at least two digits of the exponent k = -300..300
_EXPONENT = np.array([int.from_bytes(b"e%+03d" % k, "little") for k in range(-300, 301)],
                     np.int64)


def _scaled(a, k):
    """a * 10**(16 - k) as hi + lo with |lo| <= ulp(hi) / 2, to about
    2**-100 relative: Dekker's exact product a * th plus a * tl."""
    i = 16 - k - _P10_MIN
    a1, a2 = _split(a)
    ph = a * _P10[i]
    t1, t2 = _P10_1[i], _P10_2[i]
    t = ((a1 * t1 - ph) + a1 * t2 + a2 * t1) + a2 * t2 + a * _P10_TAIL[i]
    hi = ph + t
    return hi, t - (hi - ph)


# how near (in units of the 17th digit) a rounding may come to a tie, or a
# bound of a rounding interval to an integer, and stay in the kernel: far
# more than the error of hi + lo (about 1e-13) and of the half-gaps
_MARGIN = 1e-7


def _divmod(a, b: int):
    """np.divmod(a, b) for int64 a >= 0, from one // (which NumPy runs
    several times faster than % or divmod by a constant)."""
    q = a // b
    return q, a - q * b


def _nearest17(hi, lo):
    """The 17-digit decimals D of '%.17g': hi + lo rounded, and where that
    rounding is too close to a tie to call."""
    r = np.rint(lo)
    return hi.astype(np.int64) + r.astype(np.int64), np.abs(np.abs(lo - r) - 0.5) < _MARGIN


def _shortest(a, hi, lo):
    """The decimals D of ``float.__repr__`` (Steele & White's shortest
    round trip), and where they are too close to call.

    Of the integers in a's rounding interval, S - below .. S + above for
    S = hi + lo, D is one with the most trailing zeros, and of several the
    nearest to S.  Each half of the interval spans 0.55 to 11.1 units, so
    it holds at most one multiple of 100 and the integer nearest to S;
    without a multiple of 100, D is the multiple of 10 nearest to S inside
    it, or else that integer.
    """
    mant = np.frexp(a)[0]
    above = hi / (mant * 2.0 ** 54)                   # half an ulp of a, in units
    below = np.where(mant == 0.5, above / 2, above)   # half as wide below a power of two
    whole = np.floor(lo)
    n = hi.astype(np.int64) + whole.astype(np.int64)
    f = lo - whole                                    # S = n + f, 0 <= f < 1
    up, down = f + above, f - below
    top = n + np.floor(up).astype(np.int64)           # the interval's integers
    bottom = n + np.ceil(down).astype(np.int64)
    tie = (np.abs(up - np.rint(up)) < _MARGIN) | (np.abs(down - np.rint(down)) < _MARGIN)
    n10, r = _divmod(n, 10)
    r10 = r + f                                       # S = 10 n10 + r10
    tens = top // 10 * 10
    has_ten = tens >= bottom
    d = np.where(has_ten, np.clip((n10 + (r10 > 5)) * 10, -(-bottom // 10 * 10), tens),
                 n + (f > 0.5))
    hundreds = top // 100 * 100
    near = np.where(has_ten, np.abs(r10 - 5), np.abs(f - 0.5))
    tie |= (hundreds < bottom) & (near < _MARGIN)
    return np.where(hundreds >= bottom, hundreds, d), tie


def _g17(v: float) -> bytes:
    """A cell the kernel leaves to Python: a tie of the rounding, a
    subnormal, a magnitude outside [1e-280, 1e280] or a non-finite
    value."""
    return b"%.17g" % v


def _render(x: np.ndarray, width: int, shortest: bool = False) -> str:
    """Rows of ``width`` cells from the values ``x``, each cell as '%.17g'
    writes it, or as ``float.__repr__`` writes it with ``shortest``.

    Each nonzero x in the kernel's range is written from a decimal
    D * 10**(k - 16), 10**16 <= D < 10**17, that ``_nearest17`` or
    ``_shortest`` picks from S = x * 10**(16 - k): ``_scaled`` gives S to
    far better than the ``_MARGIN`` by which a value must miss a tie to
    stay in the kernel.  One ``bytes.translate`` drops the NULs of the
    cells' words.
    """
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    zero = a == 0
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k)
    # log10 may be one off next to a power of ten
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += np.where(high[fix], 1, -1)
        hi[fix], lo[fix] = _scaled(a[fix], k[fix])
    d, tie = _shortest(a, hi, lo) if shortest else _nearest17(hi, lo)
    slow = ~(fast | zero) | tie
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    k += carry
    d[zero] = 0                      # k = 0 there, from the stand-in 1.0

    top, d = _divmod(d, 10 ** 16)
    c12, c34 = _divmod(d, 10 ** 8)
    c1, c2 = _divmod(c12, 10 ** 4)
    c3, c4 = _divmod(c34, 10 ** 4)
    # significant digits: 17 less the trailing zeros, none for a zero
    sig = 17 - (_ZEROS4[c4] + (c4 == 0) * (_ZEROS4[c3] + (c3 == 0) * (
        _ZEROS4[c2] + (c2 == 0) * (_ZEROS4[c1] + (c1 == 0) * (top == 0)))))
    # '%.17g' writes 10**-4 <= |x| < 10**17 in fixed notation, repr
    # 10**-4 <= |x| < 10**16, and repr ends a whole number there in ".0"
    fixed = (k >= -4) & (k < 16 + (not shortest))
    # the index of the first digit after the point; a trailing zero there
    # or later is dropped, and the point with it when no digit is left
    first = np.where(fixed, np.maximum(k + 1, 0), 1)
    cut = np.maximum(first, sig)
    lead = first == 0
    point = sig > first
    zeros = np.where(lead, -1 - k, 0)
    if shortest:
        point |= fixed
        zeros += fixed & (sig <= first)
    top = (top + ord("0")) << 56

    words = np.empty((len(x), 7), "<i8")
    words[:, 0] = np.signbit(x) * ord("-") | np.where(lead, ord("0") << 8, top)
    words[:, 3] = point * _POINT_ZEROS[zeros] | lead * top
    for w, (left, right) in ((1, (c1, c2)), (2, (c3, c4))):
        digits = _WORD4[left] | _WORD4[right] << 32
        before = _BEFORE[w - 1]
        words[:, w] = digits & before[first]
        words[:, w + 3] = digits & ~before[first] & before[cut]
    words[:, 6] = ~fixed * _EXPONENT[k + 300] | ord(",") << 56
    words[width - 1::width, 6] ^= (ord(",") ^ ord("\n")) << 56
    cells = words.view(np.uint8)
    slow = np.flatnonzero(slow)
    if slow.size:
        fallback = _repr if shortest else _g17     # looked up per call, for tests
        texts = np.array([fallback(v) for v in x[slow].tolist()], "S55")
        cells[slow, :-1] = texts.view(np.uint8).reshape(-1, 55)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


# ---------------------------------------------------------------------------
# trajectory CSV

def write_trajectory(traj: Trajectory, report: EnergyReport) -> str:
    """Render a trajectory and its energy report as CSV text, every value
    exactly as '%.17g' writes it, in blocks of rows of at most
    ``_BLOCK_VALUES`` values (at least one row each)."""
    rows = len(traj.t)
    n = traj.x.shape[1] if traj.x.ndim == 2 else 0
    if len(report.residuals) not in (0, max(traj.steps, 0)):
        raise ValueError("energy report length does not match the trajectory")
    res = np.zeros(rows)
    if len(report.residuals):
        res[1:] = report.residuals
    x = traj.x.reshape(rows, n)
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "balance_residual"])
    k = max(1, _BLOCK_VALUES // (n + 3))
    parts = [header + "\n"]
    for a in range(0, rows, k):
        block = np.column_stack([traj.t[a:a + k], x[a:a + k], traj.H[a:a + k], res[a:a + k]])
        parts.append(_render(block.ravel(), n + 3))
    return "".join(parts)


def read_trajectory(text: str):
    """Read a trajectory CSV back into (t, x, H, residuals) arrays.

    A text in the writer's grammar is read by ``_read_kernel``, any other
    by ``_read_lines``.  A bad header, a blank line, a row whose cell count
    differs from the header's, a cell that is not a plain decimal number
    (``1_0``, which Python's ``float`` takes, included) and a non-finite
    value raise a ParseError.
    """
    nl = text.find("\n") + 1
    header = next(_lines(text[:nl] if nl else text), None)     # splits no more
    if header is None:
        raise ParseError("empty trajectory file")
    header = header.split(",")
    if header[0] != "t" or header[-2:] != ["H", "balance_residual"]:
        raise ParseError("unexpected trajectory header")
    data = _read_kernel(text, len(header))
    if data is None:
        data = _read_lines(text, len(header))
    return data[:, 0], data[:, 1:-2], data[:, -2], data[:, -1]


def _read_kernel(text: str, cells: int) -> np.ndarray | None:
    """The data rows of a CSV with a good header, filled in by
    ``_read_piece`` a piece of whole lines at a time; None unless the text
    is ASCII with "\n" line ends only and each piece reads as finite."""
    nl = text.find("\n")
    if not text.isascii() or not text.endswith("\n") or not text[:nl].isprintable():
        return None
    data = np.empty((text.count("\n") - 1, cells))
    out, at, pos = data.reshape(-1), 0, nl + 1
    while pos < len(text):
        end = text.find("\n", min(pos + _READ_BLOCK_CHARS, len(text)) - 1) + 1
        values = _read_piece(text[pos:end].encode(), cells)
        if values is None or not np.all(np.isfinite(values)):
            return None
        out[at:at + len(values)] = values
        at, pos = at + len(values), end
    return data


# cells as integer tokens: each point dropped, each "e" and line end a comma
_TOKENS = bytes.maketrans(b"e\n", b",,")


def _read_piece(b: bytes, cells: int) -> np.ndarray | None:
    """The values of the lines ``b`` as ``float`` reads them, or None
    unless each has ``cells`` cells [+-]digits[.digits][e[+-]digits], a
    digit before the "e", and ends in "\n".  ``np.fromstring`` reads the
    digits (point dropped) and the exponent as integers for ``_decimal``;
    a cell it cannot round goes to ``float``, and so does every cell of
    ``b`` when one could overflow an integer (over 18 significant digits
    or 4 exponent digits)."""
    u = np.frombuffer(b, np.uint8)
    at = np.flatnonzero(u - ord("0") > 9)                # every byte but a digit
    c = u[at]
    ends, points, exps = (at.compress(m) for m in (
        (c == ord(",")) | (c == ord("\n")), c == ord("."), c == ord("e")))
    pc, ec = ends.searchsorted(points), ends.searchsorted(exps)
    starts = np.concatenate(([0], ends[:-1] + 1))
    first, esign, lines = u[starts], u[exps + 1], u[ends] == ord("\n")
    signed = (first == ord("+")) | (first == ord("-"))
    esign = (esign == ord("+")) | (esign == ord("-"))
    mend = ends.copy()                                   # the mantissa's end
    mend[ec] = exps
    digits = mend - starts - signed
    digits[pc] -= 1
    exp_digits = ends[ec] - exps - esign - 1
    # lines of ``cells`` cells; each byte but a digit is an end, a point, an
    # "e" or a sign that opens a cell or its exponent; a cell has a point
    # (before the "e") and an "e" at most once each, and digits around it
    if (len(ends) % cells or not lines[cells - 1::cells].all()
            or np.count_nonzero(lines) != len(ends) // cells
            or len(ends) + len(points) + len(exps) + np.count_nonzero(signed)
            + np.count_nonzero(esign) != len(at)
            or (pc[1:] <= pc[:-1]).any() or (ec[1:] <= ec[:-1]).any()
            or (points > mend[pc]).any() or (digits < 1).any() or (exp_digits < 1).any()):
        return None
    # significant digits of cells of more than 18: those after the zeros
    # (and a point) among their first 6 bytes
    long = np.flatnonzero(digits > 18)
    lead = u[(starts + signed)[long, None] + np.arange(6)]
    zero = lead == ord("0")
    zeros = (np.cumprod(zero | (lead == ord(".")), axis=1) & zero).sum(axis=1)
    if (digits[long] - zeros > 18).any() or (exp_digits > 4).any():
        return np.array([float(cell) for cell in b.replace(b"\n", b",").split(b",")[:-1]])
    p = np.zeros(len(ends), np.int64)
    p[pc] = points + 1 - mend[pc]                        # less the fraction's digits
    del at, c, points, pc, signed, esign, mend, digits, exp_digits, long, lead, zeros
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)   # NumPy 1.x's short parse
            tokens = np.fromstring(b.translate(_TOKENS, b"."), np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if len(tokens) != len(ends) + len(exps):
        return None
    et = ec + np.arange(1, len(ec) + 1)                  # the exponents' tokens
    p[ec] += tokens[et]
    tokens = np.abs(np.delete(tokens, et))
    v, slow = _decimal(tokens, p)
    np.copysign(v, 0.5 - (first == ord("-")), out=v)
    slow = np.flatnonzero(slow)
    v[slow] = [float(b[s:e]) for s, e in zip(starts[slow].tolist(), ends[slow].tolist())]
    return v


def _decimal(a, p):
    """a * 10**p for int64 0 <= a < 10**18, the double-double product with
    the table's 10**p rounded once (Clinger's exact fast path), and where
    that is not sure: within 2**-80 of a rounding boundary, or p outside
    -266..290, the powers that keep a * 10**p in [1e-266, 1e308)."""
    q = np.clip(p, _P10_MIN, 290)
    ah = a.astype(float)
    hi, lo = _scaled(ah, 16 - q)
    lo += (a - ah.astype(np.int64)) * _P10[q - _P10_MIN]      # a - ah is exact
    d = hi * 2.0 ** -80
    return hi + lo, (q != p) | (hi + (lo + d) != hi + (lo - d))


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


def _read_lines(text: str, cells: int) -> np.ndarray:
    """The data rows of a CSV with a good header, converted a line at a
    time (see ``_lines``) into a result allocated once.  The first fault in
    file order raises a ParseError: a blank row, a row whose cell count
    differs from the header's, or a cell that ``_value`` refuses, named by
    its row and its column, counted from 1.  A non-finite value raises one
    after the last row."""
    lines = _lines(text)
    data = np.empty((sum(1 for _ in _lines(text)) - 1, cells))
    next(lines)          # the header
    for k, line in enumerate(lines):
        row = line.split(",")
        if not line:
            raise ParseError(f"row {k + 1} is blank")
        if len(row) != cells:
            raise ParseError(f"row {k + 1} has {len(row)} cells, header has {cells}")
        try:
            if not line.isascii() or "_" in line:     # float would take 1_0 and "\u0661"
                raise ValueError
            data[k] = list(map(float, row))
        except ValueError:
            values = list(map(_value, row))
            if None in values:
                j = values.index(None)
                # the cell's repr is cut at 100 characters
                raise ParseError(f"row {k + 1}: non-numeric cell: could not convert string "
                                 f"{repr(row[j])[:100]} to float64 in column {j + 1}.") from None
            data[k] = values
    if not np.all(np.isfinite(data)):
        raise ParseError("trajectory has non-finite values")
    return data


def _value(cell: str) -> float | None:
    """The number in ``cell``, or None: the cell, less the whitespace that
    ``str.strip`` drops, must be ASCII without ``_`` and read by ``float``.
    (``float(cell)`` would take ``1_0`` and non-ASCII digits, and refuse a
    "\\x1f" at an end.)"""
    plain = cell.strip()
    if plain.isascii() and "_" not in plain:
        try:
            return float(plain)
        except ValueError:
            pass
    return None
