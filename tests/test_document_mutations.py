"""Mutated documents exit with a code of the exit table and one line.

Valid documents of every kind (a linear system, a model, a network, a
phdae network and a ports document) are mutated once: a value's JSON type
swapped, a very long or very large integer put in, a value nested deeply,
a key given twice, the text cut short, or bytes that are not UTF-8 or a
byte-order mark put in.  Every command that reads a document of that kind
runs on the result.  No run raises; a run that fails exits with a code of
``phode.cli.EXIT_TABLE`` and prints exactly one line on stderr, which
starts with ``phode: ``.  A run that exits 0 prints nothing on stderr but
``cosim``'s warnings, and ``validate`` exits 2 with its report on standard
output, not stderr.  When ``validate`` exits 0 the document parsed to what
it says: an independent reading of the text finds every matrix entry and
model parameter a JSON number, and the matrices equal the reader's.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from phode.cli import EXIT_TABLE, EXIT_USAGE, EXIT_VALIDATION, main
from phode.coupling import CoupledNetwork, LinearPortRelation
from phode.fileio import parse_system_text

from util import plain_document, random_linear_ph, random_network, random_skew

# a CliError carries its own code, usage or validation
EXIT_CODES = {code for _, code, _ in EXIT_TABLE if code is not None} | {EXIT_USAGE,
                                                                        EXIT_VALIDATION}
MODELS = [
    {"model": "two-mass", "params": {"m1": 2.0, "K": 0.5, "r2": 0.0}},
    # small sizes keep each run quick; a size beyond memory is refused
    # before any matrix is built
    {"model": "poroelastic", "params": {"dim_w": 2, "dim_p": 1, "rho": 1.5,
                                        "M_u": [[2.0, 0.0], [0.0, 1.0]],
                                        "B_g": [[1.0, 0.5]]}},
    {"model": "maxwell", "params": {"M_mu": [[2.0, 0.0], [0.0, 1.0]]}},
    {"model": "maxwell", "params": {"G": [[-1.0, 1.0]], "C": [[0.0]]}},
]
TWO_MASS = {"model": "two-mass"}
TWO_MASS_PORTS = {"ports": [[[0.0], [0.0], [1.0]], [[-1.0], [0.0]]],
                  "blocks": [{"i": 0, "j": 1, "C": [[-1.0]]}]}
# one value of each JSON type, numbers of both kinds and a numeric string
VALUES = [None, True, 0, -1, 2.5, "x", "", "0.5", [], [[1.0]], {}, {"a": 1}]
# beyond int64, beyond the float range, and around the 4300-digit limit
INTEGERS = ["1" + "0" * 19, "-1" + "0" * 400, "9" * 1000, "1" + "0" * 4299,
            "1" + "0" * 4300, "1" + "0" * 5000]
# below, at and beyond the decoder's and NumPy's nesting limits
DEPTHS = [3, 64, 65, 900, 100000]
NOT_UTF_8 = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
BOMS = [b"\xef\xbb\xbf", b"\xff\xfe", b"\xfe\xff"]


class Raw(str):
    """JSON text put into a document as it is."""


def encode(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {encode(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(encode, value)) + "]"
    return json.dumps(value)


def paths(value, path=()):
    """The path (keys and indices) of every value in a document."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from paths(item, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, new):
    if not path:
        return new
    doc = copy.deepcopy(doc)
    at(doc, path[:-1])[path[-1]] = new
    return doc


def json_type(value) -> str:
    if isinstance(value, bool) or value is None:
        return repr(value)
    return "number" if isinstance(value, (int, float)) else type(value).__name__


@st.composite
def documents(draw):
    """(kind, the plain JSON value of a valid document of that kind)."""
    kind = draw(st.sampled_from(["linear", "model", "network", "phdae", "ports"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "linear":
        return kind, plain_document(random_linear_ph(
            rng, n=draw(st.integers(1, 3)), m=draw(st.integers(0, 2)),
            implicit=draw(st.booleans()), feedthrough=draw(st.booleans())))
    if kind == "model":
        return kind, draw(st.sampled_from(MODELS))
    if kind == "network":
        return kind, plain_document(random_network(rng, s=draw(st.integers(2, 3))))
    if kind == "phdae":
        subs = tuple(random_linear_ph(rng, n=draw(st.integers(1, 2)), m=0) for _ in range(2))
        ports = tuple(rng.standard_normal((sub.n, 1)) for sub in subs)
        M = np.eye(2) + 0.1 * random_skew(rng, 2)
        net = CoupledNetwork(subs, LinearPortRelation(ports, M=M, N=M @ random_skew(rng, 2)))
        return kind, plain_document(net, "phdae")
    return kind, TWO_MASS_PORTS


@st.composite
def mutated(draw, doc):
    """The bytes of ``doc`` after one mutation."""
    how = draw(st.sampled_from(["type", "integer", "nest", "duplicate", "truncate",
                                "not-utf-8", "bom"]))
    if how in ("type", "integer", "nest"):
        # an integer replaces a number, where one is
        numbers = [p for p in paths(doc) if json_type(at(doc, p)) == "number"]
        path = draw(st.sampled_from(numbers if how == "integer" and numbers
                                    else list(paths(doc))))
        old = at(doc, path)
        if how == "type":
            new = draw(st.sampled_from([v for v in VALUES if json_type(v) != json_type(old)]))
        elif how == "integer":
            new = Raw(draw(st.sampled_from(INTEGERS)))
        else:
            depth = draw(st.sampled_from(DEPTHS))
            opening = draw(st.sampled_from(["[", '{"a": ']))
            new = Raw(opening * depth + encode(old) + ("]" if opening == "[" else "}") * depth)
        return encode(replaced(doc, path, new)).encode()
    if how == "duplicate":
        objects = [p for p in paths(doc) if isinstance(at(doc, p), dict) and at(doc, p)]
        path = draw(st.sampled_from(objects))
        obj = at(doc, path)
        key = draw(st.sampled_from(list(obj)))
        again = encode(obj)[:-1] + f", {json.dumps(key)}: {encode(obj[key])}}}"
        return encode(replaced(doc, path, Raw(again))).encode()
    data = encode(doc).encode()
    if how == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if how == "bom":
        return draw(st.sampled_from(BOMS)) + data
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + draw(st.sampled_from(NOT_UTF_8)) + data[cut:]


def leaves(value) -> list:
    """The values in the nested arrays and objects of ``value``, in order."""
    if isinstance(value, (list, dict)):
        items = value.values() if isinstance(value, dict) else value
        return [leaf for item in items for leaf in leaves(item)]
    return [value]


def assert_read_as_written(doc, obj):
    """``obj``, the reader's system or network of the JSON value ``doc``,
    holds what ``doc`` says: each matrix and model parameter of ``doc`` is
    made of JSON numbers (int or float, not bool), and each matrix has the
    reader's entries in row-major order."""
    if "model" in doc:
        assert all(type(v) in (int, float) for v in leaves(doc.get("params", {}))), doc
        return
    if isinstance(obj, CoupledNetwork):
        for sub_doc, sub in zip(doc["subsystems"], obj.subsystems, strict=True):
            assert_read_as_written(sub_doc, sub)
        cdoc = doc["coupling"]
        pairs = list(zip(cdoc.get("ports", []), obj.coupling.port_matrices, strict=True))
        pairs += [(cdoc[k], getattr(obj.coupling, k)) for k in ("C", "M", "N") if k in cdoc]
    else:
        assert doc["n"] == obj.n
        pairs = [(doc[k], getattr(obj, k)) for k in "EJRBLPSN" if k in doc]
    for written, read in pairs:
        numbers = leaves(written)
        assert all(type(v) in (int, float) for v in numbers), written
        assert np.array_equal(np.array(numbers, dtype=float), np.ravel(read)), written


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def commands(kind, doc, tmp):
    """The argument lists of every command that reads a document of
    ``kind`` from ``doc.json``, with valid other inputs."""
    src, out = tmp / "doc.json", tmp / "out"
    if kind == "ports":
        (tmp / "two-mass.json").write_text(json.dumps(TWO_MASS))
        return [["decouple", tmp / "two-mass.json", "--partition", "3,2", "--ports", src,
                 "-o", out]]
    n = parse_system_text(json.dumps(doc)).n
    x0 = "--x0=" + ",".join(["1"] * n)
    if kind in ("network", "phdae"):
        return [["validate", src], ["condense", src, "--mode", "general", "-o", out],
                ["cosim", src, x0, "--window", "0.02", "--t1", "0.04", "-o", out]]
    csv = tmp / "t.csv"
    csv.write_text(",".join(["t", *(f"x{i + 1}" for i in range(n)), "H", "balance_residual"])
                   + "\n" + "0," + "1," * n + "0,0\n0.01," + "1," * n + "0,0\n")
    return [["validate", src], ["decouple", src, "--partition", f"1,{n - 1}" if n > 1 else "1",
                                "-o", out],
            ["simulate", src, x0, "--t1", "0.05", "-o", out], ["report", csv, src]]


@settings(derandomize=True, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_mutated_documents_exit_with_one_line(data):
    kind, doc = data.draw(documents())
    text = data.draw(mutated(doc))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argvs = commands(kind, doc, tmp)
        (tmp / "doc.json").write_bytes(text)
        for argv in argvs:
            code, err = run(argv)
            lines = err.splitlines()
            if code == 0 or (argv[0] == "validate" and code == EXIT_VALIDATION and not err):
                assert all(line.startswith("phode: warning: ") for line in lines), err
                if argv[0] == "validate" and code == 0:
                    assert_read_as_written(json.loads(text), parse_system_text(text.decode()))
            else:
                assert code in EXIT_CODES, (argv[0], code, err)
                assert len(lines) == 1 and err.endswith("\n"), (argv[0], err)
                # a quoted value is cut at 100 characters
                assert lines[0].startswith("phode: ") and len(lines[0]) < 400, (argv[0], err)
            (tmp / "out").unlink(missing_ok=True)
