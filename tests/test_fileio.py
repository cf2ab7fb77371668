import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import phode.fileio
from phode.core import LinearPHSystem
from phode.coupling import CoupledNetwork, CouplingSpec, LinearPortRelation
from phode.decoupling import decouple_auto
from phode.fileio import (_BLOCK_VALUES, _KERNEL_MIN_VALUES, ParseError, _layout,
                          _render, _rows,
                          dump_document, parse_ports_text, parse_system_text,
                          read_trajectory, write_trajectory)
from phode.integrate import (EnergyReport, Trajectory, energy_report,
                             implicit_midpoint)
from phode.models import two_mass, two_mass_network

from util import (loadtxt_read_trajectory, per_row_document, per_row_layout, plain_document,
                  random_linear_ph, random_skew, split_read_trajectory, whole_table_csv)

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseSystem:
    def test_minimal_linear_document(self):
        doc = {"n": 2, "J": [[0., 1.], [-1., 0.]],
               "R": [[0., 0.], [0., 0.]],
               "L": [[1., 0.], [0., 1.]],
               "E": [[1., 0.], [0., 1.]]}
        sys = parse_system_text(json.dumps(doc))
        assert isinstance(sys, LinearPHSystem)
        assert sys.n == 2 and sys.m == 0

    def test_fixture_matches_constructor(self):
        sys = parse_system_text((FIXTURES / "two_mass.json").read_text())
        ref = two_mass()
        for a in ("E", "J", "R", "B", "L"):
            assert np.array_equal(getattr(sys, a), getattr(ref, a))

    def test_roundtrip_identity(self):
        ref = two_mass()
        again = parse_system_text(dump_document(ref))
        for a in ("E", "J", "R", "B", "L", "P", "S", "N"):
            assert np.array_equal(getattr(again, a), getattr(ref, a))

    def test_network_roundtrip(self):
        net = two_mass_network()
        again = parse_system_text(dump_document(net))
        assert isinstance(again, CoupledNetwork)
        assert np.array_equal(again.coupling.C, net.coupling.C)
        for a, b in zip(again.coupling.port_matrices, net.coupling.port_matrices):
            assert np.array_equal(a, b)
        for sa, sb in zip(again.subsystems, net.subsystems):
            assert np.array_equal(sa.J, sb.J)

    def test_phdae_document(self):
        doc = {
            "format": 1, "kind": "phdae",
            "subsystems": [
                {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]},
                {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]},
            ],
            "coupling": {"type": "relation",
                         "ports": [[[1.]], [[1.]]],
                         "M": [[1., 0.], [0., 1.]],
                         "N": [[0., -1.], [1., 0.]]},
        }
        net = parse_system_text(json.dumps(doc))
        assert isinstance(net, CoupledNetwork)
        assert isinstance(net.coupling, LinearPortRelation)
        assert np.array_equal(net.coupling.N, doc["coupling"]["N"])
        assert dump_document(net, kind="phdae") == per_row_document(net, "phdae")
        assert json.loads(dump_document(net, kind="phdae"))["kind"] == "phdae"

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="JSON"):
            parse_system_text("{not json")
        with pytest.raises(ParseError, match="missing field 'J'"):
            parse_system_text('{"n": 2, "R": [[0,0],[0,0]]}')
        with pytest.raises(ParseError, match="rows"):
            parse_system_text('{"n": 2, "J": [[0]], "R": [[0,0],[0,0]]}')
        with pytest.raises(ParseError, match="unknown kind"):
            parse_system_text('{"kind": "weird"}')
        with pytest.raises(ParseError, match="unknown model"):
            parse_system_text('{"model": "three-mass"}')
        with pytest.raises(ParseError, match="'n' must be an integer"):
            parse_system_text('{"n": "abc", "J": [[0]], "R": [[0]]}')
        with pytest.raises(ParseError, match="bad parameters"):
            parse_system_text('{"model": "two-mass", "params": {"m1": -1}}')

    @pytest.mark.parametrize("given", [(), ("E",), ("L",), ("E", "L")])
    def test_identity_built_only_for_a_missing_e_or_l(self, given, monkeypatch):
        doc = {"n": 2, "J": [[0., 1.], [-1., 0.]], "R": [[1., 0.], [0., 0.]]}
        doc.update({key: [[2., 0.], [0., 3.]] for key in given})
        eyes, eye = [], np.eye
        monkeypatch.setattr(np, "eye", lambda n: eyes.append(n) or eye(n))
        sys = parse_system_text(json.dumps(doc))
        assert eyes == [2] * (2 - len(given))
        for key in ("E", "L"):
            want = np.diag([2., 3.]) if key in given else np.eye(2)
            assert np.array_equal(getattr(sys, key), want)

    def test_transient_memory_is_the_document_and_one_matrix(self):
        # n = 200 with E and L given: the parsed JSON objects and one matrix
        # at a time; keeping every matrix's lists to the end would hold them
        # beside all four matrices
        text = dump_document(random_linear_ph(np.random.default_rng(0), n=200, m=0,
                                              implicit=True))
        tracemalloc.start()
        try:
            json.loads(text)
            document = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            parse_system_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= document + 2 * 8 * 200 * 200

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_matrix_rejected(self, value):
        text = f'{{"n": 1, "J": [[0]], "R": [[{value}]]}}'
        with pytest.raises(ParseError, match="non-finite"):
            parse_system_text(text)


class TestParsePorts:
    PORTS = [[[1.]], [[1.]]]

    def test_blocks_keyed_by_index_pair(self):
        ports, blocks = parse_ports_text(json.dumps({
            "ports": self.PORTS, "blocks": [{"i": 0, "j": 1, "C": [[2.]]}]}))
        assert [p.tolist() for p in ports] == self.PORTS
        assert list(blocks) == [(0, 1)] and blocks[0, 1].tolist() == [[2.]]

    @pytest.mark.parametrize("i", [0.5, 0.0, True, "0", None, [0]])
    def test_index_must_be_an_integer(self, i):
        text = json.dumps({"ports": self.PORTS, "blocks": [{"i": i, "j": 1, "C": [[0.]]}]})
        with pytest.raises(ParseError, match="block index 'i' must be an integer"):
            parse_ports_text(text)

    def test_repeated_pair_refused(self):
        text = json.dumps({"ports": self.PORTS, "blocks": [{"i": 0, "j": 1, "C": [[0.]]},
                                                           {"i": 0, "j": 1, "C": [[1.]]}]})
        with pytest.raises(ParseError, match=r"block \(0, 1\) given twice"):
            parse_ports_text(text)


def _documents():
    """One object of each document shape and the kind it is written as
    (None for its own), keyed by a test id."""
    rng = np.random.default_rng(5)
    relation = decouple_auto(LinearPHSystem(E=np.eye(3), J=np.zeros((3, 3)),
                                            R=[[1., .5, 0.], [.5, 1., .2], [0., .2, 1.]],
                                            B=np.zeros((3, 0)), L=np.eye(3)), (1, 2))
    general = CoupledNetwork(
        (random_linear_ph(rng, n=2, m=1), random_linear_ph(rng, n=3, m=0)),
        CouplingSpec((rng.standard_normal((2, 1)), rng.standard_normal((3, 2))),
                     np.diag([1., 2., 3.]) + np.triu(np.ones((3, 3)), 1)))
    return {
        "linear-empty-B": (two_mass(), None),
        "linear": (random_linear_ph(rng, n=4, m=2), None),
        "linear-PSN": (random_linear_ph(rng, n=4, m=2, feedthrough=True), None),
        "skew-network": (two_mass_network(), None),
        "general-network": (general, None),
        "relation-network": (relation, None),
        "phdae": (relation, "phdae"),
    }


def _indent2_reference(name) -> str:
    """The document ``name`` encoded by ``json.dumps(indent=2)``."""
    return json.dumps(plain_document(*DOCUMENTS[name]), indent=2)


def _dump(name) -> str:
    """``dump_document``'s text of the document ``name``."""
    obj, kind = DOCUMENTS[name]
    return dump_document(obj, kind=kind)


def _number_rows(value):
    """Every non-empty list of numbers in a parsed document."""
    items = value.values() if isinstance(value, dict) else value
    if isinstance(value, list) and value and not isinstance(value[0], (list, dict)):
        yield value
    elif isinstance(value, (dict, list)):
        for item in items:
            yield from _number_rows(item)


DOCUMENTS = _documents()


EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e22, 0.1, -1.2345678901234567e-300]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FAST = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def _matrices(draw):
    """Matrices of edge values (±0.0, repeated values, subnormals, ±max)
    and other finite floats: exactly symmetric, exactly skew, symmetric but
    for one ulp, or as drawn; or shaped 0×k, k×0, 1×1 or n×1."""
    cells = st.one_of(st.sampled_from(EDGE_VALUES + [0.0, 1.0, -1.0, -5e-324]), FINITE)
    kind = draw(st.sampled_from(["symmetric", "skew", "ulp", "square", "0xk", "kx0",
                                 "1x1", "nx1"]))
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    shape = {"0xk": (0, k), "kx0": (k, 0), "1x1": (1, 1), "nx1": (n, 1)}.get(kind, (n, n))
    m = draw(arrays(float, shape, elements=cells))
    if kind in ("symmetric", "ulp"):
        m = np.triu(m) + np.triu(m, 1).T
    if kind == "ulp" and n >= 2:
        m[0, 1] = np.nextafter(m[0, 1], 0.0 if abs(m[0, 1]) > 1e308 else np.inf)
    if kind == "skew":
        m = np.triu(m, 1) - np.triu(m, 1).T
    return m


MATRICES = _matrices()


class TestDumpDocument:
    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_same_document_as_indent2_encoder(self, name):
        text = _dump(name)
        assert json.loads(text) == json.loads(_indent2_reference(name))
        # same keys in the same order and the same number text
        assert json.dumps(json.loads(text), indent=2) == _indent2_reference(name)

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_one_matrix_row_per_line(self, name):
        text = _dump(name)
        lines = [line.strip().rstrip(",") for line in text.splitlines()]
        row_lines = [json.loads(line) for line in lines
                     if line.startswith("[") and line not in ("[", "[]")]
        assert row_lines == list(_number_rows(json.loads(text)))
        assert len(text) < 0.8 * len(_indent2_reference(name))

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_dump_is_deterministic(self, name):
        assert _dump(name) == _dump(name)

    @pytest.mark.parametrize("name", ["linear", "skew-network", "general-network"])
    def test_phdae_kind_only_for_a_relation_network(self, name):
        with pytest.raises(ValueError, match="as kind 'phdae'"):
            dump_document(DOCUMENTS[name][0], kind="phdae")

    def test_matrix_lists_match_per_entry_conversion(self):
        m = np.array([[-0.0, 5e-324, 2.2250738585072014e-308 / 3], [1e308, 0.1, 1e22]])
        ref = [[float(v) for v in row] for row in m]
        # the rendered rows hold each entry's float text
        assert _rows([("M", m)])[0] == ["[" + ", ".join(map(repr, row)) + "]" for row in ref]

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_same_bytes_as_per_row_encoding(self, name):
        assert _dump(name) == per_row_document(*DOCUMENTS[name])

    @FAST
    @given(m=MATRICES)
    def test_same_bytes_as_per_row_encoding_on_structured_matrices(self, m):
        assert _layout({"M": m}, "\n") == per_row_layout({"M": m.tolist()}, "\n")
        if m.shape[0] == m.shape[1]:
            sys = LinearPHSystem(E=m, J=m, R=m, B=m, L=m)
            assert dump_document(sys) == per_row_document(sys)

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    def test_skew_matrix_formats_each_value_once(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(phode.fileio, "_repr", lambda x: calls.append(x) or repr(x))
        skew = random_skew(np.random.default_rng(n), n)
        assert _rows([("J", skew)])[0] == [json.dumps(row) for row in skew.tolist()]
        assert len(calls) <= n * (n - 1) + 1
        calls.clear()
        assert _rows([("E", np.eye(n))])[0] == [json.dumps(row) for row in np.eye(n).tolist()]
        assert len(calls) == min(n, 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_refused(self, value):
        sys = LinearPHSystem(E=np.eye(2), J=np.zeros((2, 2)), R=[[1., 0.], [0., value]],
                             B=np.zeros((2, 0)), L=np.eye(2))
        with pytest.raises(FloatingPointError, match="field 'R' has non-finite entries"):
            dump_document(sys)
        sub = LinearPHSystem(E=[[1.]], J=[[0.]], R=[[0.]], B=np.zeros((1, 0)), L=[[1.]])
        net = CoupledNetwork((sub, sub), CouplingSpec(([[1.]], [[value]]), [[0., 1.], [-1., 0.]]))
        with pytest.raises(FloatingPointError, match="field 'ports' has non-finite entries"):
            dump_document(net)

    def test_reread_bit_exact_edge_values(self):
        sys = LinearPHSystem(E=np.eye(2), J=[[0., 0.1], [-0.1, 0.]], R=np.zeros((2, 2)),
                             B=[[-0.0, 5e-324], [1e308, 0.1]], L=np.eye(2))
        again = parse_system_text(dump_document(sys))
        assert again.B.tobytes() == sys.B.tobytes()
        assert again.J.tobytes() == sys.J.tobytes()


def csv_text(table, cell):
    """Trajectory CSV of a table with t, n states, H and residual columns,
    every cell written with the %-format ``cell``."""
    n = table.shape[1] - 3
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "balance_residual"])
    return header + "\n" + "".join(",".join(cell % float(v) for v in row) + "\n" for row in table)


def assert_same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (-0.0 differs from 0.0)."""
    assert a.shape == b.shape
    assert np.array_equal(np.ascontiguousarray(a).view(np.int64),
                          np.ascontiguousarray(b, dtype=float).view(np.int64))


@pytest.fixture
def line_reader_calls(monkeypatch):
    """The calls of ``fileio._read_lines``, the line-at-a-time reader of
    the texts that ``read_trajectory``'s kernel refuses, one entry each."""
    calls = []

    def counted(text, cells):
        calls.append(1)
        return read_lines(text, cells)

    read_lines = phode.fileio._read_lines
    monkeypatch.setattr(phode.fileio, "_read_lines", counted)
    return calls


class TestTrajectoryCsv:
    def test_empty_trajectory_header_only(self):
        sys = two_mass()
        traj = Trajectory(t=np.zeros(1), x=np.zeros((1, 5)),
                          u=np.zeros((1, 0)), y=np.zeros((1, 0)),
                          H=np.zeros(1), method="none")
        text = write_trajectory(traj, energy_report(traj, sys))
        lines = text.strip().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4,x5,H,balance_residual"
        assert len(lines) == 2  # header plus the t0 row

    def test_three_steps_four_rows(self):
        sys = two_mass()
        traj = implicit_midpoint(sys, x0=np.ones(5), t1=0.03, dt=0.01)
        text = write_trajectory(traj, energy_report(traj, sys))
        assert len(text.strip().splitlines()) == 5  # header + t0..t3

    def test_reread_bit_exact(self):
        sys = two_mass()
        traj = implicit_midpoint(sys, x0=[1., .5, -.3, .2, .4], t1=1.0, dt=0.01)
        text = write_trajectory(traj, energy_report(traj, sys))
        t, x, h, res = read_trajectory(text)
        assert np.array_equal(t, traj.t)
        assert np.array_equal(x, traj.x)
        assert np.array_equal(h, traj.H)

    def test_deterministic_output(self):
        sys = two_mass()
        traj = implicit_midpoint(sys, x0=np.ones(5), t1=0.5, dt=0.01)
        rep = energy_report(traj, sys)
        assert write_trajectory(traj, rep) == write_trajectory(traj, rep)

    def test_format_matches_format_reference(self):
        values = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308,
                  -1.2345678901234567e-300, 0.1, 1e22, 123456789012345680.0]
        n = len(values)
        x = np.array([values, values[::-1]])
        traj = Trajectory(t=np.array([0.0, 0.1]), x=x, u=np.zeros((2, 0)),
                          y=np.zeros((2, 0)), H=np.array([-0.0, 3e-310]),
                          method="none")
        rep = EnergyReport(residuals=np.array([7.5e-17]), dissipation_ok=True,
                           driven=False)
        text = write_trajectory(traj, rep)
        rows = [[traj.t[k], *x[k], traj.H[k], [0.0, 7.5e-17][k]] for k in range(2)]
        ref = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "balance_residual"])
        ref += "\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n"
                              for row in rows)
        assert text == ref
        t, xr, h, res = read_trajectory(text)
        assert np.array_equal(xr.view(np.int64), x.view(np.int64))  # keeps -0.0
        assert np.array_equal(h.view(np.int64), traj.H.view(np.int64))
        assert np.array_equal(res, [0.0, 7.5e-17])

    @pytest.mark.parametrize("body", [
        "0,1,2,abc,0\n",          # non-numeric cell
        "0,1,2,3,0\n0.1,1,2\n",   # short row
        "0,1,2,3,0,9\n",          # long row
        "0,1,nan,3,0\n",          # non-finite value
        "0,1,2,3,0\n\n",          # blank line
        "0,1,2\n0.1,1,2\n",       # first row short against the header
        "0,1_0,2,3,0\n",          # underscore: Python's float reads 10.0
    ])
    def test_malformed_rows_rejected(self, body):
        with pytest.raises(ParseError):
            read_trajectory("t,x1,x2,H,balance_residual\n" + body)

    @pytest.mark.parametrize("body, message", [
        ("0,1,2\n0.1,1,2\n", "row 1 has 3 cells, header has 5"),
        ("0,1,2,3,0\n0.1,1,2\n", "row 2 has 3 cells, header has 5"),
        ("0,1,2,3,0\n\n0.1,1,2,3,0\n", "row 2 is blank"),
        ("0,1,2,3,0\n   \n", "row 2 has 1 cells, header has 5"),
        ("0,1,2,3,0\n0.1,1,2,abc,0\n", "non-numeric cell: could not convert string 'abc'"),
        ("0,1,2,abc,0\n", r"^row 1: non-numeric cell: .*'abc'.* in column 4\.$"),
        ("0,1,2,3,0\n0.1,1,2,3,0\n0.2,x,2,3,0\n",
         r"^row 3: non-numeric cell: .*'x'.* in column 2\.$"),
        ("0,1,2,1e400,0\n", "non-finite"),
    ])
    def test_rejection_messages(self, body, message):
        with pytest.raises(ParseError, match=message):
            read_trajectory("t,x1,x2,H,balance_residual\n" + body)

    @pytest.mark.parametrize("body", [
        "0,1,2,abc,0\n", "0,1,2,3,0\n0.1,1,2\n", "0,1,2,3,0,9\n", "0,1,nan,3,0\n",
        "0,1,2,3,0\n\n", "0,1,2\n0.1,1,2\n", "0,1,2,3,0\n   \n", "0,1,2,1e400,0\n",
    ])
    def test_oracle_rejects_the_same_rows(self, body):
        # every rejection of read_trajectory but the underscore one is a
        # rejection of the split reader too
        with pytest.raises(ParseError):
            split_read_trajectory("t,x1,x2,H,balance_residual\n" + body)

    def test_underscore_cell_is_taken_by_the_oracle_only(self):
        # np.array(..., dtype=float) reads "1_0" as Python's float does; a
        # trajectory file is written with plain decimal cells, and the reader
        # refuses any other
        text = "t,x1,x2,H,balance_residual\n0,1_0,2,3,0\n"
        assert split_read_trajectory(text)[1][0, 0] == 10.0
        with pytest.raises(ParseError, match="1_0"):
            read_trajectory(text)

    @pytest.mark.parametrize("text", ["", "x,x1,H,balance_residual\n0,1,2,3\n",
                                      "t,x1,H\n0,1,2\n", "t,x1,H,residual\n"])
    def test_bad_header_rejected(self, text):
        with pytest.raises(ParseError):
            read_trajectory(text)

    def test_header_only_gives_empty_arrays_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t, x, h, res = read_trajectory("t,x1,x2,H,balance_residual\n")
        assert (t.shape, x.shape, h.shape, res.shape) == ((0,), (0, 2), (0,), (0,))
        for a, b in zip((t, x, h, res), split_read_trajectory("t,x1,x2,H,balance_residual\n")):
            assert a.shape == b.shape and a.dtype == b.dtype

    @pytest.mark.parametrize("ending", ["lf", "crlf", "lf-no-final", "crlf-no-final",
                                        "cr", "cr-no-final", "mixed", "mixed-no-final"])
    @pytest.mark.parametrize("cell", ["%.17g", "%r"])
    def test_bit_exact_against_split_oracle(self, ending, cell):
        table = np.array([EDGE_VALUES, [-v for v in EDGE_VALUES], EDGE_VALUES[::-1]])
        text = csv_text(table, cell)
        kind = ending.removesuffix("-no-final")
        if kind == "mixed":
            ends = ["\r\n", "\r", "\n"]
            text = "".join(line + ends[k % 3] for k, line in enumerate(text.splitlines()))
        else:
            text = text.replace("\n", {"lf": "\n", "crlf": "\r\n", "cr": "\r"}[kind])
        if ending.endswith("no-final"):
            text = text.rstrip("\r\n")
        for a, b in zip(read_trajectory(text), split_read_trajectory(text)):
            assert_same_bits(a, b)
        assert_same_bits(read_trajectory(text)[1], table[:, 1:-2])

    LINE_ENDS = ["\n", "\r\n", "\r", "\n\r", "\r\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                 "\x1e", "\x85", "\u2028", "\u2029", "\n\n"]

    @FAST
    @given(data=st.data())
    def test_lines_are_those_of_splitlines(self, data):
        # pieces of a few characters cut the text at every kind of line end
        pieces = data.draw(st.lists(st.sampled_from(self.LINE_ENDS + ["", "0", "1,2", "ab,"]),
                                    max_size=12))
        text = "".join(pieces)
        for block in (1, 2, 3, 5, 64):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(phode.fileio, "_READ_BLOCK_CHARS", block)
                assert list(phode.fileio._lines(text)) == text.splitlines()

    def test_bad_cell_named_from_one_pass(self, line_reader_calls):
        text = "t,x1,x2,H,balance_residual\n" + "0,1,2,3,0\n" * 500 + "0.2,x,2,3,0\n"
        with pytest.raises(ParseError, match=r"^row 501: non-numeric cell: "
                                             r"could not convert string 'x' to float64 "
                                             r"in column 2\.$"):
            read_trajectory(text)
        assert line_reader_calls == [1]

    def test_read_holds_the_result_and_little_else(self):
        # n = 200, 1000 steps: the arrays, and one piece of the text at a
        # time with the kernel's tokens and per-cell arrays for it; a list
        # of the text's lines would be a second copy of the text
        traj, rep = self.random_run(1001, 200)
        text = write_trajectory(traj, rep)
        tracemalloc.start()
        try:
            t = read_trajectory(text)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= t.base.nbytes + 0.15 * len(text)

    def test_line_reader_holds_the_result_and_little_else(self, line_reader_calls):
        # CRLF line ends send the same table to the line reader, which
        # splits one piece's lines at a time
        traj, rep = self.random_run(1001, 200)
        text = write_trajectory(traj, rep).replace("\n", "\r\n")
        tracemalloc.start()
        try:
            t = read_trajectory(text)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert line_reader_calls == [1]
        assert peak <= t.base.nbytes + 0.15 * len(text)

    @FAST
    @given(data=st.data())
    def test_write_then_read_is_bit_exact(self, data):
        rows = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 4))
        t = np.array(sorted(data.draw(st.lists(FINITE, min_size=rows, max_size=rows,
                                               unique=True))))
        x = data.draw(arrays(float, (rows, n), elements=FINITE))
        h = data.draw(arrays(float, rows, elements=FINITE))
        res = data.draw(arrays(float, rows - 1, elements=FINITE))
        with np.errstate(over="ignore"):  # the time grid check takes differences
            traj = Trajectory(t=t, x=x, u=np.zeros((rows, 0)), y=np.zeros((rows, 0)),
                              H=h, method="none")
        text = write_trajectory(traj, EnergyReport(residuals=res, dissipation_ok=True,
                                                   driven=False))
        tr, xr, hr, rr = read_trajectory(text)
        for a, b in ((tr, t), (xr, x), (hr, h), (rr, np.concatenate([[0.0], res]))):
            assert_same_bits(a, b)

    @staticmethod
    def random_run(rows, n, seed=0):
        """A trajectory of ``rows`` rows and n states with random values
        (edge values among them) and its report."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-300, 300, (rows, n))
        x.flat[:min(x.size, len(EDGE_VALUES))] = EDGE_VALUES[:x.size]
        traj = Trajectory(t=0.01 * np.arange(rows), x=x, u=np.zeros((rows, 0)),
                          y=np.zeros((rows, 0)), H=rng.standard_normal(rows),
                          method="none")
        rep = EnergyReport(residuals=np.abs(rng.standard_normal(max(rows - 1, 0))),
                           dissipation_ok=True, driven=False)
        return traj, rep

    # rows of two states (five columns) in one block; the last two cases put
    # every row in a block of its own
    BLOCK = _BLOCK_VALUES // 5

    @pytest.mark.parametrize("rows, n", [
        (0, 2), (1, 2), (BLOCK - 1, 2), (BLOCK, 2), (BLOCK + 1, 2), (2 * BLOCK + 3, 2),
        (3, _BLOCK_VALUES - 3), (3, _BLOCK_VALUES)])
    def test_blocks_give_the_bytes_of_the_whole_table(self, rows, n):
        traj, rep = self.random_run(rows, n)
        assert write_trajectory(traj, rep) == whole_table_csv(traj, rep)

    def test_driven_run_gives_the_bytes_of_the_whole_table(self):
        sys = random_linear_ph(np.random.default_rng(3), n=4, m=2)
        traj = implicit_midpoint(sys, u=lambda t: [np.sin(t), np.cos(3 * t)],
                                 x0=[1., .5, -.3, .2], t1=30.0, dt=0.01)
        rep = energy_report(traj, sys)
        assert len(traj.t) > _BLOCK_VALUES // 7   # more than one block
        assert write_trajectory(traj, rep) == whole_table_csv(traj, rep)

    def test_transient_memory_bounded_by_the_text(self):
        # n = 200, 1000 steps: the blocks and their join hold the text
        # twice; one kernel pass adds its temporaries.  The bound is the
        # peak of the writer that formatted each block with one '%'
        # (9 776 487 bytes on this data, NumPy 2.4), plus 5 %
        traj, rep = self.random_run(1001, 200)
        tracemalloc.start()
        try:
            write_trajectory(traj, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 9_776_487


def values_run(values, n=7):
    """A trajectory whose states are ``values``, ``n`` to a row (zeros pad
    the last row), with a zero report."""
    values = np.asarray(values, dtype=float).ravel()
    rows = -(-len(values) // n)
    x = np.zeros(rows * n)
    x[:len(values)] = values
    traj = Trajectory(t=0.01 * np.arange(rows), x=x.reshape(rows, n), u=np.zeros((rows, 0)),
                      y=np.zeros((rows, 0)), H=np.zeros(rows), method="none")
    rep = EnergyReport(residuals=np.zeros(max(rows - 1, 0)), dissipation_ok=True,
                       driven=False)
    return traj, rep


def binary_ties():
    """Doubles with exactly 18 significant digits, the last a 5: their
    17-digit rounding is a tie.  m / 2**3 for m next to 2**52, and
    (i + odd / 2**j) on grids where the integer part has 18 - j digits."""
    rng = np.random.default_rng(5)
    values = [(2 ** 52 + np.arange(-300, 300) * 2 + 1) / 8]
    for j in range(2, 12):
        whole = 10.0 ** (17 - j) + rng.integers(0, 10 ** (17 - j), 300)
        values.append(whole + (2 * rng.integers(0, 2 ** (j - 1), 300) + 1) / 2 ** j)
    return np.concatenate(values)


def powers_of_ten():
    k = np.arange(-300, 301)
    p = 10.0 ** k
    return np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)])


# doubles just below 10**-k whose 17-digit rounding carries to 10**17, so
# they are written as 1e-k
CARRIES = [1e-14, 1e-70, 1e-73, 1e-78, 1e-79, 1e-174, 1e-175, 1e-176, 1e-243]

EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            1e280, np.nextafter(1e280, np.inf), np.nextafter(1e280, 0), 1e-280,
            np.nextafter(1e-280, np.inf), np.nextafter(1e-280, 0), 1e-4, 9.9999999999999991e-5,
            1e16, 1e17, 99999999999999984.0, 0.1, -0.5, 1.0]


class TestCsvKernel:
    """Every cell of ``write_trajectory`` has the bytes '%.17g' gives it."""

    @pytest.mark.parametrize("values", [
        binary_ties(), powers_of_ten(), np.array(CARRIES), -np.array(CARRIES),
        np.array(EXTREMES)], ids=["binary-ties", "powers-of-ten", "carries", "-carries",
                                  "extremes"])
    def test_edge_values(self, values):
        traj, rep = values_run(np.concatenate([values, -values]))
        assert write_trajectory(traj, rep) == whole_table_csv(traj, rep)

    def test_carries_lie_below_their_power_of_ten(self):
        for v in CARRIES:
            k = -round(math.log10(v))
            assert Fraction(v) < Fraction(1, 10 ** k) and "%.17g" % v == f"1e-{k:02d}"

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(-2 ** 63, 2 ** 63, 10 ** 5, dtype=np.int64)
        traj, rep = values_run(bits.view(np.float64))
        assert write_trajectory(traj, rep) == whole_table_csv(traj, rep)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(values=arrays(float, st.integers(1, 60), elements=FINITE),
           n=st.integers(1, 9))
    def test_any_finite_values(self, values, n):
        traj, rep = values_run(values, n)
        assert write_trajectory(traj, rep) == whole_table_csv(traj, rep)

    def test_ties_take_the_python_format(self, monkeypatch):
        formatted = []

        def spy(v):
            formatted.append(v)
            return g17(v)

        g17 = phode.fileio._g17
        monkeypatch.setattr(phode.fileio, "_g17", spy)
        ties = binary_ties()
        traj, rep = values_run(np.concatenate([ties, [0.1, 1.5, -2.25]]))
        assert write_trajectory(traj, rep) == whole_table_csv(traj, rep)
        assert formatted == ties.tolist()


def powers_of_two():
    p = 2.0 ** np.arange(-1074, 1024)
    return np.concatenate([p, np.nextafter(p, np.inf), np.nextafter(p, 0)])


def shortest_lengths():
    """Doubles whose shortest round-trip text has 1 to 17 significant
    digits, at exponents across the kernel's range."""
    rng = np.random.default_rng(17)
    return np.array([float(f"{rng.integers(10 ** (j - 1), 10 ** j)}e{e}")
                     for j in range(1, 18) for e in range(-290, 280, 7)])


# both sides of repr's switches to and from exponent notation, whole
# numbers that take ".0", the subnormals and the kernel's range bounds
NOTATION_EDGES = [1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e-05, 999999999999999.9,
                  9999999999999998.0, 123456789012345.6, 1e22, 1e23, 0.1, 0.3]
WHOLE = np.concatenate([np.arange(0.0, 2000.0), 2.0 ** 53 + np.arange(-50.0, 50.0),
                        1e15 + np.arange(-50.0, 50.0), 1e16 + 2 * np.arange(-50.0, 50.0)])
SUBNORMALS = [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308 / 3,
              2.2250738585072014e-308]


def repr_edges():
    edges = np.array(NOTATION_EDGES + EXTREMES + SUBNORMALS)
    below_max = edges[np.abs(edges) < 1e308]
    return np.concatenate([edges, np.nextafter(below_max, 2 * below_max), np.nextafter(edges, 0)])


def kernel_system(values):
    """A system whose B holds ``values`` and their negatives, 16 rows of
    them, beside enough other distinct magnitudes that the document's
    magnitudes are formatted by the kernel."""
    filler = 1 + np.arange(_KERNEL_MIN_VALUES) / 1024
    cells = np.concatenate([values, -values, filler])
    cells = np.concatenate([cells, np.zeros(-len(cells) % 16)]).reshape(16, -1)
    eye = np.eye(16)
    return LinearPHSystem(E=eye, J=np.zeros((16, 16)), R=np.zeros((16, 16)), B=cells, L=eye)


class TestReprKernel:
    """Every number of ``dump_document`` has the bytes ``float.__repr__``
    gives it, whether the kernel or Python formats it."""

    @pytest.mark.parametrize("values", [
        powers_of_two(), powers_of_ten(), shortest_lengths(), repr_edges(), WHOLE],
        ids=["powers-of-two", "powers-of-ten", "shortest-lengths", "edges", "whole"])
    def test_edge_values(self, values):
        sys = kernel_system(values)
        assert dump_document(sys) == per_row_document(sys)

    def test_signed_cells(self):
        # _rows hands the kernel magnitudes only; the kernel itself also
        # writes signs, -0.0 included
        values = np.concatenate([repr_edges(), -repr_edges(), [0.0, -0.0]])
        assert _render(values, 1, shortest=True).splitlines() == list(map(repr, values.tolist()))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(23).integers(-2 ** 63, 2 ** 63, 10 ** 5, dtype=np.int64)
        values = bits.view(np.float64)
        sys = kernel_system(values[np.isfinite(values)])
        assert dump_document(sys) == per_row_document(sys)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(values=arrays(float, st.integers(1, 60), elements=FINITE))
    def test_any_finite_values(self, values):
        sys = kernel_system(values)
        assert dump_document(sys) == per_row_document(sys)

    def test_flagged_values_and_small_documents_take_float_repr(self, monkeypatch):
        formatted = []

        def spy(v):
            formatted.append(v)
            return repr_(v)

        repr_ = phode.fileio._repr
        monkeypatch.setattr(phode.fileio, "_repr", spy)
        # a whole number in [1e16, 1e17) has a rounding interval whose
        # bounds are integers in units of its 17th digit, too close to
        # call; 5e-324 and 1e281 lie outside the kernel's range
        flagged = [5e-324, 1e16, 12345678901234568.0, 2.0 ** 55, 99999999999999984.0, 1e281]
        plain = np.linspace(0.5, 2.0, _KERNEL_MIN_VALUES - len(flagged))
        row = np.concatenate([flagged, -plain])[None]
        # one magnitude fewer than the kernel takes: Python formats them all
        assert _rows([("M", row[:, 1:])]) == [[json.dumps(row[0, 1:].tolist())]]
        assert sorted(formatted) == sorted(row[0, 1:].tolist())
        formatted.clear()
        # as many as it takes, in two matrices: the flagged ones only
        assert _rows([("M", row[:, :3]), ("N", row[:, 3:])]) == [
            [json.dumps(row[0, :3].tolist())], [json.dumps(row[0, 3:].tolist())]]
        assert formatted == flagged

    def test_transient_memory_bounded(self):
        # n = 200 with E and L: each of the four matrices is formatted in
        # a group of its own.  The bound is the peak of the dump that
        # formatted each matrix's magnitudes by float.__repr__ (10 754 727
        # bytes on this document, NumPy 2.4), plus 5 %
        sys = random_linear_ph(np.random.default_rng(0), n=200, m=0, implicit=True)
        tracemalloc.start()
        try:
            dump_document(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 10_754_727


def cells_csv(cells, width=5):
    """Trajectory CSV with the cell texts ``cells`` as its data, ``width``
    cells to a row ("0" pads the last row)."""
    cells = list(cells) + ["0"] * (-len(cells) % width)
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(width - 3)] + ["H", "balance_residual"])
    return header + "\n" + "".join(",".join(cells[k:k + width]) + "\n"
                                   for k in range(0, len(cells), width))


def read_cells(cells, width=5):
    """The values ``read_trajectory`` reads from the cell texts ``cells``,
    in order, and those ``float`` reads."""
    t, x, h, res = read_trajectory(cells_csv(cells, width))
    values = np.column_stack([t, x, h, res]).ravel()[:len(cells)]
    return values, np.array([float(c) for c in cells])


# decimals halfway between two doubles (rounded to even) with at most 18
# significant digits, two a hair to either side of one, and near-halfway
# decimals outside the kernel's range
HALFWAY = ["9007199254740993", "9.007199254740993e15", "0.9007199254740993e16",
           "900719925474099.3e1", "18014398509481986", "36028797018963972",
           "72057594037927944", "144115188075855888", "9007199254740995",
           "900719925474099301e-2", "900719925474099299e-2", "2.2250738585072011e-308",
           "4.9406564584124654e-324", "2.4703282292062328e-324", "1.7976931348623158e308"]
# the grammar's other forms, and cells at the bounds of the kernel's range
PLAIN_FORMS = ["0.00012345678901234567", "0.0000000000000000000123", "+1", ".5", "-.5",
               "5.", "1e5", "1e+05", "1e-05", "-0", "+0", "-0.0", "-0e-5", "0.", "00012",
               "+.5e-3", "-5.e+2", "1e0000", "1e-0300", "123456789012345678",
               "1.7976931348623157e308", "-1.7976931348623157e308", "1e280", "1e-280",
               "1.0000000000000001e280", "9.9999999999999996e-281", "1e281", "1e-281",
               "1e-266", "9.99e-267", "123456789012345678e290", "1e291",
               "1e-99999999999999999999"]


def long_cells(digits):
    """Cells of ``digits`` significant digits, some behind leading zeros,
    at exponents across the range."""
    rng = np.random.default_rng(digits)
    cells = []
    for e in range(-300, 300, 37):
        mantissa = "".join(map(str, rng.integers(1, 10, digits)))
        cells += [f"{mantissa[0]}.{mantissa[1:]}e{e}", f"-0.000{mantissa}",
                  f"{mantissa}e{e - digits}", f"0.{mantissa}"]
    return cells


class TestReadKernel:
    """``read_trajectory`` reads every cell in the writer's grammar as
    ``float`` does, without the line reader, and any other text as the one
    ``np.loadtxt`` pass that the reader held before did."""

    @pytest.mark.parametrize("cell", ["%.17g", "%r"])
    def test_random_bit_patterns(self, line_reader_calls, cell):
        bits = np.random.default_rng(13).integers(-2 ** 63, 2 ** 63, 10 ** 5, dtype=np.int64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        got, want = read_cells([cell % v for v in values.tolist()], width=10)
        assert_same_bits(got, want)
        assert_same_bits(got, values)
        assert line_reader_calls == []

    @pytest.mark.parametrize("values", [
        powers_of_two(), powers_of_ten(), binary_ties(), np.array(EXTREMES + SUBNORMALS),
        np.array(CARRIES)], ids=["powers-of-two", "powers-of-ten", "binary-ties", "extremes",
                                 "carries"])
    @pytest.mark.parametrize("cell", ["%.17g", "%r"])
    def test_edge_values(self, line_reader_calls, values, cell):
        values = np.concatenate([values, -values])
        got, want = read_cells([cell % v for v in values.tolist()], width=7)
        assert_same_bits(got, want)
        assert_same_bits(got, values)
        assert line_reader_calls == []

    @pytest.mark.parametrize("cells", [HALFWAY, PLAIN_FORMS, long_cells(19), long_cells(20),
                                       long_cells(25)],
                             ids=["halfway", "plain-forms", "19-digits", "20-digits",
                                  "25-digits"])
    def test_cells_read_as_float_reads_them(self, line_reader_calls, cells):
        cells = cells + ["-" + c.lstrip("+-") for c in cells]
        got, want = read_cells(cells)
        assert_same_bits(got, want)
        assert line_reader_calls == []

    def test_halfway_sums_are_left_to_float(self):
        # (a, p) of the first nine HALFWAY cells, and of two near them
        ties = [(9007199254740993, 0), (9007199254740993, 0), (9007199254740993, 0),
                (9007199254740993, 0), (18014398509481986, 0), (36028797018963972, 0),
                (72057594037927944, 0), (144115188075855888, 0), (9007199254740995, 0)]
        near = [(900719925474099301, -2), (900719925474099299, -2)]
        a, p = np.array(ties + near).T
        v, slow = phode.fileio._decimal(a, p)
        assert slow.tolist() == [True] * len(ties) + [False] * len(near)
        assert v[len(ties):].tolist() == [9007199254740994.0, 9007199254740992.0]

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_pieces_give_the_bits_of_the_whole(self, line_reader_calls, monkeypatch, block):
        traj, rep = TestTrajectoryCsv.random_run(40, 6)
        text = write_trajectory(traj, rep)
        want = read_trajectory(text)
        monkeypatch.setattr(phode.fileio, "_READ_BLOCK_CHARS", block)
        for a, b in zip(read_trajectory(text), want):
            assert_same_bits(a, b)
        assert line_reader_calls == []

    def test_writer_output_never_reaches_the_line_reader(self, line_reader_calls):
        traj, rep = TestTrajectoryCsv.random_run(300, 7)
        read_trajectory(write_trajectory(traj, rep))
        traj, rep = values_run(np.concatenate([binary_ties(), powers_of_ten(), powers_of_two(),
                                               CARRIES, EXTREMES, SUBNORMALS]))
        text = write_trajectory(traj, rep)
        assert_same_bits(read_trajectory(text)[1], traj.x)
        assert line_reader_calls == []

    @pytest.mark.parametrize("body, parent", [
        ("0,1,2,3,0\r\n0.1,1,2,3,0\r\n", [[0, 1, 2, 3, 0], [0.1, 1, 2, 3, 0]]),
        ("0,1,2,3,0\r0.1,1,2,3,0\r", [[0, 1, 2, 3, 0], [0.1, 1, 2, 3, 0]]),
        ("0,1,2,3,0\n\n0.1,1,2,3,0\n", "row 2 is blank"),
        ("0, 1,2 ,3,0\n", [[0, 1, 2, 3, 0]]),
        ("0,1E5,2,3,0\n", [[0, 1e5, 2, 3, 0]]),
        ("0,nan,2,3,0\n", "trajectory has non-finite values"),
        ("0,1,-inf,3,0\n", "trajectory has non-finite values"),
        ("0,1_0,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '1_0' to float64 in column 2."),
        ("0,1e400,2,3,0\n", "trajectory has non-finite values"),
        ("0,999999999999999999e291,2,3,0\n", "trajectory has non-finite values"),
        ("0,1,2,3,0\u00a0\n", [[0, 1, 2, 3, 0]]),
        ("0,\u0661,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '\u0661' to float64 in column 2."),
        ("0,1,2,3,0\n0.1,1,2,3,0", [[0, 1, 2, 3, 0], [0.1, 1, 2, 3, 0]]),
        ("0,1,2,3,0\n0.1,1,2\n", "row 2 has 3 cells, header has 5"),
        ("0,1,2\n3,0\n", "row 1 has 3 cells, header has 5"),
        ("0,1,2\n3,0,0,1,2,3,0\n", "row 1 has 3 cells, header has 5"),
        ("0,12e5.5,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '12e5.5' to float64 in column 2."),
        ("0,-+1,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '-+1' to float64 in column 2."),
        ("0,1.2.3,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '1.2.3' to float64 in column 2."),
        ("0,1e5e5,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '1e5e5' to float64 in column 2."),
        ("0,.,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '.' to float64 in column 2."),
        ("0,e5,2,3,0\n",
         "row 1: non-numeric cell: could not convert string 'e5' to float64 in column 2."),
        ("0,1e,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '1e' to float64 in column 2."),
        ("0,1-5,2,3,0\n",
         "row 1: non-numeric cell: could not convert string '1-5' to float64 in column 2."),
    ], ids=["crlf", "cr", "blank-row", "spaces", "1E5", "nan", "inf", "1_0", "1e400", "1e309",
            "non-ascii-space", "non-ascii-digit", "no-final-newline", "ragged", "split-row",
            "moved-line-end", "point-in-exponent", "two-signs", "1.2.3",
            "1e5e5", ".", "e5", "1e", "1-5"])
    def test_other_texts_take_one_line_reader_pass(self, line_reader_calls, body, parent):
        # ``parent`` is what the reader gave before the kernel, from one
        # np.loadtxt pass: arrays or the ParseError's text
        text = "t,x1,x2,H,balance_residual\n" + body
        if isinstance(parent, str):
            with pytest.raises(ParseError) as exc:
                read_trajectory(text)
            assert str(exc.value) == parent
        else:
            t, x, h, res = read_trajectory(text)
            assert_same_bits(np.column_stack([t, x, h, res]), np.array(parent, dtype=float))
        assert line_reader_calls == [1]

    def test_bad_cell_in_a_later_piece_is_named(self, line_reader_calls, monkeypatch):
        monkeypatch.setattr(phode.fileio, "_READ_BLOCK_CHARS", 64)
        text = "t,x1,x2,H,balance_residual\n" + "0,1,2,3,0\n" * 99 + "0,1,2,3,x\n"
        with pytest.raises(ParseError, match=r"^row 100: non-numeric cell: .*'x'"):
            read_trajectory(text)
        assert line_reader_calls == [1]

    @pytest.mark.parametrize("body, first, oracle", [
        ("0,1,2,3,0\n0,a,2,3,0\n0,1,2\n",
         "row 2: non-numeric cell: could not convert string 'a' to float64 in column 2.",
         "row 3 has 3 cells, header has 5"),
        ("0,a,2,3,0\n\n",
         "row 1: non-numeric cell: could not convert string 'a' to float64 in column 2.",
         "row 2 is blank"),
    ], ids=["bad-cell-then-ragged", "bad-cell-then-blank"])
    def test_first_fault_in_file_order_is_named(self, line_reader_calls, body, first, oracle):
        # the np.loadtxt pass named a ragged or blank row anywhere before
        # an earlier bad cell
        text = "t,x1,x2,H,balance_residual\n" + body
        with pytest.raises(ParseError) as exc:
            read_trajectory(text)
        assert str(exc.value) == first
        with pytest.raises(ParseError) as exc:
            loadtxt_read_trajectory(text)
        assert str(exc.value) == oracle
        assert line_reader_calls == [1]

    # none, new line ends, a dropped final newline, a character put anywhere
    # among the data lines, or a text that replaces one cell; one list, drawn
    # before anything else, so hypothesis draws each item about as often
    MUTATIONS = [None, "\r\n", "\r", "no-final-newline"] + [
        ("insert", c) for c in [" ", "\u00a0", "_", "\u0661", '"', "'", "\\", ",", "\n",
                                "\x1f", "\x00", "e"]] + [
        ("cell", c) for c in ["1E5", "nan", "1e400", "-inf", "1_0", "\u0661", '"1"', "",
                              " 1 ", "1\u00a0", "\u00a0\u0661", "x" * 120, "é" * 120,
                              "1\x1f", "\x1f1"]]

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(data=st.data())
    def test_reads_as_the_loadtxt_oracle(self, data):
        # writer output with at most one mutation: the same array bits or
        # the same ParseError text as one np.loadtxt pass over the lines
        mutation = data.draw(st.sampled_from(self.MUTATIONS))
        rows = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(0, 3))
        t = np.array(sorted(data.draw(st.lists(FINITE, min_size=rows, max_size=rows,
                                               unique=True))))
        with np.errstate(over="ignore"):  # the time grid check takes differences
            traj = Trajectory(t=t, x=data.draw(arrays(float, (rows, n), elements=FINITE)),
                              u=np.zeros((rows, 0)), y=np.zeros((rows, 0)),
                              H=data.draw(arrays(float, rows, elements=FINITE)), method="none")
        res = data.draw(arrays(float, rows - 1, elements=FINITE))
        text = write_trajectory(traj, EnergyReport(residuals=res, dissipation_ok=True,
                                                   driven=False))
        body = text.index("\n") + 1
        if mutation in ("\r\n", "\r"):
            text = text.replace("\n", mutation)
        elif mutation == "no-final-newline":
            text = text[:-1]
        elif mutation is not None and mutation[0] == "insert":
            at = data.draw(st.integers(body, len(text)))
            text = text[:at] + mutation[1] + text[at:]
        elif mutation is not None:
            lines = text[body:].splitlines()
            k = data.draw(st.integers(0, len(lines) - 1))
            cells = lines[k].split(",")
            cells[data.draw(st.integers(0, len(cells) - 1))] = mutation[1]
            lines[k] = ",".join(cells)
            text = text[:body] + "".join(line + "\n" for line in lines)
        try:
            want = loadtxt_read_trajectory(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                read_trajectory(text)
            want = str(exc)
            # a split row may leave a bad cell before a ragged one; the first
            # fault in file order is named, as the oracle names it in the
            # rows before its ragged or blank row k
            k = re.match(r"row (\d+) (is blank|has)", want)
            if k and str(got.value) != want:
                with pytest.raises(ParseError) as exc:
                    loadtxt_read_trajectory("".join(text.splitlines(True)[:int(k[1])]))
                want = str(exc.value)
            assert str(got.value) == want
        else:
            for a, b in zip(read_trajectory(text), want):
                assert_same_bits(a, b)
