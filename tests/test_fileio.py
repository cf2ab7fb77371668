import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import phode.fileio
from phode.core import LinearPHSystem
from phode.coupling import CoupledNetwork, CouplingSpec, LinearPortRelation
from phode.decoupling import decouple_auto
from phode.fileio import (_CSV_BLOCK_VALUES, ParseError, _layout, _rows,
                          dump_document, parse_system_text, read_trajectory,
                          write_trajectory)
from phode.integrate import (EnergyReport, Trajectory, energy_report,
                             implicit_midpoint)
from phode.models import two_mass, two_mass_network

from util import (per_row_document, per_row_layout, plain_document, random_linear_ph,
                  random_skew, split_read_trajectory, whole_table_csv)

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
        net = two_mass_network(variant="b")
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
        "skew-network": (two_mass_network(variant="b"), None),
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
        assert _rows(m, "M") == ["[" + ", ".join(map(repr, row)) + "]" for row in ref]

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
    def test_skew_matrix_formats_each_magnitude_once(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(phode.fileio, "_repr", lambda x: calls.append(x) or repr(x))
        skew = random_skew(np.random.default_rng(n), n)
        assert _rows(skew, "J") == [json.dumps(row) for row in skew.tolist()]
        assert len(calls) <= n * (n - 1) // 2 + 1
        calls.clear()
        assert _rows(np.eye(n), "E") == [json.dumps(row) for row in np.eye(n).tolist()]
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

    def test_bad_cell_named_from_one_pass(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(1)
            return loadtxt(rows)

        loadtxt = phode.fileio._loadtxt
        monkeypatch.setattr(phode.fileio, "_loadtxt", counted)
        text = "t,x1,x2,H,balance_residual\n" + "0,1,2,3,0\n" * 500 + "0.2,x,2,3,0\n"
        with pytest.raises(ParseError, match=r"^row 501: non-numeric cell: "
                                             r"could not convert string 'x' to float64 "
                                             r"in column 2\.$"):
            read_trajectory(text)
        assert calls == [1]

    def test_read_holds_the_result_and_little_else(self):
        # n = 200, 1000 steps: the arrays, one piece of the text at a time
        # and loadtxt's own buffers; a list of the text's lines would be a
        # second copy of the text
        traj, rep = self.random_run(1001, 200)
        text = write_trajectory(traj, rep)
        tracemalloc.start()
        try:
            t = read_trajectory(text)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    BLOCK = _CSV_BLOCK_VALUES // 5

    @pytest.mark.parametrize("rows, n", [
        (0, 2), (1, 2), (BLOCK - 1, 2), (BLOCK, 2), (BLOCK + 1, 2), (2 * BLOCK + 3, 2),
        (3, _CSV_BLOCK_VALUES - 3), (3, _CSV_BLOCK_VALUES)])
    def test_blocks_give_the_bytes_of_the_whole_table(self, rows, n):
        traj, rep = self.random_run(rows, n)
        assert write_trajectory(traj, rep) == whole_table_csv(traj, rep)

    def test_driven_run_gives_the_bytes_of_the_whole_table(self):
        sys = random_linear_ph(np.random.default_rng(3), n=4, m=2)
        traj = implicit_midpoint(sys, u=lambda t: [np.sin(t), np.cos(3 * t)],
                                 x0=[1., .5, -.3, .2], t1=30.0, dt=0.01)
        rep = energy_report(traj, sys)
        assert len(traj.t) > _CSV_BLOCK_VALUES // 7   # more than one block
        assert write_trajectory(traj, rep) == whole_table_csv(traj, rep)

    def test_transient_memory_bounded_by_the_text(self):
        # n = 200, 1000 steps: the blocks and their join hold the text
        # twice; the values of one block as Python floats add little
        traj, rep = self.random_run(1001, 200)
        tracemalloc.start()
        try:
            text = write_trajectory(traj, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)
