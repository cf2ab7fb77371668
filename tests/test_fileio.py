import json
from pathlib import Path

import numpy as np
import pytest

from phode.core import LinearPHSystem
from phode.coupling import CoupledNetwork, LinearPortRelation, PHDAESystem
from phode.fileio import (ParseError, dump_document, parse_system_text,
                          read_trajectory, write_trajectory)
from phode.integrate import (EnergyReport, Trajectory, energy_report,
                             implicit_midpoint)
from phode.models import two_mass, two_mass_network

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
        dae = parse_system_text(json.dumps(doc))
        assert isinstance(dae, PHDAESystem)
        assert dae.A_ext.shape == (8, 8)

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

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_matrix_rejected(self, value):
        text = f'{{"n": 1, "J": [[0]], "R": [[{value}]]}}'
        with pytest.raises(ParseError, match="non-finite"):
            parse_system_text(text)


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
    ])
    def test_malformed_rows_rejected(self, body):
        with pytest.raises(ParseError):
            read_trajectory("t,x1,x2,H,balance_residual\n" + body)
