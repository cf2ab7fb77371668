import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phode.cli
import phode.coupling
from phode.cli import main
from phode.coupling import condense_general, condense_skew
from phode.fileio import parse_system_text, read_trajectory, write_trajectory
from phode.integrate import dynamic_iteration, energy_report
from phode.models import two_mass

FIXTURES = Path(__file__).parent / "fixtures"
TWO_MASS = str(FIXTURES / "two_mass.json")


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def general_network_doc(C):
    """Two dissipative one-state subsystems coupled by the 2x2 matrix C."""
    sub = {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]}
    return {"kind": "network", "subsystems": [sub, sub],
            "coupling": {"type": "general", "ports": [[[1.]], [[1.]]], "C": C}}


def assert_one_line_error(capsys, fragment):
    err = capsys.readouterr().err
    assert err.startswith("phode: ") and err.count("\n") == 1
    assert fragment in err


class TestValidateCommand:
    def test_valid_system(self, capsys):
        assert main(["validate", TWO_MASS]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_invalid_system_exit_2(self, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json",
                         {"n": 1, "J": [[0.]], "R": [[-1.]], "L": [[1.]]})
        assert main(["validate", bad]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file_usage_error(self, capsys):
        assert main(["validate", "/nonexistent.json"]) == 1

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["validate", TWO_MASS, "--frobnicate"]) == 1

    def test_non_finite_matrix_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"n": 1, "J": [[0]], "R": [[NaN]], "L": [[1]]}')
        assert main(["validate", str(bad)]) == 1
        assert_one_line_error(capsys, "non-finite")

    def test_non_integer_dimension_exit_1(self, tmp_path, capsys):
        bad = write_json(tmp_path / "n.json", {"n": "abc", "J": [[0.]], "R": [[0.]]})
        assert main(["validate", bad]) == 1
        assert_one_line_error(capsys, "'n'")

    def test_nan_model_parameter_exit_1(self, tmp_path, capsys):
        doc = tmp_path / "model.json"
        doc.write_text('{"model": "two-mass", "params": {"r1": NaN}}')
        assert main(["validate", str(doc)]) == 1
        assert_one_line_error(capsys, "non-finite")


class TestPipeline:
    def test_decouple_condense_roundtrip(self, tmp_path):
        net_path = str(tmp_path / "net.json")
        mono_path = str(tmp_path / "mono.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2",
                     "-o", net_path]) == 0
        assert main(["condense", net_path, "-o", mono_path]) == 0
        mono = parse_system_text(Path(mono_path).read_text())
        ref = two_mass()
        assert np.array_equal(mono.J, ref.J)
        assert np.array_equal(mono.R, ref.R)

    def test_decouple_with_ports_verification_failure_exit_3(self, tmp_path):
        ports = write_json(tmp_path / "ports.json", {
            "ports": [[[1.], [0.], [0.]], [[-1.], [0.]]],
            "blocks": [{"i": 0, "j": 1, "C": [[-1.]]}],
        })
        assert main(["decouple", TWO_MASS, "--partition", "3,2",
                     "--ports", ports, "-o", str(tmp_path / "out.json")]) == 3

    def test_decouple_lower_block_verification_failure_exit_3(self, tmp_path, capsys):
        system = write_json(tmp_path / "sys.json", {
            "n": 3, "J": [[0., 0., 1.], [0., 0., 0.], [-1., 0., 0.]],
            "R": [[0., 0., 0.], [0., 1., 0.5], [0., 0.5, 1.]]})
        ports = write_json(tmp_path / "ports.json", {
            "ports": [[[-1.], [0.5]], [[1.]]],
            "blocks": [{"i": 0, "j": 1, "C": [[1.]]}],
        })
        out = tmp_path / "out.json"
        assert main(["decouple", system, "--partition", "2,1",
                     "--ports", ports, "-o", str(out)]) == 3
        assert "block pair (1, 0)" in capsys.readouterr().err
        assert not out.exists()

    def test_decouple_feedthrough_exit_2(self, tmp_path, capsys):
        system = write_json(tmp_path / "sys.json", {
            "n": 4, "J": [[0., 0., 1., 0.], [0., 0., 0., 0.],
                          [-1., 0., 0., 0.], [0., 0., 0., 0.]],
            "R": [[0.2, 0., 0., 0.], [0., 0.1, 0., 0.],
                  [0., 0., 0., 0.], [0., 0., 0., 0.]],
            "B": [[1.], [0.], [0.], [0.]], "P": [[0.1], [0.], [0.], [0.]],
            "S": [[0.5]]})
        out = tmp_path / "out.json"
        assert main(["decouple", system, "--partition", "2,2", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "feedthrough")
        assert not out.exists()

    def test_decouple_with_good_ports(self, tmp_path):
        ports = write_json(tmp_path / "ports.json", {
            "ports": [[[0.], [0.], [1.]], [[-1.], [0.]]],
            "blocks": [{"i": 0, "j": 1, "C": [[-1.]]}],
        })
        out = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2",
                     "--ports", ports, "-o", out]) == 0
        assert json.loads(Path(out).read_text())["coupling"]["type"] == "skew"

    def test_condense_general_failure_exit_2(self, tmp_path):
        sub = {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]}
        net = write_json(tmp_path / "net.json", {
            "kind": "network", "subsystems": [sub, sub],
            "coupling": {"type": "general", "ports": [[[1.]], [[1.]]],
                         "C": [[0., 2.], [2., 0.]]},
        })
        assert main(["condense", net, "--mode", "general",
                     "-o", str(tmp_path / "m.json")]) == 2

    @pytest.mark.parametrize("M,N", [([[0., 0.], [0., 0.]], [[1., 0.], [0., 1.]]),
                                     ([[1., 0.]], [[0., 1.]])],
                             ids=["singular", "not-square"])
    def test_condense_general_uneliminable_relation_exit_2(self, tmp_path, capsys, M, N):
        sub = {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]}
        net = write_json(tmp_path / "net.json", {
            "kind": "network", "subsystems": [sub, sub],
            "coupling": {"type": "relation", "ports": [[[1.]], [[1.]]], "M": M, "N": N},
        })
        out = tmp_path / "m.json"
        assert main(["condense", net, "--mode", "general", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "not eliminable")
        assert not out.exists()

    @pytest.mark.parametrize("doc,fragment", [
        ({"blocks": []}, "'ports'"),
        ({"ports": [[[0.], [0.], [1.]], [[-1.], [0.]]],
          "blocks": [{"j": 1, "C": [[-1.]]}]}, "'i'"),
        ({"ports": [[[0.], [0.], [1.]], [[-1.], [0.]]],
          "blocks": [{"i": 0, "C": [[-1.]]}]}, "'j'"),
        ({"ports": [[[0.], [0.], [1.]], [[-1.], [0.]]],
          "blocks": [{"i": 0, "j": 1}]}, "'C'"),
    ], ids=["no-ports", "no-i", "no-j", "no-C"])
    def test_decouple_malformed_ports_document_exit_1(self, tmp_path, capsys, doc, fragment):
        ports = write_json(tmp_path / "ports.json", doc)
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "--ports", ports]) == 1
        assert_one_line_error(capsys, fragment)

    def test_decouple_ports_not_json_exit_1(self, tmp_path, capsys):
        ports = tmp_path / "ports.json"
        ports.write_text("{ports: nope")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "--ports", str(ports)]) == 1
        assert_one_line_error(capsys, "ports.json")

    def test_decouple_missing_ports_file_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "--ports", missing]) == 1
        assert_one_line_error(capsys, "absent.json")

    def test_condense_phdae_mode(self, tmp_path):
        sub = {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]}
        net = write_json(tmp_path / "net.json", {
            "kind": "network", "subsystems": [sub, sub],
            "coupling": {"type": "relation", "ports": [[[1.]], [[1.]]],
                         "M": [[1., 0.], [0., 1.]],
                         "N": [[0., -1.], [1., 0.]]},
        })
        out = str(tmp_path / "dae.json")
        assert main(["condense", net, "--mode", "phdae", "-o", out]) == 0
        assert json.loads(Path(out).read_text())["kind"] == "phdae"

    def test_phdae_document_condenses_as_its_network(self, tmp_path):
        # off-diagonal dissipation decouples into a relation network (case 2)
        src = write_json(tmp_path / "sys.json", {
            "n": 4, "J": [[0., -1., 0., 0.], [1., 0., 0., 0.],
                          [0., 0., 0., -2.], [0., 0., 2., 0.]],
            "R": [[1., 0., .3, 0.], [0., 1., 0., .2],
                  [.3, 0., 1., 0.], [0., .2, 0., 1.]]})
        net, dae = str(tmp_path / "net.json"), str(tmp_path / "dae.json")
        direct, via = tmp_path / "direct.json", tmp_path / "via.json"
        assert main(["decouple", src, "--partition", "2,2", "-o", net]) == 0
        assert json.loads(Path(net).read_text())["coupling"]["type"] == "relation"
        assert main(["condense", net, "--mode", "general", "-o", str(direct)]) == 0
        assert main(["condense", net, "--mode", "phdae", "-o", dae]) == 0
        assert main(["condense", dae, "--mode", "general", "-o", str(via)]) == 0
        assert via.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("coupling", [
        {"type": "general", "C": [[0., 2.], [2., 0.]]},
        {"type": "relation", "M": [[1., 0.], [0., 1.]], "N": [[0., 2.], [2., 0.]]},
    ], ids=["general", "relation"])
    def test_condense_indefinite_exit_2_names_no_lift(self, tmp_path, capsys, coupling):
        doc = general_network_doc(None)
        doc["coupling"] = {"ports": [[[1.]], [[1.]]], **coupling}
        net = write_json(tmp_path / "net.json", doc)
        assert main(["condense", net, "--mode", "general",
                     "-o", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("phode: ") and err.count("\n") == 1
        assert "indefinite" in err and "build_phdae" not in err


class TestSimulateAndReport:
    def test_simulate_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "traj.csv")
        assert main(["simulate", TWO_MASS, "--x0", "1,0.5,-0.3,0.2,0.4",
                     "--t1", "1", "--dt", "0.01", "-o", out]) == 0
        t, x, h, res = read_trajectory(Path(out).read_text())
        assert len(t) == 101 and x.shape == (101, 5)
        assert main(["report", out, TWO_MASS]) == 0
        rpt = capsys.readouterr().out
        assert "max balance residual" in rpt

    def test_simulate_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["simulate", TWO_MASS, "--x0", "1,0,0,0,0",
                "--t1", "2", "--dt", "0.01"]
        assert main(args + ["-o", a]) == 0
        assert main(args + ["-o", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_strang_method(self, tmp_path):
        out = str(tmp_path / "traj.csv")
        assert main(["simulate", TWO_MASS, "--x0", "1,0,0,0,0",
                     "--t1", "1", "--method", "strang", "-o", out]) == 0

    def test_singular_system_numerical_failure_exit_4(self, tmp_path):
        maxwell = str(tmp_path / "maxwell.json")
        assert main(["model", "maxwell", "-o", maxwell]) == 0
        n = json.loads(Path(maxwell).read_text())["n"]
        x0 = ",".join(["0"] * n)
        assert main(["simulate", maxwell, "--x0", x0,
                     "-o", str(tmp_path / "t.csv")]) == 4

    def test_negative_x0_list_as_separate_argument(self, tmp_path):
        out = str(tmp_path / "traj.csv")
        assert main(["simulate", TWO_MASS, "--x0", "-0.3,0.5,0.1,0.2,-0.4",
                     "--t1", "0.1", "-o", out]) == 0
        _, x, _, _ = read_trajectory(Path(out).read_text())
        assert np.array_equal(x[0], [-0.3, 0.5, 0.1, 0.2, -0.4])

    def test_bad_x0_exit_1(self, tmp_path):
        assert main(["simulate", TWO_MASS, "--x0", "1,2",
                     "-o", str(tmp_path / "t.csv")]) == 1

    @pytest.mark.parametrize("x0", ["nan,0,0,0,0", "1,inf,0,0,0", "1,0,0,0,-inf"])
    def test_non_finite_x0_exit_1(self, tmp_path, capsys, x0):
        out = tmp_path / "t.csv"
        assert main(["simulate", TWO_MASS, "--x0", x0, "-o", str(out)]) == 1
        assert_one_line_error(capsys, "finite")
        assert not out.exists()

    def test_diverging_trajectory_exit_4_without_csv(self, tmp_path, capsys):
        unstable = write_json(tmp_path / "unstable.json",
                              {"n": 1, "J": [[0.]], "R": [[-1000.]], "L": [[1.]]})
        out = tmp_path / "t.csv"
        assert main(["simulate", unstable, "--no-validate", "--x0", "1e200",
                     "-o", str(out)]) == 4
        assert_one_line_error(capsys, "not finite")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--t1", "inf"), ("--t1", "nan"),
                                             ("--t0", "inf"), ("--dt", "nan"),
                                             ("--dt", "0")])
    def test_bad_time_argument_exit_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "t.csv"
        assert main(["simulate", TWO_MASS, "--x0", "1,0,0,0,0", flag, value,
                     "-o", str(out)]) == 1
        assert_one_line_error(capsys, flag[2:])
        assert not out.exists()

    @pytest.mark.parametrize("t1", ["1e12", "1e300"])
    def test_step_count_beyond_memory_exit_1(self, tmp_path, capsys, t1):
        out = tmp_path / "t.csv"
        assert main(["simulate", TWO_MASS, "--x0", "1,0,0,0,0", "--t1", t1,
                     "-o", str(out)]) == 1
        assert_one_line_error(capsys, "lower --t1 or raise --dt")
        assert not out.exists()

    @pytest.mark.parametrize("body", ["0,1,2,3,4,5,abc,0\n",
                                      "0,1,2,3,4,5,6,0\n0.01,1,2\n",
                                      "0,1,2,3,4,5,6,0\n0,1,2,3,4,5,6,0\n"])
    def test_report_malformed_csv_exit_1(self, tmp_path, capsys, body):
        csv = tmp_path / "bad.csv"
        csv.write_text("t,x1,x2,x3,x4,x5,H,balance_residual\n" + body)
        assert main(["report", str(csv), TWO_MASS]) == 1
        assert_one_line_error(capsys, "bad.csv")


class TestCosim:
    def test_cosim_close_to_monolithic(self, tmp_path):
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2",
                     "-o", net]) == 0
        out = str(tmp_path / "traj.csv")
        assert main(["cosim", net, "--mode", "gauss-seidel", "--window", "0.1",
                     "--sweeps", "8", "--dt", "0.01", "--t1", "1",
                     "--x0", "1,0.5,-0.3,0.2,0.4", "-o", out]) == 0
        mono = str(tmp_path / "mono.csv")
        assert main(["simulate", TWO_MASS, "--x0", "1,0.5,-0.3,0.2,0.4",
                     "--t1", "1", "--dt", "0.01", "-o", mono]) == 0
        _, xa, _, _ = read_trajectory(Path(out).read_text())
        _, xb, _, _ = read_trajectory(Path(mono).read_text())
        assert np.max(np.abs(xa - xb)) <= 1e-8

    def test_negative_x0_list_as_separate_argument(self, tmp_path):
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", net]) == 0
        out = str(tmp_path / "traj.csv")
        assert main(["cosim", net, "--x0", "-0.3,0.5,0.1,0.2,-0.4",
                     "--t1", "0.2", "-o", out]) == 0
        _, x, _, _ = read_trajectory(Path(out).read_text())
        assert np.array_equal(x[0], [-0.3, 0.5, 0.1, 0.2, -0.4])


    def test_cosim_condenses_once(self, tmp_path, monkeypatch):
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", net]) == 0
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (phode.coupling, phode.cli):
            monkeypatch.setattr(mod, "condense_skew", counted(mod.condense_skew))
        assert main(["cosim", net, "--x0", "1,0.5,-0.3,0.2,0.4", "--t1", "0.2",
                     "-o", str(tmp_path / "traj.csv")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("sweeps", ["0", "-2"])
    def test_sweeps_below_one_exit_1(self, tmp_path, capsys, sweeps):
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", net]) == 0
        out = tmp_path / "traj.csv"
        assert main(["cosim", net, "--x0", "1,0,0,0,0", "--sweeps", sweeps,
                     "--t1", "0.2", "-o", str(out)]) == 1
        assert_one_line_error(capsys, "sweeps")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--t1", "inf"), ("--t1", "nan"),
                                             ("--dt", "0"), ("--dt", "nan"),
                                             ("--window", "nan"), ("--window", "0")])
    def test_bad_time_argument_exit_1(self, tmp_path, capsys, flag, value):
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", net]) == 0
        capsys.readouterr()
        out = tmp_path / "traj.csv"
        assert main(["cosim", net, "--x0", "1,0,0,0,0", flag, value, "-o", str(out)]) == 1
        assert_one_line_error(capsys, flag[2:])
        assert not out.exists()

    @pytest.mark.parametrize("t1", ["1e12", "1e300"])
    def test_step_count_beyond_memory_exit_1(self, tmp_path, capsys, t1):
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", net]) == 0
        out = tmp_path / "traj.csv"
        assert main(["cosim", net, "--x0", "1,0,0,0,0", "--t1", t1, "-o", str(out)]) == 1
        assert_one_line_error(capsys, "lower --t1 or raise --dt")
        assert not out.exists()

    def test_general_coupling_reports_against_condense_general(self, tmp_path, capsys):
        # C = [[1, 2], [0, 1]] is not skew; its symmetric part is semidefinite
        net = tmp_path / "net.json"
        write_json(net, general_network_doc([[1., 2.], [0., 1.]]))
        out = tmp_path / "traj.csv"
        assert main(["cosim", str(net), "--x0", "1,-0.5", "--sweeps", "30", "--t1", "0.5",
                     "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        obj = parse_system_text(net.read_text())
        traj = dynamic_iteration(obj, sweeps=30, x0=[1, -0.5], t1=0.5)
        assert out.read_text() == write_trajectory(traj,
                                                   energy_report(traj, condense_general(obj)))

    def test_indefinite_coupling_exit_2(self, tmp_path, capsys):
        net = write_json(tmp_path / "net.json", general_network_doc([[0., 2.], [2., 0.]]))
        out = tmp_path / "traj.csv"
        assert main(["cosim", net, "--x0", "1,-0.5", "--t1", "0.2", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "indefinite")
        assert not out.exists()

    def test_port_relation_exit_1(self, tmp_path, capsys):
        doc = general_network_doc(None)
        doc["coupling"] = {"type": "relation", "ports": [[[1.]], [[1.]]],
                           "M": [[1., 0.], [0., 1.]], "N": [[0., -1.], [1., 0.]]}
        net = write_json(tmp_path / "net.json", doc)
        assert main(["cosim", net, "--x0", "1,-0.5", "--t1", "0.2",
                     "-o", str(tmp_path / "traj.csv")]) == 1
        assert_one_line_error(capsys, "not a port relation")

    def test_one_inner_name_for_every_subsystem(self, tmp_path):
        net = tmp_path / "net.json"
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", str(net)]) == 0
        out = tmp_path / "traj.csv"
        assert main(["cosim", str(net), "--x0", "1,0.5,-0.3,0.2,0.4", "--inner", "strang",
                     "--sweeps", "8", "--t1", "0.2", "-o", str(out)]) == 0
        obj = parse_system_text(net.read_text())
        traj = dynamic_iteration(obj, sweeps=8, inner="strang", x0=[1, 0.5, -0.3, 0.2, 0.4],
                                 t1=0.2)
        assert out.read_text() == write_trajectory(traj, energy_report(traj, condense_skew(obj)))
        # a comma list still names one integrator per subsystem
        assert main(["cosim", str(net), "--x0", "1,0,0,0,0", "--inner", "strang,midpoint",
                     "--t1", "0.2", "-o", str(out)]) == 0
        assert main(["cosim", str(net), "--x0", "1,0,0,0,0", "--inner", "strang,midpoint,strang",
                     "--t1", "0.2", "-o", str(out)]) == 1

    def test_unconverged_cosim_warns_on_one_line(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", str(net)]) == 0
        capsys.readouterr()
        argv = ["cosim", str(net), "--x0", "1,0.5,-0.3,0.2,0.4", "--sweeps", "2",
                "--t1", "0.2"]
        out = tmp_path / "traj.csv"
        assert main(argv + ["-o", str(out)]) == 0
        written = capsys.readouterr()
        assert written.out == ""
        assert written.err.startswith("phode: warning: ") and written.err.count("\n") == 1
        assert "in window 2 of 2 (t = 0.1 to 0.2) the last of 2 sweeps" in written.err
        # the warning changes neither the CSV nor standard output
        obj = parse_system_text(net.read_text())
        with pytest.warns(RuntimeWarning):
            traj = dynamic_iteration(obj, sweeps=2, x0=[1, 0.5, -0.3, 0.2, 0.4], t1=0.2)
        assert out.read_text() == write_trajectory(traj, energy_report(traj, condense_skew(obj)))
        assert main(argv) == 0
        assert capsys.readouterr() == (out.read_text(), written.err)

    def test_converged_cosim_prints_nothing_on_stderr(self, tmp_path, capsys):
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", net]) == 0
        assert main(["cosim", net, "--x0", "1,0.5,-0.3,0.2,0.4", "--sweeps", "20",
                     "--t1", "0.2", "-o", str(tmp_path / "traj.csv")]) == 0
        assert capsys.readouterr().err == ""


class TestModelCommand:
    def test_emit_and_validate(self, tmp_path):
        out = str(tmp_path / "sys.json")
        assert main(["model", "two-mass", "--params", "r1=0.2,r2=0.3",
                     "-o", out]) == 0
        sys = parse_system_text(Path(out).read_text())
        assert sys.R[0, 0] == 0.2 and sys.R[3, 3] == 0.3
        assert main(["validate", out]) == 0

    def test_unknown_model_exit_1(self):
        assert main(["model", "three-mass"]) == 1

    def test_bad_params_exit_1(self):
        assert main(["model", "two-mass", "--params", "m1=-1"]) == 1

    @pytest.mark.parametrize("name, params", [
        ("two-mass", "m1=nan"), ("two-mass", "K=inf"), ("poroelastic", "rho=nan"),
        ("poroelastic", "alpha=-inf"), ("poroelastic", "rho=0"),
        ("poroelastic", "nu=0"), ("poroelastic", "kappa=-1"),
    ])
    def test_non_finite_or_non_physical_params_exit_1(self, tmp_path, capsys, name, params):
        out = tmp_path / "model.json"
        assert main(["model", name, "--params", params, "-o", str(out)]) == 1
        assert_one_line_error(capsys, "bad parameters")
        assert not out.exists()

    @pytest.mark.parametrize("params", ["mu=-7", "lam=2"])
    def test_unused_poroelastic_params_exit_1(self, tmp_path, capsys, params):
        out = tmp_path / "model.json"
        assert main(["model", "poroelastic", "--params", params, "-o", str(out)]) == 1
        assert_one_line_error(capsys, "bad parameters")
        assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = str(Path(phode.cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import phode, phode.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
