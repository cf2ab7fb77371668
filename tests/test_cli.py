import errno
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

try:
    import resource
except ImportError:   # not on Windows
    resource = None

import numpy as np
import pytest

import phode.cli
import phode.core
import phode.coupling
import phode.integrate
from phode.cli import main
from phode.coupling import CoupledNetwork, CouplingSpec, condense_general, condense_skew
from phode.fileio import dump_document, parse_system_text, read_trajectory, write_trajectory
from phode.integrate import dynamic_iteration, energy_report
from phode.models import two_mass

from util import random_linear_ph, random_separable, svd_rcond

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


def feedthrough_network_doc():
    """Two one-state subsystems, the first with R = P = S = B = 1 (W on the
    boundary of semidefiniteness), coupled by a C that keeps the assembled
    R definite and makes the assembled W indefinite (min eigenvalue -0.281)."""
    sub = {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]}
    return {"kind": "network",
            "subsystems": [{**sub, "B": [[1.]], "P": [[1.]], "S": [[1.]]}, sub],
            "coupling": {"type": "general", "ports": [[[1.]], [[1.]]],
                         "C": [[-0.5, 0.3], [-0.3, 0.]]}}


def no_memory(*args, **kwargs):
    raise MemoryError


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

    def test_network_reports_are_labelled_as_the_load_check_labels_them(self, tmp_path,
                                                                          capsys):
        # "subsystem i" for every network, a network of one subsystem too
        sub = {"n": 1, "J": [[0.]], "R": [[-1.]]}
        net = write_json(tmp_path / "net.json", {
            "kind": "network", "subsystems": [sub],
            "coupling": {"type": "skew", "ports": [[[1.]]], "C": [[0.]]}})
        assert main(["validate", net]) == 2
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "== subsystem 1 =="
        assert main(["condense", net]) == 2
        assert "structure validation failed: subsystem 1: " in capsys.readouterr().err

    @pytest.mark.parametrize("J,R,row", [
        ([[0., 0.], [0., 0.]], [[1.5e308, 0.], [0., -1e300]],
         "FAIL  W positive semidefinite: min eigenvalue -1.000e+300"),
        ([[0., 1.5e308], [1.5e308, 0.]], [[0., 0.], [0., 0.]],
         "FAIL  Gamma skew-symmetric: max violation inf"),
    ], ids=["indefinite-R", "symmetric-J"])
    def test_entries_above_half_the_float_range_exit_2(self, tmp_path, capsys, J, R, row):
        doc = write_json(tmp_path / "big.json", {"n": 2, "J": J, "R": R})
        assert main(["validate", doc]) == 2
        out, err = capsys.readouterr()
        assert row in out.splitlines() and err == ""

    @pytest.mark.parametrize("tol", ["1e-5", "inf"])
    def test_tol_is_a_usage_error(self, tmp_path, capsys, tol):
        # validate checks at the tolerance of every command that loads a
        # document, so a J skew only to 1e-6 fails it as simulate refuses it
        doc = write_json(tmp_path / "skewish.json",
                         {"n": 2, "J": [[0., 1.], [-1. + 1e-6, 0.]], "R": [[1., 0.], [0., 1.]]})
        assert main(["validate", doc, "--tol", tol]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1] == f"phode: unrecognized arguments: --tol {tol}"
        assert main(["validate", doc]) == 2
        assert main(["simulate", doc, "--x0", "1,0", "--t1", "0.1"]) == 2

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

    def test_decouple_with_ports_verification_failure_exit_3(self, tmp_path, capsys):
        ports = write_json(tmp_path / "ports.json", {
            "ports": [[[1.], [0.], [0.]], [[-1.], [0.]]],
            "blocks": [{"i": 0, "j": 1, "C": [[-1.]]}],
        })
        out = tmp_path / "out.json"
        assert main(["decouple", TWO_MASS, "--partition", "3,2",
                     "--ports", ports, "-o", str(out)]) == 3
        assert_one_line_error(capsys, "block pair (0, 1): max residual 1.000e+00")
        assert not out.exists()

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
        assert_one_line_error(capsys, "block pair (1, 0)")
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

    def test_decouple_effort_matrix_below_the_old_floor_exit_2(self, tmp_path, capsys):
        # Q = E^T L underflows to 0, so only L's own off-diagonal blocks
        # show that the split drops them; they are far below an absolute
        # 1e-12, not below 1e-12 max|L|
        system = write_json(tmp_path / "sys.json", {
            "n": 2, "J": [[0., 0.], [0., 0.]], "R": [[0., 0.], [0., 0.]],
            "E": [[2.3e-308, 0.], [0., 2.3e-308]], "L": [[2e-17, 5e-17], [5e-17, 2e-17]]})
        out = tmp_path / "out.json"
        assert main(["decouple", system, "--partition", "1,1", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "effort matrix not block-diagonal")
        assert not out.exists()

    def test_decouple_tiny_coupling_block_exit_3(self, tmp_path, capsys):
        # a zero C_01 would drop J_01 = 5e-17; the residual is judged
        # against the blocks' own size, not against 1
        system = write_json(tmp_path / "sys.json", {
            "n": 2, "J": [[0., 5e-17], [-5e-17, 0.]], "R": [[1., 0.], [0., 1.]]})
        ports = write_json(tmp_path / "ports.json", {
            "ports": [[[1.]], [[1.]]], "blocks": [{"i": 0, "j": 1, "C": [[0.]]}]})
        out = tmp_path / "out.json"
        assert main(["decouple", system, "--partition", "1,1",
                     "--ports", ports, "-o", str(out)]) == 3
        assert_one_line_error(capsys, "block pair (0, 1): max residual 5.000e-17")
        assert not out.exists()

    @pytest.mark.parametrize("blocks, message", [
        ([{"i": 0.5, "j": 1, "C": [[0.]]}], "block index 'i' must be an integer, got 0.5"),
        ([{"i": 0, "j": True, "C": [[0.]]}], "block index 'j' must be an integer, got true"),
        ([{"i": 0, "j": 1, "C": [[0.]]}, {"i": 0, "j": 1, "C": [[1.]]}],
         "block (0, 1) given twice"),
    ], ids=["half", "true", "repeated"])
    def test_decouple_bad_block_indices_exit_1(self, tmp_path, capsys, blocks, message):
        ports = write_json(tmp_path / "ports.json", {
            "ports": [[[0.], [0.], [1.]], [[-1.], [0.]]], "blocks": blocks})
        out = tmp_path / "out.json"
        assert main(["decouple", TWO_MASS, "--partition", "3,2",
                     "--ports", ports, "-o", str(out)]) == 1
        assert_one_line_error(capsys, message)
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

    def test_condense_phdae_calls_build_phdae_once(self, tmp_path, monkeypatch):
        # perfbench/tracing.py times the command through this name
        sub = {"n": 1, "J": [[0.]], "R": [[1.]]}
        net = write_json(tmp_path / "net.json", {
            "kind": "network", "subsystems": [sub, sub],
            "coupling": {"type": "relation", "ports": [[[1.]], [[1.]]],
                         "M": [[1., 0.], [0., 1.]], "N": [[0., -1.], [1., 0.]]},
        })
        dae = str(tmp_path / "dae.json")
        calls = []
        build_phdae = phode.cli.build_phdae
        monkeypatch.setattr(phode.cli, "build_phdae",
                            lambda obj: calls.append(obj) or build_phdae(obj))
        assert main(["condense", net, "--mode", "phdae", "-o", dae]) == 0
        assert len(calls) == 1

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

    def test_condense_skew_of_relation_names_the_general_mode(self, tmp_path, capsys):
        # a relation with skew M^-1 N condenses in skew mode, to the document
        # of the general mode
        doc = general_network_doc(None)
        ports, eye = [[[1.]], [[1.]]], [[1., 0.], [0., 1.]]
        doc["coupling"] = {"type": "relation", "ports": ports, "M": eye,
                           "N": [[0., -1.], [1., 0.]]}
        net = write_json(tmp_path / "net.json", doc)
        skew, general = tmp_path / "skew.json", tmp_path / "general.json"
        assert main(["condense", net, "--mode", "skew", "-o", str(skew)]) == 0
        assert main(["condense", net, "--mode", "general", "-o", str(general)]) == 0
        assert skew.read_bytes() == general.read_bytes()
        # a non-skew M^-1 N or C is refused in skew mode, naming the general mode
        for coupling in ({"type": "relation", "M": eye, "N": [[0., 1.], [1., 0.]]},
                         {"type": "general", "C": [[0., 1.], [1., 0.]]}):
            doc["coupling"] = {"ports": ports, **coupling}
            net = write_json(tmp_path / "net.json", doc)
            out = tmp_path / "m.json"
            assert main(["condense", net, "--mode", "skew", "-o", str(out)]) == 2
            assert_one_line_error(capsys, "phode condense --mode general")
            assert not out.exists()
            # the advice works
            assert main(["condense", net, "--mode", "general", "-o", str(out)]) == 0
            assert json.loads(out.read_text())["n"] == 2
            out.unlink()

    @pytest.mark.parametrize("C, skew_error", [
        ([[-1e-13, 1.], [-1., 0.]], "indefinite (min eigenvalue -9.000e-02)"),
        ([[-1e-13, 0.], [0., 0.]], "not skew-symmetric; use condense_general "
                                   "(phode condense --mode general)")],
        ids=["skew-to-tolerance", "small-general"])
    def test_near_skew_coupling_checks_w_exit_2(self, tmp_path, capsys, C, skew_error):
        # C's symmetric remainder times the port 1e6 makes R indefinite; a C
        # skew to the tolerance relative to its entries takes the skew path
        # and has W checked there, a C of small entries is not skew at all
        doc = general_network_doc(C)
        doc["subsystems"][0]["R"] = [[0.01]]
        doc["coupling"]["ports"][0] = [[1e6]]
        net = write_json(tmp_path / "net.json", doc)
        out = tmp_path / "out"
        for argv, error in ((["condense", net, "--mode", "skew"], skew_error),
                            (["cosim", net, "--x0", "1,1"],
                             "indefinite (min eigenvalue -9.000e-02)")):
            assert main(argv + ["-o", str(out)]) == 2
            assert_one_line_error(capsys, error)
            assert not out.exists()

    def test_coupling_skew_to_5e_11_is_general_only(self, tmp_path, capsys):
        # C + C^T is 5e-11 of C's largest entry: above SKEW_COUPLING_TOL, so
        # skew mode refuses C, while its symmetric part (2.5e-11 I) leaves W
        # semidefinite, and the general mode condenses into a valid system
        assert phode.core.SKEW_COUPLING_TOL < 5e-11 < phode.core.STRUCTURE_TOL
        net = write_json(tmp_path / "net.json",
                         general_network_doc([[2.5e-11, 1.], [-1., 2.5e-11]]))
        out = tmp_path / "m.json"
        assert main(["condense", net, "--mode", "skew", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "not skew-symmetric; use condense_general")
        assert not out.exists()
        assert main(["condense", net, "--mode", "general", "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["condense", "--mode", "skew"],
                                      ["condense", "--mode", "general"],
                                      ["cosim", "--x0", "1,1"]], ids=["skew", "general", "cosim"])
    def test_overflowing_relation_exit_4(self, tmp_path, capsys, argv):
        doc = general_network_doc(None)
        doc["coupling"] = {"type": "relation", "ports": [[[1.]], [[1.]]],
                           "M": [[1e-300, 0.], [0., 1e-300]], "N": [[0., 1e10], [-1e10, 0.]]}
        net = write_json(tmp_path / "net.json", doc)
        out = tmp_path / "out"
        assert main([argv[0], net, *argv[1:], "-o", str(out)]) == 4
        assert_one_line_error(capsys, "coupling matrix is not finite: M^-1 N overflows")
        assert not out.exists()

    def test_condense_general_checks_w_exit_2(self, tmp_path, capsys):
        net = write_json(tmp_path / "net.json", feedthrough_network_doc())
        out = tmp_path / "m.json"
        assert main(["condense", net, "--mode", "general", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "indefinite (min eigenvalue -2.808e-01)")
        assert not out.exists()


class TestLoadCheck:
    # R = diag(1, -1) makes W indefinite; the network holds it as subsystem 2
    SYSTEM = {"n": 2, "J": [[0., 0.], [0., 0.]], "R": [[1., 0.], [0., -1.]]}
    FAILED = "structure validation failed: W positive semidefinite: min eigenvalue -1.000e+00"

    def documents(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", self.SYSTEM)
        sub = {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]}
        net = write_json(tmp_path / "net.json", {
            "kind": "network", "subsystems": [sub, self.SYSTEM],
            "coupling": {"type": "skew", "ports": [[[1.]], [[1.], [0.]]],
                         "C": [[0., 1.], [-1., 0.]]}})
        return bad, net

    @pytest.mark.parametrize("command", ["condense", "decouple", "simulate", "cosim",
                                         "report"])
    def test_one_line_exit_2_no_file(self, tmp_path, capsys, command):
        bad, net = self.documents(tmp_path)
        out = tmp_path / "out"
        # a trajectory of as many states as the failing system
        good = write_json(tmp_path / "good.json", {**self.SYSTEM, "R": [[1., 0.], [0., 1.]]})
        traj = str(tmp_path / "traj.csv")
        assert main(["simulate", good, "--x0=1,1", "--t1", "0.1", "-o", traj]) == 0
        argv, path, where = {
            "condense": (["condense", net, "-o", str(out)], net, "subsystem 2: "),
            "decouple": (["decouple", bad, "--partition", "1,1", "-o", str(out)], bad, ""),
            "simulate": (["simulate", bad, "--x0=1,1", "-o", str(out)], bad, ""),
            "cosim": (["cosim", net, "--x0=1,1,1", "-o", str(out)], net, "subsystem 2: "),
            "report": (["report", traj, bad], bad, ""),
        }[command]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        failed = self.FAILED.replace("W positive", where + "W positive")
        assert err == f"phode: {path}: {failed}\n" and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["condense", "decouple", "simulate", "cosim",
                                         "report"])
    def test_no_option_skips_the_check(self, tmp_path, capsys, command):
        bad, net = self.documents(tmp_path)
        out = tmp_path / "out"
        argv = {"condense": ["condense", net, "-o", str(out)],
                "decouple": ["decouple", bad, "--partition", "1,1", "-o", str(out)],
                "simulate": ["simulate", bad, "--x0=1,1", "-o", str(out)],
                "cosim": ["cosim", net, "--x0=1,1,1", "-o", str(out)],
                "report": ["report", str(tmp_path / "traj.csv"), bad]}[command]
        assert main([*argv, "--no-validate"]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("usage: phode ")
        assert err.splitlines()[-1] == "phode: unrecognized arguments: --no-validate"
        assert not out.exists()


    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    @pytest.mark.parametrize("command, expected", [
        ("condense", "network"), ("decouple", "linear system"), ("simulate", "linear system"),
        ("cosim", "network"), ("report", "linear system")])
    def test_wrong_kind_after_the_check(self, tmp_path, capsys, command, expected, valid):
        # a document of the wrong kind exits 1 with one line; one that also
        # fails the structure check exits 2, as any failing document does
        bad, bad_net = self.documents(tmp_path)
        system = {**self.SYSTEM, "R": [[1., 0.], [0., 1.]]} if valid else self.SYSTEM
        net = json.loads(Path(bad_net).read_text())
        net["subsystems"][1] = system
        docs = {"network": write_json(tmp_path / "wrong_net.json", net),
                "linear system": write_json(tmp_path / "wrong_sys.json", system)}
        doc = docs["network" if expected == "linear system" else "linear system"]
        out = tmp_path / "out"
        argv = {"condense": ["condense", doc, "-o", str(out)],
                "decouple": ["decouple", doc, "--partition", "1,1", "-o", str(out)],
                "simulate": ["simulate", doc, "--x0=1,1", "-o", str(out)],
                "cosim": ["cosim", doc, "--x0=1,1", "-o", str(out)],
                "report": ["report", str(tmp_path / "traj.csv"), doc]}[command]
        assert main(argv) == (1 if valid else 2)
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        if valid:
            assert err == f"phode: {doc}: expected a {expected} document\n"
        else:
            assert "structure validation failed" in err
        assert not out.exists()


def flow_matrices(path) -> list:
    """E of the system, or of each subsystem of the network, at ``path``."""
    obj = parse_system_text(Path(path).read_text())
    return [sub.E for sub in getattr(obj, "subsystems", (obj,))]


def spy_svd(monkeypatch) -> list:
    """The matrices of every ``np.linalg.svd`` call from now on."""
    taken, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: taken.append(a) or svd(a, **kw))
    return taken


class TestSvdOfE:
    """E's SVD is taken only where its reciprocal condition is used: by
    ``validate``, which prints it, and by a run, which refuses a singular
    E; the load check of every command takes none."""

    @staticmethod
    def documents(tmp_path) -> dict:
        """A system, a network and a separable system (for decouple), each E
        invertible and no identity, which would take no SVD at all."""
        rng = np.random.default_rng(8)
        subs = tuple(random_linear_ph(rng, n=k, m=0, implicit=True) for k in (2, 3))
        ports = tuple(rng.standard_normal((k, 1)) for k in (2, 3))
        sep = random_separable(rng, (2, 2))
        objs = {"system": random_linear_ph(rng, n=4, m=1, implicit=True),
                "network": CoupledNetwork(subs, CouplingSpec(ports, [[0., 1.], [-1., 0.]])),
                "separable": replace(sep, E=2.0 * sep.E, L=0.5 * sep.L)}
        paths = {name: str(tmp_path / f"{name}.json") for name in objs}
        for name, obj in objs.items():
            Path(paths[name]).write_text(dump_document(obj))
        return paths

    @pytest.mark.parametrize("command", ["report", "condense", "decouple", "cosim"])
    def test_commands_take_no_svd_of_e(self, tmp_path, monkeypatch, capsys, command):
        docs = self.documents(tmp_path)
        traj = str(tmp_path / "traj.csv")
        assert main(["simulate", docs["system"], "--x0=1,0,0,0", "--t1", "0.1", "-o", traj]) == 0
        argv, path = {
            "report": (["report", traj, docs["system"]], docs["system"]),
            "condense": (["condense", docs["network"]], docs["network"]),
            "decouple": (["decouple", docs["separable"], "--partition", "2,2"], docs["separable"]),
            "cosim": (["cosim", docs["network"], "--x0=1,0,0,0,0", "--t1", "0.2",
                       "--sweeps", "20"], docs["network"]),
        }[command]
        flows = flow_matrices(path)
        taken = spy_svd(monkeypatch)
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert not [a for a in taken if any(np.array_equal(a, E) for E in flows)]

    @pytest.mark.parametrize("name", ["system", "network"])
    def test_validate_prints_the_rcond_of_one_svd(self, tmp_path, monkeypatch, capsys, name):
        path = self.documents(tmp_path)[name]
        flows = flow_matrices(path)
        expected = [f"PASS  E regular: rcond {svd_rcond(E):.3e}" for E in flows]
        taken = spy_svd(monkeypatch)
        assert main(["validate", path]) == 0
        assert [ln for ln in capsys.readouterr().out.splitlines() if "E regular" in ln] == expected
        assert len(taken) == len(flows)
        assert all(np.array_equal(a, E) for a, E in zip(taken, flows))

    def test_simulate_takes_it_in_the_run_not_the_load(self, tmp_path, monkeypatch):
        path = self.documents(tmp_path)["system"]
        [E] = flow_matrices(path)
        taken = spy_svd(monkeypatch)
        system = phode.cli._load(path, phode.cli.LinearPHSystem)
        assert taken == []
        phode.integrate.implicit_midpoint(system, x0=np.ones(4), t1=0.1)
        assert sum(np.array_equal(a, E) for a in taken) == 1


class TestSimulateAndReport:
    def test_one_svd_of_e_per_simulate(self, tmp_path, monkeypatch):
        # the load check and the run share the rcond of E, computed once
        calls = []
        rcond = phode.core._rcond

        def spy(mat):
            calls.append(mat)
            return rcond(mat)

        monkeypatch.setattr(phode.core, "_rcond", spy)
        monkeypatch.setattr(phode.integrate, "_rcond", spy)
        sys = random_linear_ph(np.random.default_rng(3), n=4, m=1, implicit=True)
        src = tmp_path / "sys.json"
        src.write_text(dump_document(sys))
        E = parse_system_text(src.read_text()).E
        assert main(["simulate", str(src), "--x0=1,0,0,0", "--t1", "0.1",
                     "-o", str(tmp_path / "traj.csv")]) == 0
        assert len(calls) > 1 and sum(np.array_equal(mat, E) for mat in calls) == 1

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
        # H = x^2 / 2 of x0 = 1e200 is beyond the float range
        one = write_json(tmp_path / "one.json", {"n": 1, "J": [[0.]], "R": [[1.]], "L": [[1.]]})
        out = tmp_path / "t.csv"
        assert main(["simulate", one, "--x0", "1e200", "-o", str(out)]) == 4
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

    def test_out_of_memory_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(phode.cli, "write_trajectory", no_memory)
        out = tmp_path / "t.csv"
        assert main(["simulate", TWO_MASS, "--x0", "1,0,0,0,0", "--t1", "0.1",
                     "-o", str(out)]) == 1
        assert_one_line_error(capsys, "out of memory")
        assert not out.exists()

    def test_report_out_of_memory_exit_1(self, tmp_path, capsys, monkeypatch):
        csv = tmp_path / "t.csv"
        assert main(["simulate", TWO_MASS, "--x0", "1,0,0,0,0", "--t1", "0.1",
                     "-o", str(csv)]) == 0
        # an 11-row CSV, under doccache.MIN_BYTES: report parses it, through
        # the patched name, where a cached table would skip the parse
        monkeypatch.setattr(phode.cli, "read_trajectory", no_memory)
        assert main(["report", str(csv), TWO_MASS]) == 1
        assert_one_line_error(capsys, "out of memory")

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

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (phode.coupling, phode.cli):
            for name in ("condense_skew", "condense_general"):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        assert main(["cosim", net, "--x0", "1,0.5,-0.3,0.2,0.4", "--t1", "0.2",
                     "-o", str(tmp_path / "traj.csv")]) == 0
        assert calls == ["condense_general"]

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

    def test_out_of_memory_exit_1(self, tmp_path, capsys, monkeypatch):
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", net]) == 0
        monkeypatch.setattr(phode.cli, "write_trajectory", no_memory)
        out = tmp_path / "traj.csv"
        assert main(["cosim", net, "--x0", "1,0,0,0,0", "--sweeps", "20", "--t1", "0.2",
                     "-o", str(out)]) == 1
        assert_one_line_error(capsys, "out of memory")
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
        # a relation runs with its coupling matrix: M = 2 I, N = 2 C writes
        # the CSV of the network with C, byte for byte
        doc = general_network_doc([[0., -1.], [1., 0.]])
        matrix = write_json(tmp_path / "matrix.json", doc)
        doc["coupling"] = {"type": "relation", "ports": [[[1.]], [[1.]]],
                           "M": [[2., 0.], [0., 2.]], "N": [[0., -2.], [2., 0.]]}
        relation = write_json(tmp_path / "relation.json", doc)
        outs = [tmp_path / "matrix.csv", tmp_path / "relation.csv"]
        for net, out in zip((matrix, relation), outs):
            assert main(["cosim", net, "--x0", "1,-0.5", "--sweeps", "30", "--t1", "0.2",
                         "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert outs[1].read_bytes() == outs[0].read_bytes()

    @pytest.mark.parametrize("M,N", [([[0., 0.], [0., 0.]], [[1., 0.], [0., 1.]]),
                                     ([[1., 0.]], [[0., 1.]])],
                             ids=["singular", "not-square"])
    def test_uneliminable_relation_exit_2(self, tmp_path, capsys, M, N):
        doc = general_network_doc(None)
        doc["coupling"] = {"type": "relation", "ports": [[[1.]], [[1.]]], "M": M, "N": N}
        net = write_json(tmp_path / "net.json", doc)
        out = tmp_path / "traj.csv"
        assert main(["cosim", net, "--x0", "1,-0.5", "--t1", "0.2", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "not eliminable")
        assert not out.exists()

    def test_indefinite_w_exit_2(self, tmp_path, capsys):
        net = write_json(tmp_path / "net.json", feedthrough_network_doc())
        out = tmp_path / "traj.csv"
        assert main(["cosim", net, "--x0", "1,-0.5", "--t1", "0.2", "-o", str(out)]) == 2
        assert_one_line_error(capsys, "indefinite (min eigenvalue -2.808e-01)")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_case_2_split_runs_to_the_simulated_system(self, tmp_path, capsys, mode):
        # off-diagonal dissipation decouples into a relation network, whose
        # waveform relaxation converges to the simulation of the system
        src = tmp_path / "sys.json"
        src.write_text(dump_document(random_separable(np.random.default_rng(7), (2, 3))))
        net, relaxed, direct = (str(tmp_path / f) for f in ("net.json", "co.csv", "sim.csv"))
        assert main(["decouple", str(src), "--partition", "2,3", "-o", net]) == 0
        assert json.loads(Path(net).read_text())["coupling"]["type"] == "relation"
        x0 = "0.3,-1,0.5,0.2,-0.7"
        assert main(["cosim", net, "--x0", x0, "--mode", mode, "--sweeps", "30",
                     "--t1", "1", "-o", relaxed]) == 0
        assert main(["simulate", str(src), "--x0", x0, "--t1", "1", "-o", direct]) == 0
        assert capsys.readouterr().err == ""
        x = read_trajectory(Path(relaxed).read_text())[1]
        ref = read_trajectory(Path(direct).read_text())[1]
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_phdae_document_runs_as_its_network(self, tmp_path, capsys):
        # a phdae document is its relation network: the same CSV, byte for byte
        src = tmp_path / "sys.json"
        src.write_text(dump_document(random_separable(np.random.default_rng(7), (2, 3))))
        net, dae = str(tmp_path / "net.json"), str(tmp_path / "dae.json")
        assert main(["decouple", str(src), "--partition", "2,3", "-o", net]) == 0
        assert main(["condense", net, "--mode", "phdae", "-o", dae]) == 0
        assert json.loads(Path(dae).read_text())["kind"] == "phdae"
        outs = [tmp_path / "net.csv", tmp_path / "dae.csv"]
        for doc, out in zip((net, dae), outs):
            assert main(["cosim", doc, "--x0", "0.3,-1,0.5,0.2,-0.7", "--sweeps", "30",
                         "--t1", "0.2", "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert outs[1].read_bytes() == outs[0].read_bytes()

    def test_failure_after_an_unconverged_run_is_one_line(self, tmp_path, capsys):
        # the sweeps do not converge, then the energy balance overflows: the
        # failure is the one stderr line, without the warning
        net = write_json(tmp_path / "net.json", {
            "kind": "network", "subsystems": [{
                "n": 2, "J": [[0., -8e11], [8e11, 0.]], "R": [[2e12, 1e12], [1e12, 1e12]],
                "L": [[3., 1.], [1., 4.]]}],
            "coupling": {"type": "skew", "ports": [[[-200., -20.], [-100., -70.]]],
                         "C": [[0., -7e34], [7e34, 0.]]}})
        out = tmp_path / "traj.csv"
        assert main(["cosim", net, "--x0=4,-16", "--t1", "0.04", "--window", "0.02",
                     "--sweeps", "3", "-o", str(out)]) == 4
        assert_one_line_error(capsys, "the energy balance of step 3 leaves the floating-point")
        assert not out.exists()

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


def run_phode(*args):
    """``phode ARGS`` in a fresh interpreter with the default warning
    filters, so stderr holds what a user sees, warnings included."""
    src = str(Path(phode.cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); from phode.cli import main; "
            "raise SystemExit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)


# two one-state subsystems whose skew coupling overflows J: C - C^T is 2e308
OVERFLOW_NETWORK = {"kind": "network",
                    "subsystems": [{"n": 1, "J": [[0.]], "R": [[0.]]}] * 2,
                    "coupling": {"type": "skew", "ports": [[[1.]], [[1.]]],
                                 "C": [[0., 1e308], [-1e308, 0.]]}}
# a system whose coupling -(J_12 - R_12) overflows
OVERFLOW_SYSTEM = {"n": 2, "J": [[0., 1.5e308], [-1.5e308, 0.]],
                   "R": [[0.8e308, -0.8e308], [-0.8e308, 0.8e308]]}


class TestNonFiniteResult:
    @pytest.mark.parametrize("args", [["condense", "{net}"],
                                      ["condense", "{net}", "--mode", "general"],
                                      ["cosim", "{net}", "--x0", "1,1"],
                                      ["decouple", "{sys}", "--partition", "1,1"]])
    def test_overflow_exit_4_one_line_no_file(self, tmp_path, args):
        paths = {"net": write_json(tmp_path / "net.json", OVERFLOW_NETWORK),
                 "sys": write_json(tmp_path / "sys.json", OVERFLOW_SYSTEM)}
        out = tmp_path / "out"
        proc = run_phode(*[a.format(**paths) for a in args], "-o", str(out))
        assert proc.returncode == 4
        assert proc.stderr.startswith("phode: ") and proc.stderr.count("\n") == 1
        assert "not finite" in proc.stderr
        assert not out.exists()

    def test_condense_library_raises_on_overflow(self):
        net = parse_system_text(json.dumps(OVERFLOW_NETWORK))
        for condense in (condense_skew, condense_general):
            with pytest.raises(FloatingPointError, match="not finite"):
                condense(net)

    def test_non_finite_document_exit_4_no_file(self, tmp_path, capsys, monkeypatch):
        # a condensed system that JSON cannot hold is refused when dumped
        net = str(tmp_path / "net.json")
        assert main(["decouple", TWO_MASS, "--partition", "3,2", "-o", net]) == 0
        J = two_mass().J.copy()
        J[0, 1] = np.inf
        monkeypatch.setattr(phode.cli, "condense_skew", lambda net: replace(two_mass(), J=J))
        out = tmp_path / "mono.json"
        assert main(["condense", net, "-o", str(out)]) == 4
        assert_one_line_error(capsys, "field 'J' has non-finite entries")
        assert not out.exists()

    def test_blank_trajectory_exit_1_one_line(self, tmp_path):
        csv = tmp_path / "blank.csv"
        csv.write_text("t,x1,x2,x3,x4,x5,H,balance_residual\n\n")
        proc = run_phode("report", str(csv), TWO_MASS)
        assert proc.returncode == 1
        assert proc.stderr == f"phode: {csv}: row 1 is blank\n"


class TestOutput:
    ARGV = {"model": ["model", "two-mass"],
            "simulate": ["simulate", TWO_MASS, "--x0", "1,0.5,-0.3,0.2,0.4", "--t1", "0.5"]}

    @pytest.mark.parametrize("command", ["model", "simulate"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_exit_1(self, tmp_path, capsys, command, target):
        out = tmp_path / "missing" / "out" if target == "missing-directory" else tmp_path
        assert main(self.ARGV[command] + ["-o", str(out)]) == 1
        assert_one_line_error(capsys, f"phode: {out}: ")

    @pytest.mark.parametrize("command", ["model", "simulate"])
    def test_slices_write_the_same_bytes(self, tmp_path, capsys, monkeypatch, command):
        whole, sliced = tmp_path / "whole", tmp_path / "sliced"
        assert main(self.ARGV[command] + ["-o", str(whole)]) == 0
        text = whole.read_text()
        assert len(text) < phode.cli._WRITE_SLICE_CHARS   # one write call
        monkeypatch.setattr(phode.cli, "_WRITE_SLICE_CHARS", 7)
        assert main(self.ARGV[command] + ["-o", str(sliced)]) == 0
        assert main(self.ARGV[command]) == 0
        assert sliced.read_bytes() == whole.read_bytes()
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("to", ["file", "stdout"])
    def test_write_holds_one_slice_beyond_the_text(self, tmp_path, monkeypatch, to):
        # about the size of a 1000-step CSV at n = 200; the slice and its
        # encoded bytes are all that writing adds
        text = "-0.12345678901234567," * 200_000
        path = str(tmp_path / "out") if to == "file" else None
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(phode.cli._sys, "stdout", devnull)
            tracemalloc.start()
            try:
                phode.cli._write(path, text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2.5 * phode.cli._WRITE_SLICE_CHARS

    @pytest.mark.parametrize("command", ["model", "simulate"])
    @pytest.mark.parametrize("old", ["longer", "shorter", "equal"])
    def test_rewrite_gives_exactly_the_new_bytes(self, tmp_path, command, old):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert main(self.ARGV[command] + ["-o", str(fresh)]) == 0
        new = fresh.read_bytes()
        out.write_bytes({"longer": b"\xff" * (3 * len(new)), "shorter": b"x",
                         "equal": b"y" * len(new)}[old])
        assert main(self.ARGV[command] + ["-o", str(out)]) == 0
        assert out.read_bytes() == new

    def test_rewrite_keeps_the_inode_and_mode(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("x" * 10_000)
        out.chmod(0o640)
        before = out.stat()
        assert main(self.ARGV["model"] + ["-o", str(out)]) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert after.st_size < before.st_size

    def test_write_through_a_symlink_keeps_the_link(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("x" * 10_000)
        link.symlink_to(target)
        assert main(self.ARGV["model"] + ["-o", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == dump_document(two_mass())

    def test_non_regular_target_is_not_truncated(self, capsys):
        assert main(self.ARGV["model"] + ["-o", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_failed_write_leaves_what_was_written(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.write_text("z" * 10_000)
        monkeypatch.setattr(phode.cli, "_WRITE_SLICE_CHARS", 7)
        slices = phode.cli._write_slices

        def full_after_one_slice(f, text, h=None):
            slices(f, text[:7], h)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(phode.cli, "_write_slices", full_after_one_slice)
        assert main(self.ARGV["model"] + ["-o", str(out)]) == 1
        assert_one_line_error(capsys, f"phode: {out}: [Errno 28] No space left on device")
        assert out.read_text() == dump_document(two_mass())[:7]

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_failed_os_write_leaves_what_was_written(self, tmp_path):
        # a file-size limit makes the kernel take the first 100 bytes of the
        # buffered text and refuse the rest, at the write and at every
        # flush after it; the old file's tail must not survive
        out = tmp_path / "out"
        out.write_text("z" * 10_000)
        src = str(Path(phode.cli.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import resource; "
                "from phode.cli import main; "
                "resource.setrlimit(resource.RLIMIT_FSIZE, "
                "(100, resource.getrlimit(resource.RLIMIT_FSIZE)[1])); "
                "raise SystemExit(main(sys.argv[1:]))")
        proc = subprocess.run([sys.executable, "-B", "-c", code, *self.ARGV["model"],
                               "-o", str(out)], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"phode: {out}: [Errno {errno.EFBIG}] ")
        assert proc.stderr.count("\n") == 1
        assert out.read_text() == dump_document(two_mass())[:100]

    def test_open_asks_for_no_truncation(self, tmp_path, monkeypatch):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        out.write_text("x" * 10_000)
        flags, os_open = [], os.open
        monkeypatch.setattr(os, "open",
                            lambda path, f, *a: flags.append(f) or os_open(path, f, *a))
        cuts, os_ftruncate = [], os.ftruncate
        monkeypatch.setattr(os, "ftruncate",
                            lambda fd, n: cuts.append(n) or os_ftruncate(fd, n))
        assert main(self.ARGV["model"] + ["-o", str(out)]) == 0
        assert len(flags) == 1
        assert flags[0] & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT
        assert not flags[0] & os.O_TRUNC
        # one cut, after the whole text; a new file is never cut
        assert cuts == [out.stat().st_size]
        assert main(self.ARGV["model"] + ["-o", str(fresh)]) == 0
        assert cuts == [out.stat().st_size]


COMMAND_NAMES = ["validate", "condense", "decouple", "simulate", "cosim", "report", "model"]
PARITY_ARGV = [
    [], ["-h"], ["--"], ["frobnicate"], ["-h", "validate"],
    *[[name, "-h"] for name in COMMAND_NAMES],
    ["decouple", TWO_MASS],                       # missing required argument
    ["validate", TWO_MASS, "--frobnicate"],       # unrecognized option
    ["condense", TWO_MASS, "--mode", "bogus"],    # bad choice
    ["cosim", TWO_MASS, "--sweeps", "many"],      # bad type
    ["simulate", TWO_MASS, "--x0", "-0.3,0.5,0,0.1,0", "--t1", "0.05"],
    ["simulate", TWO_MASS, "--x0", "-0.3,0.5,0,0.1,0", "--t1", "0.05", "--method", "strang"],
    ["model", "two-mass", "--params", "r1=0.2"],
]


def full_parser_main(argv):
    """``main`` as it runs with the parser of every command."""
    parser = phode.cli.build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except phode.cli.CliError as exc:
        print(f"phode: {exc}", file=sys.stderr)
        return exc.code


def outcome(run, argv, capsys):
    """Exit code (or ``SystemExit`` code), stdout and stderr of one run."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


class TestParserPerCommand:
    @pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda a: " ".join(
        "SYSTEM" if word == TWO_MASS else word for word in a) or "none")
    def test_same_output_as_the_full_parser(self, argv, capsys):
        assert outcome(main, argv, capsys) == outcome(full_parser_main, argv, capsys)

    @pytest.mark.parametrize("argv, built", [
        (["model", "two-mass"], ["model"]),
        (["validate", TWO_MASS, "--frobnicate"], ["validate"]),
        ([], COMMAND_NAMES), (["frobnicate"], COMMAND_NAMES), (["--", "model"], COMMAND_NAMES),
    ])
    def test_builds_the_named_command_only(self, argv, built, monkeypatch, capsys):
        added = []
        for name, (help_text, add_arguments, handler) in list(phode.cli.COMMANDS.items()):
            def counted(sp, name=name, add_arguments=add_arguments):
                added.append(name)
                add_arguments(sp)
            monkeypatch.setitem(phode.cli.COMMANDS, name, (help_text, counted, handler))
        main(argv)
        assert added == built

    @pytest.mark.parametrize("argv, made", [
        (["model", "two-mass"], ["phode model"]),
        (["validate", TWO_MASS], ["phode validate"]),
        # the parser "phode" only to report what the command leaves over
        (["validate", TWO_MASS, "--frobnicate"], ["phode validate", "phode"]),
    ])
    def test_one_parser_per_command_line(self, argv, made, monkeypatch, capsys):
        progs, init = [], phode.cli._Parser.__init__

        def counted(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(phode.cli._Parser, "__init__", counted)
        main(argv)
        assert progs == made

    def test_commands_in_one_process_share_no_arguments(self, monkeypatch):
        seen = []

        def record(args):
            seen.append(sorted(vars(args)))
            return 0

        for name in ("model", "validate"):
            help_text, add_arguments, _ = phode.cli.COMMANDS[name]
            monkeypatch.setitem(phode.cli.COMMANDS, name, (help_text, add_arguments, record))
        assert main(["model", "two-mass"]) == 0
        assert main(["validate", TWO_MASS]) == 0
        assert main(["model", "maxwell"]) == 0
        assert seen == [["command", "func", "name", "output", "params"],
                        ["command", "func", "system"],
                        ["command", "func", "name", "output", "params"]]


def test_cli_import_loads_no_scipy():
    src = str(Path(phode.cli.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import phode, phode.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
