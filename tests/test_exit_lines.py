"""Exit code and whole stderr of each command for every row of the CLI's
exit-code table: usage, validation, verification and numerical failures,
step counts beyond memory, other bad values and running out of memory,
on small documents written for each test."""

import json

import pytest

import phode.cli
import phode.integrate
from phode.cli import main

ONE = {"n": 1, "J": [[0.]], "R": [[1.]]}
SKEW = {"type": "skew", "ports": [[[1.]], [[1.]]], "C": [[0., 1.], [-1., 0.]]}
HEADER = "t,x1,x2,H,balance_residual\n"
DOCUMENTS = {
    "sys.json": {"n": 2, "J": [[0., 1.], [-1., 0.]], "R": [[1., 0.], [0., 0.]]},
    "two-mass.json": {"model": "two-mass"},
    "maxwell.json": {"model": "maxwell"},
    "net.json": {"kind": "network", "subsystems": [ONE, ONE], "coupling": SKEW},
    # fails the load check: R is negative
    "bad.json": {"n": 1, "J": [[0.]], "R": [[-1.]]},
    "bad-net.json": {"kind": "network", "subsystems": [{"n": 1, "J": [[0.]], "R": [[-1.]]},
                                                       ONE], "coupling": SKEW},
    "nan.json": {"n": 1, "J": [[float("nan")]], "R": [[1.]]},
    # a coupling matrix that is not skew, under a skew condensation
    "general-net.json": {"kind": "network", "subsystems": [ONE, ONE],
                         "coupling": {**SKEW, "type": "general", "C": [[0., 1.], [0., 0.]]}},
    # R = P = S = B = 1 in the first subsystem, and a C that makes the
    # assembled W indefinite
    "indefinite-net.json": {"kind": "network",
                            "subsystems": [{**ONE, "B": [[1.]], "P": [[1.]], "S": [[1.]]}, ONE],
                            "coupling": {**SKEW, "type": "general",
                                         "C": [[-0.5, 0.3], [-0.3, 0.]]}},
    "feedthrough.json": {"n": 2, "J": [[0., 1.], [-1., 0.]], "R": [[1., 0.], [0., 1.]],
                         "B": [[1.], [0.]], "P": [[0.1], [0.]], "S": [[0.5]]},
    "ports.json": {"ports": [[[1.], [0.], [0.]], [[-1.], [0.]]],
                   "blocks": [{"i": 0, "j": 1, "C": [[-1.]]}]},
    "unstable.json": {"n": 1, "J": [[0.]], "R": [[-1000.]]},
    # C - C^T is 2e308
    "overflow-net.json": {"kind": "network",
                          "subsystems": [{"n": 1, "J": [[0.]], "R": [[0.]]}] * 2,
                          "coupling": {**SKEW, "C": [[0., 1e308], [-1e308, 0.]]}},
    # the coupling -(J_12 - R_12) is -2.3e308
    "overflow-sys.json": {"n": 2, "J": [[0., 1.5e308], [-1.5e308, 0.]],
                          "R": [[0.8e308, -0.8e308], [-0.8e308, 0.8e308]]},
    "maxwell-scalars.json": {"model": "maxwell", "params": {"G": 1, "C": 2}},
    "poroelastic-vector.json": {"model": "poroelastic", "params": {"B_f": [1, 2, 3]}},
    "unhashable.json": {"model": ["two-mass"]},
    # 1 / m1 overflows L[0, 0]
    "model-overflow.json": {"model": "two-mass", "params": {"m1": 1e-320}},
}
TRAJECTORIES = {
    "t.csv": HEADER + "0,1,0,0.5,0\n0.01,1,0,0.5,0\n",
    "ragged.csv": HEADER + "0,1,0,0.5,0\n0.01,1\n",
    "back.csv": HEADER + "0,1,0,0.5,0\n0,1,0,0.5,0\n",
    "wide.csv": "t,x1,x2,x3,H,balance_residual\n0,1,0,0,0.5,0\n",
    "huge.csv": HEADER + "0,1e200,0,1e300,0\n0.01,1e200,0,1e300,0\n",
}

TRAJECTORY_MEMORY = ("phode: out of memory: the trajectory does not fit; "
                     "make it shorter (lower --t1 or raise --dt)")
STEPS = ("phode: too many steps, lower --t1 or raise --dt: t1 - t0 = 1e+12 at dt = 0.01 "
         "is 1e+14 steps, whose time grid and {} values per step take {} GiB, more than "
         "memory can hold (1 GiB installed)")

LOAD_CHECK = "structure validation failed: W positive semidefinite: min eigenvalue -1.000e+00"
NET_LOAD_CHECK = LOAD_CHECK.replace("failed: ", "failed: subsystem 1: ")
INDEFINITE = "phode: assembled W = [[R, P], [P^T, S]] is indefinite (min eigenvalue -2.808e-01)"
CONDENSED = "phode: condensed system is not finite: the coupling overflows J or R"

# name -> (argv, exit code, stderr line or None for an empty stderr, the
# name in phode.cli that runs out of memory or None)
CASES = {
    # usage: a CliError raised by the command itself
    "validate-missing": (["validate", "missing.json"], 1,
                         "phode: missing.json: [Errno 2] No such file or directory: "
                         "'missing.json'", None),
    "validate-non-finite": (["validate", "nan.json"], 1,
                            "phode: nan.json: field 'J' has non-finite entries", None),
    "validate-model-overflow": (["validate", "model-overflow.json"], 1,
                                "phode: model-overflow.json: field 'L' has non-finite entries",
                                None),
    "simulate-model-overflow": (["simulate", "model-overflow.json", "--x0", "1,0,0,0,0"], 1,
                                "phode: model-overflow.json: field 'L' has non-finite entries",
                                None),
    "decouple-model-overflow": (["decouple", "model-overflow.json", "--partition", "3,2"], 1,
                                "phode: model-overflow.json: field 'L' has non-finite entries",
                                None),
    "condense-wrong-kind": (["condense", "sys.json"], 1,
                            "phode: sys.json: expected a network document", None),
    "condense-phdae-of-skew": (["condense", "net.json", "--mode", "phdae"], 1,
                               "phode: phdae condensation requires a coupling of type "
                               "'relation'", None),
    "decouple-partition": (["decouple", "sys.json", "--partition", "1,a"], 1,
                           "phode: bad partition '1,a'", None),
    "decouple-missing-ports": (["decouple", "two-mass.json", "--partition", "3,2",
                                "--ports", "missing.json"], 1,
                               "phode: missing.json: [Errno 2] No such file or directory: "
                               "'missing.json'", None),
    "simulate-x0": (["simulate", "sys.json", "--x0", "1,a"], 1,
                    "phode: bad state list '1,a'", None),
    "simulate-x0-size": (["simulate", "sys.json", "--x0", "1"], 1,
                         "phode: x0 has 1 entries, state dimension is 2", None),
    "cosim-x0": (["cosim", "net.json", "--x0", "nan,0"], 1,
                 "phode: x0 must be finite, got 'nan,0'", None),
    "cosim-wrong-kind": (["cosim", "sys.json", "--x0", "1,0"], 1,
                         "phode: sys.json: expected a network document", None),
    "report-ragged": (["report", "ragged.csv", "sys.json"], 1,
                      "phode: ragged.csv: row 2 has 2 cells, header has 5", None),
    "report-time": (["report", "back.csv", "sys.json"], 1,
                    "phode: back.csv: time grid must be strictly increasing", None),
    "report-columns": (["report", "wide.csv", "sys.json"], 1,
                       "phode: trajectory has 3 state columns, system dimension is 2", None),
    "model-unknown": (["model", "three-mass"], 1,
                      "phode: unknown model 'three-mass'; known: maxwell, poroelastic, "
                      "two-mass", None),
    "model-params": (["model", "two-mass", "--params", "m1=-1"], 1,
                     "phode: bad parameters: masses and stiffnesses must be positive", None),
    "model-params-syntax": (["model", "two-mass", "--params", "m1"], 1,
                            "phode: bad parameter 'm1', expected k=v", None),
    # validation
    "validate-fails": (["validate", "bad.json"], 2, None, None),
    "condense-load-check": (["condense", "bad-net.json"], 2,
                            f"phode: bad-net.json: {NET_LOAD_CHECK}", None),
    "condense-not-skew": (["condense", "general-net.json"], 2,
                          "phode: coupling matrix is not skew-symmetric; use condense_general "
                          "(phode condense --mode general)", None),
    "condense-indefinite": (["condense", "indefinite-net.json", "--mode", "general"], 2,
                            INDEFINITE, None),
    "decouple-load-check": (["decouple", "bad.json", "--partition", "1"], 2,
                            f"phode: bad.json: {LOAD_CHECK}", None),
    "decouple-feedthrough": (["decouple", "feedthrough.json", "--partition", "1,1"], 2,
                             "phode: cannot decouple a system with feedthrough: P, S and N "
                             "must be zero", None),
    "decouple-partition-size": (["decouple", "sys.json", "--partition", "1,2"], 2,
                                "phode: partition sums to 3, state dimension is 2", None),
    "simulate-load-check": (["simulate", "bad.json", "--x0", "1"], 2,
                            f"phode: bad.json: {LOAD_CHECK}", None),
    "cosim-load-check": (["cosim", "bad-net.json", "--x0", "1,0"], 2,
                         f"phode: bad-net.json: {NET_LOAD_CHECK}", None),
    "cosim-indefinite": (["cosim", "indefinite-net.json", "--x0", "1,0"], 2, INDEFINITE, None),
    "report-load-check": (["report", "t.csv", "bad.json"], 2,
                          f"phode: bad.json: {LOAD_CHECK}", None),
    # verification
    "decouple-ports": (["decouple", "two-mass.json", "--partition", "3,2",
                        "--ports", "ports.json"], 3,
                       "phode: ports do not reproduce off-diagonal block pair (0, 1): "
                       "max residual 1.000e+00", None),
    # numerical
    "condense-overflow": (["condense", "overflow-net.json"], 4, CONDENSED, None),
    "condense-general-overflow": (["condense", "overflow-net.json", "--mode", "general"], 4,
                                  CONDENSED, None),
    "decouple-overflow": (["decouple", "overflow-sys.json", "--partition", "1,1",
                           "--no-validate"], 4,
                          "phode: coupling matrix is not finite: J - R overflows off the "
                          "diagonal blocks", None),
    "simulate-singular": (["simulate", "maxwell.json", "--x0", ",".join(["0"] * 11)], 4,
                          "phode: descriptor system: integrate unsupported (singular E)", None),
    "simulate-diverges": (["simulate", "unstable.json", "--no-validate", "--x0", "1e200"], 4,
                          "phode: trajectory is not finite from step 0 on", None),
    "cosim-overflow": (["cosim", "overflow-net.json", "--x0", "1,1"], 4, CONDENSED, None),
    "report-overflow": (["report", "huge.csv", "sys.json"], 4,
                        "phode: the energy balance of step 1 leaves the floating-point range",
                        None),
    "model-overflow": (["model", "two-mass", "--params", "m1=1e-320"], 4,
                       "phode: field 'L' has non-finite entries", None),
    # step count beyond memory
    "simulate-steps": (["simulate", "sys.json", "--x0", "1,0", "--t1", "1e12"], 1,
                       STEPS.format(5, "4.47e+06"), None),
    "cosim-steps": (["cosim", "net.json", "--x0", "1,0", "--t1", "1e12"], 1,
                    STEPS.format(9, "7.45e+06"), None),
    # other bad values
    "validate-tol": (["validate", "sys.json", "--tol", "nan"], 1,
                     "phode: tol must be positive and finite", None),
    "simulate-dt": (["simulate", "sys.json", "--x0", "1,0", "--dt", "0"], 1,
                    "phode: dt must be positive, got 0.0", None),
    "cosim-sweeps": (["cosim", "net.json", "--x0", "1,0", "--sweeps", "0"], 1,
                     "phode: sweeps must be at least 1, got 0", None),
    "cosim-inner": (["cosim", "net.json", "--x0", "1,0", "--inner", "euler"], 1,
                    "phode: unknown inner integrator 'euler'", None),
    # out of memory
    "simulate-memory": (["simulate", "sys.json", "--x0", "1,0", "--t1", "0.1"], 1,
                        TRAJECTORY_MEMORY, "write_trajectory"),
    "cosim-memory": (["cosim", "net.json", "--x0", "1,0", "--t1", "0.1"], 1,
                     TRAJECTORY_MEMORY, "write_trajectory"),
    "report-memory": (["report", "t.csv", "sys.json"], 1,
                      TRAJECTORY_MEMORY, "read_trajectory"),
}


def no_memory(*args, **kwargs):
    raise MemoryError


@pytest.fixture
def documents(tmp_path, monkeypatch):
    """The documents and trajectories above in the working directory, and
    1 GiB of physical memory for the step-count check."""
    monkeypatch.chdir(tmp_path)
    for name, doc in DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for name, text in TRAJECTORIES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(phode.integrate, "_memory_bytes", lambda: 2.0 ** 30)


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, code, line, exhausted", CASES.values(), ids=CASES)
def test_exit_code_and_stderr_line(documents, monkeypatch, capsys, argv, code, line, exhausted):
    if exhausted:
        monkeypatch.setattr(phode.cli, exhausted, no_memory)
    assert run(argv, capsys) == (code, "" if line is None else line + "\n")


# model parameters whose shape the parameter classes check, given on the
# command line or in a "model" document
PARAMETER_CASES = {
    "poroelastic-B_f": (["model", "poroelastic", "--params", "B_f=1"],
                        "phode: bad parameters: B_f must be a 2-D array with 3 rows"),
    "poroelastic-B_g": (["model", "poroelastic", "--params", "B_g=2"],
                        "phode: bad parameters: B_g must be a 2-D array with 2 rows"),
    "maxwell-scalars": (["model", "maxwell", "--params", "G=1,C=2"],
                        "phode: bad parameters: G and C must be 2-D arrays"),
    "maxwell-G-alone": (["model", "maxwell", "--params", "G=1"],
                        "phode: bad parameters: G and C must be given together"),
    "maxwell-C-alone": (["model", "maxwell", "--params", "C=7"],
                        "phode: bad parameters: G and C must be given together"),
    "validate-maxwell-scalars": (["validate", "maxwell-scalars.json"],
                                 "phode: maxwell-scalars.json: bad parameters: G and C must "
                                 "be 2-D arrays"),
    "validate-poroelastic-vector": (["validate", "poroelastic-vector.json"],
                                    "phode: poroelastic-vector.json: bad parameters: B_f must "
                                    "be a 2-D array with 3 rows"),
    "validate-unhashable-model": (["validate", "unhashable.json"],
                                  "phode: unhashable.json: unknown model ['two-mass']; known: "
                                  "maxwell, poroelastic, two-mass"),
}


@pytest.mark.parametrize("argv, line", PARAMETER_CASES.values(), ids=PARAMETER_CASES)
def test_model_parameters_exit_1(documents, capsys, argv, line):
    assert run(argv, capsys) == (1, line + "\n")


# commands that neither make nor read a trajectory: their out-of-memory line
# names no option they do not have
@pytest.mark.parametrize("argv, exhausted", [
    (["validate", "sys.json"], "validate_structure"),
    (["condense", "net.json"], "dump_document"),
    (["decouple", "sys.json", "--partition", "1,1"], "dump_document"),
    (["model", "two-mass"], "dump_document"),
], ids=["validate", "condense", "decouple", "model"])
def test_out_of_memory_without_a_trajectory(documents, monkeypatch, capsys, argv, exhausted):
    monkeypatch.setattr(phode.cli, exhausted, no_memory)
    assert run(argv, capsys) == (1, "phode: out of memory\n")
