"""Exit code and whole stderr of each command for every row of the CLI's
exit-code table: usage, validation, verification and numerical failures,
step counts beyond memory, other bad values and running out of memory,
on small documents written for each test.  Document errors are the
reader's lines; misshapen systems and networks are those of the classes
the reader builds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phode.cli
import phode.integrate
from phode.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
ONE = {"n": 1, "J": [[0.]], "R": [[1.]]}
SKEW = {"type": "skew", "ports": [[[1.]], [[1.]]], "C": [[0., 1.], [-1., 0.]]}
RELATION = {"type": "relation", "ports": [[[1.]], [[1.]]], "M": [[1., 0.], [0., 1.]],
            "N": [[0., -1.], [1., 0.]]}
TWO = {"n": 2, "J": [[0., 1.], [-1., 0.]], "R": [[1., 0.], [0., 0.]]}
HEADER = "t,x1,x2,H,balance_residual\n"
# 500 nested arrays around 0, 1001 characters of JSON
NESTED = json.loads("[" * 500 + "0" + "]" * 500)
DOCUMENTS = {
    "sys.json": TWO,
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
    "one.json": ONE,
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
    # document errors: each field is present, numeric, finite and 2-D
    "not-numeric.json": {**ONE, "J": [["a"]]},
    "three-d.json": {**ONE, "J": [[[0.]]]},
    "no-n.json": {"J": [[0.]], "R": [[1.]]},
    "negative-n.json": {**ONE, "n": -1},
    "j-columns.json": {**TWO, "J": [[0., 1., 0.], [-1., 0., 0.]]},
    "no-subsystems.json": {"kind": "network", "coupling": SKEW},
    "no-coupling.json": {"kind": "network", "subsystems": [ONE, ONE]},
    "unknown-coupling.json": {"kind": "network", "subsystems": [ONE, ONE],
                              "coupling": {**SKEW, "type": "weird"}},
    # a kind and a coupling type that are not strings
    "kind-false.json": {**ONE, "kind": False},
    "coupling-type-true.json": {"kind": "network", "subsystems": [ONE, ONE],
                                "coupling": {**SKEW, "type": True}},
    "list-root.json": [ONE],
    "format-2.json": {**ONE, "format": 2},
    "phdae-skew.json": {"kind": "phdae", "subsystems": [ONE, ONE], "coupling": SKEW},
    # shapes the network checks: one port matrix (of both port columns)
    # for two subsystems, and M and N of different row counts
    "few-ports.json": {"kind": "network", "subsystems": [ONE, ONE],
                       "coupling": {**SKEW, "ports": [[[1., 1.]]]}},
    "mn-rows.json": {"kind": "network", "subsystems": [ONE, ONE],
                     "coupling": {**RELATION, "N": [[0., -1.]]}},
    "c-size.json": {"kind": "network", "subsystems": [ONE, ONE],
                    "coupling": {**SKEW, "C": [[0.] * 3] * 3}},
    "port-rows.json": {"kind": "network", "subsystems": [ONE, TWO], "coupling": SKEW},
    "m-columns.json": {"kind": "network", "subsystems": [ONE, ONE],
                       "coupling": {**RELATION, "M": [[1., 0., 0.], [0., 1., 0.]]}},
    "n-columns.json": {"kind": "network", "subsystems": [ONE, ONE],
                       "coupling": {**RELATION, "N": [[0.], [1.]]}},
    # a third port matrix for two subsystems: the coupling spans its port,
    # or not
    "extra-port.json": {"kind": "network", "subsystems": [ONE, ONE],
                        "coupling": {**SKEW, "ports": [[[1.]]] * 3}},
    "extra-port-sized.json": {"kind": "network", "subsystems": [ONE, ONE],
                              "coupling": {**SKEW, "ports": [[[1.]]] * 3, "C": [[0.] * 3] * 3}},
    # ports without columns, and a C of one row without columns
    "empty-c.json": {"kind": "network", "subsystems": [ONE, ONE],
                     "coupling": {"type": "skew", "ports": [[[]], [[]]], "C": [[]]}},
    # shapes the system checks
    "e-shape.json": {**TWO, "E": [[1.]]},
    "l-shape.json": {**TWO, "L": [[1.]]},
    "b-rows.json": {**TWO, "B": [[1.]]},
    "p-shape.json": {**TWO, "B": [[1.], [0.]], "P": [[0.1]]},
    "s-shape.json": {**TWO, "B": [[1.], [0.]], "S": [[0.1, 0.]]},
    "n-shape.json": {**TWO, "B": [[1.], [0.]], "N": [[0.1], [0.]]},
    # n and format are JSON integers
    "n-fraction.json": {**TWO, "n": 2.5},
    "n-string.json": {**TWO, "n": "2"},
    "n-float.json": {**TWO, "n": 2.0},
    "n-true.json": {**ONE, "n": True},
    "format-true.json": {**ONE, "format": True},
    "format-float.json": {**ONE, "format": 1.0},
    # container fields of the wrong JSON type
    "subsystems-number.json": {"kind": "network", "subsystems": 3, "coupling": SKEW},
    "subsystems-numbers.json": {"kind": "network", "subsystems": [1, 2], "coupling": SKEW},
    "coupling-array.json": {"kind": "network", "subsystems": [ONE, ONE], "coupling": []},
    "ports-number.json": {"kind": "network", "subsystems": [ONE, ONE],
                          "coupling": {**SKEW, "ports": 3}},
    "params-array.json": {"model": "two-mass", "params": [1]},
    "ports-doc-number.json": {"ports": 3, "blocks": []},
    "blocks-number.json": {"ports": [[[1.], [0.], [0.]], [[-1.], [0.]]], "blocks": 3},
    "block-number.json": {"ports": [[[1.], [0.], [0.]], [[-1.], [0.]]], "blocks": [3]},
    "ports-doc-root.json": [[[1.]]],
    # port matrices that decouple --ports refuses: one for two blocks, a
    # block pair below the diagonal, a block of the wrong shape
    "few-ports-doc.json": {"ports": [[[1.], [0.], [0.]]],
                           "blocks": [{"i": 0, "j": 1, "C": [[-1.]]}]},
    "lower-block.json": {"ports": [[[1.], [0.], [0.]], [[-1.], [0.]]],
                         "blocks": [{"i": 1, "j": 0, "C": [[-1.]]}]},
    "block-shape.json": {"ports": [[[1.], [0.], [0.]], [[-1.], [0.]]],
                         "blocks": [{"i": 0, "j": 1, "C": [[-1., 0.]]}]},
    # a JSON integer beyond the float range
    "huge-int.json": {**ONE, "J": [[10 ** 400]]},
    "huge-int-ports.json": {"ports": [[[10 ** 400], [0.], [0.]], [[-1.], [0.]]]},
    # values whose text an error line quotes cut at 100 characters
    "long-params.json": {"model": "two-mass", "params": NESTED},
    "long-model.json": {"model": NESTED},
    # matrix entries that are not JSON numbers: booleans alone or among
    # numbers, numeric strings, in each kind of document
    "j-true.json": {**ONE, "J": [[True]]},
    "r-false.json": {**TWO, "R": [[1., 0.], [False, 0.]]},
    "j-string.json": {**ONE, "J": [["0.5"]]},
    "net-c-true.json": {"kind": "network", "subsystems": [ONE, ONE],
                        "coupling": {**SKEW, "C": [[0., True], [-1., 0.]]}},
    "net-ports-string.json": {"kind": "network", "subsystems": [ONE, ONE],
                              "coupling": {**SKEW, "ports": [[["1"]], [[1.]]]}},
    "ports-true.json": {"ports": [[[True], [0.], [0.]], [[-1.], [0.]]],
                        "blocks": [{"i": 0, "j": 1, "C": [[-1.]]}]},
    "ports-c-string.json": {"ports": [[[1.], [0.], [0.]], [[-1.], [0.]]],
                            "blocks": [{"i": 0, "j": 1, "C": [["-1"]]}]},
    # model parameters that are not JSON numbers, and poroelastic sizes that
    # are not positive integers or do not fit in memory
    "m1-null.json": {"model": "two-mass", "params": {"m1": None}},
    "m1-true.json": {"model": "two-mass", "params": {"m1": True}},
    "k-string.json": {"model": "two-mass", "params": {"K": "0.5"}},
    "r1-array.json": {"model": "two-mass", "params": {"r1": [0.1]}},
    "rho-true.json": {"model": "poroelastic", "params": {"rho": True}},
    "nu-null.json": {"model": "poroelastic", "params": {"nu": None}},
    "m-mu-string.json": {"model": "maxwell", "params": {"M_mu": [["2", 0], [0, 1]]}},
    "dim-w-zero.json": {"model": "poroelastic", "params": {"dim_w": 0}},
    "dim-p-negative.json": {"model": "poroelastic", "params": {"dim_p": -3}},
    "dim-w-fraction.json": {"model": "poroelastic", "params": {"dim_w": 2.5}},
    "dim-p-true.json": {"model": "poroelastic", "params": {"dim_p": True}},
    "dim-w-memory.json": {"model": "poroelastic", "params": {"dim_w": 20000}},
}
# 100 000 nested arrays, deeper than the JSON decoder can go
DEEP = "[" * 100_000 + "0" + "]" * 100_000
# files written as they are: trajectories, and documents json.dumps cannot write
TEXTS = {
    "deep.json": '{"n": 1, "J": ' + DEEP + ', "R": [[1.0]]}',
    "deep-ports.json": '{"ports": ' + DEEP + "}",
    "t.csv": HEADER + "0,1,0,0.5,0\n0.01,1,0,0.5,0\n",
    "ragged.csv": HEADER + "0,1,0,0.5,0\n0.01,1\n",
    "back.csv": HEADER + "0,1,0,0.5,0\n0,1,0,0.5,0\n",
    "wide.csv": "t,x1,x2,x3,H,balance_residual\n0,1,0,0,0.5,0\n",
    "huge.csv": HEADER + "0,1e200,0,1e300,0\n0.01,1e200,0,1e300,0\n",
    "no-states.csv": "t,H,balance_residual\n0,0.5,0\n0.01,0.5,0\n",
    # a key given twice: at the root, in a subsystem, in a block of a ports document
    "dup-root.json": '{"n": 1, "J": [[0.0]], "J": [[1.0]], "R": [[1.0]]}',
    "dup-sub.json": '{"kind": "network", "subsystems": [{"n": 1, "J": [[0.0]], "R": [[1.0]], '
                    '"R": [[2.0]]}, ' + json.dumps(ONE) + '], "coupling": '
                    + json.dumps(SKEW) + "}",
    "dup-ports.json": '{"ports": [[[1.0], [0.0], [0.0]], [[-1.0], [0.0]]], '
                      '"blocks": [{"i": 0, "j": 1, "C": [[-1.0]], "C": [[0.0]]}]}',
    # an integer of 5001 digits
    "long-int.json": '{"n": 1, "J": [[1' + "0" * 5000 + ']], "R": [[1.0]]}',
    "long-int-ports.json": '{"ports": [[[1' + "0" * 5000 + '], [0.0], [0.0]], [[-1.0], [0.0]]]}',
    # integers of 1000 digits: an entry and a state count
    "int-1000.json": '{"n": 1, "J": [[1' + "0" * 999 + ']], "R": [[0]]}',
    "n-1000.json": '{"n": 1' + "0" * 999 + ', "J": [[0.0]], "R": [[1.0]]}',
    # a model parameter beyond the float range, block indices of 1000 digits
    "model-huge-int.json": '{"model": "maxwell", "params": {"M_mu": [[1' + "0" * 400
                           + ', 0.0], [0.0, 1.0]]}}',
    "long-index-ports.json": '{"ports": [[[0.0], [0.0], [1.0]], [[-1.0], [0.0]]], '
                             '"blocks": [{"i": 1' + "0" * 999 + ', "j": 1, "C": [[-1.0]]}]}',
    "long-index-twice-ports.json": '{"ports": [[[0.0], [0.0], [1.0]], [[-1.0], [0.0]]], '
                                   '"blocks": [{"i": 1' + "0" * 999 + ', "j": 1, "C": [[-1.0]]}, '
                                   '{"i": 1' + "0" * 999 + ', "j": 1, "C": [[-1.0]]}]}',
}
# files that are not UTF-8 text: Latin-1 bytes
LATIN_1 = {
    "latin-1.json": '{"n": 1, "J": [[0.0]], "R": [[1.0]], "name": "Größe"}',
    "latin-1.csv": HEADER + "0,1,0,0.5,0\n0.01,1,0,0.5,0\xa0\n",
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
    "model-params-value": (["model", "two-mass", "--params", "m1=abc"], 1,
                           "phode: bad parameter value 'abc'", None),
    "report-no-states": (["report", "no-states.csv", "sys.json"], 1,
                         "phode: trajectory has 0 state columns, system dimension is 2", None),
    # document errors
    "validate-not-numeric": (["validate", "not-numeric.json"], 1,
                             "phode: not-numeric.json: field 'J' is not a numeric matrix", None),
    "validate-three-d": (["validate", "three-d.json"], 1,
                         "phode: three-d.json: field 'J' must be a 2-d array", None),
    "validate-no-n": (["validate", "no-n.json"], 1,
                      "phode: no-n.json: missing field 'n'", None),
    "validate-negative-n": (["validate", "negative-n.json"], 1,
                            "phode: negative-n.json: field 'n' must be nonnegative", None),
    "validate-j-columns": (["validate", "j-columns.json"], 1,
                           "phode: j-columns.json: field 'J' has 3 columns, expected 2", None),
    "validate-no-subsystems": (["validate", "no-subsystems.json"], 1,
                               "phode: no-subsystems.json: network document has no subsystems",
                               None),
    "validate-no-coupling": (["validate", "no-coupling.json"], 1,
                             "phode: no-coupling.json: network document has no coupling", None),
    "validate-unknown-coupling": (["validate", "unknown-coupling.json"], 1,
                                  "phode: unknown-coupling.json: unknown coupling type 'weird'",
                                  None),
    "validate-kind-false": (["validate", "kind-false.json"], 1,
                            "phode: kind-false.json: unknown kind false", None),
    "validate-coupling-type-true": (["validate", "coupling-type-true.json"], 1,
                                    "phode: coupling-type-true.json: unknown coupling type true",
                                    None),
    "validate-list-root": (["validate", "list-root.json"], 1,
                           "phode: list-root.json: document root must be an object", None),
    "validate-format": (["validate", "format-2.json"], 1,
                        "phode: format-2.json: unsupported format version 2", None),
    "validate-phdae-skew": (["validate", "phdae-skew.json"], 1,
                            "phode: phdae-skew.json: phdae documents require a coupling of "
                            "type 'relation'", None),
    # container fields of the wrong JSON type, in both readers
    "validate-subsystems-number": (["validate", "subsystems-number.json"], 1,
                                   "phode: subsystems-number.json: field 'subsystems' must be "
                                   "an array of objects, got 3", None),
    "validate-subsystems-numbers": (["validate", "subsystems-numbers.json"], 1,
                                    "phode: subsystems-numbers.json: field 'subsystems' must "
                                    "be an array of objects, got [1, 2]", None),
    "validate-coupling-array": (["validate", "coupling-array.json"], 1,
                                "phode: coupling-array.json: field 'coupling' must be an "
                                "object, got []", None),
    "validate-ports-number": (["validate", "ports-number.json"], 1,
                              "phode: ports-number.json: field 'ports' must be an array, "
                              "got 3", None),
    "validate-params-array": (["validate", "params-array.json"], 1,
                              "phode: params-array.json: field 'params' must be an object, "
                              "got [1]", None),
    "decouple-ports-number": (["decouple", "two-mass.json", "--partition", "3,2",
                               "--ports", "ports-doc-number.json"], 1,
                              "phode: ports-doc-number.json: field 'ports' must be an array, "
                              "got 3", None),
    "decouple-blocks-number": (["decouple", "two-mass.json", "--partition", "3,2",
                                "--ports", "blocks-number.json"], 1,
                               "phode: blocks-number.json: field 'blocks' must be an array "
                               "of objects, got 3", None),
    "decouple-block-number": (["decouple", "two-mass.json", "--partition", "3,2",
                               "--ports", "block-number.json"], 1,
                              "phode: block-number.json: field 'blocks' must be an array "
                              "of objects, got [3]", None),
    "decouple-ports-root": (["decouple", "two-mass.json", "--partition", "3,2",
                             "--ports", "ports-doc-root.json"], 1,
                            "phode: ports-doc-root.json: document root must be an object",
                            None),
    # documents deeper than the JSON decoder goes, and integers beyond the float range
    "validate-deep": (["validate", "deep.json"], 1,
                      "phode: deep.json: document is nested too deeply to decode", None),
    "decouple-ports-deep": (["decouple", "two-mass.json", "--partition", "3,2",
                             "--ports", "deep-ports.json"], 1,
                            "phode: deep-ports.json: document is nested too deeply to decode",
                            None),
    "validate-huge-int": (["validate", "huge-int.json"], 1,
                          "phode: huge-int.json: field 'J' has non-finite entries", None),
    "decouple-ports-huge-int": (["decouple", "two-mass.json", "--partition", "3,2",
                                 "--ports", "huge-int-ports.json"], 1,
                                "phode: huge-int-ports.json: field 'ports' has non-finite "
                                "entries", None),
    "validate-long-int": (["validate", "long-int.json"], 1,
                          "phode: long-int.json: integer of 5001 digits is too long "
                          "(at most 4300)", None),
    "decouple-ports-long-int": (["decouple", "two-mass.json", "--partition", "3,2",
                                 "--ports", "long-int-ports.json"], 1,
                                "phode: long-int-ports.json: integer of 5001 digits is too "
                                "long (at most 4300)", None),
    "validate-1000-digit-int": (["validate", "int-1000.json"], 1,
                                "phode: int-1000.json: field 'J' has non-finite entries", None),
    "validate-1000-digit-n": (["validate", "n-1000.json"], 1,
                              "phode: n-1000.json: field 'J' has 1 rows, expected 1" + "0" * 99
                              + "... (1000 characters)", None),
    "validate-model-huge-int": (["validate", "model-huge-int.json"], 1,
                                "phode: model-huge-int.json: bad parameters: int too large to "
                                "convert to float", None),
    "decouple-ports-long-block-index": (["decouple", "two-mass.json", "--partition", "3,2",
                                         "--ports", "long-index-ports.json"], 2,
                                        "phode: block pair (1" + "0" * 98
                                        + "... (1005 characters) must satisfy 0 <= i < j < s",
                                        None),
    "decouple-ports-long-block-twice": (["decouple", "two-mass.json", "--partition", "3,2",
                                         "--ports", "long-index-twice-ports.json"], 1,
                                        "phode: long-index-twice-ports.json: block (1" + "0" * 98
                                        + "... (1005 characters) given twice", None),
    # keys given twice, values cut, bytes that are not UTF-8
    "validate-duplicate-key": (["validate", "dup-root.json"], 1,
                               "phode: dup-root.json: duplicate key 'J'", None),
    "validate-duplicate-key-subsystem": (["validate", "dup-sub.json"], 1,
                                         "phode: dup-sub.json: duplicate key 'R'", None),
    "decouple-ports-duplicate-key": (["decouple", "two-mass.json", "--partition", "3,2",
                                      "--ports", "dup-ports.json"], 1,
                                     "phode: dup-ports.json: duplicate key 'C'", None),
    "validate-long-params": (["validate", "long-params.json"], 1,
                             "phode: long-params.json: field 'params' must be an object, got "
                             + "[" * 100 + "... (1001 characters)", None),
    "validate-long-model": (["validate", "long-model.json"], 1,
                            "phode: long-model.json: unknown model " + "[" * 100
                            + "... (1001 characters); known: maxwell, poroelastic, two-mass",
                            None),
    "validate-not-utf-8": (["validate", "latin-1.json"], 1,
                           "phode: latin-1.json: not UTF-8 text: byte 0xf6 at position 48",
                           None),
    "report-not-utf-8": (["report", "latin-1.csv", "sys.json"], 1,
                         "phode: latin-1.csv: not UTF-8 text: byte 0xa0 at position 53", None),
    # matrix entries and model parameters that are not JSON numbers
    "validate-bool-entry": (["validate", "j-true.json"], 1,
                            "phode: j-true.json: field 'J' has an entry true, not a number",
                            None),
    "validate-bool-among-numbers": (["validate", "r-false.json"], 1,
                                    "phode: r-false.json: field 'R' has an entry false, not a "
                                    "number", None),
    "validate-numeric-string": (["validate", "j-string.json"], 1,
                                "phode: j-string.json: field 'J' is not a numeric matrix", None),
    "validate-network-bool": (["validate", "net-c-true.json"], 1,
                              "phode: net-c-true.json: field 'C' has an entry true, not a number",
                              None),
    "validate-network-port-string": (["validate", "net-ports-string.json"], 1,
                                     "phode: net-ports-string.json: field 'ports' is not a "
                                     "numeric matrix", None),
    "decouple-ports-bool": (["decouple", "two-mass.json", "--partition", "3,2",
                             "--ports", "ports-true.json"], 1,
                            "phode: ports-true.json: field 'ports' has an entry true, not a "
                            "number", None),
    "decouple-ports-string": (["decouple", "two-mass.json", "--partition", "3,2",
                               "--ports", "ports-c-string.json"], 1,
                              "phode: ports-c-string.json: field 'C' is not a numeric matrix",
                              None),
    "validate-two-mass-null": (["validate", "m1-null.json"], 1,
                               "phode: m1-null.json: bad parameters: m1 must be a number, "
                               "got null", None),
    "validate-two-mass-true": (["validate", "m1-true.json"], 1,
                               "phode: m1-true.json: bad parameters: m1 must be a number, "
                               "got true", None),
    "validate-two-mass-string": (["validate", "k-string.json"], 1,
                                 "phode: k-string.json: bad parameters: K must be a number, "
                                 "got \"0.5\"", None),
    "validate-two-mass-array": (["validate", "r1-array.json"], 1,
                                "phode: r1-array.json: bad parameters: r1 must be a number, "
                                "got [0.1]", None),
    "validate-poroelastic-true": (["validate", "rho-true.json"], 1,
                                  "phode: rho-true.json: bad parameters: rho must be a number, "
                                  "got true", None),
    "validate-poroelastic-null": (["validate", "nu-null.json"], 1,
                                  "phode: nu-null.json: bad parameters: nu must be a number, "
                                  "got null", None),
    "validate-maxwell-string": (["validate", "m-mu-string.json"], 1,
                                "phode: m-mu-string.json: bad parameters: M_mu must be an array "
                                "of numbers, got [[\"2\", 0], [0, 1]]", None),
    "validate-dim-w-zero": (["validate", "dim-w-zero.json"], 1,
                            "phode: dim-w-zero.json: bad parameters: dim_w must be a positive "
                            "integer, got 0", None),
    "validate-dim-p-negative": (["validate", "dim-p-negative.json"], 1,
                                "phode: dim-p-negative.json: bad parameters: dim_p must be a "
                                "positive integer, got -3", None),
    "validate-dim-w-fraction": (["validate", "dim-w-fraction.json"], 1,
                                "phode: dim-w-fraction.json: bad parameters: dim_w must be a "
                                "positive integer, got 2.5", None),
    "validate-dim-p-true": (["validate", "dim-p-true.json"], 1,
                            "phode: dim-p-true.json: bad parameters: dim_p must be a positive "
                            "integer, got true", None),
    "validate-dim-w-memory": (["validate", "dim-w-memory.json"], 1,
                              "phode: dim-w-memory.json: bad parameters: dim_w = 20000, "
                              "dim_p = 2: E, J, R and L of 40002 states exceed memory "
                              "(1 GiB installed)", None),
    "model-dim-w-memory": (["model", "poroelastic", "--params", "dim_w=20000"], 1,
                           "phode: bad parameters: dim_w = 20000, dim_p = 2: E, J, R and L of "
                           "40002 states exceed memory (1 GiB installed)", None),
    # shapes of a network
    "validate-few-ports": (["validate", "few-ports.json"], 1,
                           "phode: few-ports.json: one internal port matrix per subsystem "
                           "required", None),
    "validate-mn-rows": (["validate", "mn-rows.json"], 1,
                         "phode: mn-rows.json: M and N must have the same row count", None),
    "validate-c-size": (["validate", "c-size.json"], 1,
                        "phode: c-size.json: C must be 2x2, got (3, 3)", None),
    "validate-port-rows": (["validate", "port-rows.json"], 1,
                           "phode: port-rows.json: port matrix rows 1 != subsystem "
                           "dimension 2", None),
    "validate-m-columns": (["validate", "m-columns.json"], 1,
                           "phode: m-columns.json: M and N must have 2 columns", None),
    "validate-n-columns": (["validate", "n-columns.json"], 1,
                           "phode: n-columns.json: M and N must have 2 columns", None),
    "validate-extra-port-sized": (["validate", "extra-port-sized.json"], 1,
                                  "phode: extra-port-sized.json: one internal port matrix "
                                  "per subsystem required", None),
    "validate-empty-c": (["validate", "empty-c.json"], 1,
                         "phode: empty-c.json: C must be 0x0, got (1, 0)", None),
    # shapes of a system
    "validate-e-shape": (["validate", "e-shape.json"], 1,
                         "phode: e-shape.json: E must be 2x2, got (1, 1)", None),
    "validate-l-shape": (["validate", "l-shape.json"], 1,
                         "phode: l-shape.json: L must be 2x2, got (1, 1)", None),
    "validate-b-rows": (["validate", "b-rows.json"], 1,
                        "phode: b-rows.json: B must be 2x1, got (1, 1)", None),
    "validate-p-shape": (["validate", "p-shape.json"], 1,
                         "phode: p-shape.json: P must be 2x1, got (1, 1)", None),
    "validate-s-shape": (["validate", "s-shape.json"], 1,
                         "phode: s-shape.json: S must be 1x1, got (1, 2)", None),
    "validate-n-shape": (["validate", "n-shape.json"], 1,
                         "phode: n-shape.json: N must be 1x1, got (2, 1)", None),
    # n and format that are not JSON integers
    "validate-n-fraction": (["validate", "n-fraction.json"], 1,
                            "phode: n-fraction.json: field 'n' must be an integer, got 2.5",
                            None),
    "validate-n-string": (["validate", "n-string.json"], 1,
                          "phode: n-string.json: field 'n' must be an integer, got \"2\"", None),
    "validate-n-float": (["validate", "n-float.json"], 1,
                         "phode: n-float.json: field 'n' must be an integer, got 2.0", None),
    "validate-n-true": (["validate", "n-true.json"], 1,
                        "phode: n-true.json: field 'n' must be an integer, got true", None),
    "validate-format-true": (["validate", "format-true.json"], 1,
                             "phode: format-true.json: field 'format' must be an integer, "
                             "got true", None),
    "validate-format-float": (["validate", "format-float.json"], 1,
                              "phode: format-float.json: field 'format' must be an integer, "
                              "got 1.0", None),
    # a port matrix beyond the subsystems, with a C of two ports
    "condense-extra-port": (["condense", "extra-port.json"], 1,
                            "phode: extra-port.json: C must be 3x3, got (2, 2)", None),
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
    "decouple-few-ports": (["decouple", "two-mass.json", "--partition", "3,2",
                            "--ports", "few-ports-doc.json"], 2,
                           "phode: one port matrix per partition block required", None),
    "decouple-lower-block": (["decouple", "two-mass.json", "--partition", "3,2",
                              "--ports", "lower-block.json"], 2,
                             "phode: block pair (1, 0) must satisfy 0 <= i < j < s", None),
    "decouple-block-shape": (["decouple", "two-mass.json", "--partition", "3,2",
                              "--ports", "block-shape.json"], 2,
                             "phode: coupling block (0, 1) has shape (1, 2), expected (1, 1)",
                             None),
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
    "decouple-overflow": (["decouple", "overflow-sys.json", "--partition", "1,1"], 4,
                          "phode: coupling matrix is not finite: J - R overflows off the "
                          "diagonal blocks", None),
    "simulate-singular": (["simulate", "maxwell.json", "--x0", ",".join(["0"] * 11)], 4,
                          "phode: descriptor system: integrate unsupported (singular E)", None),
    # H = x^2 / 2 of x0 = 1e200 is beyond the float range
    "simulate-diverges": (["simulate", "one.json", "--x0", "1e200"], 4,
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
    "simulate-dt": (["simulate", "sys.json", "--x0", "1,0", "--dt", "0"], 1,
                    "phode: dt must be positive, got 0.0", None),
    "simulate-dt-multiple": (["simulate", "sys.json", "--x0", "1,0", "--t1", "0.015",
                              "--dt", "0.01"], 1,
                             "phode: t1 - t0 must be a (positive) integer multiple of dt",
                             None),
    "simulate-dt-tiny": (["simulate", "sys.json", "--x0", "1,0", "--dt", "1e-320"], 1,
                         "phode: dt = 1e-320 is too small for t1 - t0", None),
    "cosim-window-multiple": (["cosim", "net.json", "--x0", "1,0", "--t1", "0.15"], 1,
                              "phode: t1 - t0 must be an integer multiple of the window", None),
    "cosim-sweeps": (["cosim", "net.json", "--x0", "1,0", "--sweeps", "0"], 1,
                     "phode: sweeps must be at least 1, got 0", None),
    "cosim-inner": (["cosim", "net.json", "--x0", "1,0", "--inner", "euler"], 1,
                    "phode: unknown inner integrator 'euler'", None),
    # out of memory
    "simulate-memory": (["simulate", "sys.json", "--x0", "1,0", "--t1", "0.1"], 1,
                        TRAJECTORY_MEMORY, "write_trajectory"),
    "cosim-memory": (["cosim", "net.json", "--x0", "1,0", "--t1", "0.1"], 1,
                     TRAJECTORY_MEMORY, "write_trajectory"),
    # t.csv is under doccache.MIN_BYTES, so report parses it through the
    # patched read_trajectory; no cached table skips the parse
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
    for name, text in TEXTS.items():
        (tmp_path / name).write_text(text)
    for name, text in LATIN_1.items():
        (tmp_path / name).write_bytes(text.encode("latin-1"))
    monkeypatch.setattr(phode.integrate, "_memory_bytes", lambda: 2.0 ** 30)


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, code, line, exhausted", CASES.values(), ids=CASES)
def test_exit_code_and_stderr_line(documents, monkeypatch, capsys, argv, code, line, exhausted):
    if exhausted:
        monkeypatch.setattr(phode.cli, exhausted, no_memory)
    assert run(argv, capsys) == (code, "" if line is None else line + "\n")


def test_integer_beyond_a_lowered_digit_limit(documents):
    # an interpreter whose integer text limit is set below 4300 digits
    # refuses, in the reader's words, an integer it could not print
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640",
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "phode.cli", "validate", "int-1000.json"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "phode: int-1000.json: integer of 1000 digits is too long (at most 640)\n")


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
