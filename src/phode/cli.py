"""Command-line interface.

Subcommands: validate, condense, decouple, simulate, cosim, report, model.
Exit codes: 0 success, 1 usage error, 2 validation failure,
3 verification failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import re
import sys as _sys
import warnings
from pathlib import Path

import numpy as np

from .core import LinearPHSystem, SingularFlowError, validate_structure
# no command calls eliminate_ports (condense_general takes relation
# networks); it stays here for perfbench/tracing.py, which wraps it
from .coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation, build_phdae,
                       condense_general, condense_skew, coupling_matrix,
                       eliminate_ports)  # noqa: F401
from .decoupling import (Partition, VerificationFailure, decouple_auto,
                         decouple_with_ports)
from .fileio import (ParseError, dump_document, parse_ports_text, parse_system_text,
                     read_trajectory, write_trajectory)
from .integrate import (NewtonError, StepCountError, Trajectory, dynamic_iteration,
                        energy_report, implicit_midpoint, strang_split)
from . import models

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_NUMERICAL = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as "-0.3,0.5" is a number list, not an option (the
        # Python 3.11 matcher accepts only a single negative number)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(_sys.stderr)
        raise CliError(message, EXIT_USAGE)


def _read(path: str, parse):
    """``parse`` applied to the text of a file; a file that cannot be read
    or parsed is a usage error."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ParseError) as exc:
        raise CliError(f"{path}: {exc}")


def _load(path: str, no_validate: bool, tol: float = 1e-10):
    obj = _read(path, parse_system_text)
    if not no_validate:
        for i, sub in enumerate(_systems_of(obj)):
            rep = _validate(sub, tol)
            if not rep.passed:
                where = "" if isinstance(obj, LinearPHSystem) else f"subsystem {i + 1}: "
                raise CliError(f"{path}: structure validation failed: {where}"
                               f"{rep.failures()}", EXIT_VALIDATION)
    return obj


def _validate(sub, tol: float):
    try:
        return validate_structure(sub, tol=tol)
    except ValueError as exc:
        raise CliError(str(exc))


def _systems_of(obj):
    return list(obj.subsystems) if isinstance(obj, CoupledNetwork) else [obj]


# characters handed to one write call: each slice is copied and encoded on
# its own, so writing holds one slice beyond the text
_WRITE_SLICE_CHARS = 2 ** 16


def _write(path: str | None, text: str):
    """Write ``text`` to the file ``path``, or to standard output when path
    is None or "-", in slices of ``_WRITE_SLICE_CHARS`` characters; a file
    that cannot be written is a usage error."""
    try:
        if path is None or path == "-":
            _write_slices(_sys.stdout, text)
        else:
            with open(path, "w") as f:
                _write_slices(f, text)
    except OSError as exc:
        raise CliError(f"{path or '-'}: {exc}")


def _write_slices(f, text: str):
    for a in range(0, len(text), _WRITE_SLICE_CHARS):
        f.write(text[a:a + _WRITE_SLICE_CHARS])


def _cmd_validate(args):
    obj = _load(args.system, no_validate=True)
    systems = _systems_of(obj)
    failed = False
    for i, sub in enumerate(systems):
        rep = _validate(sub, args.tol)
        label = "system" if len(systems) == 1 else f"subsystem {i + 1}"
        print(f"== {label} ==")
        print(rep.summary())
        failed = failed or not rep.passed
    return EXIT_VALIDATION if failed else EXIT_OK


def _cmd_condense(args):
    net = _load(args.network, args.no_validate)
    if not isinstance(net, CoupledNetwork):
        raise CliError(f"{args.network}: expected a network document")
    if args.mode == "phdae" and not isinstance(net.coupling, LinearPortRelation):
        raise CliError("phdae condensation requires a coupling of type 'relation'")
    condense = {"skew": condense_skew, "general": condense_general, "phdae": build_phdae}
    try:
        result = condense[args.mode](net)
    except ValueError as exc:
        # a singular M, a non-skew C in skew mode or a StructureFailure
        raise CliError(str(exc), EXIT_VALIDATION)
    kind = "phdae" if args.mode == "phdae" else None
    _write(args.output, dump_document(result, kind=kind))
    return EXIT_OK


def _cmd_decouple(args):
    obj = _load(args.system, args.no_validate)
    if not isinstance(obj, LinearPHSystem):
        raise CliError(f"{args.system}: expected a linear system document")
    try:
        sizes = tuple(int(s) for s in args.partition.split(","))
    except ValueError:
        raise CliError(f"bad partition {args.partition!r}")
    try:
        if args.ports:
            ports, blocks = _read(args.ports, parse_ports_text)
            result = decouple_with_ports(obj, Partition(sizes), ports, blocks)
        else:
            result = decouple_auto(obj, Partition(sizes))
    except VerificationFailure:
        raise   # exit 3 in main
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    _write(args.output, dump_document(result))
    return EXIT_OK


def _parse_x0(text: str, n: int) -> np.ndarray:
    try:
        x0 = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise CliError(f"bad state list {text!r}")
    if not np.all(np.isfinite(x0)):
        raise CliError(f"x0 must be finite, got {text!r}")
    if x0.size != n:
        raise CliError(f"x0 has {x0.size} entries, state dimension is {n}")
    return x0


def _cmd_simulate(args):
    obj = _load(args.system, args.no_validate)
    if not isinstance(obj, LinearPHSystem):
        raise CliError(f"{args.system}: expected a linear system document")
    x0 = _parse_x0(args.x0, obj.n)
    try:
        if args.method == "midpoint":
            traj = implicit_midpoint(obj, x0=x0, t0=args.t0, t1=args.t1, dt=args.dt)
        else:
            traj = strang_split(obj, x0=x0, t0=args.t0, t1=args.t1, dt=args.dt)
    except (SingularFlowError, NewtonError) as exc:
        raise CliError(str(exc), EXIT_NUMERICAL)
    except StepCountError as exc:
        raise CliError(f"too many steps, lower --t1 or raise --dt: {exc}")
    except ValueError as exc:
        raise CliError(str(exc))
    rep = energy_report(traj, obj)
    _write(args.output, write_trajectory(traj, rep))
    return EXIT_OK


def _cmd_cosim(args):
    obj = _load(args.network, args.no_validate)
    if not isinstance(obj, CoupledNetwork):
        raise CliError(f"{args.network}: expected a network document")
    x0 = _parse_x0(args.x0, obj.n)
    # the network with its coupling matrix, and the monolithic system whose
    # energy balance the report checks; a relation without a regular M, a
    # structure failure or an overflow ends the command before the run
    try:
        net = CoupledNetwork(obj.subsystems,
                             CouplingSpec(obj.coupling.port_matrices, coupling_matrix(obj)))
        mono = condense_skew(net) if net.coupling.is_skew else condense_general(net)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    # one name applies to every subsystem, a comma list names one each
    inner = args.inner.split(",") if "," in args.inner else args.inner
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            traj = dynamic_iteration(net, mode=args.mode, window=args.window,
                                     sweeps=args.sweeps, inner=inner,
                                     x0=x0, t0=args.t0, t1=args.t1, dt=args.dt)
    except (SingularFlowError, NewtonError) as exc:
        raise CliError(str(exc), EXIT_NUMERICAL)
    except StepCountError as exc:
        raise CliError(f"too many steps, lower --t1 or raise --dt: {exc}")
    except ValueError as exc:
        raise CliError(str(exc))
    rep = energy_report(traj, mono)
    _write(args.output, write_trajectory(traj, rep))
    # after the write, so that a failure stays the one line on stderr
    for w in caught:
        print(f"phode: warning: {w.message}", file=_sys.stderr)
    return EXIT_OK


def _cmd_report(args):
    obj = _load(args.system, args.no_validate)
    if not isinstance(obj, LinearPHSystem):
        raise CliError(f"{args.system}: expected a linear system document")
    m = obj.m
    try:
        t, x, h, _ = read_trajectory(Path(args.trajectory).read_text())
        traj = Trajectory(t=t, x=x, u=np.zeros((len(t), m)),
                          y=np.zeros((len(t), m)), H=h, method="file")
    except (OSError, ValueError) as exc:
        raise CliError(f"{args.trajectory}: {exc}")
    if x.shape[0] and x.shape[1] != obj.n:
        raise CliError(f"trajectory has {x.shape[1]} state columns, "
                       f"system dimension is {obj.n}")
    rep = energy_report(traj, obj)
    print(rep.summary())
    return EXIT_OK


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise CliError(f"bad parameter {item!r}, expected k=v")
        k, v = item.split("=", 1)
        try:
            out[k.strip()] = int(v)
        except ValueError:
            try:
                out[k.strip()] = float(v)
            except ValueError:
                raise CliError(f"bad parameter value {v!r}")
    return out


def _cmd_model(args):
    if args.name not in models.REGISTRY:
        raise CliError(f"unknown model {args.name!r}; known: "
                       + ", ".join(sorted(models.REGISTRY)))
    params_cls, ctor = models.REGISTRY[args.name]
    try:
        params = params_cls(**_parse_params(args.params))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad parameters: {exc}")
    _write(args.output, dump_document(ctor(params)))
    return EXIT_OK


def _add_no_validate(sp):
    sp.add_argument("--no-validate", action="store_true",
                    help="skip structure validation on load")


def _add_validate(sp):
    sp.add_argument("system")
    sp.add_argument("--tol", type=float, default=1e-10)


def _add_condense(sp):
    sp.add_argument("network")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--mode", choices=["skew", "general", "phdae"], default="skew")
    _add_no_validate(sp)


def _add_decouple(sp):
    sp.add_argument("system")
    sp.add_argument("--partition", required=True, metavar="n1,n2,...")
    sp.add_argument("--ports", default=None, help="JSON file with port matrices")
    sp.add_argument("-o", "--output", default=None)
    _add_no_validate(sp)


def _add_simulate(sp):
    sp.add_argument("system")
    sp.add_argument("--x0", required=True, metavar="csv-list")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--method", choices=["midpoint", "strang"], default="midpoint")
    sp.add_argument("-o", "--output", default=None)
    _add_no_validate(sp)


def _add_cosim(sp):
    sp.add_argument("network")
    sp.add_argument("--mode", choices=["jacobi", "gauss-seidel"], default="jacobi")
    sp.add_argument("--window", type=float, default=0.1)
    sp.add_argument("--sweeps", type=int, default=5)
    sp.add_argument("--inner", default="midpoint",
                    help="integrator of every subsystem (midpoint|strang), or a "
                         "comma list with one per subsystem")
    sp.add_argument("--x0", required=True, metavar="csv-list")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, default=1.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("-o", "--output", default=None)
    _add_no_validate(sp)


def _add_report(sp):
    sp.add_argument("trajectory")
    sp.add_argument("system")
    _add_no_validate(sp)


def _add_model(sp):
    sp.add_argument("name")
    sp.add_argument("--params", default="", metavar="k=v,...")
    sp.add_argument("-o", "--output", default=None)


# command name -> (help text, function adding its arguments, handler)
COMMANDS = {
    "validate": ("run the structural checks", _add_validate, _cmd_validate),
    "condense": ("condense a network into one system", _add_condense, _cmd_condense),
    "decouple": ("split a monolithic system", _add_decouple, _cmd_decouple),
    "simulate": ("integrate a single system", _add_simulate, _cmd_simulate),
    "cosim": ("dynamic iteration on a network", _add_cosim, _cmd_cosim),
    "report": ("energy report for a stored trajectory", _add_report, _cmd_report),
    "model": ("emit a registered benchmark model", _add_model, _cmd_model),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` (a key of
    ``COMMANDS``) the parser of that one command.  Both parse that
    command's arguments and print the same usage lines and messages."""
    p = _Parser(prog="phode",
                description="Build, validate, couple, decouple and simulate "
                            "port-Hamiltonian ODE systems.")
    # one command's usage line lists every command, as the full parser's
    # does; the full parser keeps argparse's metavar, because its message
    # for a missing command names the dest ("command")
    if command is None:
        names, metavar = list(COMMANDS), None
    else:
        names, metavar = [command], "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        add_arguments(sp)
        sp.set_defaults(func=handler)
    return p


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to the process arguments.  Only
    the command that ``argv[0]`` names gets its parser built; with no
    command there, the full parser reports usage or prints help."""
    argv = _sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"phode: {exc}", file=_sys.stderr)
        return exc.code
    except (VerificationFailure, FloatingPointError) as exc:
        # ports that do not reproduce the system (the residual matrix stays
        # on the exception), or a condensation, decoupling, run or document
        # that leaves the finite range
        print(f"phode: {exc}", file=_sys.stderr)
        return EXIT_VERIFICATION if isinstance(exc, VerificationFailure) else EXIT_NUMERICAL
    except MemoryError:
        # the step-count check bounds what a run keeps per step, not the
        # copies that rendering, writing, reading or reporting it makes
        print("phode: out of memory: the trajectory does not fit; make it "
              "shorter (lower --t1 or raise --dt)", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
