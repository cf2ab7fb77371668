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

from .core import (DimensionError, LinearPHSystem,
                   SingularFlowError, validate_structure)
from .coupling import (CoupledNetwork, LinearPortRelation, PHDAESystem,
                       StructureFailure, build_phdae, condense_general,
                       condense_skew, eliminate_ports)
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
        for sub in _systems_of(obj):
            rep = _validate(sub, tol)
            if not rep.passed:
                raise CliError(f"{path}: structure validation failed\n{rep.summary()}",
                               EXIT_VALIDATION)
    return obj


def _validate(sub, tol: float):
    try:
        return validate_structure(sub, tol=tol)
    except ValueError as exc:
        raise CliError(str(exc))


def _systems_of(obj):
    if isinstance(obj, LinearPHSystem):
        return [obj]
    if isinstance(obj, CoupledNetwork):
        return list(obj.subsystems)
    if isinstance(obj, PHDAESystem):
        return list(obj.network.subsystems)
    return []


def _write(path: str | None, text: str):
    if path is None or path == "-":
        _sys.stdout.write(text)
    else:
        Path(path).write_text(text)


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
    obj = _load(args.network, args.no_validate)
    net = obj.network if isinstance(obj, PHDAESystem) else obj
    if not isinstance(net, CoupledNetwork):
        raise CliError(f"{args.network}: expected a network document")
    if args.mode == "phdae" and not isinstance(net.coupling, LinearPortRelation):
        raise CliError("phdae condensation requires a coupling of type 'relation'")
    try:
        if args.mode == "skew":
            result = condense_skew(net)
        elif args.mode == "phdae":
            result = build_phdae(net)
        elif isinstance(net.coupling, LinearPortRelation):
            result = eliminate_ports(build_phdae(net))
        else:
            result = condense_general(net)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    _write(args.output, dump_document(_condensed(result)))
    return EXIT_OK


def _condensed(result):
    """A condensed system; a structure failure is a validation failure."""
    if isinstance(result, StructureFailure):
        raise CliError(f"{result.message} (min eigenvalue "
                       f"{result.min_eigenvalue:.3e})", EXIT_VALIDATION)
    return result


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
            if isinstance(result, VerificationFailure):
                print(f"verification failed for block pair {result.pair}: "
                      f"max residual {result.max_residual:.3e}", file=_sys.stderr)
                print(np.array2string(result.residual), file=_sys.stderr)
                return EXIT_VERIFICATION
        else:
            result = decouple_auto(obj, Partition(sizes))
    except (ValueError, DimensionError) as exc:
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
    except (SingularFlowError, NewtonError, FloatingPointError) as exc:
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
    if isinstance(obj.coupling, LinearPortRelation):
        raise CliError(f"{args.network}: cosim needs a coupling matrix, not a port relation")
    x0 = _parse_x0(args.x0, obj.n)
    # the monolithic system whose energy balance the report checks; a
    # structure failure ends the command before the run
    mono = _condensed(condense_skew(obj) if obj.coupling.is_skew else condense_general(obj))
    # one name applies to every subsystem, a comma list names one each
    inner = args.inner.split(",") if "," in args.inner else args.inner
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            traj = dynamic_iteration(obj, mode=args.mode, window=args.window,
                                     sweeps=args.sweeps, inner=inner,
                                     x0=x0, t0=args.t0, t1=args.t1, dt=args.dt)
    except (SingularFlowError, NewtonError, FloatingPointError) as exc:
        raise CliError(str(exc), EXIT_NUMERICAL)
    except StepCountError as exc:
        raise CliError(f"too many steps, lower --t1 or raise --dt: {exc}")
    except ValueError as exc:
        raise CliError(str(exc))
    for w in caught:
        print(f"phode: warning: {w.message}", file=_sys.stderr)
    rep = energy_report(traj, mono)
    _write(args.output, write_trajectory(traj, rep))
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


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="phode",
                description="Build, validate, couple, decouple and simulate "
                            "port-Hamiltonian ODE systems.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--no-validate", action="store_true",
                        help="skip structure validation on load")

    v = sub.add_parser("validate", help="run the structural checks")
    v.add_argument("system")
    v.add_argument("--tol", type=float, default=1e-10)
    v.set_defaults(func=_cmd_validate)

    c = sub.add_parser("condense", help="condense a network into one system")
    c.add_argument("network")
    c.add_argument("-o", "--output", default=None)
    c.add_argument("--mode", choices=["skew", "general", "phdae"], default="skew")
    add_common(c)
    c.set_defaults(func=_cmd_condense)

    d = sub.add_parser("decouple", help="split a monolithic system")
    d.add_argument("system")
    d.add_argument("--partition", required=True, metavar="n1,n2,...")
    d.add_argument("--ports", default=None, help="JSON file with port matrices")
    d.add_argument("-o", "--output", default=None)
    add_common(d)
    d.set_defaults(func=_cmd_decouple)

    s = sub.add_parser("simulate", help="integrate a single system")
    s.add_argument("system")
    s.add_argument("--x0", required=True, metavar="csv-list")
    s.add_argument("--t0", type=float, default=0.0)
    s.add_argument("--t1", type=float, default=10.0)
    s.add_argument("--dt", type=float, default=0.01)
    s.add_argument("--method", choices=["midpoint", "strang"], default="midpoint")
    s.add_argument("-o", "--output", default=None)
    add_common(s)
    s.set_defaults(func=_cmd_simulate)

    co = sub.add_parser("cosim", help="dynamic iteration on a network")
    co.add_argument("network")
    co.add_argument("--mode", choices=["jacobi", "gauss-seidel"], default="jacobi")
    co.add_argument("--window", type=float, default=0.1)
    co.add_argument("--sweeps", type=int, default=5)
    co.add_argument("--inner", default="midpoint",
                    help="integrator of every subsystem (midpoint|strang), or a "
                         "comma list with one per subsystem")
    co.add_argument("--x0", required=True, metavar="csv-list")
    co.add_argument("--t0", type=float, default=0.0)
    co.add_argument("--t1", type=float, default=1.0)
    co.add_argument("--dt", type=float, default=0.01)
    co.add_argument("-o", "--output", default=None)
    add_common(co)
    co.set_defaults(func=_cmd_cosim)

    r = sub.add_parser("report", help="energy report for a stored trajectory")
    r.add_argument("trajectory")
    r.add_argument("system")
    add_common(r)
    r.set_defaults(func=_cmd_report)

    m = sub.add_parser("model", help="emit a registered benchmark model")
    m.add_argument("name")
    m.add_argument("--params", default="", metavar="k=v,...")
    m.add_argument("-o", "--output", default=None)
    m.set_defaults(func=_cmd_model)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"phode: {exc}", file=_sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
