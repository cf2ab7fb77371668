"""Command-line interface.

Subcommands: validate, condense, decouple, simulate, cosim, report, model.
Exit codes: 0 success, 1 usage error, 2 validation failure,
3 verification failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys as _sys
import time
import warnings
from contextlib import contextmanager, suppress

import numpy as np

from .core import LinearPHSystem, SingularFlowError, structure_failures, validate_structure
from .coupling import CoupledNetwork, LinearPortRelation, condense_general, condense_skew
from .decoupling import (Partition, VerificationFailure, decouple_auto,
                         decouple_with_ports)
from .fileio import (dump_document, parse_ports_text, parse_system_text, read_trajectory,
                     write_trajectory)
from .integrate import (NewtonError, StepCountError, Trajectory, dynamic_iteration,
                        energy_report, implicit_midpoint, strang_split)
from . import doccache, models

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


@contextmanager
def _about(path: str):
    """A file that cannot be read or decoded as UTF-8, or whose content is
    refused with a ValueError, is a usage error that names it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                       f"at position {exc.start}")
    except (OSError, ValueError) as exc:
        raise CliError(f"{path}: {exc}")


def _read(path: str, parse, cached: bool = False, kind: str = doccache.SYSTEM):
    """``parse`` applied to the text of a file, decoded as UTF-8 with
    universal newlines (as ``Path.read_text`` decodes it); a file that
    cannot be read or decoded, or whose text ``parse`` refuses with a
    ValueError, is a usage error (see ``_about``).  With ``cached``, the
    result for a file of at least ``doccache.MIN_BYTES`` is taken from, or
    stored in, the document cache under ``kind``, and a settled file is
    found by its status without a read (see phode.doccache)."""
    with _about(path):
        now = time.time_ns()            # before the open, whose status it dates
        with open(path, "rb") as f:
            memo = doccache.memo_of(os.fstat(f.fileno()), kind, now) if cached else None
            obj = doccache.recall(memo, kind)
            if obj is not None:
                return obj
            data = f.read()
        key = (doccache.key_of(data, kind)
               if cached and len(data) >= doccache.MIN_BYTES else None)
        obj = doccache.get(key, kind)
        if obj is None:
            text = data.decode("utf-8")
            del data            # only the text stays alive while it is parsed
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            obj = parse(text)
            del text
            doccache.put(key, obj)
        doccache.remember(memo, key)
        return obj


@contextmanager
def _refusal():
    """A ValueError of a condensation or decoupling, save a VerificationFailure,
    refuses its input: exit 2, the one code that depends on a command's phase."""
    try:
        yield
    except VerificationFailure:
        raise
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)


def _load(path: str, kind=None):
    """The system or network of the document at ``path``, refused with exit
    2 when a system in it fails one of the three structural checks (E's
    reciprocal condition, which no verdict reads, is left to the commands
    that use it); when ``kind`` is given (LinearPHSystem or CoupledNetwork),
    a document of another kind is a usage error, raised after the check."""
    obj = _read(path, parse_system_text, cached=True)
    network = isinstance(obj, CoupledNetwork)
    for i, sub in enumerate(obj.subsystems if network else (obj,), 1):
        failed = structure_failures(sub)
        if failed:
            where = f"subsystem {i}: " if network else ""
            raise CliError(f"{path}: structure validation failed: {where}{failed}",
                           EXIT_VALIDATION)
    if kind is not None and not isinstance(obj, kind):
        name = "linear system" if kind is LinearPHSystem else "network"
        raise CliError(f"{path}: expected a {name} document")
    return obj


# characters handed to one write call: each slice is copied and encoded on
# its own, so writing holds one slice beyond the text
_WRITE_SLICE_CHARS = 2 ** 16


def _write(path: str | None, text: str, kind: str | None = None) -> str | None:
    """Write ``text`` to the file ``path``, or to standard output when path
    is None or "-", in slices of ``_WRITE_SLICE_CHARS`` characters; a file
    that cannot be written is a usage error.  An existing regular file is
    written over in place and then cut to the length that reached it, also
    when a write fails; other targets are never truncated.  With ``kind``,
    returns the document cache key (see phode.doccache) of a file's text of
    at least ``doccache.MIN_BYTES`` characters, hashed a slice at a time,
    and None for any other target or text.  The key is of the text's ASCII
    bytes, which are what the file receives of an ASCII text where a
    newline is written as it is (POSIX); any other text gets none."""
    h = None
    if (kind is not None and path not in (None, "-") and os.linesep == "\n"
            and len(text) >= doccache.MIN_BYTES and text.isascii()):
        h = doccache.hasher(kind)
    try:
        if path is None or path == "-":
            _write_slices(_sys.stdout, text)
        else:
            with open(path, "w", opener=_open_untruncated) as f:
                fd = f.fileno()
                old = os.fstat(fd)
                try:
                    _write_slices(f, text, h)
                    f.flush()
                finally:
                    # cut the old file's tail without another flush, which
                    # could fail first; a new or empty file has no tail
                    if stat.S_ISREG(old.st_mode) and old.st_size:
                        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        raise CliError(f"{path or '-'}: {exc}")
    return None if h is None else h.hexdigest()


def _open_untruncated(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_slices(f, text: str, h=None):
    for a in range(0, len(text), _WRITE_SLICE_CHARS):
        piece = text[a:a + _WRITE_SLICE_CHARS]
        f.write(piece)
        if h is not None:
            h.update(piece.encode())


def _write_trajectory(path: str | None, traj: Trajectory, rep):
    """Write the CSV of ``traj`` and its energy report ``rep`` (see
    ``_write``); a file of at least ``doccache.MIN_BYTES`` bytes gets the
    document cache entry of its table (see ``_store_table``)."""
    _store_table(_write(path, write_trajectory(traj, rep), doccache.TRAJECTORY), traj, rep)


def _store_table(key: str | None, traj: Trajectory, rep):
    """Store under ``key`` (nothing when it is None) the table that
    ``read_trajectory`` reads from the CSV of ``traj`` and ``rep``: t, the
    states, H and the residuals after a leading 0.  An entry that is there
    is kept, since a content key means its bytes are the same.  A table
    that does not fit is not stored: no exit code depends on the cache."""
    if key is None or doccache.has(key):
        return
    with suppress(MemoryError):
        res = np.zeros(len(traj.t))
        res[1:] = rep.residuals
        table = np.column_stack([traj.t, traj.x, traj.H, res])
        if np.all(np.isfinite(table)):      # read_trajectory refuses any other
            doccache.put(key, table)


def _trajectory_table(text: str) -> np.ndarray:
    """The table of a trajectory CSV whose columns ``read_trajectory``
    returns as views: t, the states, H and the residuals."""
    return read_trajectory(text)[0].base


def _cmd_validate(args):
    obj = _read(args.system, parse_system_text, cached=True)
    if isinstance(obj, CoupledNetwork):
        reports = [(f"subsystem {i}", validate_structure(sub))
                   for i, sub in enumerate(obj.subsystems, 1)]
    else:
        reports = [("system", validate_structure(obj))]
    for label, rep in reports:
        print(f"== {label} ==")
        print(rep.summary())
    return EXIT_OK if all(rep.passed for _, rep in reports) else EXIT_VALIDATION


def build_phdae(net: CoupledNetwork) -> CoupledNetwork:
    """``condense --mode phdae``: the network itself, checked to carry a relation."""
    if not isinstance(net.coupling, LinearPortRelation):
        raise CliError("phdae condensation requires a coupling of type 'relation'")
    return net


# called by no command; perfbench/tracing.py wraps it, and it goes when the
# LAYERS there drop both eliminate_ports and build_phdae
eliminate_ports = condense_general


def _cmd_condense(args):
    net = _load(args.network, CoupledNetwork)
    condense = {"skew": condense_skew, "general": condense_general, "phdae": build_phdae}
    with _refusal():
        result = condense[args.mode](net)
    kind = "phdae" if args.mode == "phdae" else None
    _write(args.output, dump_document(result, kind=kind))
    return EXIT_OK


def _cmd_decouple(args):
    obj = _load(args.system, LinearPHSystem)
    sizes = _numbers(args.partition, int, "partition")
    ports = _read(args.ports, parse_ports_text) if args.ports else None
    with _refusal():
        part = Partition(sizes)
        result = decouple_with_ports(obj, part, *ports) if ports else decouple_auto(obj, part)
    _write(args.output, dump_document(result))
    return EXIT_OK


def _numbers(text: str, kind, what: str) -> list:
    """The comma-separated numbers of ``text``, each converted by ``kind``."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise CliError(f"bad {what} {text!r}")


def _parse_x0(text: str, n: int) -> np.ndarray:
    x0 = np.array(_numbers(text, float, "state list"), dtype=float)
    if not np.all(np.isfinite(x0)):
        raise CliError(f"x0 must be finite, got {text!r}")
    if x0.size != n:
        raise CliError(f"x0 has {x0.size} entries, state dimension is {n}")
    return x0


def _cmd_simulate(args):
    obj = _load(args.system, LinearPHSystem)
    x0 = _parse_x0(args.x0, obj.n)
    run = implicit_midpoint if args.method == "midpoint" else strang_split
    traj = run(obj, x0=x0, t0=args.t0, t1=args.t1, dt=args.dt)
    _write_trajectory(args.output, traj, energy_report(traj, obj))
    return EXIT_OK


def _cmd_cosim(args):
    net = _load(args.network, CoupledNetwork)
    x0 = _parse_x0(args.x0, net.n)
    # the monolithic system whose energy balance the report checks; a
    # relation without a regular M, an indefinite W or an overflow ends the
    # command before the run
    with _refusal():
        mono = condense_general(net)
    # one name applies to every subsystem, a comma list names one each
    inner = args.inner.split(",") if "," in args.inner else args.inner
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        traj = dynamic_iteration(net, mode=args.mode, window=args.window,
                                 sweeps=args.sweeps, inner=inner,
                                 x0=x0, t0=args.t0, t1=args.t1, dt=args.dt)
    _write_trajectory(args.output, traj, energy_report(traj, mono))
    # after the write, so that a failure stays the one line on stderr
    for w in caught:
        print(f"phode: warning: {w.message}", file=_sys.stderr)
    return EXIT_OK


def _cmd_report(args):
    obj = _load(args.system, LinearPHSystem)
    table = _read(args.trajectory, _trajectory_table, cached=True, kind=doccache.TRAJECTORY)
    zeros = np.zeros((len(table), obj.m))
    with _about(args.trajectory):
        traj = Trajectory(t=table[:, 0], x=table[:, 1:-2], u=zeros, y=zeros,
                          H=table[:, -2], method="file")
    print(energy_report(traj, obj).summary())
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
    _write(args.output, dump_document(models.build(args.name, _parse_params(args.params))))
    return EXIT_OK


def _add_validate(sp):
    sp.add_argument("system")


def _add_condense(sp):
    sp.add_argument("network")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--mode", choices=["skew", "general", "phdae"], default="skew")


def _add_decouple(sp):
    sp.add_argument("system")
    sp.add_argument("--partition", required=True, metavar="n1,n2,...")
    sp.add_argument("--ports", default=None, help="JSON file with port matrices")
    sp.add_argument("-o", "--output", default=None)


def _add_simulate(sp):
    sp.add_argument("system")
    sp.add_argument("--x0", required=True, metavar="csv-list")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, default=10.0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--method", choices=["midpoint", "strang"], default="midpoint")
    sp.add_argument("-o", "--output", default=None)


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


def _add_report(sp):
    sp.add_argument("trajectory")
    sp.add_argument("system")


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
    ``COMMANDS``) the parser ``phode <command>`` of that one command, which
    parses the arguments after the command's name.  Both print the same
    usage lines and messages for that command."""
    if command is not None:
        return _command(_Parser(prog=f"phode {command}"), command)
    return _top_parser(COMMANDS)


def _command(sp, name: str):
    _, add_arguments, handler = COMMANDS[name]
    add_arguments(sp)
    sp.set_defaults(command=name, func=handler)
    return sp


def _top_parser(names):
    """The parser ``phode`` with the commands ``names``.  Without any, its
    usage line still lists every command; with them, it keeps argparse's
    metavar, because its message for a missing command names the dest
    ("command")."""
    p = _Parser(prog="phode",
                description="Build, validate, couple, decouple and simulate "
                            "port-Hamiltonian ODE systems.")
    metavar = None if names else "{" + ",".join(COMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _command(sub.add_parser(name, help=COMMANDS[name][0]), name)
    return p


# exception type -> (exit code, message prefix): the first row that a failure
# is an instance of gives its exit code (None: the CliError's own) and its
# line, "phode: " + prefix + the exception's text
EXIT_TABLE = (
    (CliError, None, ""),
    (VerificationFailure, EXIT_VERIFICATION, ""),  # ports that do not reproduce the system
    # a singular flow matrix, a Newton breakdown, or a condensation,
    # decoupling, run or document that leaves the finite range
    ((SingularFlowError, NewtonError, FloatingPointError), EXIT_NUMERICAL, ""),
    (StepCountError, EXIT_USAGE, "too many steps, lower --t1 or raise --dt: "),
    (ValueError, EXIT_USAGE, ""),
    (MemoryError, EXIT_USAGE, "out of memory"),
)
# after "out of memory", for the commands with a trajectory: the step-count check
# bounds what a run keeps per step, not the copies that rendering it or reading it make
_MEMORY_HINTS = dict.fromkeys(("simulate", "cosim", "report"), ": the trajectory does "
                              "not fit; make it shorter (lower --t1 or raise --dt)")


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to the process arguments.  Only
    the parser of the command that ``argv[0]`` names is built; with no
    command there, the full parser reports usage or prints help, and the
    parser ``phode`` alone reports arguments the command leaves over.  A
    failure prints one line and returns its code in ``EXIT_TABLE``."""
    argv = _sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        if command is None:
            args = build_parser().parse_args(argv)
        else:
            args, extras = build_parser(command).parse_known_args(argv[1:])
            if extras:
                _top_parser(()).error(f"unrecognized arguments: {' '.join(extras)}")
        return args.func(args)
    except Exception as exc:
        row = next((row for row in EXIT_TABLE if isinstance(exc, row[0])), None)
        if row is None:
            raise
        _, code, prefix = row
        # a MemoryError's own text, if any, names an array, not the input
        text = _MEMORY_HINTS.get(command, "") if isinstance(exc, MemoryError) else str(exc)
        print(f"phode: {prefix}{text}", file=_sys.stderr)
        return exc.code if code is None else code


if __name__ == "__main__":
    raise SystemExit(main())
