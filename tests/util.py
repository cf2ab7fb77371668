"""Shared test helpers: random valid systems/networks and a high-order
reference integrator used as an independent oracle."""

import itertools
import json
import math
import re
import warnings

import numpy as np

from phode import coupling
from phode.core import (E_RCOND_MIN, LinearPHSystem, StructureReport, _block2, _fd_gradient,
                        _rcond, _slices)
from phode.coupling import CoupledNetwork, CouplingSpec
from phode.fileio import ParseError, _lines, network_to_doc, system_to_doc
from phode.integrate import _inputs, _propagate, _propagator


def random_linear_ph(rng, n=4, m=2, implicit=False, feedthrough=False):
    """Random valid linear pH system: skew J, PSD R = A^T A, SPD Q and a
    compatible effort matrix L = E^{-T} Q.  With ``feedthrough`` the
    system also gets P, S (from a PSD W = [[R, P], [P^T, S]]) and a skew N."""
    A = rng.standard_normal((n, n))
    J = A - A.T
    A = rng.standard_normal((n + m, n + m)) if feedthrough else rng.standard_normal((n, n))
    W = A.T @ A
    R = W[:n, :n]
    extra = {}
    if feedthrough:
        extra = {"P": W[:n, n:], "S": W[n:, n:], "N": random_skew(rng, m)}
    B = rng.standard_normal((n, m)) if m else np.zeros((n, 0))
    A = rng.standard_normal((n, n))
    Q = A.T @ A + n * np.eye(n)
    if implicit:
        A = rng.standard_normal((n, n))
        E = A.T @ A + n * np.eye(n)
    else:
        E = np.eye(n)
    L = np.linalg.solve(E.T, Q)
    return LinearPHSystem(E=E, J=J, R=R, B=B, L=L, **extra)


def random_skew(rng, k):
    A = rng.standard_normal((k, k))
    return A - A.T


def random_network(rng, s=2, max_n=4, max_m=2, implicit=False):
    """Random skew-coupled network with valid subsystems."""
    sizes = [int(rng.integers(1, max_n + 1)) for _ in range(s)]
    ports_m = [int(rng.integers(1, max_m + 1)) for _ in range(s)]
    subs = tuple(random_linear_ph(rng, n=ni, m=0, implicit=implicit) for ni in sizes)
    ports = tuple(rng.standard_normal((ni, mi)) for ni, mi in zip(sizes, ports_m))
    C = random_skew(rng, sum(ports_m))
    return CoupledNetwork(subsystems=subs, coupling=CouplingSpec(ports, C))


def random_separable(rng, sizes, m=0):
    """Random valid system with identity E and block-diagonal L = Q over
    the partition ``sizes``, and J and R without zero blocks: decouple_auto
    splits it into a relation network (case 2).  The off-diagonal blocks
    are weak enough (J / n, R / n^2) for waveform relaxation at window 0.1
    to converge in a few sweeps."""
    n = sum(sizes)
    blocks = [rng.standard_normal((k, k)) for k in sizes]
    Q = coupling._blockdiag([a.T @ a / len(a) + np.eye(len(a)) for a in blocks])
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m)) if m else np.zeros((n, 0))
    return LinearPHSystem(E=np.eye(n), J=random_skew(rng, n) / n, R=A.T @ A / n ** 2,
                          B=B, L=Q)


def rk4_reference(sys, x0, t0, t1, dt):
    """Classical fourth-order reference solution (oracle only)."""
    A = np.linalg.solve(sys.E, (sys.J - sys.R) @ sys.L)

    def f(x):
        return A @ x

    steps = int(round((t1 - t0) / dt))
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def explicit_euler(sys, x0, t0, t1, dt):
    """Explicit Euler trajectory (oracle only, for energy comparisons)."""
    A = np.linalg.solve(sys.E, (sys.J - sys.R) @ sys.L)
    steps = int(round((t1 - t0) / dt))
    xs = [np.asarray(x0, dtype=float).copy()]
    for _ in range(steps):
        xs.append(xs[-1] + dt * A @ xs[-1])
    return t0 + dt * np.arange(steps + 1), np.array(xs)


def per_step_dynamic_iteration(net, mode="jacobi", window=0.1, sweeps=5,
                               inner="midpoint", u=None, x0=None, t1=1.0, dt=0.01):
    """States of windowed waveform relaxation that steps every subsystem
    through every window in every sweep (oracle for the lifted maps)."""
    q = int(round(window / dt))
    steps = int(round(t1 / dt))
    subs = net.subsystems
    inner = [inner] * len(subs) if isinstance(inner, str) else inner
    C = net.coupling.C
    mono = net.stacked
    state_sl = _slices(net.state_sizes)
    port_sl = _slices(net.coupling.layout)
    input_sl = _slices([sub.m for sub in subs])
    # per subsystem its step matrix, the gain of its coupling input C_i y_hat
    # and the forcing of its own inputs
    props = []
    for sub, method, bhat in zip(subs, inner, net.coupling.port_matrices):
        phi, forcing = _propagator(sub, method, dt, np.hstack([-bhat, sub.B - sub.P]))
        props.append((phi, forcing[:, :bhat.shape[1]], forcing[:, bhat.shape[1]:]))
    out_map = mono.L.T @ net.stacked_port_matrix()
    t = dt * np.arange(steps + 1)
    u_mid = _inputs(u, mono.m, t[:-1] + 0.5 * dt)
    xs = np.empty((steps + 1, net.n))
    xs[0] = x0
    for k0 in range(0, steps, q):
        win = xs[k0:k0 + q + 1]
        waves = np.tile(win[0] @ out_map, (q + 1, 1))
        for _ in range(sweeps):
            src = waves if mode == "gauss-seidel" else waves.copy()
            for (phi, gain, forcing), sl, psl, msl in zip(props, state_sl, port_sl, input_sl):
                cy = src @ C[psl].T
                g = (0.5 * (cy[:-1] + cy[1:]) @ gain.T
                     + u_mid[k0:k0 + q, msl] @ forcing.T)
                block = _propagate(phi, win[0, sl], q, g)
                win[:, sl] = block
                waves[:, psl] = block @ out_map[sl, psl]
    return xs


def split_read_trajectory(text):
    """Trajectory CSV reader that splits every line into one string per cell
    and converts the lists with ``np.array`` (oracle for ``read_trajectory``;
    unlike it, this one takes Python's float syntax, underscores included)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty trajectory file")
    header = lines[0].split(",")
    if header[0] != "t" or header[-2:] != ["H", "balance_residual"]:
        raise ParseError("unexpected trajectory header")
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"row {k + 1} has {len(row)} cells, header has {len(header)}")
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError as exc:
        raise ParseError(f"non-numeric cell: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise ParseError("trajectory has non-finite values")
    return data[:, 0], data[:, 1:-2], data[:, -2], data[:, -1]


def loadtxt_read_trajectory(text):
    """Trajectory CSV reader that converts every data line in one
    ``np.loadtxt`` pass and cuts its messages out of NumPy's own (oracle
    for ``read_trajectory``, which reads the writer's grammar with its
    kernel and any other text a line at a time; this one has no kernel)."""
    nl = text.find("\n") + 1
    header = next(_lines(text[:nl] if nl else text), None)     # splits no more
    if header is None:
        raise ParseError("empty trajectory file")
    header = header.split(",")
    if header[0] != "t" or header[-2:] != ["H", "balance_residual"]:
        raise ParseError("unexpected trajectory header")
    cells = len(header)
    lines = itertools.islice(_lines(text), 1, None)
    data = np.empty((0, cells))
    first = next(lines, None)
    if first is not None:
        # loadtxt compares rows only with each other and skips blank lines,
        # so the rows it is given are counted (seen[0]) as it takes them
        seen = [0]
        rows = (row for seen[0], row in enumerate(itertools.chain([first], lines), 1))
        try:
            # rows that are all blank give loadtxt no data, which it warns
            # of; the shape check below names the first blank row
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError as exc:
            raise ParseError(_ragged_row(text, cells) or _bad_cell(exc)) from exc
        if data.shape != (seen[0], cells):
            raise ParseError(_ragged_row(text, cells))
    if not np.all(np.isfinite(data)):
        raise ParseError("trajectory has non-finite values")
    return data[:, 0], data[:, 1:-2], data[:, -2], data[:, -1]


# loadtxt's conversion error counts the rows it is given from 0, columns from 1
_LOADTXT_CELL = re.compile(r"(.*) at row (\d+),( column \d+\.)", re.DOTALL)


def _bad_cell(exc: ValueError) -> str:
    """Message naming the row of the cell that ``np.loadtxt`` refused,
    counted from 1 as in ``_ragged_row``."""
    cell = _LOADTXT_CELL.fullmatch(str(exc))
    if cell is None:
        return f"non-numeric cell: {exc}"
    return f"row {int(cell[2]) + 1}: non-numeric cell: {cell[1]} in{cell[3]}"


def _ragged_row(text: str, cells: int) -> str | None:
    """Message naming the first data row without ``cells`` cells, if any."""
    rows = _lines(text)
    next(rows)           # the header
    for k, row in enumerate(rows):
        if not row:
            return f"row {k + 1} is blank"
        if row.count(",") + 1 != cells:
            return f"row {k + 1} has {row.count(',') + 1} cells, header has {cells}"
    return None


def whole_table_csv(traj, report):
    """Trajectory CSV rendered by one '%' over a tuple of every value of
    the table (byte-identity oracle for ``write_trajectory``, which renders
    in blocks of rows)."""
    n = traj.x.shape[1] if traj.x.ndim == 2 else 0
    res = np.zeros(len(traj.t))
    if len(report.residuals):
        res[1:] = report.residuals
    table = np.column_stack([traj.t, traj.x.reshape(len(traj.t), n), traj.H, res])
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["H", "balance_residual"])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _plain(value):
    """``value`` with every array turned into nested lists of floats."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def plain_document(obj, kind=None) -> dict:
    """The document of a system or network as plain JSON values (nested
    lists of floats), labelled ``kind`` when one is given."""
    doc = _plain(system_to_doc(obj) if isinstance(obj, LinearPHSystem)
                 else network_to_doc(obj))
    if kind is not None:
        doc["kind"] = kind
    return doc


def per_row_layout(value, pad="\n") -> str:
    """JSON text of plain JSON values in the two-space layout, with each
    list whose first item is a number (a matrix row) encoded by one
    ``json.dumps`` (byte-identity oracle for ``dump_document``, which
    formats each distinct magnitude of a matrix once)."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = (inner + json.dumps(k) + ": " + per_row_layout(v, inner)
                 for k, v in value.items())
        return "{" + ",".join(items) + pad + "}"
    if isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        return "[" + ",".join(inner + per_row_layout(v, inner) for v in value) + pad + "]"
    return json.dumps(value)


def per_row_document(obj, kind=None) -> str:
    """``dump_document``'s text of ``obj`` labelled ``kind``, every matrix
    row encoded by one ``json.dumps``."""
    return per_row_layout(plain_document(obj, kind)) + "\n"


def _oracle_scaled(mats):
    top = max((float(np.max(np.abs(a))) for a in mats if a.size), default=0.0)
    s = 2.0 ** max(math.frexp(top)[1] - 1, 0)
    return ([a / s for a in mats] if s > 1 else list(mats)), s


def _oracle_psd_check(ws, tol):
    ws, s = _oracle_scaled(ws)
    lam = min(float(np.linalg.eigvalsh(0.5 * (w + w.T)).min()) if w.size else 0.0
              for w in ws)
    norm = max(float(np.linalg.norm(w)) for w in ws)
    return lam >= -tol * (1.0 / s + norm), lam * s


def reference_validate_structure(sys, samples=None, tol=1e-10):
    """``validate_structure`` as it was written before it built Gamma and W
    once and took each matrix's largest entry once: a finiteness pass per
    coefficient, then Gamma's and Q's largest entries again after scaling
    (bit-identity oracle)."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if sys.is_linear:
        states = [np.zeros(sys.n)]
    else:
        if samples is None or len(samples) == 0:
            raise ValueError("callback systems require at least one sample state")
        states = [np.asarray(s, dtype=float) for s in samples]
    coeffs = [sys.coefficients(x) for x in states]
    if not all(np.all(np.isfinite(a)) for c in coeffs for a in c):
        raise ValueError("system coefficients contain non-finite entries")
    gammas = [_block2(J, B, -B.T, N) for E, J, R, B, P, S, N in coeffs]
    ws = [_block2(R, P, P.T, S) for E, J, R, B, P, S, N in coeffs]
    gammas, s = _oracle_scaled(gammas)
    skew_viol = max(float(np.max(np.abs(g + g.T))) if g.size else 0.0 for g in gammas)
    a_scale = max((np.max(np.abs(g)) for g in gammas if g.size), default=0.0)
    skew_ok = skew_viol <= tol * (1.0 / s + a_scale)
    psd_ok, min_eig = _oracle_psd_check(ws, tol)
    if sys.is_linear:
        with np.errstate(over="ignore", invalid="ignore"):
            q = sys.E.T @ sys.L
        if np.isfinite(q).all():
            (q,), es = _oracle_scaled([q])
            ls = 1.0
        else:
            (e,), es = _oracle_scaled([sys.E])
            (el,), ls = _oracle_scaled([sys.L])
            q = e.T @ el
        res = float(np.max(np.abs(q - q.T))) if q.size else 0.0
        compat_ok = res <= tol * (1.0 / es / ls + np.max(np.abs(q), initial=0.0))
        compat_res = res * es * ls
        rc = _rcond(sys.E)
    else:
        compat_res = 0.0
        rc = np.inf
        for x, (E, *_) in zip(states, coeffs):
            ez = E.T @ np.asarray(sys.effort(x), dtype=float)
            g = _fd_gradient(sys.hamiltonian, x)
            compat_res = max(compat_res,
                             float(np.linalg.norm(g - ez) / (1.0 + np.linalg.norm(ez))))
            rc = min(rc, _rcond(E))
        compat_ok = compat_res <= max(tol, 1e-6)
    return StructureReport(
        skew_ok=skew_ok, skew_violation=skew_viol * s,
        psd_ok=psd_ok, min_eigenvalue=min_eig,
        compat_ok=compat_ok, compat_residual=compat_res,
        e_regular=rc > E_RCOND_MIN, e_rcond=float(rc),
    )
