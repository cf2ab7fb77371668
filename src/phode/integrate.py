"""Structure-preserving time integration and energy accounting.

Monolithic implicit midpoint (exact discrete energy balance for
linear-constant systems), Strang splitting into conservative and
dissipative flows, and windowed dynamic iteration (Jacobi/Gauss-Seidel
waveform relaxation) for networks coupled by u_hat = -C y_hat.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import coupling
from .core import (CallbackPHSystem, DimensionError, LinearPHSystem,
                   SingularFlowError, _rcond, _slices, DECAY_TOL, E_RCOND_MIN, port_power)
from .coupling import CoupledNetwork

# entries of each prebuilt lifted map and window map in dynamic_iteration
# at most, and the time of one Python-level step counted in multiply-adds of
# a matrix product; the two set the chunk length a window is cut into
_MAP_ENTRIES = 2 ** 18
_CHUNK_OVERHEAD = 30000
# midpoint states and inputs of one block of steps in energy_report, at
# most (one row at least): its temporaries are a few arrays of this size
_REPORT_BLOCK_VALUES = 2 ** 14
# relative change of the coupling inputs in the last sweep above which
# dynamic_iteration warns that it has not converged
_SWEEP_TOL = float(np.sqrt(np.finfo(float).eps))
# a callback system's Newton midpoint step: tolerance of |residual| / (1 + |x|), iterations
_NEWTON_TOL = 1e-12
_NEWTON_MAXIT = 25


class NewtonError(RuntimeError):
    """Newton iteration for an implicit step failed to converge."""


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory with per-step Hamiltonian values."""

    t: np.ndarray        # (k+1,)
    x: np.ndarray        # (k+1, n)
    u: np.ndarray        # (k+1, m) endpoint input samples
    y: np.ndarray        # (k+1, m)
    H: np.ndarray        # (k+1,)
    method: str
    u_mid: np.ndarray | None = None   # (k, m) step-midpoint inputs of the stepper

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")

    @property
    def steps(self) -> int:
        return len(self.t) - 1


@dataclass(frozen=True)
class EnergyReport:
    """Per-step defect of the discrete energy balance

        H(x_{k+1}) - H(x_k) = dt (-[z_m; u_m]^T W [z_m; u_m] + u_m^T y_m)

    with midpoint quantities; the implicit midpoint rule satisfies this
    identity exactly for linear-constant systems."""

    residuals: np.ndarray
    dissipation_ok: bool      # H non-increasing when u == 0 (within tolerance)
    driven: bool              # any nonzero input present

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if self.residuals.size else 0.0

    def summary(self) -> str:
        lines = [f"steps: {len(self.residuals)}",
                 f"max balance residual: {self.max_residual:.6e}"]
        if not self.driven:
            lines.append("monotone energy decay: "
                         + ("ok" if self.dissipation_ok else "VIOLATED"))
        return "\n".join(lines)


class StepCountError(ValueError):
    """A run has more steps than memory holds the values it keeps per step."""


def _memory_bytes() -> float:
    """Physical memory of the machine in bytes; where the system does not
    tell, the largest array NumPy can index."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return float(np.iinfo(np.intp).max)


def _per_step(n: int, m: int) -> int:
    """Values a run with n states and m inputs holds per step at its peak,
    the time grid aside: the states twice (x and the product Q x that H is
    formed from), H, and u, y and the step-midpoint inputs."""
    return 2 * n + 1 + 3 * m


def _time_grid(t0: float, t1: float, dt: float, values: int) -> np.ndarray:
    """Time grid t0, t0 + dt, ..., t1 of a run that holds ``values`` further
    values per step; before allocating, checks that the grid and those
    values of every step fit in physical memory (``StepCountError``)."""
    for name, value in (("t0", t0), ("t1", t1), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = (t1 - t0) / dt
    if not math.isfinite(steps):
        raise ValueError(f"dt = {dt} is too small for t1 - t0")
    steps = int(round(steps))
    if steps < 0 or abs(t0 + steps * dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError("t1 - t0 must be a (positive) integer multiple of dt")
    need, memory = 8.0 * (steps + 1) * (values + 1), _memory_bytes()
    if need <= memory:
        try:
            return t0 + dt * np.arange(steps + 1)
        except MemoryError:
            pass
    raise StepCountError(
        f"t1 - t0 = {t1 - t0:g} at dt = {dt:g} is {float(steps):.3g} steps, whose "
        f"time grid and {values} values per step take {need / 2 ** 30:.3g} GiB, more "
        f"than memory can hold ({memory / 2 ** 30:.3g} GiB installed)")


def _inputs(u, m: int, times: np.ndarray) -> np.ndarray:
    """Input samples u(t) at the given times, one row per time."""
    if u is None:
        return np.zeros((len(times), m))
    rows = [u(t) for t in times] if callable(u) else [u] * len(times)
    return np.asarray(rows, dtype=float).reshape(len(times), m)


def _finalize(sys, t, xs, us, method, u_mid) -> Trajectory:
    if sys.is_linear:
        with np.errstate(over="ignore", invalid="ignore"):
            ys = xs @ (sys.L.T @ (sys.B + sys.P)) + us @ (sys.S - sys.N).T
            hs = 0.5 * np.einsum("ki,ki->k", xs @ sys.Q.T, xs)
    else:
        ys, hs = [], []
        for xk, uk in zip(xs, us):
            E, J, R, B, P, S, N = sys.coefficients(xk)
            z = np.asarray(sys.effort(xk), dtype=float)
            ys.append((B + P).T @ z + (S - N) @ uk)
            hs.append(sys.hamiltonian(xk))
        ys, hs = np.array(ys), np.array(hs)
    finite = np.isfinite(xs).all(axis=1) & np.isfinite(ys).all(axis=1) & np.isfinite(hs)
    if not finite.all():
        raise FloatingPointError(f"trajectory is not finite from step "
                                 f"{int(np.argmin(finite))} on")
    return Trajectory(t=t, x=xs, u=us, y=ys, H=hs, method=method, u_mid=u_mid)


def _propagator(sys: LinearPHSystem, method: str, dt: float, inputs: np.ndarray):
    """One-step map (Phi, F) of a linear system driven through the n x k
    matrix ``inputs``: x_{k+1} = Phi x_k + F v_k, v_k at the step midpoint.

    A midpoint step of E xdot = A x + inputs v is Phi = (E - h/2 A)^-1
    (E + h/2 A), F = h (E - h/2 A)^-1 inputs, from one LU with n + k
    right-hand sides.  "strang" composes a half dissipative step D, a
    conservative step C that takes the inputs and another D into Phi = D C D,
    F = D F_C.  Phi is C-contiguous, as ``_propagate`` steps it.
    """
    n = sys.n

    def midpoint(A, h, cols):
        minus = sys.E - 0.5 * h * A
        if not np.isfinite(minus).all():
            raise FloatingPointError("implicit step matrix leaves the floating-point range")
        if _rcond(minus) <= E_RCOND_MIN:
            raise SingularFlowError("singular implicit step matrix")
        sol = np.linalg.solve(minus, np.hstack([sys.E + 0.5 * h * A, h * cols]))
        # copies: Phi C-contiguous, and no run keeps the whole solution
        return sol[:, :n].copy(), sol[:, n:].copy()

    with np.errstate(over="ignore", invalid="ignore"):
        if method == "midpoint":
            return midpoint((sys.J - sys.R) @ sys.L, dt, inputs)
        if method == "strang":
            diss, _ = midpoint(-sys.R @ sys.L, 0.5 * dt, inputs[:, :0])
            cons, forcing = midpoint(sys.J @ sys.L, dt, inputs)
            return diss @ cons @ diss, diss @ forcing
    raise ValueError(f"unknown inner integrator {method!r}")


def _propagate(phi: np.ndarray, x0: np.ndarray, steps: int, g=None) -> np.ndarray:
    """States x_0..x_steps of x_{j+1} = Phi x_j + g_j, one row of g per step
    (no forcing where g is None), stepped in place: the bits, signed zeros
    included, are those of ``phi @ x + g``.  x0 may also be a matrix, stepped
    column by column.  Phi is C-contiguous (``np.dot`` copies any other
    layout on every call).  Overflow is left to the caller, which silences
    its warnings (``_finalize`` rejects non-finite trajectories)."""
    xs = np.empty((steps + 1,) + x0.shape)
    xs[0] = x0
    for j in range(steps):
        np.dot(phi, xs[j], out=xs[j + 1])
        if g is not None:
            xs[j + 1] += g[j]
    # np.dot of one-element operands is their plain product, which can be
    # -0.0 where phi @ x is +0.0; adding +0.0 makes every zero +0.0, as each
    # step of phi @ x + g does, and changes no other value
    xs[1:] += 0.0
    return xs


def _initial_state(x0, n: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (n,):
        raise DimensionError(f"x0 must have length {n}")
    return x


def _integrate_linear(sys: LinearPHSystem, method: str, u, x0, t0, t1, dt):
    if sys.e_rcond <= E_RCOND_MIN:
        raise SingularFlowError("descriptor system: integrate unsupported (singular E)")
    x = _initial_state(x0, sys.n)
    t = _time_grid(t0, t1, dt, _per_step(sys.n, sys.m))
    phi, forcing = _propagator(sys, method, dt, sys.B - sys.P)
    u_mid = _inputs(u, sys.m, t[:-1] + 0.5 * dt)
    with np.errstate(over="ignore", invalid="ignore"):
        g = None if u is None else u_mid @ forcing.T
        xs = _propagate(phi, x, len(u_mid), g)
    return _finalize(sys, t, xs, _inputs(u, sys.m, t), method, u_mid)


def implicit_midpoint(sys, u=None, x0=None, t0: float = 0.0, t1: float = 1.0,
                      dt: float = 0.01) -> Trajectory:
    """Integrate with the implicit midpoint rule (second order).

    Linear-constant systems reduce to one matrix-vector product per step
    with the prebuilt propagator; callback systems use a damped-free
    Newton iteration with a finite-difference Jacobian.
    """
    if sys.is_linear:
        return _integrate_linear(sys, "midpoint", u, x0, t0, t1, dt)
    x = _initial_state(x0, sys.n)
    t = _time_grid(t0, t1, dt, _per_step(sys.n, sys.m))
    xs = [x]
    u_mid = _inputs(u, sys.m, t[:-1] + 0.5 * dt)
    for um in u_mid:
        x = _newton_midpoint_step(sys, x, um, dt)
        xs.append(x)
    return _finalize(sys, t, np.array(xs), _inputs(u, sys.m, t), "midpoint", u_mid)


def _midpoint_residual(sys: CallbackPHSystem, x0, x1, um, dt):
    xm = 0.5 * (x0 + x1)
    E, J, R, B, P, S, N = sys.coefficients(xm)
    z = np.asarray(sys.effort(xm), dtype=float)
    return E @ (x1 - x0) - dt * ((J - R) @ z + (B - P) @ um)


def _newton_midpoint_step(sys, x0, um, dt):
    x1 = x0.copy()
    scale = 1.0 + np.linalg.norm(x0)
    for _ in range(_NEWTON_MAXIT):
        g = _midpoint_residual(sys, x0, x1, um, dt)
        if np.linalg.norm(g) <= _NEWTON_TOL * scale:
            return x1
        # finite-difference Jacobian of the residual w.r.t. x1
        n = x1.size
        jac = np.empty((n, n))
        h = np.sqrt(np.finfo(float).eps) * scale
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            jac[:, i] = (_midpoint_residual(sys, x0, x1 + e, um, dt) - g) / h
        try:
            dx = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError as exc:
            raise NewtonError("singular Newton matrix in implicit step") from exc
        x1 = x1 + dx
    g = _midpoint_residual(sys, x0, x1, um, dt)
    if np.linalg.norm(g) <= _NEWTON_TOL * scale:
        return x1
    raise NewtonError(f"Newton did not converge in {_NEWTON_MAXIT} iterations")


def strang_split(sys: LinearPHSystem, u=None, x0=None, t0: float = 0.0,
                 t1: float = 1.0, dt: float = 0.01) -> Trajectory:
    """Strang splitting: half-step of the dissipative flow E xdot = -R L x,
    full midpoint step of the conservative flow E xdot = J L x + B u,
    half-step dissipative (second order).

    The composed step D C D meets the midpoint energy identity that
    ``energy_report`` checks only when R = 0; otherwise its balance
    residual is the defect of that identity, O(dt^3) per step, not
    round-off."""
    if not sys.is_linear:
        raise TypeError("operator splitting is implemented for linear-constant systems")
    return _integrate_linear(sys, "strang", u, x0, t0, t1, dt)


def _chunk_steps(q: int, n: int, p: int) -> int:
    """Steps per chunk of a q-step window for a block with n states and p
    coupling inputs.

    Per sweep a window cut into chunks of c steps costs c*p*c*n
    multiply-adds per chunk (the wave map product), three more per entry of
    the c*p x c*n wave map (read from memory once per product) and, when
    there is more than one chunk, ``_CHUNK_OVERHEAD`` once plus
    ``_CHUNK_OVERHEAD + n*n`` per chunk after the first (the chunk
    recursion).  The cheapest c is taken among those whose maps hold at
    most ``_MAP_ENTRIES`` entries; c = 1 always qualifies.
    """
    c = np.arange(1, q + 1)
    work = ((-(-q // c) - 1) * (_CHUNK_OVERHEAD + n * n) + (c < q) * _CHUNK_OVERHEAD
            + (q // c * c * c + (q % c) ** 2 + 3 * c * c) * p * n).astype(float)
    work[(c > 1) & (c * n * np.maximum(c * p, n) > _MAP_ENTRIES)] = np.inf
    return int(c[np.argmin(work)])


def _lifted_maps(phi: np.ndarray, gain: np.ndarray, q: int):
    """Chunk length c, c-step matrix Phi^c, carry map and wave map of the
    steps x_{j+1} = Phi x_j + gain v_j: the stacked states x_{a+1}..x_{a+c}
    are ``x_a @ carry_map + vec(v_a..v_{a+c-1}) @ wave_map``, and the leading
    blocks of both maps give a shorter chunk.

    The powers Phi^k and Phi^k gain come from stepping matrices through the
    same recursion with ``_propagate``; the wave map is their lower block
    Toeplitz arrangement.
    """
    n, p = gain.shape
    c = _chunk_steps(q, n, p)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _propagate(phi, phi, c - 1)
        resp = _propagate(phi, gain, c - 1)
    carry_map = powers.transpose(2, 0, 1).reshape(n, c * n)
    resp = resp.transpose(2, 0, 1).reshape(p, c * n)
    wave_map = np.zeros((c * p, c * n))
    for j in range(c):   # v_{a+j} drives x_{a+j+1} on
        wave_map[j * p:(j + 1) * p, j * n:] = resp[:, :(c - j) * n]
    return c, powers[-1], carry_map, wave_map


def _coupling_response(v: np.ndarray, lifted) -> np.ndarray:
    """States x_1..x_q driven from x_0 = 0 by the inputs v_0..v_{q-1}
    through the maps of ``_lifted_maps``, for a batch of input sequences:
    v is (b, q, p), one row per step, and the states (b, q, n)."""
    c, phi_c, carry_map, wave_map = lifted
    (b, q, p), n = v.shape, len(phi_c)
    f, r = divmod(q, c)
    # every full chunk from a zero start state in one product; then the
    # chunk end states, stepped c steps at a time with the batch as columns,
    # and the start state of each chunk carried into the states inside it
    x = v[:, :f * c].reshape(b, f, c * p) @ wave_map
    if f > 1:
        ends = _propagate(phi_c, x[:, 0, -n:].T, f - 1, x[:, 1:, -n:].transpose(1, 2, 0))
        ends = ends.transpose(2, 0, 1)
        x[:, 1:, :-n] += ends[:, :-1] @ carry_map[:, :-n]
        x[:, :, -n:] = ends
    x = x.reshape(b, f * c, n)
    if not r:
        return x
    tail = (v[:, f * c:].reshape(b, r * p) @ wave_map[:r * p, :r * n]
            + x[:, -1] @ carry_map[:, :r * n])
    return np.concatenate([x, tail.reshape(b, r, n)], axis=1)


def _relax(coefs: np.ndarray, q: int, blocks: list, out_map: np.ndarray,
           C: np.ndarray, gauss_seidel: bool, sweeps: int):
    """Waveform relaxation of a batch of q-step windows, one row of basis
    coefficients [x_0, vec(u_mid)] each: the window-initial state (n
    entries) and, when an input acts, the window's midpoint inputs (one row
    of m per step).

    Each subsystem's free response to x_0 and its own inputs is stepped
    once, the batch as columns; every sweep adds its response to the
    coupling inputs from the step-midpoint port outputs of the previous
    sweep (Jacobi) or, for subsystems already updated, of the current one
    (Gauss-Seidel).  blocks[i] holds subsystem i's step matrix, lifted
    maps, state, port and input slices, the forcing of its inputs, C_i^T
    and half its output map.  Returns the states x_1..x_q (b, q*n) and the
    coupling inputs of the convergence check (b, 2*q*P: those the last
    sweep was driven with, then those its outputs give).
    """
    b, n = len(coefs), len(out_map)
    xw = np.empty((b, q + 1, n))
    xw[:, 0] = coefs[:, :n]
    u_mid = coefs[:, n:].reshape(b, q, -1) if coefs.shape[1] > n else None
    # step-midpoint port outputs of all subsystems in the window,
    # initialized by constant extrapolation of the window-initial outputs
    mids = np.repeat(xw[:, :1] @ out_map, q, axis=1)
    # per subsystem its free response, forced by its own inputs, and views
    # of its states from the second row on, of those up to the last row and
    # of its midpoint outputs
    subs = []
    for phi, lifted, sl, psl, msl, forcing, c_rows, half_out in blocks:
        g = None if u_mid is None else (u_mid[:, :, msl] @ forcing.T).transpose(1, 2, 0)
        subs.append((_propagate(phi, xw[:, 0, sl].T, q, g)[1:].transpose(2, 0, 1), lifted,
                     c_rows, half_out, xw[:, 1:, sl], xw[:, :-1, sl], mids[:, :, psl]))
    for _sweep in range(sweeps):
        # Gauss-Seidel reads the outputs updated so far in this sweep,
        # Jacobi those of the previous sweep
        src = mids if gauss_seidel else mids.copy()
        used = []
        for x_free, lifted, c_rows, half_out, x_next, x_prev, y_mid in subs:
            used.append(src @ c_rows)
            np.add(x_free, _coupling_response(used[-1], lifted), out=x_next)
            np.matmul(x_prev + x_next, half_out, out=y_mid)
    checks = np.empty((b, 2, q, len(C)))
    np.concatenate(used, axis=2, out=checks[:, 0])
    np.matmul(mids, C.T, out=checks[:, 1])
    return xw[:, 1:].reshape(b, -1), checks.reshape(b, -1)


def dynamic_iteration(net: CoupledNetwork, mode: str = "jacobi",
                      window: float = 0.1, sweeps: int = 5,
                      inner: Sequence[str] | str = "midpoint",
                      u=None, x0=None, t0: float = 0.0, t1: float = 1.0,
                      dt: float = 0.01) -> Trajectory:
    """Windowed waveform relaxation for a network coupled by a square
    matrix C (skew or not), or by a relation with square regular M and
    C = M^-1 N (see :func:`~phode.coupling.coupling_matrix`).

    Per window each subsystem is integrated with internal inputs
    u_hat_i(t) = -sum_j C_ij y_hat_j(t), where y_hat_j comes from the
    previous sweep (Jacobi) or, for already-updated subsystems, from the
    current sweep (Gauss-Seidel).  Subsystems exchange their port outputs
    at the step midpoints of the shared dt-grid as endpoint averages, so
    the fixed point is exactly the monolithic implicit midpoint trajectory.

    A subsystem's states in a window are its free response to the
    window-initial state and the external input plus its response to
    u_hat_i, which is linear in u_hat_i: per sweep one matrix product with
    a prebuilt lifted map over all chunks of the window, and one step per
    chunk (see ``_chunk_steps``).  The sweeps themselves are linear in the
    window-initial state and the window's midpoint inputs, and one routine
    relaxes a batch of windows given by these coefficients.  When they have
    no more entries than the run has windows, it runs once, on the unit
    vectors, into window maps (``_MAP_ENTRIES`` entries each at most);
    each window's states are then one product with the state map.
    Otherwise it runs on each window's own coefficients.

    When, in some window, the coupling inputs given by the last sweep's
    outputs differ from those the last sweep was driven with by more than
    sqrt(eps) relative to their maximum, a ``RuntimeWarning`` names the
    worst window; the trajectory is returned all the same.
    """
    C = coupling.coupling_matrix(net)
    mode = mode.lower().replace("_", "-")
    if mode not in ("jacobi", "gauss-seidel"):
        raise ValueError(f"unknown mode {mode!r}")
    if sweeps < 1:
        raise ValueError(f"sweeps must be at least 1, got {sweeps}")
    # the coupling inputs of the convergence check take 2 values per port and
    # step, and a driven run keeps its forcing rows until the end
    m = sum(sub.m for sub in net.subsystems)
    t = _time_grid(t0, t1, dt, _per_step(net.n, m) + 2 * len(C)
                   + (net.n if u is not None else 0))
    if not (math.isfinite(window) and window > 0):
        raise ValueError(f"window must be positive and finite, got {window}")
    q = int(round(window / dt))
    if q < 1 or abs(q * dt - window) > 1e-9 * max(1.0, window):
        raise ValueError("window must be a positive integer multiple of dt")

    subs = net.subsystems
    s = len(subs)
    if isinstance(inner, str):
        inner = [inner] * s
    if len(inner) != s:
        raise ValueError("one inner integrator per subsystem required")

    total_steps = len(t) - 1
    if total_steps % q != 0:
        raise ValueError("t1 - t0 must be an integer multiple of the window")
    windows = total_steps // q

    x = _initial_state(x0, net.n)
    mono = net.stacked
    n, ports = net.n, len(C)

    # per subsystem its step matrix, the lifted maps of its coupling input
    # C_i y_hat (gain -Bhat_i: the sign of u_hat = -C y_hat folded in) and the
    # forcing of its own inputs from one LU, its state, port and input slices,
    # C_i^T and half its block of y_hat = x @ out_map (for midpoint outputs)
    out_map = mono.L.T @ net.stacked_port_matrix()
    blocks = []
    for sub, method, bhat, sl, psl, msl in zip(
            subs, inner, net.coupling.port_matrices, _slices(net.state_sizes),
            _slices(net.coupling.layout), _slices([s.m for s in subs])):
        phi, forcing = _propagator(sub, method, dt, np.hstack([-bhat, sub.B - sub.P]))
        p = bhat.shape[1]
        blocks.append((phi, _lifted_maps(phi, forcing[:, :p], q), sl, psl, msl,
                       forcing[:, p:], C[psl].T, 0.5 * out_map[sl, psl]))
    u_mid = _inputs(u, mono.m, t[:-1] + 0.5 * dt)
    gauss_seidel = mode == "gauss-seidel"

    # window maps when the basis (the unit window-initial states and, when
    # an input acts, the unit midpoint inputs of a window) has no more
    # vectors than the run has windows and the maps stay within budget
    inputs = q * mono.m if u is not None else 0
    basis = n + inputs
    u_win = u_mid.reshape(windows, q * mono.m)[:, :inputs]
    mapped = basis <= windows and basis * q * max(n, 2 * ports) <= _MAP_ENTRIES

    xs = np.empty((total_steps + 1, n))
    xs[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        if mapped:
            state_map, check_map = _relax(np.eye(basis), q, blocks, out_map, C,
                                          gauss_seidel, sweeps)
            x_map = state_map[:n]
            driven = None if u is None else u_win @ state_map[n:]
            for w in range(windows):
                win = xs[w * q] @ x_map
                if driven is not None:
                    win += driven[w]
                xs[w * q + 1:(w + 1) * q + 1] = win.reshape(q, n)
            checks = np.hstack([xs[:-1:q], u_win]) @ check_map
        else:
            checks = np.empty((windows, 2 * q * ports))
            for w in range(windows):
                win, check = _relax(np.concatenate([xs[w * q], u_win[w]])[None], q, blocks,
                                    out_map, C, gauss_seidel, sweeps)
                xs[w * q + 1:(w + 1) * q + 1] = win.reshape(q, n)
                checks[w] = check[0]
        checks = checks.reshape(windows, 2, q, ports)

    # y and H depend on L, B, P, S, N and Q only, which coupling leaves alone
    traj = _finalize(mono, t, xs, _inputs(u, mono.m, t), f"dynamic-{mode}", u_mid)
    # the coupling inputs the last sweep's outputs give, against those it
    # was driven with, per window relative to their maximum
    change = np.abs(checks[:, 1] - checks[:, 0]).max(axis=(1, 2), initial=0.0)
    scale = np.abs(checks[:, 1]).max(axis=(1, 2), initial=0.0)
    defect = np.divide(change, scale, out=np.zeros(windows), where=scale > 0)
    worst = int(np.argmax(defect)) if windows else 0
    if windows and defect[worst] > _SWEEP_TOL:
        warnings.warn(f"dynamic iteration has not converged: in window "
                      f"{worst + 1} of {windows} "
                      f"(t = {t[worst * q]:g} to {t[(worst + 1) * q]:g}) the last of {sweeps} "
                      f"sweeps changed the coupling inputs by {defect[worst]:.1e} of their "
                      f"maximum, above {_SWEEP_TOL:.1e}; use more sweeps or a shorter window",
                      RuntimeWarning, stacklevel=2)
    return traj


def energy_report(traj: Trajectory, sys: LinearPHSystem) -> EnergyReport:
    """Recompute the discrete energy balance of a stored trajectory.

    Residuals use midpoint quantities z_m = L (x_k + x_{k+1})/2 and u_m,
    the step-midpoint inputs the stepper used (``traj.u_mid``), in the
    power balance of :func:`phode.core.port_power`; a trajectory without
    them (one read from a file) takes u_m = (u_k + u_{k+1})/2.  When no
    input acts, monotone decay of the Hamiltonian is additionally flagged.
    The identity is that of the implicit midpoint rule: a Strang trajectory
    of a system with R != 0 misses it by O(dt^3) per step (the splitting
    defect), so its residuals are not round-off.  States that are not
    2-D, or rows of other than ``sys.n`` columns (none included), raise
    ``DimensionError``; a residual that leaves the float range raises
    ``FloatingPointError``.
    """
    if not sys.is_linear:
        raise TypeError("energy accounting is defined for linear-constant systems")
    if traj.x.ndim != 2:
        raise DimensionError(f"trajectory states must be a 2-d array, got {traj.x.ndim}-d")
    if len(traj.x) and traj.x.shape[1] != sys.n:
        raise DimensionError(f"trajectory has {traj.x.shape[1]} state columns, "
                             f"system dimension is {sys.n}")
    k = traj.steps
    if k <= 0:
        return EnergyReport(residuals=np.zeros(0), dissipation_ok=True, driven=False)
    # the midpoint inputs are zero where every input sample is
    driven = bool(np.any(traj.u) or (traj.u_mid is not None and np.any(traj.u_mid)))
    coeffs, x, u = sys.coefficients(), traj.x, traj.u
    rate = np.empty(k)
    rows = max(1, _REPORT_BLOCK_VALUES // max(1, sys.n + sys.m))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, k, rows):
            b = min(a + rows, k)
            um = traj.u_mid[a:b] if traj.u_mid is not None else 0.5 * (u[a + 1:b + 1] + u[a:b])
            rate[a:b] = port_power(coeffs, 0.5 * (x[a + 1:b + 1] + x[a:b]) @ sys.L.T, um)
        res = np.abs(np.diff(traj.H) - np.diff(traj.t) * rate)
    bad = ~np.isfinite(res)
    if bad.any():
        raise FloatingPointError(f"the energy balance of step {int(np.argmax(bad)) + 1} "
                                 "leaves the floating-point range")
    diss_ok = True
    if not driven:
        diss_ok = bool(np.all(np.diff(traj.H) <= DECAY_TOL * (1.0 + np.abs(traj.H[:-1]))))
    return EnergyReport(residuals=res, dissipation_ok=diss_ok, driven=driven)
