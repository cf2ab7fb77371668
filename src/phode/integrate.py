"""Structure-preserving time integration and energy accounting.

Monolithic implicit midpoint (exact discrete energy balance for
linear-constant systems), Strang splitting into conservative and
dissipative flows, and windowed dynamic iteration (Jacobi/Gauss-Seidel
waveform relaxation) for skew-coupled networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import coupling
from .core import (CallbackPHSystem, DimensionError, LinearPHSystem,
                   SingularFlowError, _rcond, _slices, E_RCOND_MIN, port_power)
from .coupling import CoupledNetwork, CouplingSpec


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


def _time_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    steps = int(round((t1 - t0) / dt))
    if steps < 0 or abs(t0 + steps * dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError("t1 - t0 must be a (positive) integer multiple of dt")
    return t0 + dt * np.arange(steps + 1)


def _inputs(u, m: int, times: np.ndarray) -> np.ndarray:
    """Input samples u(t) at the given times, one row per time."""
    if u is None:
        return np.zeros((len(times), m))
    rows = [u(t) for t in times] if callable(u) else [u] * len(times)
    return np.asarray(rows, dtype=float).reshape(len(times), m)


def _finalize(sys, t, xs, us, method) -> Trajectory:
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
    return Trajectory(t=t, x=xs, u=us, y=ys, H=hs, method=method)


def _propagator(sys: LinearPHSystem, method: str, dt: float):
    """One-step map (Phi, Gamma) of a linear system: the step is
    x_{k+1} = Phi x_k + Gamma f_k with the forcing f_k at the step midpoint.

    A midpoint step of E xdot = A x + f is Phi = (E - h/2 A)^-1 (E + h/2 A),
    Gamma = h (E - h/2 A)^-1, from one LU.  "strang" composes a half
    dissipative step D, a conservative step C and another D into
    Phi = D C D, Gamma = D Gamma_C.
    """
    n = sys.n

    def midpoint(A, h):
        minus = sys.E - 0.5 * h * A
        if _rcond(minus) <= E_RCOND_MIN:
            raise SingularFlowError("singular implicit step matrix")
        sol = np.linalg.solve(minus, np.hstack([sys.E + 0.5 * h * A, h * np.eye(n)]))
        return sol[:, :n], sol[:, n:]

    if method == "midpoint":
        return midpoint((sys.J - sys.R) @ sys.L, dt)
    if method == "strang":
        diss, _ = midpoint(-sys.R @ sys.L, 0.5 * dt)
        cons, gamma = midpoint(sys.J @ sys.L, dt)
        return diss @ cons @ diss, diss @ gamma
    raise ValueError(f"unknown inner integrator {method!r}")


def _propagate(phi: np.ndarray, x0: np.ndarray, g: np.ndarray) -> np.ndarray:
    """States x_0..x_k of x_{j+1} = Phi x_j + g_j, one row of g per step."""
    xs = np.empty((len(g) + 1, x0.size))
    xs[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(g)):
            xs[j + 1] = phi @ xs[j] + g[j]
    return xs


def _initial_state(x0, n: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (n,):
        raise DimensionError(f"x0 must have length {n}")
    return x


def _integrate_linear(sys: LinearPHSystem, method: str, u, x0, t0, t1, dt):
    if _rcond(sys.E) <= E_RCOND_MIN:
        raise SingularFlowError("descriptor system: integrate unsupported (singular E)")
    x = _initial_state(x0, sys.n)
    t = _time_grid(t0, t1, dt)
    phi, gamma = _propagator(sys, method, dt)
    u_mid = _inputs(u, sys.m, t[:-1] + 0.5 * dt)
    xs = _propagate(phi, x, u_mid @ (gamma @ (sys.B - sys.P)).T)
    return _finalize(sys, t, xs, _inputs(u, sys.m, t), method)


def implicit_midpoint(sys, u=None, x0=None, t0: float = 0.0, t1: float = 1.0,
                      dt: float = 0.01, newton_tol: float = 1e-12,
                      newton_maxit: int = 25) -> Trajectory:
    """Integrate with the implicit midpoint rule (second order).

    Linear-constant systems reduce to one matrix-vector product per step
    with the prebuilt propagator; callback systems use a damped-free
    Newton iteration with a finite-difference Jacobian.
    """
    if sys.is_linear:
        return _integrate_linear(sys, "midpoint", u, x0, t0, t1, dt)
    x = _initial_state(x0, sys.n)
    t = _time_grid(t0, t1, dt)
    xs = [x]
    for um in _inputs(u, sys.m, t[:-1] + 0.5 * dt):
        x = _newton_midpoint_step(sys, x, um, dt, newton_tol, newton_maxit)
        xs.append(x)
    return _finalize(sys, t, np.array(xs), _inputs(u, sys.m, t), "midpoint")


def _midpoint_residual(sys: CallbackPHSystem, x0, x1, um, dt):
    xm = 0.5 * (x0 + x1)
    E, J, R, B, P, S, N = sys.coefficients(xm)
    z = np.asarray(sys.effort(xm), dtype=float)
    return E @ (x1 - x0) - dt * ((J - R) @ z + (B - P) @ um)


def _newton_midpoint_step(sys, x0, um, dt, tol, maxit):
    x1 = x0.copy()
    scale = 1.0 + np.linalg.norm(x0)
    for _ in range(maxit):
        g = _midpoint_residual(sys, x0, x1, um, dt)
        if np.linalg.norm(g) <= tol * scale:
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
    if np.linalg.norm(g) <= tol * scale:
        return x1
    raise NewtonError(f"Newton did not converge in {maxit} iterations")


def strang_split(sys: LinearPHSystem, u=None, x0=None, t0: float = 0.0,
                 t1: float = 1.0, dt: float = 0.01) -> Trajectory:
    """Strang splitting: half-step of the dissipative flow E xdot = -R L x,
    full midpoint step of the conservative flow E xdot = J L x + B u,
    half-step dissipative (second order)."""
    if not sys.is_linear:
        raise TypeError("operator splitting is implemented for linear-constant systems")
    return _integrate_linear(sys, "strang", u, x0, t0, t1, dt)


def dynamic_iteration(net: CoupledNetwork, mode: str = "jacobi",
                      window: float = 0.1, sweeps: int = 5,
                      inner: Sequence[str] | str = "midpoint",
                      u=None, x0=None, t0: float = 0.0, t1: float = 1.0,
                      dt: float = 0.01) -> Trajectory:
    """Windowed waveform relaxation for a skew-coupled network.

    Per window each subsystem is integrated with internal inputs
    u_hat_i(t) = -sum_j C_ij y_hat_j(t), where y_hat_j comes from the
    previous sweep (Jacobi) or, for already-updated subsystems, from the
    current sweep (Gauss-Seidel).  Output waveforms are exchanged on the
    shared dt-grid; midpoint input values are endpoint averages, so the
    fixed point is exactly the monolithic implicit midpoint trajectory.
    """
    if not isinstance(net.coupling, CouplingSpec):
        raise ValueError("dynamic iteration requires a skew coupling; "
                         "run eliminate_ports first")
    if not net.coupling.is_skew:
        raise ValueError("dynamic iteration requires a skew coupling matrix")
    mode = mode.lower().replace("_", "-")
    if mode not in ("jacobi", "gauss-seidel"):
        raise ValueError(f"unknown mode {mode!r}")
    if sweeps < 1:
        raise ValueError(f"sweeps must be at least 1, got {sweeps}")
    q = int(round(window / dt))
    if q < 1 or abs(q * dt - window) > 1e-9 * max(1.0, window):
        raise ValueError("window must be a positive integer multiple of dt")

    subs = net.subsystems
    s = len(subs)
    if isinstance(inner, str):
        inner = [inner] * s
    if len(inner) != s:
        raise ValueError("one inner integrator per subsystem required")
    C = net.coupling.C

    t = _time_grid(t0, t1, dt)
    total_steps = len(t) - 1
    if total_steps % q != 0:
        raise ValueError("t1 - t0 must be an integer multiple of the window")

    x = _initial_state(x0, net.n)
    mono = coupling._stack(net)
    state_sl = _slices(net.state_sizes)
    port_sl = _slices(net.coupling.layout)

    # per subsystem a step matrix; block-diagonal over all subsystems the
    # input gains of the ports and the external forcing per step, and the
    # port output map y_hat = x @ out_map
    props = [_propagator(sub, inner[i], dt) for i, sub in enumerate(subs)]
    gamma = coupling._blockdiag([g for _, g in props])
    bhat = net.stacked_port_matrix()
    port_gain = gamma @ bhat
    out_map = mono.L.T @ bhat
    ext = _inputs(u, mono.m, t[:-1] + 0.5 * dt) @ (gamma @ (mono.B - mono.P)).T

    xs = np.empty((total_steps + 1, net.n))
    xs[0] = x
    for k0 in range(0, total_steps, q):
        win = xs[k0:k0 + q + 1]
        # port output waveforms of all subsystems on the window grid,
        # initialized by constant extrapolation of the window-initial outputs
        waves = np.tile(win[0] @ out_map, (q + 1, 1))
        for _sweep in range(sweeps):
            # Gauss-Seidel reads the waveforms updated so far in this sweep,
            # Jacobi those of the previous sweep
            src = waves if mode == "gauss-seidel" else waves.copy()
            for (phi, _), sl, psl in zip(props, state_sl, port_sl):
                uh = -(src @ C[psl].T)
                g = 0.5 * (uh[:-1] + uh[1:]) @ port_gain[sl, psl].T + ext[k0:k0 + q, sl]
                block = _propagate(phi, win[0, sl], g)
                win[:, sl] = block
                waves[:, psl] = block @ out_map[sl, psl]

    # y and H depend on L, B, P, S, N and Q only, which coupling leaves alone
    return _finalize(mono, t, xs, _inputs(u, mono.m, t), f"dynamic-{mode}")


def energy_report(traj: Trajectory, sys: LinearPHSystem,
                  tol: float = 1e-10) -> EnergyReport:
    """Recompute the discrete energy balance of a stored trajectory.

    Residuals use midpoint quantities z_m = L (x_k + x_{k+1})/2 and
    u_m = (u_k + u_{k+1})/2 in the power balance of
    :func:`phode.core.port_power`; when no input acts, monotone decay of the
    Hamiltonian is additionally flagged.
    """
    if not sys.is_linear:
        raise TypeError("energy accounting is defined for linear-constant systems")
    if traj.x.ndim != 2 or (traj.x.size and traj.x.shape[1] != sys.n):
        raise DimensionError("trajectory state dimension does not match the system")
    k = traj.steps
    if k <= 0:
        return EnergyReport(residuals=np.zeros(0), dissipation_ok=True, driven=False)
    driven = bool(np.any(traj.u))
    xm = 0.5 * (traj.x[1:] + traj.x[:-1])
    um = 0.5 * (traj.u[1:] + traj.u[:-1])
    rate = port_power(sys.coefficients(), xm @ sys.L.T, um)
    res = np.abs(np.diff(traj.H) - np.diff(traj.t) * rate)
    diss_ok = True
    if not driven:
        diss_ok = bool(np.all(np.diff(traj.H) <= 1e-12 * (1.0 + np.abs(traj.H[:-1]))))
    return EnergyReport(residuals=res, dissipation_ok=diss_ok, driven=driven)
