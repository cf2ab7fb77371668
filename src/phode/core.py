"""Single port-Hamiltonian ODE systems: representation, validation, dynamics.

A system is

    E xdot = (J - R) z(x) + (B - P) u,
    y      = (B + P)^T z(x) + (S - N) u,

with skew structure matrix J, positive semidefinite dissipation R and a
Hamiltonian H whose gradient is compatible with the effort via
grad H(x) = E^T z(x).  Two variants are provided: a linear-constant one
(dense matrices, effort z = L x, H = 1/2 x^T Q x with Q = E^T L) and a
callback one with state-dependent coefficient functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Matrix/vector fields do not conform (a structural defect, not a
    failed structure check)."""


class SingularFlowError(RuntimeError):
    """The flow matrix E is (numerically) singular; the system is a
    descriptor system and cannot be integrated as an ODE."""


#: reciprocal condition number below which E is treated as singular
E_RCOND_MIN = 1e-12


def _clip(text: str, limit: int = 100) -> str:
    """``text``, or its first ``limit`` characters and a mark of the cut, so
    that an error line quoting an input's value stays short."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _float_array(value) -> np.ndarray:
    """``value``, nested sequences of JSON numbers, as a float array.  An
    entry that is not a number (a string, even "0.5", null, or a boolean in
    an array of booleans) raises a TypeError, ragged nesting a ValueError
    and an integer beyond the float range an OverflowError.  A boolean
    among numbers reads as 0 or 1 here: the document reader refuses it."""
    a = np.array(value)
    if a.dtype.kind not in "iuf" and not (a.dtype.kind == "O" and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in a.flat)):
        raise TypeError("entries must be numbers")
    return a.astype(float, copy=False)


def _as_matrix(a, rows, cols, name):
    # a 2-D float64 ndarray is returned as is, the object np.asarray returns
    if not (type(a) is np.ndarray and a.ndim == 2 and a.dtype == np.float64):
        a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape != (rows, cols):
        raise DimensionError(f"{name} must be {rows}x{cols}, got {a.shape}")
    return a


def _slices(sizes) -> tuple:
    """Slices of consecutive blocks of the given sizes along one axis."""
    return tuple(slice(end - k, end) for k, end in zip(sizes, accumulate(sizes)))


def _rcond(mat: np.ndarray) -> float:
    """Reciprocal condition estimate (0 for rank-deficient matrices)."""
    if mat.size == 0:
        return 1.0
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


@dataclass(frozen=True)
class LinearPHSystem:
    """Linear-constant port-Hamiltonian ODE system.

    Effort is z = L x and the Hamiltonian is H(x) = 1/2 x^T Q x with
    Q = E^T L (the 1/2 convention makes grad H = Q x exact).
    """

    E: np.ndarray
    J: np.ndarray
    R: np.ndarray
    B: np.ndarray
    L: np.ndarray
    P: np.ndarray = None
    S: np.ndarray = None
    N: np.ndarray = None

    def __post_init__(self):
        n = np.atleast_2d(np.asarray(self.J, dtype=float)).shape[0]
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(n, -1) if B.size else B.reshape(n, 0)
        m = B.shape[1]
        object.__setattr__(self, "E", _as_matrix(self.E, n, n, "E"))
        object.__setattr__(self, "J", _as_matrix(self.J, n, n, "J"))
        object.__setattr__(self, "R", _as_matrix(self.R, n, n, "R"))
        object.__setattr__(self, "B", _as_matrix(B, n, m, "B"))
        object.__setattr__(self, "L", _as_matrix(self.L, n, n, "L"))
        P = self.P if self.P is not None else np.zeros((n, m))
        S = self.S if self.S is not None else np.zeros((m, m))
        N = self.N if self.N is not None else np.zeros((m, m))
        object.__setattr__(self, "P", _as_matrix(P, n, m, "P"))
        object.__setattr__(self, "S", _as_matrix(S, m, m, "S"))
        object.__setattr__(self, "N", _as_matrix(N, m, m, "N"))
        for a in ("E", "J", "R", "B", "L", "P", "S", "N"):
            getattr(self, a).setflags(write=False)

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def Q(self) -> np.ndarray:
        """Hamiltonian matrix Q = E^T L (computed once, read-only)."""
        q = self.E.T @ self.L
        q.setflags(write=False)
        return q

    @property
    def is_linear(self) -> bool:
        return True

    def effort(self, x) -> np.ndarray:
        return self.L @ np.asarray(x, dtype=float)

    def hamiltonian(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ self.Q @ x)

    def grad_hamiltonian(self, x) -> np.ndarray:
        return self.Q @ np.asarray(x, dtype=float)

    def coefficients(self, x=None):
        return self.E, self.J, self.R, self.B, self.P, self.S, self.N

    @cached_property
    def e_rcond(self) -> float:
        """Reciprocal condition estimate of E (one SVD, computed once)."""
        return _rcond(self.E)


@dataclass(frozen=True)
class CallbackPHSystem:
    """Port-Hamiltonian system with state-dependent coefficient callbacks.

    Supports structural validation and monolithic integration; the
    coupling/decoupling algebra operates on :class:`LinearPHSystem` only.
    """

    n: int
    m: int
    E: Callable[[np.ndarray], np.ndarray]
    J: Callable[[np.ndarray], np.ndarray]
    R: Callable[[np.ndarray], np.ndarray]
    B: Callable[[np.ndarray], np.ndarray]
    effort: Callable[[np.ndarray], np.ndarray]
    hamiltonian: Callable[[np.ndarray], float]
    P: Callable[[np.ndarray], np.ndarray] = None
    S: Callable[[np.ndarray], np.ndarray] = None
    N: Callable[[np.ndarray], np.ndarray] = None

    @property
    def is_linear(self) -> bool:
        return False

    def coefficients(self, x):
        x = np.asarray(x, dtype=float)
        n, m = self.n, self.m
        E = _as_matrix(self.E(x), n, n, "E(x)")
        J = _as_matrix(self.J(x), n, n, "J(x)")
        R = _as_matrix(self.R(x), n, n, "R(x)")
        B = _as_matrix(self.B(x), n, m, "B(x)")
        P = _as_matrix(self.P(x), n, m, "P(x)") if self.P else np.zeros((n, m))
        S = _as_matrix(self.S(x), m, m, "S(x)") if self.S else np.zeros((m, m))
        N = _as_matrix(self.N(x), m, m, "N(x)") if self.N else np.zeros((m, m))
        return E, J, R, B, P, S, N

    def grad_hamiltonian(self, x) -> np.ndarray:
        return _fd_gradient(self.hamiltonian, np.asarray(x, dtype=float))


PHSystem = LinearPHSystem | CallbackPHSystem


def _fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient, step h = cbrt(eps)*(1+|x|)."""
    h = np.cbrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x))
    g = np.empty_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the structural checks on a single system."""

    skew_ok: bool
    skew_violation: float
    psd_ok: bool
    min_eigenvalue: float
    compat_ok: bool
    compat_residual: float
    e_regular: bool
    e_rcond: float

    @property
    def passed(self) -> bool:
        """True iff all three structural checks pass (E-regularity is
        informational: descriptor systems are structurally valid)."""
        return self.skew_ok and self.psd_ok and self.compat_ok

    def _rows(self) -> list:
        """(name, ok, figure) of the three structural checks, then E regular."""
        return [
            ("Gamma skew-symmetric", self.skew_ok, f"max violation {self.skew_violation:.3e}"),
            ("W positive semidefinite", self.psd_ok, f"min eigenvalue {self.min_eigenvalue:.3e}"),
            ("gradient compatibility", self.compat_ok, f"max residual {self.compat_residual:.3e}"),
            ("E regular", self.e_regular, f"rcond {self.e_rcond:.3e}"),
        ]

    def summary(self) -> str:
        return "\n".join(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
                         for name, ok, detail in self._rows())

    def failures(self) -> str:
        """The failed structural checks with their figures, on one line."""
        return "; ".join(f"{name}: {detail}" for name, ok, detail in self._rows()[:3] if not ok)


def _block2(a, b, c, d) -> np.ndarray:
    """The block matrix [[a, b], [c, d]] of square a and d, as ``np.block``
    builds it, by slice assignment; a alone when d is empty."""
    if not d.size:
        return a
    n = len(a)
    out = np.empty((n + len(d),) * 2)
    out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:] = a, b, c, d
    return out


def _gamma_w(E, J, R, B, P, S, N):
    return _block2(J, B, -B.T, N), _block2(R, P, P.T, S)


def _skew_violation(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.abs(a + a.T).max())


def _min_eig_sym(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (a + a.T)).min())


def _scaled(mats) -> tuple:
    """``mats`` divided by the power of two s >= 1 that brings every entry
    below 2 in magnitude, s, and the largest magnitude of the divided
    matrices (top / s, exact since s is a power of two; for one matrix, not
    finite when an entry is not).  Skewness and semidefiniteness do not change under
    scaling, and no sum or norm of the divided matrices overflows; below 2
    nothing is scaled."""
    top = max((float(np.abs(a).max()) for a in mats if a.size), default=0.0)
    s = 2.0 ** max(math.frexp(top)[1] - 1, 0)
    return ([a / s for a in mats] if s > 1 else list(mats)), s, top / s


def _psd_check(ws, tol: float = 1e-10) -> tuple:
    """Whether the symmetric parts of the matrices ``ws`` are positive
    semidefinite, by the rule lambda_min >= -tol (1 + max ||W||_F) over
    all of them, and lambda_min (-inf where it leaves the float range).
    The rule runs on the matrices divided by ``_scaled``'s s."""
    ws, s, _ = _scaled(ws)
    lam = min(_min_eig_sym(w) for w in ws)
    norm = max(float(np.linalg.norm(w)) for w in ws)
    return lam >= -tol * (1.0 / s + norm), lam * s


def validate_structure(sys: PHSystem, samples: Sequence[np.ndarray] | None = None,
                       tol: float = 1e-10) -> StructureReport:
    """Check skewness of Gamma, semidefiniteness of W and Hamiltonian
    compatibility; pure, deterministic and idempotent.

    For callback systems the checks are run at every sample state and the
    compatibility residual uses a central finite-difference gradient.
    Gamma, W and Q = E^T L are checked divided by a power of two (see
    ``_scaled``), so entries up to the largest float cannot overflow the
    checks.  Gamma and W are built once per state; with E they hold every
    coefficient, so their finiteness is that of the system.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")

    if sys.is_linear:
        states = [np.zeros(sys.n)]
    else:
        if samples is None or len(samples) == 0:
            raise ValueError("callback systems require at least one sample state")
        states = [np.asarray(s, dtype=float) for s in samples]

    coeffs = [sys.coefficients(x) for x in states]
    gammas, ws = zip(*(_gamma_w(*c) for c in coeffs))
    if not all(np.isfinite(a).all() for a in (*gammas, *ws, *(c[0] for c in coeffs))):
        raise ValueError("system coefficients contain non-finite entries")
    gammas, s, a_scale = _scaled(gammas)
    skew_viol = max(_skew_violation(g) for g in gammas)
    skew_ok = skew_viol <= tol * (1.0 / s + a_scale)
    psd_ok, min_eig = _psd_check(ws, tol)

    if sys.is_linear:
        # exact identity Q x = E^T L x requires E^T L symmetric; checked on Q
        # divided by a power of two, formed from E and L divided by theirs
        # where Q itself leaves the float range
        with np.errstate(over="ignore", invalid="ignore"):
            (q,), es, top = _scaled([sys.Q])
        ls = 1.0
        if not math.isfinite(top):
            (e,), es, _ = _scaled([sys.E])
            (el,), ls, _ = _scaled([sys.L])
            q = e.T @ el
            top = np.abs(q).max(initial=0.0)
        res = float(np.abs(q - q.T).max()) if q.size else 0.0
        compat_ok = res <= tol * (1.0 / es / ls + top)
        compat_res = res * es * ls
        rc = sys.e_rcond
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


def _check_input(sys, u):
    if u is None:
        return np.zeros(sys.m)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (sys.m,):
        raise DimensionError(f"input must have length {sys.m}, got {u.shape}")
    return u


def eval_dynamics(sys: PHSystem, x, u=None):
    """Evaluate (xdot, y) at state x and input u.

    Solves E xdot = (J - R) z(x) + (B - P) u and evaluates the output
    y = (B + P)^T z(x) + (S - N) u.  Requires a regular flow matrix.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (sys.n,):
        raise DimensionError(f"state must have length {sys.n}, got {x.shape}")
    u = _check_input(sys, u)
    E, J, R, B, P, S, N = sys.coefficients(x)
    if (sys.e_rcond if sys.is_linear else _rcond(E)) <= E_RCOND_MIN:
        raise SingularFlowError("descriptor system: integrate unsupported (singular E)")
    z = np.asarray(sys.effort(x), dtype=float)
    rhs = (J - R) @ z + (B - P) @ u
    xdot = np.linalg.solve(E, rhs)
    y = (B + P).T @ z + (S - N) @ u
    return xdot, y


def port_power(coeffs, z, u):
    """Power balance rate -[z; u]^T W [z; u] + u^T y with the output
    y = (B + P)^T z + (S - N) u, for coefficients (E, J, R, B, P, S, N).

    z and u are one sample each or one sample per row; this is the single
    formula behind every energy balance in the package.
    """
    E, J, R, B, P, S, N = coeffs
    w = _block2(R, P, P.T, S)
    zu = np.concatenate([z, u], axis=-1)
    y = z @ (B + P) + u @ (S - N).T
    return np.sum(u * y, axis=-1) - np.sum((zu @ w) * zu, axis=-1)


def power_balance_residual(sys: PHSystem, x, u=None) -> float:
    """Pointwise defect of the dissipation identity

        dH/dt = -[z; u]^T W [z; u] + u^T y,

    evaluated along the vector field; zero in exact arithmetic for every
    valid port-Hamiltonian system.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = _check_input(sys, u)
    xdot, _ = eval_dynamics(sys, x, u)
    z = np.asarray(sys.effort(x), dtype=float)
    rhs = float(port_power(sys.coefficients(x), z, u))
    lhs = float(sys.grad_hamiltonian(x) @ xdot)
    return abs(lhs - rhs)
