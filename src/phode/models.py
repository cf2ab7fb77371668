"""Benchmark model constructors: two-mass oscillator, poroelastic
network and a discrete Maxwell grid, with their canonical splittings.

The two-mass oscillator matrices are fixed; the poroelastic and Maxwell
desk instances use constructed matrices (small SPD mass/stiffness blocks,
incidence matrices of a small graph), so all quantitative statements
about them are oracle-derived.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import integrate
from .core import LinearPHSystem, DimensionError, _clip, _float_array
from .coupling import CoupledNetwork
from .decoupling import Partition, decouple_auto, decouple_with_ports


def _text(value) -> str:
    """The JSON text of a parameter's value, cut for an error line."""
    return _clip(json.dumps(value, default=repr))


def _numbers(params, names) -> list:
    """The values of the fields ``names`` of ``params``; one that is not a
    number (null, a boolean, a string, an array) raises a TypeError naming it."""
    values = [getattr(params, name) for name in names]
    for name, value in zip(names, values):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a number, got {_text(value)}")
    return values


def _array(name: str, value) -> np.ndarray:
    """The parameter ``name`` as a float array; entries that are not
    numbers raise a TypeError naming it."""
    try:
        return _float_array(value)
    except TypeError:
        raise TypeError(f"{name} must be an array of numbers, got {_text(value)}") from None


# ---------------------------------------------------------------------------
# two-mass oscillator (two masses, three springs, two dampers)

@dataclass(frozen=True)
class TwoMassParams:
    m1: float = 1.0
    m2: float = 1.0
    K: float = 1.0
    K1: float = 1.0
    K2: float = 1.0
    r1: float = 0.1
    r2: float = 0.1

    def __post_init__(self):
        if not np.all(np.isfinite(_numbers(self, ("m1", "m2", "K", "K1", "K2", "r1", "r2")))):
            raise ValueError("non-finite parameter values")
        if min(self.m1, self.m2, self.K, self.K1, self.K2) <= 0:
            raise ValueError("masses and stiffnesses must be positive")
        if min(self.r1, self.r2) < 0:
            raise ValueError("damping coefficients must be nonnegative")


def two_mass(params: TwoMassParams | None = None) -> LinearPHSystem:
    """Damped two-mass oscillator, state (p1, q1, q1-q2-elongation, p2, q2).

    E = I and H(x) = 1/2 x^T diag(1/m1, K1, K, 1/m2, K2) x; the 1/2
    convention (physical energies) makes grad H = Q x and the discrete
    midpoint energy balance exact.
    """
    p = params or TwoMassParams()
    J = np.array([
        [0., -1., -1., 0., 0.],
        [1., 0., 0., 0., 0.],
        [1., 0., 0., -1., 0.],
        [0., 0., 1., 0., -1.],
        [0., 0., 0., 1., 0.],
    ])
    R = np.diag([p.r1, 0., 0., p.r2, 0.])
    Q = np.diag([1.0 / p.m1, p.K1, p.K, 1.0 / p.m2, p.K2])
    return LinearPHSystem(E=np.eye(5), J=J, R=R, B=np.zeros((5, 0)), L=Q)


def two_mass_network(params: TwoMassParams | None = None) -> CoupledNetwork:
    """Canonical (3, 2) splitting of the two-mass oscillator: scalar ports
    Bhat1 = [0,0,1]^T, Bhat2 = [-1,0]^T and C12 = -1.
    """
    sys = two_mass(params)
    b1 = np.array([[0.], [0.], [1.]])
    b2 = np.array([[-1.], [0.]])
    return decouple_with_ports(sys, Partition((3, 2)), [b1, b2], {(0, 1): [[-1.]]})


def two_mass_alt_ports():
    """The documented {1,4}/{2,3,5} splitting data: permutation, ports and
    coupling block as printed; the port verification for this triple does
    not hold (see tests), which is kept on purpose."""
    perm = np.zeros((5, 5))
    for row, col in enumerate((0, 3, 1, 2, 4)):
        perm[row, col] = 1.0
    B1 = np.array([[1., 0.], [0., -1.]])
    B2 = np.array([[-1., 1.], [0., 1.], [1., 0.]])
    C12 = np.array([[0., 1.], [-1., 0.]])
    return perm, Partition((2, 3)), [B1, B2], {(0, 1): C12}


# ---------------------------------------------------------------------------
# poroelastic network model

def _tridiag(n: int, lo: float, di: float, up: float) -> np.ndarray:
    return (np.diag(np.full(n, di)) + np.diag(np.full(n - 1, lo), -1)
            + np.diag(np.full(n - 1, up), 1))


@dataclass(frozen=True)
class PoroelasticParams:
    rho: float = 1.0
    alpha: float = 1.0
    kappa: float = 1.0
    nu: float = 1.0
    biot_modulus: float = 1.0
    dim_w: int = 3
    dim_p: int = 2
    M_u: np.ndarray = None
    M_p: np.ndarray = None
    K_u: np.ndarray = None
    K_p: np.ndarray = None
    D: np.ndarray = None
    B_f: np.ndarray = None
    B_g: np.ndarray = None

    def __post_init__(self):
        if not np.all(np.isfinite(_numbers(self, ("rho", "alpha", "kappa", "nu",
                                                   "biot_modulus")))):
            raise ValueError("non-finite parameter values")
        if min(self.rho, self.nu, self.biot_modulus) <= 0 or self.kappa < 0:
            raise ValueError("rho, nu and biot_modulus must be positive, kappa nonnegative")
        nw, npp = self.dim_w, self.dim_p
        for name, dim in (("dim_w", nw), ("dim_p", npp)):
            if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
                raise ValueError(f"{name} must be a positive integer, got {_text(dim)}")
        # the system's E, J, R and L, n x n each, before any matrix is built
        n, memory = 2 * nw + npp, integrate._memory_bytes()
        if 32 * n * n > memory:
            raise ValueError(f"dim_w = {_clip(str(nw))}, dim_p = {_clip(str(npp))}: E, J, R "
                             f"and L of {_clip(str(n))} states exceed memory "
                             f"({memory / 2 ** 30:.3g} GiB installed)")
        defaults = {
            "M_u": np.eye(nw),
            "M_p": np.eye(npp),
            "K_u": _tridiag(nw, -1.0, 2.0, -1.0),
            "K_p": np.eye(npp),
            "D": 0.1 * np.ones((npp, nw)),
            "B_f": np.ones((nw, 1)),
            "B_g": np.ones((npp, 1)),
        }
        for name, default in defaults.items():
            val = getattr(self, name)
            object.__setattr__(self, name, default if val is None else _array(name, val))
        for name, mat, dim in (("M_u", self.M_u, nw), ("M_p", self.M_p, npp),
                               ("K_u", self.K_u, nw), ("K_p", self.K_p, npp)):
            if mat.shape != (dim, dim):
                raise DimensionError(f"{name} must be {dim}x{dim}")
            if np.max(np.abs(mat - mat.T)) > 1e-12 or np.linalg.eigvalsh(mat).min() <= 0:
                raise ValueError(f"{name} must be symmetric positive definite")
        if self.D.shape != (npp, nw):
            raise DimensionError(f"D must be {npp}x{nw}")
        for name, mat, dim in (("B_f", self.B_f, nw), ("B_g", self.B_g, npp)):
            if mat.ndim != 2 or mat.shape[0] != dim:
                raise DimensionError(f"{name} must be a 2-D array with {dim} rows")


def poroelastic(params: PoroelasticParams | None = None):
    """Implicit poroelastic system and its canonical two-block network.

    State (velocity, displacement, pressure); E collects the mass and
    stiffness blocks, the fluid-solid coupling alpha*D sits in the
    structure matrix and the pressure block carries all dissipation.
    Effort is z = x and H = 1/2 x^T E x.  The canonical split separates
    the conservative mechanical blocks from the dissipative pressure
    block (case 1).
    """
    p = params or PoroelasticParams()
    nw, npp = p.dim_w, p.dim_p
    Ku = p.K_u
    Z = np.zeros
    E = np.block([
        [p.rho * p.M_u, Z((nw, nw)), Z((nw, npp))],
        [Z((nw, nw)), Ku, Z((nw, npp))],
        [Z((npp, nw)), Z((npp, nw)), p.M_p / p.biot_modulus],
    ])
    J = np.block([
        [Z((nw, nw)), -Ku, p.alpha * p.D.T],
        [Ku.T, Z((nw, nw)), Z((nw, npp))],
        [-p.alpha * p.D, Z((npp, nw)), Z((npp, npp))],
    ])
    R = np.block([
        [Z((nw, nw)), Z((nw, nw)), Z((nw, npp))],
        [Z((nw, nw)), Z((nw, nw)), Z((nw, npp))],
        [Z((npp, nw)), Z((npp, nw)), (p.kappa / p.nu) * p.K_p],
    ])
    mf, mg = p.B_f.shape[1], p.B_g.shape[1]
    B = np.block([
        [p.B_f, Z((nw, mg))],
        [Z((nw, mf)), Z((nw, mg))],
        [Z((npp, mf)), p.B_g],
    ])
    n = 2 * nw + npp
    sys = LinearPHSystem(E=E, J=J, R=R, B=B, L=np.eye(n))
    net = decouple_auto(sys, Partition((2 * nw, npp)))
    return sys, net


# ---------------------------------------------------------------------------
# discrete Maxwell grid (structural only: the flow matrix is singular)

def _default_incidence():
    """4-node graph with 5 edges (a square with one diagonal): gradient
    G maps nodes to edges, curl C spans the two independent cycles."""
    # edges: 0-1, 1-2, 2-3, 3-0, 0-2
    G = np.array([
        [-1., 1., 0., 0.],
        [0., -1., 1., 0.],
        [0., 0., -1., 1.],
        [1., 0., 0., -1.],
        [-1., 0., 1., 0.],
    ])
    C = np.array([
        [1., 1., 0., 0., -1.],   # cycle 0-1-2-0
        [0., 0., 1., 1., 1.],    # cycle 0-2-3-0
    ])
    return G, C


@dataclass(frozen=True)
class MaxwellParams:
    G: np.ndarray = None
    C: np.ndarray = None
    M_eps: np.ndarray = None
    M_mu: np.ndarray = None
    M_kappa: np.ndarray = None

    def __post_init__(self):
        if (self.G is None) != (self.C is None):
            raise ValueError("G and C must be given together")
        G, C = _default_incidence() if self.G is None else (self.G, self.C)
        G, C = _array("G", G), _array("C", C)
        if G.ndim != 2 or C.ndim != 2:
            raise DimensionError("G and C must be 2-D arrays")
        ne = G.shape[0]
        nf = C.shape[0]
        if C.shape[1] != ne:
            raise DimensionError("curl matrix columns must match edge count")
        if np.max(np.abs(C @ G), initial=0.0) > 1e-12:
            raise ValueError("curl and gradient matrices must satisfy C G = 0")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "C", C)
        for name, dim in (("M_eps", ne), ("M_mu", nf), ("M_kappa", ne)):
            val = getattr(self, name)
            mat = np.eye(dim) if val is None else _array(name, val)
            if mat.shape != (dim, dim):
                raise DimensionError(f"{name} must be {dim}x{dim}")
            object.__setattr__(self, name, mat)
        if np.linalg.eigvalsh(0.5 * (self.M_eps + self.M_eps.T)).min() <= 0:
            raise ValueError("M_eps must be positive definite")
        if np.linalg.eigvalsh(0.5 * (self.M_mu + self.M_mu.T)).min() <= 0:
            raise ValueError("M_mu must be positive definite")
        if np.linalg.eigvalsh(0.5 * (self.M_kappa + self.M_kappa.T)).min() < -1e-12:
            raise ValueError("M_kappa must be positive semidefinite")


def maxwell_grid(params: MaxwellParams | None = None):
    """Discrete Maxwell system (structural only) and its canonical split.

    State (d_t a, phi, h).  The flow matrix contains the rank-deficient
    [I; G^T] M_eps [I, G] block and is singular, so the system is a
    descriptor system: it is validated and split but never integrated.
    Effort is z = x and H = 1/2 x^T E x.
    """
    p = params or MaxwellParams()
    G, C = p.G, p.C
    ne, nn = G.shape
    nf = C.shape[0]
    Z = np.zeros
    E = np.block([
        [p.M_eps, p.M_eps @ G, Z((ne, nf))],
        [G.T @ p.M_eps, G.T @ p.M_eps @ G, Z((nn, nf))],
        [Z((nf, ne)), Z((nf, nn)), p.M_mu],
    ])
    J = np.block([
        [Z((ne, ne)), Z((ne, nn)), -C.T],
        [Z((nn, ne)), Z((nn, nn)), Z((nn, nf))],
        [C, Z((nf, nn)), Z((nf, nf))],
    ])
    R = np.block([
        [p.M_kappa, p.M_kappa @ G, Z((ne, nf))],
        [G.T @ p.M_kappa, G.T @ p.M_kappa @ G, Z((nn, nf))],
        [Z((nf, ne)), Z((nf, nn)), Z((nf, nf))],
    ])
    B = np.vstack([np.eye(ne), G.T, Z((nf, ne))])
    n = ne + nn + nf
    sys = LinearPHSystem(E=E, J=J, R=R, B=B, L=np.eye(n))
    net = decouple_auto(sys, Partition((ne + nn, nf)))
    return sys, net


#: CLI model registry
REGISTRY = {
    "two-mass": (TwoMassParams, two_mass),
    "poroelastic": (PoroelasticParams, lambda p=None: poroelastic(p)[0]),
    "maxwell": (MaxwellParams, lambda p=None: maxwell_grid(p)[0]),
}


def build(name: str, params: dict) -> LinearPHSystem:
    """The system of the registered model ``name`` with the values ``params``;
    an unknown name or parameters that its class refuses raise a ValueError."""
    if not isinstance(name, str) or name not in REGISTRY:
        raise ValueError(f"unknown model {_clip(repr(name))}; known: "
                         + ", ".join(sorted(REGISTRY)))
    params_cls, ctor = REGISTRY[name]
    try:
        p = params_cls(**params)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad parameters: {_clip(str(exc))}") from exc
    return ctor(p)
