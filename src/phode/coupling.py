"""Condensation of coupled port-Hamiltonian subsystems.

s subsystems with internal ports (u_hat_i, y_hat_i) wired by the law
u_hat + C y_hat = 0 condense into one monolithic system whose structure
matrix gains the Schur-type term -Bhat C Bhat^T.  A skew C keeps the
result port-Hamiltonian directly; a general C is split into symmetric and
skew parts (the symmetric part moves into the dissipation matrix), and if
that fails semidefiniteness the network is lifted to an extended
descriptor system with dummy port variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .core import DimensionError, LinearPHSystem, _min_eig_sym, _rcond, _skew_violation


def _blockdiag(mats: Sequence[np.ndarray]) -> np.ndarray:
    return scipy.linalg.block_diag(*mats) if mats else np.zeros((0, 0))


@dataclass(frozen=True)
class CouplingSpec:
    """Internal-port wiring: per-subsystem port matrices Bhat_i and the
    coupling matrix C of the law u_hat + C y_hat = 0."""

    port_matrices: tuple
    C: np.ndarray

    def __post_init__(self):
        ports = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.port_matrices)
        object.__setattr__(self, "port_matrices", ports)
        c = np.atleast_2d(np.asarray(self.C, dtype=float))
        mt = self.total_ports
        if c.size == 0:
            c = c.reshape(mt, mt) if mt == 0 else c
        if c.shape != (mt, mt):
            raise DimensionError(f"C must be {mt}x{mt}, got {c.shape}")
        object.__setattr__(self, "C", c)

    @property
    def layout(self) -> tuple:
        return tuple(b.shape[1] for b in self.port_matrices)

    @property
    def total_ports(self) -> int:
        return sum(self.layout)

    @property
    def is_skew(self) -> bool:
        return _skew_violation(self.C) <= 1e-12 * (1.0 + np.max(np.abs(self.C), initial=0.0))


@dataclass(frozen=True)
class LinearPortRelation:
    """General linear port relation M u_hat + N y_hat = 0."""

    port_matrices: tuple
    M: np.ndarray
    N: np.ndarray

    def __post_init__(self):
        ports = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.port_matrices)
        object.__setattr__(self, "port_matrices", ports)
        mt = sum(b.shape[1] for b in ports)
        m = np.atleast_2d(np.asarray(self.M, dtype=float))
        n = np.atleast_2d(np.asarray(self.N, dtype=float))
        if m.shape[0] != n.shape[0]:
            raise DimensionError("M and N must have the same row count")
        if m.shape[1] != mt or n.shape[1] != mt:
            raise DimensionError(f"M and N must have {mt} columns")
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "N", n)

    @property
    def layout(self) -> tuple:
        return tuple(b.shape[1] for b in self.port_matrices)


@dataclass(frozen=True)
class CoupledNetwork:
    """s subsystems plus their internal-port coupling.

    Each subsystem's own B holds only the external ports; internal port
    matrices live on the coupling object.
    """

    subsystems: tuple
    coupling: CouplingSpec | LinearPortRelation

    def __post_init__(self):
        subs = tuple(self.subsystems)
        object.__setattr__(self, "subsystems", subs)
        if len(subs) != len(self.coupling.port_matrices):
            raise DimensionError("one internal port matrix per subsystem required")
        for sys, bhat in zip(subs, self.coupling.port_matrices):
            if bhat.shape[0] != sys.n:
                raise DimensionError(
                    f"port matrix rows {bhat.shape[0]} != subsystem dimension {sys.n}")

    @property
    def state_sizes(self) -> tuple:
        return tuple(s.n for s in self.subsystems)

    @property
    def n(self) -> int:
        return sum(self.state_sizes)

    def split_state(self, x: np.ndarray) -> list:
        x = np.asarray(x, dtype=float)
        out, k = [], 0
        for ni in self.state_sizes:
            out.append(x[k:k + ni])
            k += ni
        return out

    def stacked_port_matrix(self) -> np.ndarray:
        return _blockdiag(list(self.coupling.port_matrices))


@dataclass(frozen=True)
class StructureFailure:
    """A mathematically meaningful negative outcome: the assembled
    dissipation matrix is not positive semidefinite."""

    message: str
    min_eigenvalue: float
    fallback: str = "build_phdae"

    def __bool__(self):
        return False


@dataclass(frozen=True)
class PHDAESystem:
    """Extended descriptor system with dummy port variables (u_hat, y_hat)
    and a multiplier block enforcing M u_hat + N y_hat = 0."""

    network: CoupledNetwork
    relation: LinearPortRelation
    E_ext: np.ndarray
    A_ext: np.ndarray
    R_ext: np.ndarray
    G_ext: np.ndarray
    layout: tuple  # (n_state, n_ports, n_ports, n_multipliers)

    @property
    def size(self) -> int:
        return sum(self.layout)


def _stack_blocks(net: CoupledNetwork):
    subs = net.subsystems
    for s in subs:
        if not s.is_linear:
            raise TypeError("condensation is defined for linear-constant subsystems")
    E = _blockdiag([s.E for s in subs])
    Jd = _blockdiag([s.J for s in subs])
    Rd = _blockdiag([s.R for s in subs])
    Bbar = _blockdiag([s.B for s in subs])
    L = _blockdiag([s.L for s in subs])
    Bhat = net.stacked_port_matrix()
    return E, Jd, Rd, Bbar, L, Bhat


def _stacked_feedthrough(net: CoupledNetwork) -> dict:
    # external ports stay per subsystem, so their feedthrough stacks like B
    return {k: _blockdiag([getattr(s, k) for s in net.subsystems]) for k in ("P", "S", "N")}


def condense_skew(net: CoupledNetwork) -> LinearPHSystem:
    """Condense a skew-coupled network into one monolithic pH system.

    The monolithic structure matrix is blockdiag(J_i) - Bhat C Bhat^T;
    flow, dissipation, external ports with their feedthrough P, S, N and
    effort stay block-diagonal and the Hamiltonian is the sum of the
    subsystem Hamiltonians.
    """
    if not isinstance(net.coupling, CouplingSpec):
        raise TypeError("network carries a general relation; use eliminate_ports")
    if not net.coupling.is_skew:
        raise ValueError("coupling matrix is not skew-symmetric; use condense_general")
    E, Jd, Rd, Bbar, L, Bhat = _stack_blocks(net)
    J = Jd - Bhat @ net.coupling.C @ Bhat.T
    return LinearPHSystem(E=E, J=J, R=Rd, B=Bbar, L=L, **_stacked_feedthrough(net))


def condense_general(net: CoupledNetwork, C: np.ndarray | None = None):
    """Condense a network with an arbitrary square coupling matrix.

    C is split into symmetric and skew parts; the skew part enters the
    structure matrix, the symmetric part the dissipation matrix.  When
    the assembled dissipation matrix fails the semidefiniteness check,
    a :class:`StructureFailure` naming the descriptor fallback is
    returned instead of a system.
    """
    if C is None:
        if not isinstance(net.coupling, CouplingSpec):
            raise TypeError("network carries a general relation; use eliminate_ports")
        C = net.coupling.C
    C = np.atleast_2d(np.asarray(C, dtype=float))
    E, Jd, Rd, Bbar, L, Bhat = _stack_blocks(net)
    if C.shape != (Bhat.shape[1], Bhat.shape[1]):
        raise DimensionError(f"C must be {Bhat.shape[1]}x{Bhat.shape[1]}, got {C.shape}")
    Csym = 0.5 * (C + C.T)
    Cskew = 0.5 * (C - C.T)
    J = Jd - Bhat @ Cskew @ Bhat.T
    R = Rd + Bhat @ Csym @ Bhat.T
    lam = _min_eig_sym(R)
    if lam < -1e-12 * (1.0 + (np.linalg.norm(R) if R.size else 0.0)):
        return StructureFailure(
            message="assembled dissipation matrix is indefinite; "
                    "lift to the extended descriptor form via build_phdae",
            min_eigenvalue=lam,
        )
    return LinearPHSystem(E=E, J=J, R=R, B=Bbar, L=L, **_stacked_feedthrough(net))


def build_phdae(net: CoupledNetwork, rel: LinearPortRelation | None = None) -> PHDAESystem:
    """Lift a network with relation M u_hat + N y_hat = 0 to the extended
    descriptor system with dummy port variables.

    Extended state (x, u_hat, y_hat, multiplier); the extended structure
    operator A satisfies A + A^T = -2 diag(blockdiag(R_i), 0, 0, 0).
    """
    if rel is None:
        if not isinstance(net.coupling, LinearPortRelation):
            raise TypeError("network does not carry a linear port relation")
        rel = net.coupling
    E, Jd, Rd, Bbar, L, Bhat = _stack_blocks(net)
    mt = Bhat.shape[1]
    if rel.M.shape[1] != mt:
        raise DimensionError(f"relation has {rel.M.shape[1]} port columns, expected {mt}")
    k = rel.M.shape[0]
    n = E.shape[0]
    zmm = np.zeros((mt, mt))
    A = np.block([
        [Jd - Rd,               Bhat,            np.zeros((n, mt)),  np.zeros((n, k))],
        [-Bhat.T,               zmm,             np.eye(mt),         -rel.M.T],
        [np.zeros((mt, n)),     -np.eye(mt),     zmm,                -rel.N.T],
        [np.zeros((k, n)),      rel.M,           rel.N,              np.zeros((k, k))],
    ])
    E_ext = _blockdiag([E, np.zeros((mt, mt)), np.zeros((mt, mt)), np.zeros((k, k))])
    R_ext = _blockdiag([Rd, np.zeros((mt, mt)), np.zeros((mt, mt)), np.zeros((k, k))])
    G_ext = np.vstack([np.zeros((n, mt)), np.zeros((mt, mt)), np.eye(mt), np.zeros((k, mt))])
    return PHDAESystem(network=net, relation=rel, E_ext=E_ext, A_ext=A,
                       R_ext=R_ext, G_ext=G_ext, layout=(n, mt, mt, k))


def eliminate_ports(dae: PHDAESystem):
    """Eliminate the dummy port variables of an extended descriptor
    system with square regular M.

    Substituting u_hat = -M^{-1} N y_hat reduces the relation to the
    coupling matrix M^{-1} N, which is condensed via the symmetric/skew
    split; trajectories agree with the descriptor system on the state
    components.
    """
    M, N = dae.relation.M, dae.relation.N
    if M.shape[0] != M.shape[1] or _rcond(M) <= 1e-12:
        raise ValueError("general relation not eliminable: M must be square and regular")
    C = np.linalg.solve(M, N)
    return condense_general(dae.network, C)
