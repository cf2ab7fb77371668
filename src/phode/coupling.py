"""Condensation of coupled port-Hamiltonian subsystems.

s subsystems with internal ports (u_hat_i, y_hat_i) wired by the law
u_hat + C y_hat = 0 condense into one monolithic system whose structure
matrix gains the Schur-type term -Bhat C Bhat^T.  A skew C keeps the
result port-Hamiltonian directly; a general C is split into symmetric and
skew parts (the symmetric part moves into the dissipation matrix), and if
the assembled W = [[R, P], [P^T, S]] fails semidefiniteness a
:class:`StructureFailure` is raised.  A relation M u_hat + N y_hat = 0
with square regular M has the coupling matrix C = M^{-1} N; every entry
point takes C from :func:`coupling_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (DimensionError, LinearPHSystem, _block2, _psd_check, _rcond,
                   _skew_violation, _slices)


def _blockdiag(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal matrix of 2-D blocks; 0x0 for no blocks."""
    rows, cols = [m.shape[0] for m in mats], [m.shape[1] for m in mats]
    out = np.zeros((sum(rows), sum(cols)))
    for m, rs, cs in zip(mats, _slices(rows), _slices(cols)):
        out[rs, cs] = m
    return out


def _is_skew(C: np.ndarray) -> bool:
    """C + C^T is zero to 1e-12 relative to C's largest entry: a C of
    small entries is not skew for being small."""
    return _skew_violation(C) <= 1e-12 * np.max(np.abs(C), initial=0.0)


@dataclass(frozen=True)
class CouplingSpec:
    """Internal-port wiring: per-subsystem port matrices Bhat_i and the
    coupling matrix C of the law u_hat + C y_hat = 0."""

    port_matrices: tuple
    C: np.ndarray

    def __post_init__(self):
        ports = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.port_matrices)
        object.__setattr__(self, "port_matrices", ports)
        c = np.asarray(self.C, dtype=float)
        c = c.reshape(0, 0) if c.shape == (0,) else np.atleast_2d(c)    # [] is 0x0
        mt = self.total_ports
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
        return _is_skew(self.C)


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

    def stacked_port_matrix(self) -> np.ndarray:
        return _blockdiag(list(self.coupling.port_matrices))

    @cached_property
    def stacked(self) -> LinearPHSystem:
        """The subsystems stacked block-diagonally, uncoupled (computed
        once): the monolithic system for C = 0.  The Hamiltonian is the sum
        of the subsystem Hamiltonians, and external ports with their
        feedthrough P, S, N stay per subsystem."""
        for s in self.subsystems:
            if not s.is_linear:
                raise TypeError("condensation is defined for linear-constant subsystems")
        return LinearPHSystem(**{k: _blockdiag([getattr(s, k) for s in self.subsystems])
                                 for k in ("E", "J", "R", "B", "L", "P", "S", "N")})


@dataclass(eq=False)
class StructureFailure(ValueError):
    """A condensation without a monolithic pH system: the assembled
    W = [[R, P], [P^T, S]] is not positive semidefinite."""

    message: str
    min_eigenvalue: float

    def __str__(self):
        return f"{self.message} (min eigenvalue {self.min_eigenvalue:.3e})"


def _couple(net: CoupledNetwork, C: np.ndarray) -> LinearPHSystem:
    """The monolithic system under u_hat + C y_hat = 0: the skew part of C
    adds -Bhat C_skew Bhat^T to J, the symmetric part Bhat C_sym Bhat^T to R.
    Each term is formed from half of it, K, as K - K^T or K + K^T, so it is
    skew or symmetric to the last bit, and a skew C adds nothing to R.  A J
    or R that overflows raises a FloatingPointError."""
    mono = net.stacked
    Bhat = net.stacked_port_matrix()
    with np.errstate(over="ignore", invalid="ignore"):
        skew = Bhat @ (0.25 * (C - C.T)) @ Bhat.T
        sym = Bhat @ (0.25 * (C + C.T)) @ Bhat.T
        J = mono.J - (skew - skew.T)
        R = mono.R + (sym + sym.T)
    if not (np.all(np.isfinite(J)) and np.all(np.isfinite(R))):
        raise FloatingPointError("condensed system is not finite: the coupling "
                                 "overflows J or R")
    return replace(mono, J=J, R=R)


def coupling_matrix(net: CoupledNetwork) -> np.ndarray:
    """The coupling matrix C of the law u_hat + C y_hat = 0: the network's
    C, or C = M^{-1} N for a relation M u_hat + N y_hat = 0 with square
    regular M (otherwise a ValueError; a FloatingPointError when M^{-1} N
    overflows)."""
    rel = net.coupling
    if isinstance(rel, CouplingSpec):
        return rel.C
    if rel.M.shape[0] != rel.M.shape[1] or _rcond(rel.M) <= 1e-12:
        raise ValueError("general relation not eliminable: M must be square and regular")
    C = np.linalg.solve(rel.M, rel.N)
    if not np.all(np.isfinite(C)):
        raise FloatingPointError("coupling matrix is not finite: M^-1 N overflows")
    return C


def condense_skew(net: CoupledNetwork) -> LinearPHSystem:
    """Condense a network with a skew coupling matrix (see
    :func:`coupling_matrix`) into one monolithic pH system.

    The monolithic structure matrix is blockdiag(J_i) - Bhat C Bhat^T;
    flow, dissipation, external ports with their feedthrough P, S, N and
    effort stay block-diagonal and the Hamiltonian is the sum of the
    subsystem Hamiltonians.  An exactly skew C preserves structure by
    construction, so no semidefiniteness check runs.  A C that is skew
    only to the tolerance adds its symmetric remainder, scaled by the
    ports, to R, and W is checked as in :func:`condense_general`.
    """
    C = coupling_matrix(net)
    if not _is_skew(C):
        raise ValueError("coupling matrix is not skew-symmetric; use condense_general "
                         "(phode condense --mode general)")
    mono = _couple(net, C)
    return mono if np.array_equal(C, -C.T) else _require_psd_w(mono)


def condense_general(net: CoupledNetwork) -> LinearPHSystem:
    """Condense a network with an arbitrary square coupling matrix (see
    :func:`coupling_matrix`).

    C is split into symmetric and skew parts; the skew part enters the
    structure matrix, the symmetric part the dissipation matrix.  When
    the assembled W = [[R, P], [P^T, S]] fails the semidefiniteness check
    of :func:`~phode.core.validate_structure`, the network has no
    monolithic pH system under this coupling, and a
    :class:`StructureFailure` with the least eigenvalue of W is raised.
    """
    return _require_psd_w(_couple(net, coupling_matrix(net)))


def _require_psd_w(mono: LinearPHSystem) -> LinearPHSystem:
    """``mono``, or a :class:`StructureFailure` when its W fails the
    semidefiniteness check of :func:`~phode.core.validate_structure`."""
    ok, lam = _psd_check([_block2(mono.R, mono.P, mono.P.T, mono.S)])
    if not ok:
        raise StructureFailure("assembled W = [[R, P], [P^T, S]] is indefinite", lam)
    return mono

