"""Decomposition of a monolithic pH system into coupled subsystems.

After an invertible linear change of state that makes the Hamiltonian
separable, the structure and dissipation matrices are split into diagonal
and off-diagonal parts.  Three cases arise: vanishing off-diagonal
dissipation gives a skew coupling (case 1), otherwise a general linear
port relation (case 2), and user-chosen port matrices are verified
block-by-block against J_ij - R_ij = -Bhat_i C_ij Bhat_j^T (case 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DimensionError, LinearPHSystem, _rcond, _slices
from .coupling import CoupledNetwork, CouplingSpec, LinearPortRelation


@dataclass(frozen=True)
class Partition:
    """Contiguous split of the state vector into blocks of given sizes."""

    sizes: tuple

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("all partition sizes must be >= 1")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def s(self) -> int:
        return len(self.sizes)

    @property
    def ranges(self) -> tuple:
        return _slices(self.sizes)


@dataclass(frozen=True)
class LinearTransform:
    """Invertible linear change of state w = T x."""

    T: np.ndarray

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.T, dtype=float))
        if t.shape[0] != t.shape[1]:
            raise DimensionError("transform matrix must be square")
        if _rcond(t) <= 1e-12:
            raise ValueError("transform matrix is singular or too ill-conditioned")
        object.__setattr__(self, "T", t)

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.T)


@dataclass(eq=False)
class VerificationFailure(ValueError):
    """A port/coupling choice that does not reproduce the off-diagonal
    blocks; carries the worst residual and the offending block pair."""

    message: str
    residual: np.ndarray
    max_residual: float
    pair: tuple

    def __str__(self):
        return f"{self.message}: max residual {self.max_residual:.3e}"


def apply_transform(sys: LinearPHSystem, transform: LinearTransform | np.ndarray) -> LinearPHSystem:
    """Pull a linear-constant system through the change of state w = T x.

    E, J - R and B transform by congruence with T^{-1}; the effort map
    becomes z(w) = T L T^{-1} w, so the transformed Hamiltonian matrix is
    T^{-T} Q T^{-1} and energies match: H(x) = H_tilde(T x).
    """
    if not isinstance(transform, LinearTransform):
        transform = LinearTransform(np.asarray(transform))
    if not sys.is_linear:
        raise TypeError("state transformations are executed on linear-constant systems only")
    ti = transform.inverse
    a = ti.T @ (sys.J - sys.R) @ ti
    j_new = 0.5 * (a - a.T)
    r_new = -0.5 * (a + a.T)
    return LinearPHSystem(
        E=ti.T @ sys.E @ ti,
        J=j_new,
        R=r_new,
        B=ti.T @ sys.B,
        L=transform.T @ sys.L @ ti,
        P=ti.T @ sys.P,
        S=sys.S,
        N=sys.N,
    )


def _offdiag(mat: np.ndarray, ranges) -> np.ndarray:
    """Copy of ``mat`` with the diagonal blocks of the partition zeroed."""
    out = mat.copy()
    for ri in ranges:
        out[ri, ri] = 0.0
    return out


def _partition(sys: LinearPHSystem, partition: Partition | Sequence[int]) -> Partition:
    """``partition`` as a :class:`Partition` of the system's states."""
    if not isinstance(partition, Partition):
        partition = Partition(tuple(partition))
    if partition.n != sys.n:
        raise DimensionError(f"partition sums to {partition.n}, state dimension is {sys.n}")
    return partition


def _require_separable(sys: LinearPHSystem, ranges):
    # each block would take the whole external port, and condensation stacks
    # the blocks' external ports, so there is no split of S and N to give back
    if np.any(sys.P) or np.any(sys.S) or np.any(sys.N):
        raise ValueError("cannot decouple a system with feedthrough: P, S and N must be zero")
    if np.any(_offdiag(sys.Q, ranges)):
        raise ValueError("Hamiltonian not separable: Q has nonzero off-diagonal blocks")
    if np.any(_offdiag(sys.E, ranges)):
        raise ValueError("flow matrix not block-diagonal w.r.t. the partition")
    # with E block-diagonal and regular blocks, L = E^{-T} Q inherits the
    # block structure; guard against descriptor corner cases anyway
    l_off = _offdiag(sys.L, ranges)
    if np.max(np.abs(l_off), initial=0.0) > 1e-12 * (1.0 + np.max(np.abs(sys.L))):
        raise ValueError("effort matrix not block-diagonal w.r.t. the partition")


def _network(sys: LinearPHSystem, ranges, ports, C: np.ndarray) -> CoupledNetwork:
    """The network of the diagonal blocks of ``sys`` wired by ports Bhat_i
    and the full coupling matrix C: skew coupling C without off-diagonal
    dissipation (case 1), otherwise the relation M = I, N = C (case 2)."""
    subs = tuple(LinearPHSystem(E=sys.E[r, r].copy(), J=sys.J[r, r].copy(),
                                R=sys.R[r, r].copy(), B=sys.B[r, :].copy(),
                                L=sys.L[r, r].copy())
                 for r in ranges)
    if not np.any(_offdiag(sys.R, ranges)):
        coupling = CouplingSpec(port_matrices=tuple(ports), C=C)
    else:
        coupling = LinearPortRelation(port_matrices=tuple(ports), M=np.eye(len(C)), N=C)
    return CoupledNetwork(subsystems=subs, coupling=coupling)


def decouple_auto(sys: LinearPHSystem, partition: Partition | Sequence[int]) -> CoupledNetwork:
    """Split a separable monolithic system with identity port matrices and
    C = -(J_offdiag - R_offdiag).

    Case 1 (no off-diagonal dissipation): skew coupling C = -J_offdiag.
    Case 2 (otherwise): general relation M = I, N = -J_offdiag + R_offdiag.
    Recoupling reproduces J, R, E and L.  External ports do not come back
    as they were: every subsystem keeps all m external inputs (its rows of
    B), so the condensed system has one m-column block of B per subsystem,
    and these blocks sum to the original B.  A C that overflows raises a
    FloatingPointError.
    """
    p = _partition(sys, partition)
    r = p.ranges
    _require_separable(sys, r)
    ports = [np.eye(ni) for ni in p.sizes]
    with np.errstate(over="ignore"):
        C = -(_offdiag(sys.J, r) - _offdiag(sys.R, r))
    if not np.all(np.isfinite(C)):
        raise FloatingPointError("coupling matrix is not finite: J - R overflows "
                                 "off the diagonal blocks")
    return _network(sys, r, ports, C)


def _verify_blocks(sys: LinearPHSystem, ranges, ports, block, pairs):
    """Check Bhat_i C_ij Bhat_j^T = -(J_ij - R_ij) for each block pair (i, j)
    to 1e-12 relative; raise a :class:`VerificationFailure` for the worst
    pair that misses."""
    worst, worst_pair, worst_res = 0.0, None, None
    for i, j in pairs:
        ri, rj = ranges[i], ranges[j]
        target = sys.J[ri, rj] - sys.R[ri, rj]
        # residual = computed product minus the required -(J_ij - R_ij)
        res = ports[i] @ block(i, j) @ ports[j].T + target
        mr = float(np.max(np.abs(res), initial=0.0))
        scale = np.max(np.abs(target), initial=0.0) + 1.0
        if mr > 1e-12 * scale and mr > worst:
            worst, worst_pair, worst_res = mr, (i, j), res
    if worst_pair is not None:
        raise VerificationFailure(f"ports do not reproduce off-diagonal block pair {worst_pair}",
                                  worst_res, worst, worst_pair)


def decouple_with_ports(sys: LinearPHSystem, partition: Partition | Sequence[int],
                        ports: Sequence[np.ndarray], blocks: dict):
    """Split with user-chosen port matrices Bhat_i and coupling blocks
    C_ij (i < j), verifying J_ij - R_ij = -Bhat_i C_ij Bhat_j^T for
    every block pair, the fitted lower blocks C_ji included.

    Returns the coupled network, or raises a :class:`VerificationFailure`
    (a ValueError) with the worst residual and offending block pair.  The
    skew part of the assembled coupling matrix generates structure blocks
    and the symmetric part dissipation blocks.
    """
    p = _partition(sys, partition)
    r = p.ranges
    _require_separable(sys, r)
    ports = [np.atleast_2d(np.asarray(b, dtype=float)) for b in ports]
    if len(ports) != p.s:
        raise DimensionError("one port matrix per partition block required")
    for i, b in enumerate(ports):
        if b.shape[0] != p.sizes[i]:
            raise DimensionError(
                f"port matrix {i} has {b.shape[0]} rows, block size is {p.sizes[i]}")

    cols = _slices([b.shape[1] for b in ports])
    c_full = np.zeros((cols[-1].stop, cols[-1].stop))

    def block(i, j):
        return c_full[cols[i], cols[j]]

    for (i, j), cij in blocks.items():
        if not (0 <= i < j < p.s):
            raise DimensionError(f"block pair {(i, j)} must satisfy 0 <= i < j < s")
        cij = np.atleast_2d(np.asarray(cij, dtype=float))
        if cij.shape != block(i, j).shape:
            raise DimensionError(f"coupling block {(i, j)} has shape {cij.shape}, "
                                 f"expected {block(i, j).shape}")
        block(i, j)[...] = cij
    upper = [(i, j) for i in range(p.s) for j in range(i + 1, p.s)]
    _verify_blocks(sys, r, ports, block, upper)

    # with zero off-diagonal dissipation the skew completion C_ji = -C_ij^T is
    # exact, otherwise the lower blocks are fitted to the (j, i) system blocks
    # by least squares, which need not reproduce them
    skew = not np.any(_offdiag(sys.R, r))
    for i, j in upper:
        if skew:
            block(j, i)[...] = -block(i, j).T
        else:
            target = sys.J[r[j], r[i]] - sys.R[r[j], r[i]]
            block(j, i)[...] = -np.linalg.pinv(ports[j]) @ target @ np.linalg.pinv(ports[i]).T
    _verify_blocks(sys, r, ports, block, [(j, i) for i, j in upper])
    return _network(sys, r, ports, c_full)
