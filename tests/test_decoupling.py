import numpy as np
import pytest

import phode.decoupling
from phode.core import DimensionError, LinearPHSystem, validate_structure
from phode.coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation,
                            condense_general, condense_skew)
from phode.decoupling import (Partition, VerificationFailure, apply_transform, decouple_auto,
                              decouple_with_ports)
from phode.integrate import implicit_midpoint
from phode.models import two_mass, two_mass_alt_ports

from util import random_linear_ph, reference_validate_structure


class TestPartition:
    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            Partition((2, 0))
        with pytest.raises(ValueError):
            Partition(())

    def test_ranges_disjoint_exhaustive(self):
        p = Partition((3, 2))
        assert p.n == 5 and p.s == 2
        assert p.ranges == (slice(0, 3), slice(3, 5))


class TestApplyTransform:
    def test_identity(self):
        sys = two_mass()
        out = apply_transform(sys, np.eye(5))
        for a in ("E", "J", "R", "B", "L"):
            assert np.allclose(getattr(out, a), getattr(sys, a), atol=1e-15)

    def test_permutation_reorders_blocks(self):
        sys = two_mass()
        perm, part, _, _ = two_mass_alt_ports()
        w = apply_transform(sys, perm)
        # decouple_auto refuses a partition for which Q or E is not
        # block-diagonal, so the transformed system is separable
        momenta, springs = decouple_auto(w, part).subsystems
        # momenta block (components 1, 4): no internal structure, both dampers
        assert np.array_equal(momenta.J, np.zeros((2, 2)))
        assert np.allclose(momenta.R, np.diag([0.1, 0.1]))
        # spring block (components 2, 3, 5): lossless and uncoupled internally
        assert np.array_equal(springs.J, np.zeros((3, 3)))
        assert np.array_equal(springs.R, np.zeros((3, 3)))
        assert reference_validate_structure(w, tol=1e-12).passed

    def test_energy_equivalence_under_scaling(self):
        # dual-simulation oracle: H along matched trajectories agrees
        sys = two_mass()
        T = np.diag([2.0, 1.0, 1.0, 1.0, 1.0])
        out = apply_transform(sys, T)
        assert validate_structure(out).passed
        x0 = np.array([0.8, -0.3, 0.5, 0.1, -0.6])
        a = implicit_midpoint(sys, x0=x0, t0=0.0, t1=2.0, dt=0.01)
        b = implicit_midpoint(out, x0=T @ x0, t0=0.0, t1=2.0, dt=0.01)
        assert np.max(np.abs(a.H - b.H)) <= 1e-9

    def test_singular_transform_rejected(self):
        with pytest.raises(ValueError, match="^transform matrix is singular or too "
                                             "ill-conditioned$"):
            apply_transform(two_mass(), np.zeros((5, 5)))

    def test_non_square_transform_rejected(self):
        with pytest.raises(DimensionError, match="^transform matrix must be square$"):
            apply_transform(two_mass(), np.eye(5)[:, :4])

    def test_transform_of_another_size_rejected(self):
        with pytest.raises(DimensionError, match="^transform matrix must be 5x5, got 3x3$"):
            apply_transform(two_mass(), np.eye(3))


class TestPartitionBlocks:
    """The diagonal blocks of a partition become the subsystems, and the
    off-diagonal blocks of J - R the coupling C = -offdiag(J - R)."""

    def test_two_mass_printed_blocks(self):
        sys = two_mass()
        net = decouple_auto(sys, (3, 2))
        a, b = net.subsystems
        assert np.array_equal(a.J, [[0., -1., -1.], [1., 0., 0.], [1., 0., 0.]])
        assert np.array_equal(b.J, [[0., -1.], [1., 0.]])
        assert np.allclose(a.R, np.diag([0.1, 0., 0.]))
        assert np.allclose(b.R, np.diag([0.1, 0.]))
        for f in ("E", "J", "R", "L"):
            assert np.array_equal(getattr(a, f), getattr(sys, f)[:3, :3])
            assert np.array_equal(getattr(b, f), getattr(sys, f)[3:, 3:])
        assert np.array_equal(a.B, sys.B[:3]) and np.array_equal(b.B, sys.B[3:])
        assert np.array_equal(sys.J[:3, 3:], [[0., 0.], [0., 0.], [-1., 0.]])
        assert np.array_equal(net.coupling.C[:3, 3:], -sys.J[:3, 3:])
        # the diagonal blocks and -C reassemble J exactly
        rebuilt = -net.coupling.C
        rebuilt[:3, :3], rebuilt[3:, 3:] = a.J, b.J
        assert np.array_equal(rebuilt, sys.J)

    def test_coupling_is_minus_the_off_diagonal_of_j_minus_r(self):
        sys = off_diagonal_dissipation_system()
        net = decouple_auto(sys, (2, 1))
        expected = -(sys.J - sys.R)
        expected[:2, :2] = expected[2:, 2:] = 0.0
        assert np.array_equal(net.coupling.N, expected)
        assert np.array_equal(net.coupling.M, np.eye(3))
        assert np.array_equal(net.subsystems[0].R, sys.R[:2, :2])
        assert np.array_equal(net.subsystems[1].R, sys.R[2:, 2:])

    def test_whole_partition(self):
        sys = two_mass()
        net = decouple_auto(sys, (5,))
        assert not np.any(net.coupling.C)
        assert np.array_equal(net.subsystems[0].J, sys.J)

    def test_bad_partition_sum(self):
        with pytest.raises(DimensionError, match="partition sums to 6, state dimension is 5"):
            decouple_auto(two_mass(), (3, 3))
        with pytest.raises(DimensionError, match="partition sums to 6, state dimension is 5"):
            decouple_with_ports(two_mass(), (3, 3), [np.eye(3), np.eye(3)], {})


def descriptor_with_coupled_effort():
    """E = diag(1, 0), L = [[1, 0], [1, 1]]: Q = diag(1, 0) and E are
    block-diagonal for the partition (1, 1), L is not."""
    return LinearPHSystem(E=np.diag([1., 0.]), J=np.zeros((2, 2)), R=np.eye(2),
                          B=np.zeros((2, 0)), L=[[1., 0.], [1., 1.]])


def coupled_flow():
    """E = [[1, 1], [0, 1]] with Q = I: E is not block-diagonal for (1, 1)."""
    E = np.array([[1., 1.], [0., 1.]])
    return LinearPHSystem(E=E, J=np.zeros((2, 2)), R=np.eye(2), B=np.zeros((2, 0)),
                          L=np.linalg.inv(E.T))


def tiny_flow_with_coupled_effort():
    """E = 2.3e-308 I, L = [[2e-17, 5e-17], [5e-17, 2e-17]]: Q = E^T L
    underflows to 0, and L's off-diagonal blocks are tiny but most of L."""
    return LinearPHSystem(E=2.3e-308 * np.eye(2), J=np.zeros((2, 2)), R=np.zeros((2, 2)),
                          B=np.zeros((2, 0)), L=[[2e-17, 5e-17], [5e-17, 2e-17]])


class TestSeparabilityRefused:
    @pytest.mark.parametrize("build, message", [
        (lambda: random_linear_ph(np.random.default_rng(4), n=2, m=0),
         "Hamiltonian not separable"),
        (coupled_flow, "flow matrix not block-diagonal"),
        (descriptor_with_coupled_effort, "effort matrix not block-diagonal"),
        (tiny_flow_with_coupled_effort, "effort matrix not block-diagonal"),
    ], ids=["Q", "E", "L", "tiny-L"])
    def test_both_splits_refuse(self, build, message):
        sys = build()
        with pytest.raises(ValueError, match=message):
            decouple_auto(sys, (1, 1))
        with pytest.raises(ValueError, match=message):
            decouple_with_ports(sys, (1, 1), [np.eye(1), np.eye(1)], {})


class TestDecoupleAuto:
    def test_two_mass_case1_printed_coupling(self):
        sys = two_mass()
        net = decouple_auto(sys, (3, 2))
        assert isinstance(net.coupling, CouplingSpec)
        C_expected = -np.array([
            [0., 0., 0., 0., 0.],
            [0., 0., 0., 0., 0.],
            [0., 0., 0., -1., 0.],
            [0., 0., 1., 0., 0.],
            [0., 0., 0., 0., 0.],
        ])
        assert np.array_equal(net.coupling.C, C_expected)
        assert net.coupling.is_skew
        mono = condense_skew(net)
        assert np.array_equal(mono.J, sys.J)
        assert np.array_equal(mono.R, sys.R)

    def test_case2_symmetric_offdiagonal(self):
        sys = LinearPHSystem(E=np.eye(2), J=np.zeros((2, 2)),
                             R=[[1., 0.5], [0.5, 1.]],
                             B=np.zeros((2, 0)), L=np.eye(2))
        net = decouple_auto(sys, (1, 1))
        assert isinstance(net.coupling, LinearPortRelation)
        assert np.allclose(net.coupling.N, [[0., 0.5], [0.5, 0.]])
        mono = condense_general(net)
        assert np.allclose(mono.R, sys.R, atol=1e-14)
        assert np.allclose(mono.J, sys.J, atol=1e-14)

    def test_blockdiagonal_system_has_zero_coupling(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(2)
        a = random_linear_ph(rng, n=2, m=0)
        b = random_linear_ph(rng, n=3, m=0)
        sys = LinearPHSystem(E=np.eye(5),
                             J=scipy_linalg.block_diag(a.J, b.J),
                             R=scipy_linalg.block_diag(a.R, b.R),
                             B=np.zeros((5, 0)),
                             L=scipy_linalg.block_diag(a.L, b.L))
        net = decouple_auto(sys, (2, 3))
        assert not np.any(net.coupling.C)

    def test_nonseparable_rejected(self):
        rng = np.random.default_rng(4)
        sys = random_linear_ph(rng, n=4, m=0)  # dense Q
        with pytest.raises(ValueError, match="separable"):
            decouple_auto(sys, (2, 2))

    def test_case1_coupling_is_exactly_skew(self):
        sys = two_mass()
        net = decouple_auto(sys, (3, 2))
        C = net.coupling.C
        assert np.array_equal(C, -C.T)

    def test_subsystems_valid(self):
        net = decouple_auto(two_mass(), (3, 2))
        for sub in net.subsystems:
            assert reference_validate_structure(sub, tol=1e-12).passed

    def test_roundtrip_random_blockdiag_systems(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(77)
        for _ in range(20):
            sizes = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(2, 4)))]
            subs = [random_linear_ph(rng, n=ni, m=0, implicit=True) for ni in sizes]
            n = sum(sizes)
            # dense skew coupling in J across the blocks
            S = rng.standard_normal((n, n))
            S = S - S.T
            offs = np.cumsum([0] + sizes)
            for i in range(len(sizes)):
                S[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] = 0.0
            sys = LinearPHSystem(
                E=scipy_linalg.block_diag(*[s.E for s in subs]),
                J=scipy_linalg.block_diag(*[s.J for s in subs]) + S,
                R=scipy_linalg.block_diag(*[s.R for s in subs]),
                B=np.zeros((n, 0)),
                L=scipy_linalg.block_diag(*[s.L for s in subs]))
            net = decouple_auto(sys, sizes)
            mono = condense_skew(net)
            for a in ("E", "J", "R", "Q"):
                assert np.max(np.abs(getattr(mono, a) - getattr(sys, a))) <= 1e-14

    def test_transform_then_decouple_consistency(self):
        sys = two_mass()
        perm, part, _, _ = two_mass_alt_ports()
        w = apply_transform(sys, perm)
        net = decouple_auto(w, part)
        J_offdiag = w.J.copy()
        for i, r in enumerate(part.ranges):
            assert np.allclose(net.subsystems[i].J, w.J[r, r], atol=1e-15)
            assert np.allclose(net.subsystems[i].R, w.R[r, r], atol=1e-15)
            J_offdiag[r, r] = 0.0
        assert np.allclose(net.coupling.C, -J_offdiag, atol=1e-15)


class TestDecoupleWithPorts:
    def test_two_mass_variant_b_verifies(self):
        sys = two_mass()
        b1 = np.array([[0.], [0.], [1.]])
        b2 = np.array([[-1.], [0.]])
        net = decouple_with_ports(sys, (3, 2), [b1, b2], {(0, 1): [[-1.]]})
        assert isinstance(net, CoupledNetwork)
        # printed check: B1 C12 B2^T = [[0,0],[0,0],[1,0]] = -J12
        assert np.array_equal(b1 @ np.array([[-1.]]) @ b2.T,
                              [[0., 0.], [0., 0.], [1., 0.]])
        mono = condense_skew(net)
        assert np.array_equal(mono.J, sys.J)

    def test_wrong_port_fails(self):
        sys = two_mass()
        with pytest.raises(VerificationFailure) as out:
            decouple_with_ports(sys, (3, 2),
                                [np.array([[1.], [0.], [0.]]), np.array([[-1.], [0.]])],
                                {(0, 1): [[-1.]]})
        assert isinstance(out.value, ValueError)
        assert out.value.pair == (0, 1)
        assert np.any(out.value.residual)
        assert str(out.value) == ("ports do not reproduce off-diagonal block pair (0, 1): "
                                  f"max residual {out.value.max_residual:.3e}")

    def test_identity_fallback_always_verifies(self):
        rng = np.random.default_rng(13)
        sys = two_mass()
        c12 = -(sys.J - sys.R)[:3, 3:]
        net = decouple_with_ports(sys, (3, 2), [np.eye(3), np.eye(2)],
                                  {(0, 1): c12})
        assert isinstance(net, CoupledNetwork)
        mono = condense_skew(net)
        assert np.array_equal(mono.J, sys.J)

    def test_documented_alt_splitting_fails_with_exact_residual(self):
        sys = two_mass()
        perm, part, ports, blocks = two_mass_alt_ports()
        w = apply_transform(sys, perm)
        with pytest.raises(VerificationFailure) as out:
            decouple_with_ports(w, part, ports, blocks)
        assert out.value.pair == (0, 1)
        assert np.array_equal(out.value.residual, [[0., 0., 0.], [-1., 1., 0.]])

    def test_tiny_coupling_block_is_not_dropped(self):
        # J_01 = 5e-17 is far below an absolute 1e-12, but a zero C_01
        # misses it entirely
        sys = LinearPHSystem(E=np.eye(2), J=[[0., 5e-17], [-5e-17, 0.]], R=np.eye(2),
                             B=np.zeros((2, 0)), L=np.eye(2))
        with pytest.raises(VerificationFailure) as out:
            decouple_with_ports(sys, (1, 1), [np.eye(1), np.eye(1)], {(0, 1): [[0.]]})
        assert out.value.pair == (0, 1)
        assert out.value.max_residual == 5e-17
        net = decouple_with_ports(sys, (1, 1), [np.eye(1), np.eye(1)], {(0, 1): [[-5e-17]]})
        assert np.array_equal(condense_skew(net).J, sys.J)

    def test_port_dimension_mismatch(self):
        sys = two_mass()
        with pytest.raises(Exception):
            decouple_with_ports(sys, (3, 2), [np.eye(2), np.eye(2)], {})


def off_diagonal_dissipation_system():
    """3 states, J13 = 1 and R23 = 0.5: case 2 for the partition (2, 1)."""
    J = np.zeros((3, 3))
    J[0, 2], J[2, 0] = 1.0, -1.0
    R = np.array([[0., 0., 0.], [0., 1., 0.5], [0., 0.5, 1.]])
    return LinearPHSystem(E=np.eye(3), J=J, R=R, B=np.zeros((3, 0)), L=np.eye(3))


class TestLowerCouplingBlocks:
    def test_unreproducible_lower_block_fails(self):
        sys = off_diagonal_dissipation_system()
        b1 = -(sys.J - sys.R)[:2, 2:]
        with pytest.raises(VerificationFailure) as out:
            decouple_with_ports(sys, (2, 1), [b1, np.eye(1)], {(0, 1): [[1.]]})
        assert out.value.pair == (1, 0)
        assert np.isclose(out.value.max_residual, 0.8)

    def test_identity_ports_reproduce_both_triangles(self):
        sys = off_diagonal_dissipation_system()
        c12 = (sys.J - sys.R)[:2, 2:]
        net = decouple_with_ports(sys, (2, 1), [np.eye(2), np.eye(1)], {(0, 1): -c12})
        assert isinstance(net, CoupledNetwork)
        mono = condense_general(net)
        assert np.max(np.abs(mono.J - sys.J)) <= 1e-15
        assert np.max(np.abs(mono.R - sys.R)) <= 1e-15


class TestFeedthroughRejected:
    @staticmethod
    def feedthrough_system():
        J = np.zeros((4, 4))
        J[0, 2], J[2, 0] = 1.0, -1.0
        B = np.zeros((4, 1))
        B[0, 0] = 1.0
        return LinearPHSystem(E=np.eye(4), J=J, R=np.diag([0.2, 0.1, 0.0, 0.0]),
                              B=B, L=np.eye(4), P=0.1 * B, S=[[0.5]])

    def test_valid_input(self):
        assert reference_validate_structure(self.feedthrough_system(), tol=1e-12).passed

    def test_decouple_auto(self):
        with pytest.raises(ValueError, match="feedthrough"):
            decouple_auto(self.feedthrough_system(), (2, 2))

    def test_decouple_with_ports(self):
        with pytest.raises(ValueError, match="feedthrough"):
            decouple_with_ports(self.feedthrough_system(), (2, 2),
                                [np.eye(2), np.eye(2)], {})


class TestNamedTolerances:
    """Each verdict of a decoupling is taken at its named tolerance: raising
    the constant where the module reads it turns the refusal into a pass."""

    def test_transform_condition_follows_e_rcond_min(self, monkeypatch):
        t = np.diag([1.0, 1.0, 1.0, 1.0, 1e-11])            # rcond 1e-11
        apply_transform(two_mass(), t)
        monkeypatch.setattr(phode.decoupling, "E_RCOND_MIN", 1e-10)
        with pytest.raises(ValueError, match="singular or too ill-conditioned"):
            apply_transform(two_mass(), t)

    def test_effort_block_test_follows_decouple_tol(self, monkeypatch):
        # Q = E^T L underflows off the diagonal, so only L's own entries
        # there, 1e-11 of its largest, show that the split drops them
        sys = LinearPHSystem(E=1e-320 * np.eye(2), J=np.zeros((2, 2)), R=np.zeros((2, 2)),
                             B=np.zeros((2, 1)), L=np.array([[1.0, 1e-11], [1e-11, 1.0]]))
        assert not np.any(sys.Q[0, 1:])
        with pytest.raises(ValueError, match="effort matrix not block-diagonal"):
            decouple_auto(sys, (1, 1))
        monkeypatch.setattr(phode.decoupling, "DECOUPLE_TOL", 1e-10)
        assert isinstance(decouple_auto(sys, (1, 1)), CoupledNetwork)

    def test_port_residual_follows_decouple_tol(self, monkeypatch):
        # variant b's coupling block, 1e-11 off
        ports = [np.array([[0.], [0.], [1.]]), np.array([[-1.], [0.]])]
        blocks = {(0, 1): [[-1.0 - 1e-11]]}
        with pytest.raises(VerificationFailure):
            decouple_with_ports(two_mass(), (3, 2), ports, blocks)
        monkeypatch.setattr(phode.decoupling, "DECOUPLE_TOL", 1e-10)
        assert isinstance(decouple_with_ports(two_mass(), (3, 2), ports, blocks),
                          CoupledNetwork)
