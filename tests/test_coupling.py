import numpy as np
import pytest

from phode.core import DimensionError, LinearPHSystem, validate_structure
from phode.coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation,
                            StructureFailure, build_phdae, condense_general,
                            _blockdiag, condense_skew, eliminate_ports)
from phode.models import two_mass, two_mass_network

from util import random_linear_ph, random_network


def scalar_sub(r=1.0):
    return LinearPHSystem(E=[[1.]], J=[[0.]], R=[[r]],
                          B=np.zeros((1, 0)), L=[[1.]])


def two_scalar_net(C):
    ports = ([[1.]], [[1.]])
    return CoupledNetwork((scalar_sub(), scalar_sub()),
                          CouplingSpec(ports, C))


class TestCondenseSkew:
    def test_two_mass_variant_b_reproduces_printed_j(self):
        net = two_mass_network(variant="b")
        mono = condense_skew(net)
        ref = two_mass()
        assert np.array_equal(mono.J, ref.J)
        assert np.array_equal(mono.E, ref.E)
        assert np.array_equal(mono.R, ref.R)
        assert np.array_equal(mono.Q, ref.Q)
        assert validate_structure(mono, tol=1e-12).passed

    def test_zero_coupling_gives_blockdiag(self):
        net = two_scalar_net(np.zeros((2, 2)))
        mono = condense_skew(net)
        assert np.array_equal(mono.J, np.zeros((2, 2)))
        assert np.array_equal(mono.R, np.eye(2))

    def test_single_subsystem_identity_case(self):
        sub = scalar_sub(0.5)
        net = CoupledNetwork((sub,), CouplingSpec((np.zeros((1, 0)),),
                                                  np.zeros((0, 0))))
        mono = condense_skew(net)
        assert np.array_equal(mono.J, sub.J)
        assert np.array_equal(mono.R, sub.R)
        assert np.array_equal(mono.E, sub.E)

    def test_rejects_non_skew_with_pointer(self):
        net = two_scalar_net([[0., 1.], [1., 0.]])
        with pytest.raises(ValueError, match="condense_general"):
            condense_skew(net)

    def test_energy_additivity(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, s=3)
        mono = condense_skew(net)
        x = rng.standard_normal(mono.n)
        parts = net.split_state(x)
        total = sum(s.hamiltonian(xi) for s, xi in zip(net.subsystems, parts))
        assert mono.hamiltonian(x) == pytest.approx(total, abs=1e-12)

    def test_offdiagonal_block_rule(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, s=3)
        mono = condense_skew(net)
        sizes = net.state_sizes
        layout = net.coupling.layout
        offs = np.cumsum([0] + list(sizes))
        poffs = np.cumsum([0] + list(layout))
        C = net.coupling.C
        ports = net.coupling.port_matrices
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                cij = C[poffs[i]:poffs[i + 1], poffs[j]:poffs[j + 1]]
                block = mono.J[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                assert np.allclose(block, -ports[i] @ cij @ ports[j].T,
                                   atol=1e-13)

    def test_structure_preserved_random_networks(self):
        rng = np.random.default_rng(100)
        for _ in range(40):
            net = random_network(rng, s=int(rng.integers(2, 4)),
                                 implicit=bool(rng.integers(2)))
            mono = condense_skew(net)
            assert validate_structure(mono, tol=1e-10).passed


class TestCondenseGeneral:
    def test_psd_symmetric_part_succeeds(self):
        mono = condense_general(two_scalar_net([[0., 1.], [1., 0.]]))
        assert isinstance(mono, LinearPHSystem)
        assert np.allclose(mono.R, [[1., 1.], [1., 1.]])
        assert np.allclose(np.linalg.eigvalsh(mono.R), [0.0, 2.0])

    def test_indefinite_result_returns_failure(self):
        out = condense_general(two_scalar_net([[0., 2.], [2., 0.]]))
        assert isinstance(out, StructureFailure)
        assert not out
        assert out.min_eigenvalue == pytest.approx(-1.0)
        assert np.allclose(np.linalg.eigvalsh(np.array([[1., 2.], [2., 1.]])),
                           [out.min_eigenvalue, 3.0])
        assert out.fallback == "build_phdae"

    def test_skew_input_matches_condense_skew(self):
        rng = np.random.default_rng(5)
        net = random_network(rng, s=2)
        a = condense_skew(net)
        b = condense_general(net)
        assert np.allclose(a.J, b.J) and np.allclose(a.R, b.R)


class TestBuildPhdae:
    def rel_net(self, M, N):
        ports = ([[1.]], [[1.]])
        rel = LinearPortRelation(ports, M=M, N=N)
        return CoupledNetwork((scalar_sub(), scalar_sub()), rel)

    def test_extended_structure_antisymmetry(self):
        net = self.rel_net(np.eye(2), [[0., -1.], [1., 0.]])
        dae = build_phdae(net)
        # state(2) + u_hat(2) + y_hat(2) + multipliers(2)
        assert dae.A_ext.shape == (8, 8)
        assert np.max(np.abs(dae.A_ext + dae.A_ext.T + 2.0 * dae.R_ext)) <= 1e-14

    def test_block_placement(self):
        net = self.rel_net(np.eye(2), [[0., -1.], [1., 0.]])
        dae = build_phdae(net)
        A = dae.A_ext
        Bhat = net.stacked_port_matrix()
        assert np.array_equal(A[:2, 2:4], Bhat)
        assert np.array_equal(A[2:4, :2], -Bhat.T)
        assert np.array_equal(A[2:4, 4:6], np.eye(2))
        assert np.array_equal(A[4:6, 2:4], -np.eye(2))
        assert np.array_equal(A[2:4, 6:8], -np.eye(2))       # -M^T
        assert np.array_equal(A[4:6, 6:8], -np.array([[0., -1.], [1., 0.]]).T)
        assert np.array_equal(A[6:8, 2:4], np.eye(2))        # M
        assert np.array_equal(dae.G_ext[4:6], np.eye(2))

    def test_identity_relation_uncouples(self):
        net = self.rel_net(np.eye(2), np.zeros((2, 2)))
        mono = eliminate_ports(build_phdae(net))
        assert np.array_equal(mono.J, np.zeros((2, 2)))
        assert np.array_equal(mono.R, np.eye(2))

    def test_wrong_column_count_rejected(self):
        with pytest.raises(DimensionError):
            self.rel_net(np.eye(3), np.zeros((3, 3)))


class TestEliminatePorts:
    def test_identity_m_matches_condense_skew(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, s=2)
        C = net.coupling.C
        rel = LinearPortRelation(net.coupling.port_matrices, M=np.eye(C.shape[0]), N=C)
        dae = build_phdae(CoupledNetwork(net.subsystems, rel))
        mono = eliminate_ports(dae)
        ref = condense_skew(net)
        assert np.allclose(mono.J, ref.J) and np.allclose(mono.R, ref.R)

    def test_scaled_m(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, s=2)
        C = net.coupling.C
        rel = LinearPortRelation(net.coupling.port_matrices,
                                 M=2.0 * np.eye(C.shape[0]), N=C)
        dae = build_phdae(CoupledNetwork(net.subsystems, rel))
        mono = eliminate_ports(dae)
        half = CoupledNetwork(net.subsystems,
                              CouplingSpec(net.coupling.port_matrices, C / 2.0))
        ref = condense_skew(half)
        assert np.allclose(mono.J, ref.J, atol=1e-14)

    def test_singular_m_rejected(self):
        net = TestBuildPhdae().rel_net(np.zeros((2, 2)), np.eye(2))
        dae = build_phdae(net)
        with pytest.raises(ValueError, match="not eliminable"):
            eliminate_ports(dae)


class TestFeedthroughCondensed:
    def test_external_feedthrough_stacks_blockdiagonally(self):
        import scipy.linalg
        rng = np.random.default_rng(21)
        subs = (random_linear_ph(rng, n=2, m=1, feedthrough=True),
                random_linear_ph(rng, n=3, m=2, feedthrough=True))
        ports = (rng.standard_normal((2, 1)), rng.standard_normal((3, 1)))
        net = CoupledNetwork(subs, CouplingSpec(ports, [[0., 1.], [-1., 0.]]))
        for mono in (condense_skew(net), condense_general(net)):
            for a in ("B", "P", "S", "N"):
                expected = scipy.linalg.block_diag(*[getattr(s, a) for s in subs])
                assert np.array_equal(getattr(mono, a), expected)
            assert validate_structure(mono, tol=1e-10).passed


@pytest.mark.parametrize("shapes", [
    [], [(1, 1), (1, 1)], [(3, 0), (2, 0)], [(2, 2), (3, 0), (1, 2)],
    [(0, 2), (0, 3)], [(0, 1), (2, 2)], [(2, 3), (1, 1), (4, 2)],
], ids=["empty", "1x1", "nx0", "mixed-nx0", "0xm", "mixed-0xm", "mixed"])
def test_blockdiag_matches_scipy(shapes):
    import scipy.linalg
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal(s) for s in shapes]
    # scipy gives 1x0 for no blocks; a stack of no subsystems is 0x0
    expected = scipy.linalg.block_diag(*mats) if mats else np.zeros((0, 0))
    assert np.array_equal(_blockdiag(mats), expected)
