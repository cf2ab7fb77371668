
import numpy as np
import pytest

import phode.coupling
from phode.cli import CliError, build_phdae
from phode.core import DimensionError, LinearPHSystem, validate_structure
from phode.coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation,
                            StructureFailure, condense_general, _blockdiag, _couple,
                            condense_skew, coupling_matrix)
from phode.fileio import network_to_doc
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
        net = two_mass_network()
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

    def test_exactly_skew_c_runs_no_w_check(self, monkeypatch):
        checks = []
        monkeypatch.setattr(phode.coupling, "_psd_check", lambda ws: checks.append(ws))
        condense_skew(two_scalar_net([[0., -1e300], [1e300, 0.]]))
        assert checks == []

    def test_near_skew_c_is_checked_as_condense_general(self):
        # skew to the tolerance relative to its entries of 1, but
        # 1e6 * (-1e-13) * 1e6 = -0.1 enters R
        net = CoupledNetwork((scalar_sub(0.01), scalar_sub()),
                             CouplingSpec(([[1e6]], [[1.]]), [[-1e-13, 1.], [-1., 0.]]))
        assert net.coupling.is_skew
        with pytest.raises(StructureFailure) as out:
            condense_skew(net)
        with pytest.raises(StructureFailure) as ref:
            condense_general(net)
        assert out.value.min_eigenvalue == ref.value.min_eigenvalue < 0
        # a positive remainder passes, with the system condense_general gives
        net = CoupledNetwork(net.subsystems,
                             CouplingSpec(net.coupling.port_matrices, [[1e-13, 1.], [-1., 0.]]))
        for a in ("J", "R"):
            assert np.array_equal(getattr(condense_skew(net), a),
                                  getattr(condense_general(net), a))

    def test_small_non_skew_c_is_general(self):
        # the tolerance is relative: entries far below 1 make no C skew
        net = CoupledNetwork((scalar_sub(0.01), scalar_sub()),
                             CouplingSpec(([[1e6]], [[1.]]), [[-1e-13, 0.], [0., 0.]]))
        assert not net.coupling.is_skew
        assert network_to_doc(net)["coupling"]["type"] == "general"
        with pytest.raises(ValueError, match=r"--mode general"):
            condense_skew(net)
        assert CouplingSpec(net.coupling.port_matrices, np.zeros((2, 2))).is_skew


class TestCouplingTerms:
    @pytest.mark.parametrize("seed", range(5))
    def test_skew_and_symmetric_to_the_last_bit(self, seed):
        # random ports make Bhat K Bhat^T and its transpose round apart; the
        # terms added to J and R are skew and symmetric all the same, and a
        # skew C leaves R as stacked
        rng = np.random.default_rng(seed)
        net = random_network(rng, s=3)
        stacked = _blockdiag([s.R for s in net.subsystems])
        mono = condense_skew(net)
        assert np.array_equal(mono.J, -mono.J.T)
        assert np.array_equal(mono.R, stacked)
        C = net.coupling.C + rng.standard_normal(net.coupling.C.shape)
        mono = _couple(net, C)
        assert np.array_equal(mono.J, -mono.J.T)
        added = mono.R - stacked
        assert np.array_equal(added, added.T) and np.any(added)


class TestCondenseGeneral:
    def test_psd_symmetric_part_succeeds(self):
        mono = condense_general(two_scalar_net([[0., 1.], [1., 0.]]))
        assert isinstance(mono, LinearPHSystem)
        assert np.allclose(mono.R, [[1., 1.], [1., 1.]])
        assert np.allclose(np.linalg.eigvalsh(mono.R), [0.0, 2.0])

    def test_indefinite_result_returns_failure(self):
        # the failure is raised, a ValueError that keeps its fields
        with pytest.raises(StructureFailure) as info:
            condense_general(two_scalar_net([[0., 2.], [2., 0.]]))
        out = info.value
        assert isinstance(out, ValueError)
        assert out.min_eigenvalue == pytest.approx(-1.0)
        assert np.allclose(np.linalg.eigvalsh(np.array([[1., 2.], [2., 1.]])),
                           [out.min_eigenvalue, 3.0])
        assert "build_phdae" not in out.message
        assert str(out) == f"{out.message} (min eigenvalue -1.000e+00)"

    def test_checks_w_not_only_r(self):
        # feedthrough P = S = 1 on the boundary of W >= 0: the coupling keeps
        # the assembled R definite (least eigenvalue 0.5) and makes W indefinite
        s1 = LinearPHSystem(E=[[1.]], J=[[0.]], R=[[1.]], B=[[1.]], L=[[1.]],
                            P=[[1.]], S=[[1.]])
        net = CoupledNetwork((s1, scalar_sub()),
                             CouplingSpec(([[1.]], [[1.]]), [[-0.5, 0.3], [-0.3, 0.]]))
        with pytest.raises(StructureFailure) as info:
            condense_general(net)
        assert info.value.min_eigenvalue == pytest.approx(-0.2808, abs=1e-4)
        assembled = _couple(net, net.coupling.C)
        assert np.linalg.eigvalsh(assembled.R).min() == pytest.approx(0.5)
        assert not validate_structure(assembled).psd_ok

    @pytest.mark.parametrize("seed", range(8))
    def test_fails_exactly_where_validate_fails(self, seed):
        # one W check: condense_general refuses the assembled systems that
        # validate_structure (default tol) finds not semidefinite
        rng = np.random.default_rng(seed)
        subs = tuple(random_linear_ph(rng, n=n, m=1, feedthrough=True) for n in (2, 3))
        ports = tuple(rng.standard_normal((n, 1)) for n in (2, 3))
        # a small C keeps W semidefinite for most seeds, a large one does not
        C = rng.standard_normal((2, 2)) * (0.02 if seed % 2 else 1.0)
        net = CoupledNetwork(subs, CouplingSpec(ports, C))
        passed = validate_structure(_couple(net, C)).psd_ok
        if passed:
            assert isinstance(condense_general(net), LinearPHSystem)
        else:
            with pytest.raises(StructureFailure):
                condense_general(net)

    def test_skew_input_matches_condense_skew(self):
        rng = np.random.default_rng(5)
        net = random_network(rng, s=2)
        a = condense_skew(net)
        b = condense_general(net)
        assert np.allclose(a.J, b.J) and np.allclose(a.R, b.R)


class TestBuildPhdae:
    """``condense --mode phdae``'s step in phode.cli."""

    def rel_net(self, M, N):
        ports = ([[1.]], [[1.]])
        rel = LinearPortRelation(ports, M=M, N=N)
        return CoupledNetwork((scalar_sub(), scalar_sub()), rel)

    def test_returns_the_relation_network(self):
        net = self.rel_net(np.eye(2), [[0., -1.], [1., 0.]])
        assert build_phdae(net) is net

    def test_coupling_matrix_rejected(self):
        with pytest.raises(CliError, match="^phdae condensation requires a coupling of "
                                           "type 'relation'$"):
            build_phdae(two_scalar_net([[0., -1.], [1., 0.]]))

    @pytest.mark.parametrize("condense", [condense_skew, condense_general])
    def test_condense_names_the_call_that_works(self, condense):
        # a relation network condenses directly, to what port elimination gives
        net = self.rel_net(2.0 * np.eye(2), [[0., -2.], [2., 0.]])
        mono = condense(net)
        ref = condense_general(net)
        assert np.array_equal(mono.J, [[0., 1.], [-1., 0.]])
        for a in ("E", "J", "R", "B", "L", "P", "S", "N"):
            assert np.array_equal(getattr(mono, a), getattr(ref, a))

    def test_identity_relation_uncouples(self):
        net = self.rel_net(np.eye(2), np.zeros((2, 2)))
        mono = condense_general(net)
        assert np.array_equal(mono.J, np.zeros((2, 2)))
        assert np.array_equal(mono.R, np.eye(2))

    def test_wrong_column_count_rejected(self):
        with pytest.raises(DimensionError):
            self.rel_net(np.eye(3), np.zeros((3, 3)))


class TestCouplingMatrix:
    def test_matrix_coupling_is_its_c(self):
        net = two_scalar_net([[0., 1.], [2., 0.]])
        assert coupling_matrix(net) is net.coupling.C

    def test_relation_gives_m_inverse_n(self):
        M, N = np.array([[2., 1.], [0., 4.]]), np.array([[1., 3.], [-1., 2.]])
        net = TestBuildPhdae().rel_net(M, N)
        assert np.array_equal(coupling_matrix(net), np.linalg.solve(M, N))

    @pytest.mark.parametrize("M,N", [(np.zeros((2, 2)), np.eye(2)),
                                     ([[1., 0.]], [[0., 1.]])], ids=["singular", "not-square"])
    @pytest.mark.parametrize("call", [coupling_matrix, condense_skew, condense_general])
    def test_uneliminable_relation_rejected(self, call, M, N):
        with pytest.raises(ValueError, match="not eliminable"):
            call(TestBuildPhdae().rel_net(M, N))

    @pytest.mark.parametrize("call", [coupling_matrix, condense_skew, condense_general])
    def test_overflowing_relation_raises(self, call):
        net = TestBuildPhdae().rel_net(1e-300 * np.eye(2), [[0., 1e10], [-1e10, 0.]])
        with pytest.raises(FloatingPointError, match="M\\^-1 N overflows"):
            call(net)

    def test_relation_with_non_skew_c_names_condense_general(self):
        net = TestBuildPhdae().rel_net(np.eye(2), [[0., 1.], [1., 0.]])
        with pytest.raises(ValueError, match="condense_general"):
            condense_skew(net)
        assert np.array_equal(condense_general(net).R, [[1., 1.], [1., 1.]])


class TestEliminatePorts:
    def test_identity_m_matches_condense_skew(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, s=2)
        C = net.coupling.C
        rel = LinearPortRelation(net.coupling.port_matrices, M=np.eye(C.shape[0]), N=C)
        mono = condense_general(CoupledNetwork(net.subsystems, rel))
        ref = condense_skew(net)
        assert np.allclose(mono.J, ref.J) and np.allclose(mono.R, ref.R)

    def test_scaled_m(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, s=2)
        C = net.coupling.C
        rel = LinearPortRelation(net.coupling.port_matrices,
                                 M=2.0 * np.eye(C.shape[0]), N=C)
        mono = condense_general(CoupledNetwork(net.subsystems, rel))
        half = CoupledNetwork(net.subsystems,
                              CouplingSpec(net.coupling.port_matrices, C / 2.0))
        ref = condense_skew(half)
        assert np.allclose(mono.J, ref.J, atol=1e-14)

    def test_singular_m_rejected(self):
        net = TestBuildPhdae().rel_net(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError, match="not eliminable"):
            condense_general(net)


class TestFeedthroughCondensed:
    def test_external_feedthrough_stacks_blockdiagonally(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(21)
        subs = (random_linear_ph(rng, n=2, m=1, feedthrough=True),
                random_linear_ph(rng, n=3, m=2, feedthrough=True))
        ports = (rng.standard_normal((2, 1)), rng.standard_normal((3, 1)))
        net = CoupledNetwork(subs, CouplingSpec(ports, [[0., 1.], [-1., 0.]]))
        for mono in (condense_skew(net), condense_general(net)):
            for a in ("B", "P", "S", "N"):
                expected = scipy_linalg.block_diag(*[getattr(s, a) for s in subs])
                assert np.array_equal(getattr(mono, a), expected)
            assert validate_structure(mono, tol=1e-10).passed


@pytest.mark.parametrize("shapes", [
    [], [(1, 1), (1, 1)], [(3, 0), (2, 0)], [(2, 2), (3, 0), (1, 2)],
    [(0, 2), (0, 3)], [(0, 1), (2, 2)], [(2, 3), (1, 1), (4, 2)],
], ids=["empty", "1x1", "nx0", "mixed-nx0", "0xm", "mixed-0xm", "mixed"])
def test_blockdiag_matches_scipy(shapes):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal(s) for s in shapes]
    # scipy gives 1x0 for no blocks; a stack of no subsystems is 0x0
    expected = scipy_linalg.block_diag(*mats) if mats else np.zeros((0, 0))
    assert np.array_equal(_blockdiag(mats), expected)
