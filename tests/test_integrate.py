import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import phode.integrate
from phode.core import CallbackPHSystem, DimensionError, LinearPHSystem, SingularFlowError
from phode.coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation,
                            condense_general, condense_skew)
from phode.decoupling import decouple_auto
from phode.integrate import (EnergyReport, NewtonError, StepCountError, Trajectory,
                             dynamic_iteration, energy_report, implicit_midpoint,
                             strang_split)
from phode.models import (PoroelasticParams, TwoMassParams, poroelastic,
                          two_mass, two_mass_network)

from util import (explicit_euler, per_step_dynamic_iteration, random_linear_ph,
                  random_network, random_separable, random_skew, rk4_reference)

X0 = np.array([1.0, 0.5, -0.3, 0.2, 0.4])


def observed_order(errors):
    return np.log2(np.asarray(errors[:-1]) / np.asarray(errors[1:]))


class TestImplicitMidpoint:
    def test_preserves_quadratic_invariant(self):
        sys = LinearPHSystem(E=np.eye(2), J=[[0., 1.], [-1., 0.]],
                             R=np.zeros((2, 2)), B=np.zeros((2, 0)), L=np.eye(2))
        traj = implicit_midpoint(sys, x0=[1., 0.], t0=0.0, t1=100.0, dt=0.1)
        assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-12

    def test_two_mass_dissipates(self):
        sys = two_mass()
        traj = implicit_midpoint(sys, x0=X0, t0=0.0, t1=10.0, dt=0.01)
        assert np.all(np.diff(traj.H) <= 1e-12)
        rep = energy_report(traj, sys)
        assert rep.max_residual <= 1e-10

    def test_second_order_convergence(self):
        sys = two_mass()
        ref = rk4_reference(sys, X0, 0.0, 1.0, 1e-4)
        errs = [np.linalg.norm(implicit_midpoint(sys, x0=X0, t0=0.0, t1=1.0,
                                                 dt=dt).x[-1] - ref)
                for dt in (0.01, 0.005)]
        ratio = errs[0] / errs[1]
        assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2

    def test_callback_newton_matches_linear_path(self):
        lin = two_mass()
        cb = CallbackPHSystem(
            n=5, m=0,
            E=lambda x: np.eye(5),
            J=lambda x: lin.J,
            R=lambda x: lin.R,
            B=lambda x: np.zeros((5, 0)),
            effort=lambda x: lin.L @ x,
            hamiltonian=lambda x: 0.5 * x @ lin.Q @ x,
        )
        a = implicit_midpoint(lin, x0=X0, t0=0.0, t1=0.5, dt=0.01)
        b = implicit_midpoint(cb, x0=X0, t0=0.0, t1=0.5, dt=0.01)
        assert np.max(np.abs(a.x - b.x)) <= 1e-10

    def test_driven_system_balance(self):
        rng = np.random.default_rng(21)
        sys = two_mass()
        sys = LinearPHSystem(E=sys.E, J=sys.J, R=sys.R,
                             B=rng.standard_normal((5, 1)), L=sys.L)
        traj = implicit_midpoint(sys, u=lambda t: [np.sin(t)],
                                 x0=X0, t0=0.0, t1=2.0, dt=0.01)
        # the report uses the midpoint samples the stepper used
        rep = energy_report(traj, sys)
        assert rep.driven
        assert relative_balance(traj, sys) <= 1e-14

    def test_singular_flow_rejected(self):
        sys = LinearPHSystem(E=np.zeros((2, 2)), J=[[0., 1.], [-1., 0.]],
                             R=np.zeros((2, 2)), B=np.zeros((2, 0)), L=np.eye(2))
        with pytest.raises(SingularFlowError):
            implicit_midpoint(sys, x0=[1., 0.], t1=1.0, dt=0.1)

    def test_newton_matrix_singular(self):
        # E = J = R = 0 under a nonzero input: the residual -dt B u does not
        # depend on x1, so its finite-difference Jacobian is zero
        zero = lambda x: np.zeros((1, 1))
        cb = CallbackPHSystem(n=1, m=1, E=zero, J=zero, R=zero, B=lambda x: np.ones((1, 1)),
                              effort=lambda x: x, hamiltonian=lambda x: 0.5 * x @ x)
        with pytest.raises(NewtonError, match="^singular Newton matrix in implicit step$"):
            implicit_midpoint(cb, u=lambda t: [1.], x0=[1.], t1=0.1, dt=0.1)

    def test_newton_not_converged(self, monkeypatch):
        # a quartic Hamiltonian: the step converges in the default
        # iterations, but one Newton step leaves the midpoint residual
        # far above the tolerance
        cb = CallbackPHSystem(n=2, m=0, E=lambda x: np.eye(2),
                              J=lambda x: np.array([[0., 1.], [-1., 0.]]),
                              R=lambda x: np.zeros((2, 2)), B=lambda x: np.zeros((2, 0)),
                              effort=lambda x: x ** 3, hamiltonian=lambda x: 0.25 * np.sum(x ** 4))
        assert implicit_midpoint(cb, x0=[1., 0.], t1=0.1, dt=0.1).steps == 1
        monkeypatch.setattr(phode.integrate, "_NEWTON_MAXIT", 1)
        with pytest.raises(NewtonError, match="^Newton did not converge in 1 iterations$"):
            implicit_midpoint(cb, x0=[1., 0.], t1=0.1, dt=0.1)


class TestStrangSplit:
    def test_conservative_matches_midpoint(self):
        sys = two_mass(TwoMassParams(r1=0.0, r2=0.0))
        a = implicit_midpoint(sys, x0=X0, t0=0.0, t1=2.0, dt=0.01)
        b = strang_split(sys, x0=X0, t0=0.0, t1=2.0, dt=0.01)
        assert np.max(np.abs(a.x - b.x)) <= 1e-13

    def test_driven_conservative_balance(self):
        # without dissipation the Strang step is the midpoint step, so the
        # balance with its midpoint inputs holds at round-off (with R != 0
        # the composed step carries an O(dt^3) splitting defect)
        rng = np.random.default_rng(21)
        sys = two_mass(TwoMassParams(r1=0.0, r2=0.0))
        sys = LinearPHSystem(E=sys.E, J=sys.J, R=sys.R,
                             B=rng.standard_normal((5, 1)), L=sys.L)
        traj = strang_split(sys, u=lambda t: [np.sin(t)], x0=X0, t0=0.0, t1=2.0, dt=0.01)
        assert energy_report(traj, sys).driven
        assert relative_balance(traj, sys) <= 1e-14

    def test_dissipative_balance_residual_is_third_order(self):
        # with R != 0 the composed D C D step misses the midpoint identity
        # energy_report checks by an O(dt^3) defect per step, not round-off
        sys = two_mass()
        res = [energy_report(strang_split(sys, x0=X0, t0=0.0, t1=2.0, dt=dt), sys)
               .max_residual for dt in (0.02, 0.01, 0.005)]
        assert res[0] > 1e-7
        for coarse, fine in zip(res, res[1:]):
            assert 7.0 <= coarse / fine <= 9.0

    def test_pure_dissipation_monotone(self):
        sys = LinearPHSystem(E=np.eye(2), J=np.zeros((2, 2)),
                             R=np.diag([1.0, 0.5]), B=np.zeros((2, 0)),
                             L=np.eye(2))
        traj = strang_split(sys, x0=[1., -2.], t0=0.0, t1=5.0, dt=0.05)
        assert np.all(np.diff(traj.H) <= 1e-14)

    def test_second_order_convergence(self):
        sys = two_mass()
        ref = rk4_reference(sys, X0, 0.0, 1.0, 1e-4)
        errs = [np.linalg.norm(strang_split(sys, x0=X0, t0=0.0, t1=1.0,
                                            dt=dt).x[-1] - ref)
                for dt in (0.01, 0.005, 0.0025)]
        for p in observed_order(errs):
            assert 1.8 <= p <= 2.2


def take_path(monkeypatch, path, windows):
    """Send dynamic_iteration down the window-map path or, with no map
    budget, the per-window path; returns the batch sizes of its relaxations
    as they would be on that path for the 5-state two-mass network."""
    if path == "per-window":
        monkeypatch.setattr(phode.integrate, "_MAP_ENTRIES", 0)
        return [1] * windows
    return [5]


class TestDynamicIteration:
    # the per-window path steps each subsystem with the step implicit_midpoint
    # takes and is exact; the map path forms the same states by other products
    @pytest.mark.parametrize("path", ["maps", "per-window"])
    def test_zero_coupling_single_sweep_exact(self, monkeypatch, path):
        net = two_mass_network()
        zero = CoupledNetwork(net.subsystems,
                              CouplingSpec(net.coupling.port_matrices,
                                           np.zeros((2, 2))))
        expected = take_path(monkeypatch, path, 10)
        calls, _ = spy_relax(monkeypatch)
        traj = dynamic_iteration(zero, sweeps=1, window=0.1,
                                 x0=X0, t1=1.0, dt=0.01)
        assert calls == expected
        a = implicit_midpoint(net.subsystems[0], x0=X0[:3], t1=1.0, dt=0.01)
        b = implicit_midpoint(net.subsystems[1], x0=X0[3:], t1=1.0, dt=0.01)
        ref = np.hstack([a.x, b.x])
        if path == "per-window":
            assert np.max(np.abs(traj.x - ref)) == 0.0
        else:
            assert relative_error(traj.x, ref) <= 1e-14

    @pytest.mark.filterwarnings("ignore:dynamic iteration has not converged")
    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_error_decreases_over_sweeps(self, mode):
        net = two_mass_network()
        ref = implicit_midpoint(condense_skew(net), x0=X0, t1=1.0, dt=0.01)
        errs = [np.max(np.abs(dynamic_iteration(net, mode=mode, window=0.1,
                                                sweeps=k, x0=X0, t1=1.0,
                                                dt=0.01).x - ref.x))
                for k in range(1, 5)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_poroelastic_mixed_inner_solvers(self):
        sys, net = poroelastic()
        rng = np.random.default_rng(31)
        x0 = rng.standard_normal(sys.n)
        ref = implicit_midpoint(sys, x0=x0, t1=1.0, dt=0.01)
        # conservative block gets the splitting solver (pure symplectic
        # substep since R1 = 0), dissipative block plain midpoint
        traj = dynamic_iteration(net, mode="gauss-seidel", window=0.1,
                                 sweeps=10, inner=["strang", "midpoint"],
                                 x0=x0, t1=1.0, dt=0.01)
        assert np.max(np.abs(traj.x - ref.x)) <= 1e-6

    @pytest.mark.filterwarnings("ignore:dynamic iteration has not converged")
    @pytest.mark.parametrize("path", ["maps", "per-window"])
    def test_jacobi_deterministic_and_order_independent(self, monkeypatch, path):
        net = two_mass_network()
        expected = take_path(monkeypatch, path, 5)
        calls, _ = spy_relax(monkeypatch)
        a = dynamic_iteration(net, sweeps=3, window=0.1, x0=X0, t1=0.5, dt=0.01)
        assert calls == expected
        b = dynamic_iteration(net, sweeps=3, window=0.1, x0=X0, t1=0.5, dt=0.01)
        assert np.array_equal(a.x, b.x)
        # swapped subsystem order: same physics, permuted state layout
        swapped = CoupledNetwork(
            (net.subsystems[1], net.subsystems[0]),
            CouplingSpec((net.coupling.port_matrices[1],
                          net.coupling.port_matrices[0]),
                         -net.coupling.C))
        x0s = np.concatenate([X0[3:], X0[:3]])
        c = dynamic_iteration(swapped, sweeps=3, window=0.1, x0=x0s,
                              t1=0.5, dt=0.01)
        c = np.hstack([c.x[:, 2:], c.x[:, :2]])
        if path == "per-window":
            assert np.array_equal(a.x, c)
        else:
            assert relative_error(c, a.x) <= 1e-14

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("net", [two_mass_network(),
                                     random_network(np.random.default_rng(0), s=3)],
                             ids=["two-mass-b", "random-3-block"])
    def test_fixed_point_is_monolithic_midpoint(self, mode, net):
        x0 = np.random.default_rng(1).standard_normal(net.n)
        ref = implicit_midpoint(condense_skew(net), x0=x0, t1=1.0, dt=0.01)
        traj = dynamic_iteration(net, mode=mode, window=0.1, sweeps=20,
                                 x0=x0, t1=1.0, dt=0.01)
        assert np.max(np.abs(traj.x - ref.x)) <= 1e-10 * np.max(np.abs(ref.x))

    @pytest.mark.filterwarnings("ignore:dynamic iteration has not converged")
    def test_outputs_and_energy_are_those_of_the_condensed_system(self):
        _, net = poroelastic()
        x0 = np.random.default_rng(1).standard_normal(net.n)
        traj = dynamic_iteration(net, sweeps=3, window=0.1, x0=x0, t1=0.5, dt=0.01)
        mono = condense_skew(net)
        assert traj.y.shape == (traj.steps + 1, mono.m) and mono.m > 0
        assert np.allclose(traj.y, traj.x @ mono.L.T @ (mono.B + mono.P), rtol=1e-13, atol=1e-15)
        assert np.allclose(traj.H, [mono.hamiltonian(x) for x in traj.x], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_fixed_point_with_driven_feedthrough(self, mode):
        rng = np.random.default_rng(4)
        subs = tuple(random_linear_ph(rng, n=n, m=1, feedthrough=True) for n in (3, 2))
        ports = tuple(rng.standard_normal((n, 1)) for n in (3, 2))
        net = CoupledNetwork(subs, CouplingSpec(ports, [[0., 1.], [-1., 0.]]))
        x0 = rng.standard_normal(5)

        def u(t):
            return np.array([np.sin(t), np.cos(t)])

        ref = implicit_midpoint(condense_skew(net), u=u, x0=x0, t1=1.0, dt=0.01)
        traj = dynamic_iteration(net, mode=mode, window=0.1, sweeps=30, u=u,
                                 x0=x0, t1=1.0, dt=0.01)
        assert np.max(np.abs(traj.x - ref.x)) <= 1e-10 * np.max(np.abs(ref.x))

    # 10 windows run their own sweeps; 50 windows outnumber the 25 basis
    # vectors (5 states and 2 inputs at 10 midpoints), so they use maps
    @pytest.mark.parametrize("t1", [1.0, 5.0], ids=["per-window", "window-maps"])
    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_driven_balance_at_round_off(self, mode, t1):
        net = driven_feedthrough_network(np.random.default_rng(4))
        mono = condense_skew(net)
        traj = dynamic_iteration(net, mode=mode, window=0.1, sweeps=30, u=sin_cos,
                                 x0=np.random.default_rng(5).standard_normal(5),
                                 t1=t1, dt=0.01)
        assert energy_report(traj, mono).driven
        assert relative_balance(traj, mono) <= 1e-13

    @pytest.mark.parametrize("sweeps", [0, -2])
    def test_sweeps_below_one_rejected(self, sweeps):
        with pytest.raises(ValueError, match="sweeps"):
            dynamic_iteration(two_mass_network(), sweeps=sweeps,
                              x0=X0, t1=0.2, dt=0.01)

    def test_relation_coupling_rejected(self):
        # a relation is no longer rejected: M = I, N = C runs as the network
        # with C, to the same states and outputs
        net = two_mass_network()
        relation = CoupledNetwork(net.subsystems,
                                  LinearPortRelation(net.coupling.port_matrices,
                                                     M=np.eye(2), N=net.coupling.C))
        a = dynamic_iteration(relation, sweeps=20, x0=X0, t1=1.0, dt=0.01)
        b = dynamic_iteration(net, sweeps=20, x0=X0, t1=1.0, dt=0.01)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_relation_message_gives_the_coupling_matrix(self):
        # a relation runs with its coupling matrix C = M^-1 N, to the same
        # states as the network with that C, and to the midpoint solution of
        # the relation condensed by condense_general
        net = general_coupling_network()
        M = np.diag(np.arange(1.0, net.coupling.C.shape[0] + 1.0))
        rel = LinearPortRelation(net.coupling.port_matrices, M=M, N=M @ net.coupling.C)
        relation = CoupledNetwork(net.subsystems, rel)
        coupled = CoupledNetwork(net.subsystems, CouplingSpec(rel.port_matrices,
                                                              np.linalg.solve(rel.M, rel.N)))
        traj = dynamic_iteration(relation, sweeps=25, x0=np.ones(net.n), t1=0.2, dt=0.01)
        same = dynamic_iteration(coupled, sweeps=25, x0=np.ones(net.n), t1=0.2, dt=0.01)
        assert np.array_equal(traj.x, same.x)
        ref = implicit_midpoint(condense_general(relation), x0=np.ones(net.n), t1=0.2, dt=0.01)
        assert relative_error(traj.x, ref.x) <= 1e-10

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("sizes", [(2, 2), (3, 3, 3), (4, 5, 6)], ids=str)
    def test_fixed_point_of_case_2_split(self, mode, sizes):
        # off-diagonal dissipation splits into a relation network; its fixed
        # point is the midpoint trajectory of the system that was split
        rng = np.random.default_rng(len(sizes) + sum(sizes))
        sys = random_separable(rng, sizes)
        net = decouple_auto(sys, sizes)
        assert isinstance(net.coupling, LinearPortRelation)
        x0 = rng.standard_normal(sys.n)
        ref = implicit_midpoint(sys, x0=x0, t1=1.0, dt=0.01)
        with pytest.warns(RuntimeWarning, match="not converged"):
            one = dynamic_iteration(net, mode=mode, window=0.1, sweeps=1, x0=x0, t1=1.0,
                                    dt=0.01)
        assert relative_error(one.x, ref.x) > 1e-6   # the coupling matters
        traj = dynamic_iteration(net, mode=mode, window=0.1, sweeps=20,
                                 x0=x0, t1=1.0, dt=0.01)
        assert relative_error(traj.x, ref.x) <= 1e-10

    def test_singular_relation_rejected(self):
        net = two_mass_network()
        relation = CoupledNetwork(net.subsystems, LinearPortRelation(
            net.coupling.port_matrices, M=np.zeros((2, 2)), N=net.coupling.C))
        with pytest.raises(ValueError, match="not eliminable"):
            dynamic_iteration(relation, x0=X0, t1=1.0, dt=0.01)

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_fixed_point_of_general_coupling(self, mode):
        # u_hat = -C y_hat needs no skew C: the fixed point is the midpoint
        # solution of the network condensed with C's symmetric part in R
        net = general_coupling_network()
        assert not net.coupling.is_skew
        x0 = np.random.default_rng(1).standard_normal(net.n)
        ref = implicit_midpoint(condense_general(net), x0=x0, t1=1.0, dt=0.01)
        traj = dynamic_iteration(net, mode=mode, window=0.1, sweeps=25,
                                 x0=x0, t1=1.0, dt=0.01)
        assert relative_error(traj.x, ref.x) <= 1e-10

    def test_window_grid_mismatch_rejected(self):
        net = two_mass_network()
        with pytest.raises(ValueError):
            dynamic_iteration(net, window=0.015, x0=X0, t1=1.0, dt=0.01)


def driven_feedthrough_network(rng):
    subs = tuple(random_linear_ph(rng, n=n, m=1, feedthrough=True) for n in (3, 2))
    ports = tuple(rng.standard_normal((n, 1)) for n in (3, 2))
    return CoupledNetwork(subs, CouplingSpec(ports, [[0., 1.], [-1., 0.]]))


def general_coupling_network():
    """Three blocks coupled by a C that is not skew; its symmetric part is
    positive semidefinite, so condense_general gives a pH system."""
    rng = np.random.default_rng(23)
    sizes, port_sizes = (3, 4, 2), (2, 1, 2)
    subs = tuple(random_linear_ph(rng, n=n, m=0) for n in sizes)
    ports = tuple(rng.standard_normal((n, p)) for n, p in zip(sizes, port_sizes))
    A = rng.standard_normal((5, 5))
    return CoupledNetwork(subs, CouplingSpec(ports, 0.5 * (random_skew(rng, 5) + A @ A.T / 5)))


def fixed_size_network(rng, sizes, port_sizes, implicit=False, scale=1.0):
    subs = tuple(random_linear_ph(rng, n=n, m=0, implicit=implicit) for n in sizes)
    ports = tuple(rng.standard_normal((n, p)) for n, p in zip(sizes, port_sizes))
    C = scale * random_skew(rng, sum(port_sizes))
    return CoupledNetwork(subs, CouplingSpec(ports, C))


def sin_cos(t):
    return np.array([np.sin(t), np.cos(t)])


def spy_lifted_maps(monkeypatch):
    """Record the chunk plan of every block built by dynamic_iteration."""
    plans = []
    build = phode.integrate._lifted_maps

    def spy(*args):
        plans.append(build(*args))
        return plans[-1]

    monkeypatch.setattr(phode.integrate, "_lifted_maps", spy)
    return plans


def relative_error(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore:dynamic iteration has not converged")
class TestLiftedWindowMaps:
    CASES = {
        "midpoint": lambda: dict(net=random_network(np.random.default_rng(20), s=3)),
        "strang-midpoint-spd-E": lambda: dict(
            net=fixed_size_network(np.random.default_rng(21), (4, 3), (2, 2), implicit=True),
            inner=["strang", "midpoint"]),
        "driven-feedthrough": lambda: dict(
            net=driven_feedthrough_network(np.random.default_rng(4)), u=sin_cos),
        "general-coupling": lambda: dict(net=general_coupling_network()),
    }

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_per_step_sweeps(self, mode, case):
        kw = self.CASES[case]()
        x0 = np.random.default_rng(22).standard_normal(kw["net"].n)
        for sweeps in (1, 3):
            traj = dynamic_iteration(mode=mode, window=0.1, sweeps=sweeps, x0=x0,
                                     t1=1.0, dt=0.01, **kw)
            ref = per_step_dynamic_iteration(mode=mode, window=0.1, sweeps=sweeps,
                                             x0=x0, t1=1.0, dt=0.01, **kw)
            assert relative_error(traj.x, ref) <= 1e-13

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_window_cut_into_chunks(self, monkeypatch, mode):
        # with 48 entries per map the (3, 4, 2)-state blocks take chunks of
        # 2, 3 and 3 steps, so a 10-step window ends in a partial chunk
        monkeypatch.setattr(phode.integrate, "_MAP_ENTRIES", 48)
        plans = spy_lifted_maps(monkeypatch)
        net = fixed_size_network(np.random.default_rng(23), (3, 4, 2), (2, 1, 2))
        x0 = np.random.default_rng(24).standard_normal(net.n)
        traj = dynamic_iteration(net, mode=mode, window=0.1, sweeps=4, x0=x0,
                                 t1=0.5, dt=0.01)
        assert [c for c, _, _, _ in plans] == [2, 3, 3]
        ref = per_step_dynamic_iteration(net, mode=mode, window=0.1, sweeps=4,
                                         x0=x0, t1=0.5, dt=0.01)
        assert relative_error(traj.x, ref) <= 1e-13

    def test_long_window_maps_stay_within_budget(self, monkeypatch):
        plans = spy_lifted_maps(monkeypatch)
        net = fixed_size_network(np.random.default_rng(25), (10, 10), (3, 10), scale=0.3)
        x0 = np.random.default_rng(26).standard_normal(net.n)
        traj = dynamic_iteration(net, window=5.0, sweeps=2, x0=x0, t1=5.0, dt=0.01)
        budget = phode.integrate._MAP_ENTRIES
        for c, _, carry_map, wave_map in plans:
            assert 1 < c < 500 and 500 % c
            assert carry_map.size <= budget and wave_map.size <= budget
        ref = per_step_dynamic_iteration(net, window=5.0, sweeps=2, x0=x0, t1=5.0, dt=0.01)
        assert relative_error(traj.x, ref) <= 1e-13

    def test_chunk_length_by_cost(self, monkeypatch):
        chunk = phode.integrate._chunk_steps
        # blocks of the size of the benchmark networks solve a 10-step window
        # in one product, and a 100-step window in a few chunks
        assert chunk(10, 10, 10) == 10
        assert 10 <= chunk(100, 10, 10) <= 25
        assert 20 <= chunk(100, 4, 2) <= 50
        # large blocks take short chunks, down to single steps
        assert chunk(10, 100, 100) == 2
        assert chunk(5, 200, 200) == 1
        # the map budget caps the chunk length, but never below one step
        monkeypatch.setattr(phode.integrate, "_MAP_ENTRIES", 6 * 10 * 6 * 10)
        assert chunk(100, 10, 10) == 6
        monkeypatch.setattr(phode.integrate, "_MAP_ENTRIES", 1)
        assert chunk(100, 10, 10) == 1


def spy_relax(monkeypatch):
    """Record the batch size of every relaxation dynamic_iteration runs and
    the window maps it builds (the relaxation of the unit basis)."""
    calls, maps = [], []
    relax = phode.integrate._relax

    def spy(coefs, *args):
        calls.append(len(coefs))
        out = relax(coefs, *args)
        if np.array_equal(coefs, np.eye(len(coefs))):
            maps.append(out)
        return out

    monkeypatch.setattr(phode.integrate, "_relax", spy)
    return calls, maps


@pytest.mark.filterwarnings("ignore:dynamic iteration has not converged")
class TestWindowMaps:
    @pytest.mark.parametrize("path", ["maps", "per-window"])
    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("case", TestLiftedWindowMaps.CASES)
    def test_both_paths_match_per_step_sweeps(self, monkeypatch, path, mode, case):
        kw = TestLiftedWindowMaps.CASES[case]()
        net = kw["net"]
        if path == "per-window":
            monkeypatch.setattr(phode.integrate, "_MAP_ENTRIES", 0)
        calls, _ = spy_relax(monkeypatch)
        x0 = np.random.default_rng(22).standard_normal(net.n)
        # 30 windows cover the basis of the driven network: 5 states and
        # 10 steps of 2 inputs
        traj = dynamic_iteration(mode=mode, window=0.1, sweeps=3, x0=x0, t1=3.0,
                                 dt=0.01, **kw)
        ref = per_step_dynamic_iteration(mode=mode, window=0.1, sweeps=3, x0=x0,
                                         t1=3.0, dt=0.01, **kw)
        assert relative_error(traj.x, ref) <= 1e-13
        basis = net.n + (10 * sum(sub.m for sub in net.subsystems) if "u" in kw else 0)
        assert calls == ([basis] if path == "maps" else [1] * 30)

    @pytest.mark.parametrize("t1, entries, expected", [
        (0.5, None, [5]),          # 5 windows for 5 unit start states
        (0.4, None, [1] * 4),      # fewer windows than basis vectors
        (0.5, 250, [5]),           # maps of 5 x 10*5 entries fit ...
        (0.5, 249, [1] * 5),       # ... and one entry less does not
    ])
    def test_path_choice(self, monkeypatch, t1, entries, expected):
        if entries is not None:
            monkeypatch.setattr(phode.integrate, "_MAP_ENTRIES", entries)
        calls, maps = spy_relax(monkeypatch)
        dynamic_iteration(two_mass_network(), sweeps=3, x0=X0, t1=t1, dt=0.01)
        assert calls == expected
        for state_map, check_map in maps:
            assert state_map.shape == (5, 10 * 5) and check_map.shape == (5, 2 * 10 * 2)
            assert max(state_map.size, check_map.size) <= phode.integrate._MAP_ENTRIES

    def test_map_path_steps_no_window(self, monkeypatch):
        # the window map gives each window's states, free response included,
        # so a run twice as long makes no further stepping call
        calls = []
        step = phode.integrate._propagate

        def spy(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(phode.integrate, "_propagate", spy)
        counts = []
        for t1 in (1.0, 2.0):
            calls.clear()
            dynamic_iteration(two_mass_network(), sweeps=3, x0=X0, t1=t1, dt=0.01)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("u, t1, expected", [
        (sin_cos, 2.5, [25]),      # 5 start states and 10 steps of 2 inputs
        (sin_cos, 2.4, [1] * 24),
        (None, 0.5, [5]),          # no input: start states only
    ])
    def test_inputs_join_the_basis(self, monkeypatch, u, t1, expected):
        net = driven_feedthrough_network(np.random.default_rng(4))
        calls, _ = spy_relax(monkeypatch)
        x0 = np.random.default_rng(5).standard_normal(net.n)
        traj = dynamic_iteration(net, sweeps=3, u=u, x0=x0, t1=t1, dt=0.01)
        assert calls == expected
        ref = per_step_dynamic_iteration(net, sweeps=3, u=u, x0=x0, t1=t1, dt=0.01)
        assert relative_error(traj.x, ref) <= 1e-13

    def test_zero_coupling_single_sweep_exact_per_window(self, monkeypatch):
        net = two_mass_network()
        zero = CoupledNetwork(net.subsystems,
                              CouplingSpec(net.coupling.port_matrices, np.zeros((2, 2))))
        calls, _ = spy_relax(monkeypatch)
        traj = dynamic_iteration(zero, sweeps=1, window=0.1, x0=X0, t1=0.2, dt=0.01)
        assert calls == [1, 1]
        a = implicit_midpoint(net.subsystems[0], x0=X0[:3], t1=0.2, dt=0.01)
        b = implicit_midpoint(net.subsystems[1], x0=X0[3:], t1=0.2, dt=0.01)
        assert np.max(np.abs(traj.x[:, :3] - a.x)) == 0.0
        assert np.max(np.abs(traj.x[:, 3:] - b.x)) == 0.0

    def test_jacobi_order_independent_per_window(self, monkeypatch):
        net = two_mass_network()
        swapped = CoupledNetwork(
            (net.subsystems[1], net.subsystems[0]),
            CouplingSpec((net.coupling.port_matrices[1], net.coupling.port_matrices[0]),
                         -net.coupling.C))
        x0s = np.concatenate([X0[3:], X0[:3]])
        calls, _ = spy_relax(monkeypatch)
        a = dynamic_iteration(net, sweeps=3, window=0.1, x0=X0, t1=0.2, dt=0.01)
        c = dynamic_iteration(swapped, sweeps=3, window=0.1, x0=x0s, t1=0.2, dt=0.01)
        assert calls == [1] * 4
        assert np.array_equal(a.x[:, :3], c.x[:, 2:])
        assert np.array_equal(a.x[:, 3:], c.x[:, :2])

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_unconverged_run_warns_about_the_same_window_on_both_paths(
            self, monkeypatch, mode):
        net = fixed_size_network(np.random.default_rng(27), (3, 4, 2), (2, 1, 2))
        x0 = np.random.default_rng(28).standard_normal(net.n)
        found = []
        for entries in (phode.integrate._MAP_ENTRIES, 0):
            monkeypatch.setattr(phode.integrate, "_MAP_ENTRIES", entries)
            calls, _ = spy_relax(monkeypatch)
            with pytest.warns(RuntimeWarning) as record:
                dynamic_iteration(net, mode=mode, sweeps=2, window=0.1, x0=x0, t1=1.0, dt=0.01)
            assert calls == ([9] if entries else [1] * 10)
            message = str(record[0].message)
            window, value = re.search(r"in window (\d+ of 10) .* by (\S+) of", message).groups()
            found.append((window, float(value)))
        (map_window, map_value), (own_window, own_value) = found
        assert map_window == own_window
        assert map_value == pytest.approx(own_value, rel=0.1)


class TestSweepWarning:
    def test_unconverged_sweeps_warn_with_worst_window(self):
        net = two_mass_network()
        with pytest.warns(RuntimeWarning, match=r"window \d+ of 10 .* last of 2 sweeps"):
            dynamic_iteration(net, sweeps=2, window=0.1, x0=X0, t1=1.0, dt=0.01)

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_zero_coupling_never_warns(self, mode):
        net = two_mass_network()
        zero = CoupledNetwork(net.subsystems,
                              CouplingSpec(net.coupling.port_matrices, np.zeros((2, 2))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dynamic_iteration(zero, mode=mode, sweeps=1, window=0.1, x0=X0, t1=1.0, dt=0.01)

    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("net", [two_mass_network(),
                                     random_network(np.random.default_rng(0), s=3)],
                             ids=["two-mass-b", "random-3-block"])
    def test_converged_sweeps_do_not_warn(self, mode, net):
        x0 = np.random.default_rng(1).standard_normal(net.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dynamic_iteration(net, mode=mode, window=0.1, sweeps=20, x0=x0, t1=1.0, dt=0.01)


class TestEnergyReport:
    def test_midpoint_residuals_tiny(self):
        sys = two_mass()
        traj = implicit_midpoint(sys, x0=X0, t1=5.0, dt=0.01)
        rep = energy_report(traj, sys)
        assert rep.max_residual <= 1e-10
        assert rep.dissipation_ok and not rep.driven

    def test_explicit_euler_residuals_larger(self):
        sys = two_mass()
        t, xs = explicit_euler(sys, X0, 0.0, 5.0, 0.01)
        hs = np.array([sys.hamiltonian(x) for x in xs])
        traj = Trajectory(t=t, x=xs, u=np.zeros((len(t), 0)),
                          y=np.zeros((len(t), 0)), H=hs, method="euler")
        euler_rep = energy_report(traj, sys)
        mid_rep = energy_report(implicit_midpoint(sys, x0=X0, t1=5.0, dt=0.01), sys)
        assert euler_rep.max_residual > 100 * mid_rep.max_residual
        assert euler_rep.max_residual < 1e-2  # O(dt), not garbage

    def test_balance_beyond_the_float_range_raises(self):
        # H stays below the largest float, z^T R z at the midpoint does not
        sys = LinearPHSystem(E=np.eye(1), J=np.zeros((1, 1)), R=[[0.0175]],
                             B=np.zeros((1, 0)), L=[[141.0]])
        traj = implicit_midpoint(sys, x0=[1e153], t1=0.02, dt=0.01)
        assert np.isfinite(traj.H).all()
        with pytest.raises(FloatingPointError, match="energy balance of step 1"):
            energy_report(traj, sys)

    @pytest.mark.parametrize("x, message", [
        (np.zeros((2, 3)), "trajectory has 3 state columns, system dimension is 5"),
        # rows without state columns: no entries, and still refused
        (np.zeros((2, 0)), "trajectory has 0 state columns, system dimension is 5"),
        (np.zeros(2), "trajectory states must be a 2-d array, got 1-d"),
    ], ids=["columns", "no-columns", "1-d"])
    def test_states_of_another_dimension_refused(self, x, message):
        traj = Trajectory(t=[0., 0.01], x=x, u=np.zeros((2, 0)), y=np.zeros((2, 0)),
                          H=np.zeros(2), method="file")
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            energy_report(traj, two_mass())

    def test_empty_trajectory(self):
        sys = two_mass()
        traj = Trajectory(t=np.zeros(1), x=np.zeros((1, 5)),
                          u=np.zeros((1, 0)), y=np.zeros((1, 0)),
                          H=np.zeros(1), method="none")
        rep = energy_report(traj, sys)
        assert rep.residuals.size == 0

    @pytest.mark.parametrize("block", [1, 7, 50])
    def test_blocks_give_the_residuals_of_one_block(self, block, monkeypatch):
        # rows per block: 1, 1 and 7 of the 7 states and inputs; the last
        # block is short
        rng = np.random.default_rng(14)
        sys = random_linear_ph(rng, n=5, m=2, feedthrough=True)
        driven = implicit_midpoint(sys, u=lambda t: [np.sin(t), np.cos(3 * t)],
                                   x0=rng.standard_normal(5), t1=1.0, dt=0.01)
        free = implicit_midpoint(sys, x0=rng.standard_normal(5), t1=1.0, dt=0.01)
        runs = [driven, dataclasses.replace(driven, u_mid=None), free,
                dataclasses.replace(free, u_mid=None),
                dataclasses.replace(free, u_mid=np.ones_like(free.u_mid))]
        whole = [energy_report(run, sys) for run in runs]
        monkeypatch.setattr(phode.integrate, "_REPORT_BLOCK_VALUES", block)
        for run, ref in zip(runs, whole):
            rep = energy_report(run, sys)
            assert (rep.driven, rep.dissipation_ok) == (ref.driven, ref.dissipation_ok)
            assert np.max(np.abs(rep.residuals - ref.residuals)) <= 1e-14 * np.max(np.abs(run.H))
        assert [rep.driven for rep in whole] == [True, True, False, False, True]

    def test_transient_memory_bounded_by_one_block(self):
        # n = 200, 1000 steps: a few arrays of one block (midpoint states,
        # efforts, [z, u] and its products) and a few values per step
        sys = random_linear_ph(np.random.default_rng(0), n=200, m=0)
        traj = implicit_midpoint(sys, x0=np.ones(200), t1=10.0)
        tracemalloc.start()
        try:
            energy_report(traj, sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = 8 * phode.integrate._REPORT_BLOCK_VALUES
        assert traj.x.nbytes > 10 * block_bytes
        assert peak <= 5 * block_bytes + 8 * 8 * traj.steps


def lu_step_reference(sys, method, x0, u, dt, steps):
    """Per-step LU solves of the midpoint and Strang substeps (oracle)."""
    scipy_linalg = pytest.importorskip("scipy.linalg")

    def stepper(A, h):
        lu = scipy_linalg.lu_factor(sys.E - 0.5 * h * A)
        plus = sys.E + 0.5 * h * A
        return lambda x, f: scipy_linalg.lu_solve(lu, plus @ x + h * f)

    f = (sys.B - sys.P) @ u
    xs = [np.asarray(x0, dtype=float)]
    if method == "midpoint":
        step = stepper((sys.J - sys.R) @ sys.L, dt)
        for _ in range(steps):
            xs.append(step(xs[-1], f))
    else:
        diss = stepper(-sys.R @ sys.L, 0.5 * dt)
        cons = stepper(sys.J @ sys.L, dt)
        zero = np.zeros(sys.n)
        for _ in range(steps):
            xs.append(diss(cons(diss(xs[-1], zero), f), zero))
    return np.array(xs)


def scalar_energy_residuals(traj, sys):
    """Per-step energy balance -[z; u]^T W [z; u] + u^T y (oracle)."""
    W = np.block([[sys.R, sys.P], [sys.P.T, sys.S]])
    res = []
    for k in range(traj.steps):
        xm = 0.5 * (traj.x[k] + traj.x[k + 1])
        um = (0.5 * (traj.u[k] + traj.u[k + 1]) if traj.u_mid is None
              else traj.u_mid[k])
        zm = sys.L @ xm
        ym = (sys.B + sys.P).T @ zm + (sys.S - sys.N) @ um
        zu = np.concatenate([zm, um])
        rate = -zu @ W @ zu + um @ ym
        dt = traj.t[k + 1] - traj.t[k]
        res.append(abs(traj.H[k + 1] - traj.H[k] - dt * rate))
    return np.array(res)


def relative_balance(traj, sys):
    return energy_report(traj, sys).max_residual / np.max(np.abs(traj.H))


class TestPropagator:
    @pytest.mark.parametrize("implicit", [False, True])
    @pytest.mark.parametrize("method", ["midpoint", "strang"])
    def test_matches_per_step_lu_solve(self, method, implicit):
        rng = np.random.default_rng(5)
        sys = random_linear_ph(rng, n=8, m=2, implicit=implicit)
        x0 = rng.standard_normal(8)
        u = rng.standard_normal(2)
        run = implicit_midpoint if method == "midpoint" else strang_split
        traj = run(sys, u=u, x0=x0, t1=2.0, dt=0.01)
        ref = lu_step_reference(sys, method, x0, u, 0.01, 200)
        assert np.max(np.abs(traj.x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("start", ["random", "zero"])
    @pytest.mark.parametrize("cols", [None, 1, 3], ids=["vector", "1-column", "3-column"])
    @pytest.mark.parametrize("n", [1, 2, 5, 24])
    def test_propagate_gives_the_bits_of_the_recursion(self, n, cols, start, forced):
        # in-place stepping against x_{j+1} = phi @ x_j + g_j (zero rows
        # where nothing forces), np.signbit included: a zero start and a
        # negative Phi make -0.0 products, and some forcing rows are -0.0
        rng = np.random.default_rng(n)
        shape = (n,) if cols is None else (n, cols)
        phi = rng.standard_normal((n, n))
        phi[0, 0] = -abs(phi[0, 0])
        x0 = rng.standard_normal(shape) if start == "random" else np.zeros(shape)
        g = rng.standard_normal((6,) + shape)
        g[::2] = -0.0
        rows = g if forced else np.broadcast_to(0.0, g.shape)
        ref = [x0]
        for j in range(6):
            ref.append(phi @ ref[-1] + rows[j])
        ref = np.array(ref)
        xs = phode.integrate._propagate(phi, x0, 6, g if forced else None)
        assert np.array_equal(xs, ref) and np.array_equal(np.signbit(xs), np.signbit(ref))

    def test_h_column_is_quadratic_form(self):
        rng = np.random.default_rng(6)
        sys = random_linear_ph(rng, n=12, m=0, implicit=True)
        traj = implicit_midpoint(sys, x0=rng.standard_normal(12), t1=1.0, dt=0.01)
        ref = np.array([0.5 * x @ sys.Q @ x for x in traj.x])
        assert np.max(np.abs(traj.H - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sys_factory", [
        lambda: two_mass(),
        lambda: random_linear_ph(np.random.default_rng(8), n=100, m=0),
        lambda: random_linear_ph(np.random.default_rng(9), n=100, m=0, implicit=True),
    ], ids=["two-mass", "dense", "dense-implicit"])
    def test_midpoint_balance_at_round_off(self, sys_factory):
        sys = sys_factory()
        x0 = np.random.default_rng(10).standard_normal(sys.n)
        traj = implicit_midpoint(sys, x0=x0, t1=2.0, dt=0.01)
        assert relative_balance(traj, sys) <= 1e-14

    def test_non_finite_trajectory_raises(self):
        sys = LinearPHSystem(E=np.eye(1), J=np.zeros((1, 1)), R=[[-1000.0]],
                             B=np.zeros((1, 0)), L=np.eye(1))
        with pytest.raises(FloatingPointError):
            implicit_midpoint(sys, x0=[1e200], t1=10.0, dt=0.01)
        with pytest.raises(FloatingPointError):
            implicit_midpoint(two_mass(), x0=[np.nan, 0, 0, 0, 0], t1=0.1, dt=0.01)

    @pytest.mark.parametrize("run", [implicit_midpoint, strang_split])
    def test_step_matrix_beyond_the_float_range_raises(self, run):
        # R L = 2.5e308 overflows; no NumPy warning on the way
        sys = LinearPHSystem(E=np.eye(1), J=np.zeros((1, 1)), R=[[1.7e8]],
                             B=np.zeros((1, 0)), L=[[1.5e300]])
        with pytest.raises(FloatingPointError, match="step matrix"):
            run(sys, x0=[1.0], t1=0.1, dt=0.01)


def step_map_reference(sys, method, dt, inputs):
    """Phi of ``np.linalg.solve`` on the n step-matrix columns alone, and
    the forcing h (E - h/2 A)^-1 inputs through the inverse (oracle)."""
    def midpoint(A, h):
        minus = sys.E - 0.5 * h * A
        return (np.linalg.solve(minus, sys.E + 0.5 * h * A),
                h * np.linalg.inv(minus) @ inputs)

    if method == "midpoint":
        return midpoint((sys.J - sys.R) @ sys.L, dt)
    diss, _ = midpoint(-sys.R @ sys.L, 0.5 * dt)
    cons, forcing = midpoint(sys.J @ sys.L, dt)
    return diss @ cons @ diss, diss @ forcing


class TestStepMap:
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 5, 24, 100])
    @pytest.mark.parametrize("method", ["midpoint", "strang"])
    def test_phi_and_forcing_of_the_given_inputs(self, method, n, k):
        # the input columns join the step matrix's LU as right-hand sides:
        # Phi keeps the bits of the solve without them, the forcing is the
        # inverse's product up to round-off.  One state and some inputs are
        # the exception: with one right-hand side (the reference) LAPACK's
        # solve may divide by the pivot where with more it multiplies by its
        # reciprocal (OpenBLAS does), one rounding more
        rng = np.random.default_rng(100 * n + k)
        sys = random_linear_ph(rng, n=n, m=0, implicit=True)
        inputs = rng.standard_normal((n, k))
        phi, forcing = phode.integrate._propagator(sys, method, 0.01, inputs)
        phi_ref, forcing_ref = step_map_reference(sys, method, 0.01, inputs)
        tol = 4 * np.finfo(float).eps if n == 1 and k else 0.0
        assert np.max(np.abs(phi - phi_ref)) <= tol * np.max(np.abs(phi_ref))
        assert phi.flags.c_contiguous
        assert forcing.shape == (n, k)
        assert np.max(np.abs(forcing - forcing_ref), initial=0.0) <= 1e-14 * np.max(
            np.abs(forcing_ref), initial=0.0)

    # 50 windows: the 37 basis vectors (7 states and 3 inputs at 10
    # midpoints) take the map path; with no map entries they take the
    # per-window one
    @pytest.mark.parametrize("path", ["maps", "per-window"])
    @pytest.mark.parametrize("mode", ["jacobi", "gauss-seidel"])
    def test_driven_network_with_general_ports_reaches_the_monolithic_run(
            self, monkeypatch, mode, path):
        rng = np.random.default_rng(31)
        subs = tuple(random_linear_ph(rng, n=n, m=m, implicit=True, feedthrough=m > 0)
                     for n, m in ((3, 2), (2, 0), (2, 1)))
        ports = tuple(rng.standard_normal((sub.n, 2)) for sub in subs)
        net = CoupledNetwork(subs, CouplingSpec(ports, 0.5 * random_skew(rng, 6)))
        x0 = rng.standard_normal(net.n)

        def u(t):
            return np.array([np.sin(t), np.cos(2 * t), 1.0])

        if path == "per-window":
            monkeypatch.setattr(phode.integrate, "_MAP_ENTRIES", 0)
        calls, _ = spy_relax(monkeypatch)
        traj = dynamic_iteration(net, mode=mode, window=0.1, sweeps=20, u=u, x0=x0,
                                 t1=5.0, dt=0.01)
        assert calls == ([37] if path == "maps" else [1] * 50)
        ref = implicit_midpoint(condense_general(net), u=u, x0=x0, t1=5.0, dt=0.01)
        assert relative_error(traj.x, ref.x) <= 1e-12


class TestFeedthroughBalance:
    def test_midpoint_balance_with_p_and_s(self):
        rng = np.random.default_rng(12)
        sys = random_linear_ph(rng, n=6, m=2, implicit=True, feedthrough=True)
        assert np.any(sys.P) and np.any(sys.S)
        traj = implicit_midpoint(sys, u=[0.7, -0.4], x0=rng.standard_normal(6),
                                 t1=1.0, dt=0.01)
        assert relative_balance(traj, sys) <= 1e-14

    def test_vectorised_report_matches_scalar_formula(self):
        rng = np.random.default_rng(13)
        sys = random_linear_ph(rng, n=5, m=2, feedthrough=True)
        traj = implicit_midpoint(sys, u=lambda t: [np.sin(t), np.cos(3 * t)],
                                 x0=rng.standard_normal(5), t1=1.0, dt=0.01)
        # with the stepper's midpoint inputs, and with endpoint averages as
        # for a trajectory read from a file (an O(dt^3) sampling defect)
        for run, defect in ((traj, False), (dataclasses.replace(traj, u_mid=None), True)):
            ref = scalar_energy_residuals(run, sys)
            assert (np.max(ref) > 1e-9) == defect
            got = energy_report(run, sys).residuals
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(traj.H))


class TestStepCount:
    # 1e13 steps: no machine holds their time grid, and nothing is allocated.
    # Two-mass (5 states, no input) counts its states twice and H; waveform
    # relaxation of its network adds the check's coupling inputs, 2 per port
    RUNS = {
        "midpoint": lambda: implicit_midpoint(two_mass(), x0=X0, t1=1e11, dt=0.01),
        "strang": lambda: strang_split(two_mass(), x0=X0, t1=1e11, dt=0.01),
        "dynamic-iteration": lambda: dynamic_iteration(two_mass_network(),
                                                       x0=X0, t1=1e11, dt=0.01),
    }
    COUNTS = {"midpoint": r"11 values per step take 8.94e\+05 GiB",
              "strang": r"11 values per step take 8.94e\+05 GiB",
              "dynamic-iteration": r"15 values per step take 1.19e\+06 GiB"}

    @pytest.mark.parametrize("run", RUNS)
    def test_too_many_steps_rejected_before_allocating(self, run):
        with pytest.raises(StepCountError, match=r"is 1e\+13 steps, whose time grid and "
                                                 + self.COUNTS[run]):
            self.RUNS[run]()

    def test_grid_and_states_are_counted(self, monkeypatch):
        # 101 steps of grid and one value take 1616 bytes
        monkeypatch.setattr(phode.integrate, "_memory_bytes", lambda: 1000.0)
        assert len(phode.integrate._time_grid(0.0, 1.0, 0.01, 0)) == 101
        with pytest.raises(StepCountError, match="1 values per step"):
            phode.integrate._time_grid(0.0, 1.0, 0.01, 1)

    @pytest.mark.parametrize("run, factor", [("midpoint", 1.35), ("strang", 1.35),
                                             ("dynamic-iteration", 1.05)])
    def test_peak_memory_is_what_the_check_counts(self, run, factor, monkeypatch):
        # tracemalloc's peak of a run and its energy report against the bytes
        # the check counts; at n = 200 and 1000 steps the n x n step matrices
        # add the excess, on 10000 steps of the two-mass network next to
        # nothing is left over; the report's blocks fit below the run's peak
        counted = []
        time_grid = phode.integrate._time_grid

        def spy(t0, t1, dt, values):
            t = time_grid(t0, t1, dt, values)
            counted.append(8.0 * len(t) * (values + 1))
            return t

        monkeypatch.setattr(phode.integrate, "_time_grid", spy)
        sys = random_linear_ph(np.random.default_rng(0), n=200, m=0)
        net = two_mass_network()
        runs = {"midpoint": (lambda: implicit_midpoint(sys, x0=np.ones(200), t1=10.0), sys),
                "strang": (lambda: strang_split(sys, x0=np.ones(200), t1=10.0), sys),
                "dynamic-iteration": (lambda: dynamic_iteration(
                    net, sweeps=20, x0=X0, t1=100.0), condense_skew(net))}
        integrate, reported = runs[run]
        tracemalloc.start()
        try:
            energy_report(integrate(), reported)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= factor * counted[0]

    def test_memory_error_from_the_grid_is_the_same_error(self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(phode.integrate, "_memory_bytes", lambda: np.inf)
        monkeypatch.setattr(phode.integrate.np, "arange", no_memory)
        with pytest.raises(StepCountError, match=r"is 1e\+13 steps"):
            phode.integrate._time_grid(0.0, 1e11, 0.01, 5)
