"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with pytest -s to see them all)."""

import numpy as np
import pytest

from phode.core import LinearPHSystem, SingularFlowError, eval_dynamics, validate_structure
from phode.coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation,
                            StructureFailure, condense_general, condense_skew)
from phode.decoupling import (VerificationFailure, apply_transform,
                              decouple_auto, decouple_with_ports)
from phode.integrate import dynamic_iteration, energy_report, implicit_midpoint, strang_split
from phode.models import (TwoMassParams, maxwell_grid, poroelastic, two_mass,
                          two_mass_alt_ports, two_mass_network)

from util import random_network, reference_validate_structure, rk4_reference

X0 = np.array([1.0, 0.5, -0.3, 0.2, 0.4])


def report(num, name, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}")
    assert ok


def test_01_port_identity_reproduction():
    b1 = np.array([[0.], [0.], [1.]])
    b2 = np.array([[-1.], [0.]])
    c12 = np.array([[-1.]])
    product = b1 @ c12 @ b2.T
    ok = (np.array_equal(product, [[0., 0.], [0., 0.], [1., 0.]])
          and np.array_equal(product, -two_mass().J[:3, 3:]))
    report(1, "two-mass variant (b) port identity, tolerance 0", ok)


def test_02_roundtrip_exactness():
    ok = True
    for sys in (two_mass(), poroelastic()[0]):
        part = (3, 2) if sys.n == 5 else (6, 2)
        mono = condense_skew(decouple_auto(sys, part))
        for a in ("E", "J", "R", "Q"):
            ok &= np.max(np.abs(getattr(mono, a) - getattr(sys, a))) <= 1e-14
    report(2, "decouple/condense roundtrip <= 1e-14 (two-mass, poroelastic)", ok)


def test_03_structure_preservation_200_random_networks():
    rng = np.random.default_rng(2024)
    passed = 0
    for _ in range(200):
        net = random_network(rng, s=int(rng.integers(2, 4)), max_n=4, max_m=2,
                             implicit=bool(rng.integers(2)))
        if validate_structure(condense_skew(net)).passed:
            passed += 1
    report(3, f"random skew condensation valid ({passed}/200)", passed == 200)


def test_04_discrete_dissipation():
    sys = two_mass()
    traj = implicit_midpoint(sys, x0=X0, t0=0.0, t1=10.0, dt=0.01)
    rep = energy_report(traj, sys)
    ok = (traj.steps == 1000 and rep.max_residual <= 1e-10
          and np.all(np.diff(traj.H) <= 0.0))
    report(4, "midpoint balance residual <= 1e-10 and H non-increasing", ok)


def test_05_conservation():
    sys = two_mass(TwoMassParams(r1=0.0, r2=0.0))
    traj = implicit_midpoint(sys, x0=X0, t0=0.0, t1=100.0, dt=0.01)
    drift = np.max(np.abs(traj.H - traj.H[0]))
    report(5, f"undamped energy drift {drift:.2e} <= 1e-11 over 1e4 steps",
           traj.steps == 10000 and drift <= 1e-11)


def test_06_order_checks():
    sys = two_mass()
    ref = rk4_reference(sys, X0, 0.0, 1.0, 1e-4)
    ok = True
    for method in (implicit_midpoint, strang_split):
        errs = [np.linalg.norm(method(sys, x0=X0, t0=0.0, t1=1.0, dt=dt).x[-1] - ref)
                for dt in (1e-2, 5e-3, 2.5e-3)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        ok &= bool(np.all((orders >= 1.8) & (orders <= 2.2)))
    report(6, "midpoint and Strang observed order 2.0 +- 0.2", ok)


@pytest.mark.filterwarnings("ignore:dynamic iteration has not converged")
def test_07_dynamic_iteration_convergence():
    net = two_mass_network()
    ref = implicit_midpoint(condense_skew(net), x0=X0, t0=0.0, t1=1.0, dt=0.01)
    ok = True
    for mode in ("jacobi", "gauss-seidel"):
        errs = [np.max(np.abs(dynamic_iteration(net, mode=mode, window=0.1,
                                                sweeps=k, x0=X0, t1=1.0,
                                                dt=0.01).x - ref.x))
                for k in range(1, 11)]
        ok &= all(b < a for a, b in zip(errs[:4], errs[1:4]))
        ok &= min(errs) <= 1e-6
    report(7, "waveform iteration error decays monotonically, <= 1e-6 in 10 sweeps", ok)


def test_08_remark_equivalence():
    def sub(r):
        return LinearPHSystem(E=[[1.]], J=[[0.]], R=[[r]],
                              B=np.zeros((1, 0)), L=[[1.]])

    ports = ([[1.]], [[1.]])
    # PSD case: symmetric coupling below the dissipation floor
    C_ok = np.array([[0., 0.8], [0.8, 0.]])
    net = CoupledNetwork((sub(1.0), sub(1.0)), CouplingSpec(ports, C_ok))
    a = condense_general(net)
    rel = LinearPortRelation(ports, M=np.eye(2), N=C_ok)
    b = condense_general(CoupledNetwork((sub(1.0), sub(1.0)), rel))
    x0 = np.array([1.0, -0.5])
    ta = implicit_midpoint(a, x0=x0, t1=2.0, dt=0.01)
    tb = implicit_midpoint(b, x0=x0, t1=2.0, dt=0.01)
    ok = np.max(np.abs(ta.x - tb.x)) <= 1e-8

    # indefinite case: both refuse alike
    C_bad = np.array([[0., 2.], [2., 0.]])
    with pytest.raises(StructureFailure) as out:
        condense_general(CoupledNetwork((sub(1.0), sub(1.0)), CouplingSpec(ports, C_bad)))
    relb = LinearPortRelation(ports, M=np.eye(2), N=C_bad)
    with pytest.raises(StructureFailure) as outb:
        condense_general(CoupledNetwork((sub(1.0), sub(1.0)), relb))
    ok &= outb.value.min_eigenvalue == out.value.min_eigenvalue
    report(8, "general-coupling condensation agrees with port elimination", ok)


def test_09_example_structural_suite():
    msys, mnet = maxwell_grid()
    rep = reference_validate_structure(msys, tol=1e-12)
    ok = rep.skew_violation <= 1e-14 and not rep.e_regular
    try:
        eval_dynamics(msys, np.zeros(msys.n))
        ok = False
    except SingularFlowError:
        pass
    mono = condense_skew(mnet)
    ok &= np.max(np.abs(mono.J - msys.J)) <= 1e-14

    _, pnet = poroelastic()
    sub = pnet.subsystems[0]
    rng = np.random.default_rng(9)
    traj = implicit_midpoint(sub, x0=rng.standard_normal(sub.n), t1=10.0, dt=0.01)
    ok &= np.max(np.abs(traj.H - traj.H[0])) <= 1e-11
    report(9, "Maxwell structural checks; isolated poroelastic block conserves", ok)


def test_10_documented_discrepancy():
    sys = two_mass()
    perm, part, ports, blocks = two_mass_alt_ports()
    with pytest.raises(VerificationFailure) as out:
        decouple_with_ports(apply_transform(sys, perm), part, ports, blocks)
    ok = np.array_equal(out.value.residual, [[0., 0., 0.], [-1., 1., 0.]])
    report(10, "published {1,4}/{2,3,5} port triple fails with exact residual", ok)
