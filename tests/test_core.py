import dataclasses
import re

import numpy as np
import pytest

import phode.core
from phode.core import (CallbackPHSystem, DimensionError, LinearPHSystem, SingularFlowError,
                        StructureReport, _gamma_w, eval_dynamics, power_balance_residual,
                        validate_structure)
from phode.models import TwoMassParams, two_mass

from util import random_linear_ph, random_skew, reference_validate_structure


def make(J, R, L=None, E=None, B=None, **kw):
    n = np.atleast_2d(np.asarray(J)).shape[0]
    return LinearPHSystem(
        E=np.eye(n) if E is None else E,
        J=J, R=R,
        B=np.zeros((n, 0)) if B is None else B,
        L=np.eye(n) if L is None else L,
        **kw,
    )


class TestValidateStructure:
    def test_canonical_case_passes(self):
        sys = make(J=[[0., 1.], [-1., 0.]], R=np.eye(2))
        rep = validate_structure(sys, tol=1e-12)
        assert rep.passed
        assert rep.skew_violation == 0.0
        assert rep.min_eigenvalue >= 0.0

    def test_two_mass_passes(self):
        rep = validate_structure(two_mass(), tol=1e-12)
        assert rep.passed and rep.e_regular

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf, -np.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # an infinite tol passed every check and a NaN one failed them all
        # with a violation of 0
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            validate_structure(two_mass(), tol=tol)

    def test_indefinite_r_fails(self):
        sys = make(J=np.zeros((2, 2)), R=[[-1., 0.], [0., 0.]])
        rep = validate_structure(sys)
        assert not rep.psd_ok
        assert rep.min_eigenvalue == pytest.approx(-1.0)
        assert not rep.passed

    def test_broken_skew_fails(self):
        sys = make(J=[[0., 1.], [1., 0.]], R=np.zeros((2, 2)))
        rep = validate_structure(sys)
        assert not rep.skew_ok
        assert rep.skew_violation == pytest.approx(2.0)

    def test_indefinite_r_above_half_the_float_range_fails(self):
        rep = validate_structure(make(J=np.zeros((2, 2)), R=[[1.5e308, 0.], [0., -1e300]]))
        assert not rep.psd_ok and rep.skew_ok
        assert rep.min_eigenvalue == -1e300

    def test_symmetric_j_above_half_the_float_range_fails(self):
        rep = validate_structure(make(J=[[0., 1.5e308], [1.5e308, 0.]], R=np.zeros((2, 2))))
        assert not rep.skew_ok and rep.psd_ok
        assert rep.skew_violation == np.inf

    @pytest.mark.parametrize("t", [0.5, 2.0], ids=["inside", "outside"])
    @pytest.mark.parametrize("exponent", [-300, -150, -20, 0, 0.3, 20, 150, 300])
    def test_verdicts_at_every_scale(self, exponent, t):
        # the checks run on Gamma and W divided by a power of two; the
        # verdicts stay those of the rules violation <= tol (1 + max|Gamma|)
        # and lambda_min >= -tol (1 + ||W||_F) on the unscaled matrices, here
        # at t times the tolerance
        rng = np.random.default_rng(int(100 * exponent) % 997)
        scale, tol = 10.0 ** exponent, 1e-10
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        mu = -t * tol * (1.0 / scale + np.sqrt(5.0))
        R = scale * (V @ np.diag([mu, 1.0, 2.0]) @ V.T)
        S = rng.standard_normal((3, 3))
        S = S - S.T
        J = S.copy()
        J[0, 0] = t * tol * (1.0 / scale + np.max(np.abs(S))) / 2.0
        # E^T L = big^2 (Q0 + K) with one off-diagonal entry in K, for the
        # rule residual <= tol (1 + max|Q|); at big = 1e300 Q leaves the
        # float range, and the check forms it from E and L divided by powers
        # of two
        big = 10.0 ** abs(exponent)
        Q0 = V @ np.diag([1.0, 2.0, 3.0]) @ V.T
        Q0 = 0.5 * (Q0 + Q0.T)
        K = np.zeros((3, 3))
        K[0, 1] = t * tol * (1.0 / (big * big) + np.max(np.abs(Q0)))
        rep = validate_structure(make(J=scale * J, R=0.5 * (R + R.T), E=big * V,
                                      L=big * (V @ (Q0 + K))), tol=tol)
        assert rep.psd_ok == rep.skew_ok == rep.compat_ok == (t < 1.0)
        assert rep.min_eigenvalue == pytest.approx(scale * mu, rel=1e-4)
        assert rep.skew_violation == pytest.approx(2.0 * scale * J[0, 0], rel=1e-12)
        assert rep.compat_residual == pytest.approx(big * big * K[0, 1], rel=1e-4)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_gamma_and_w_are_those_of_np_block(self, m):
        # zeros in B make -0.0 entries in -B^T
        sys = random_linear_ph(np.random.default_rng(m), n=4, m=m, feedthrough=m > 0)
        B = sys.B.copy()
        B[:, :1] = 0.0
        E, J, R, B, P, S, N = coeffs = dataclasses.replace(sys, B=B).coefficients()
        blocks = ([[J, B], [-B.T, N]], [[R, P], [P.T, S]]) if m else (J, R)
        for got, want in zip(_gamma_w(*coeffs), map(np.block, blocks)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want))

    def test_idempotent_and_deterministic(self):
        sys = two_mass()
        assert validate_structure(sys) == validate_structure(sys)

    def test_dimension_mismatch_is_structural_error(self):
        with pytest.raises(DimensionError):
            LinearPHSystem(E=np.eye(2), J=np.zeros((3, 3)), R=np.zeros((3, 3)),
                           B=np.zeros((3, 0)), L=np.eye(3))

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_structure(make(J=[[0., 1.], [-1., 0.]], R=[[np.nan, 0.], [0., 1.]]))

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            validate_structure(two_mass(), tol=0.0)


def report_bits(rep: StructureReport) -> np.ndarray:
    """The eight fields of a report, booleans as 0.0 and 1.0, as int64 bits."""
    fields = dataclasses.astuple(rep)
    assert len(fields) == 8
    return np.array(fields, dtype=float).view(np.int64)


def oracle_case(rng):
    """A random linear or callback system for the structure-check oracle,
    with its sample states (None for a linear one): n from 0 to 12, m from
    0 to 3, with or without feedthrough, E = I or SPD, sometimes a check
    broken near or far from its tolerance, entries scaled by 1e300 or
    1e-300, Q = E^T L beyond the float range (E and L times 1e200), or a
    non-finite entry in a coefficient (L is none)."""
    n, m = int(rng.integers(0, 13)), int(rng.integers(0, 4))
    sys = random_linear_ph(rng, n=n, m=m, implicit=bool(rng.integers(2)),
                           feedthrough=bool(rng.integers(2)))
    mats = {k: getattr(sys, k).copy() for k in ("E", "J", "R", "B", "L", "P", "S", "N")}
    eps = 10.0 ** rng.choice([-15, -11, -9, -6, 0])
    broken = rng.integers(5)
    if broken == 1:
        mats["J"] += eps * rng.standard_normal((n, n))
    elif broken == 2:
        mats["R"] -= eps * np.eye(n)
    elif broken == 3:
        mats["L"] += eps * rng.standard_normal((n, n))
    elif broken == 4:
        mats["N"] += eps * rng.standard_normal((m, m))
    callback = n > 0 and rng.random() < 0.15
    scale = rng.choice([1.0, 1e300, 1e-300])
    for k in ("J", "R", "B", "P", "S", "N"):
        mats[k] *= scale
    if not callback:
        mats["E"] *= rng.choice([1.0, 1e200, 1e-300], p=[0.6, 0.3, 0.1])
        mats["L"] *= rng.choice([1.0, 1e200, 1e-300], p=[0.6, 0.3, 0.1])
    if rng.random() < 0.08:
        keys = [k for k in mats if mats[k].size and k != "L"]
        if keys:
            a = mats[keys[rng.integers(len(keys))]]
            a.flat[rng.integers(a.size)] = rng.choice([np.nan, np.inf, -np.inf])
    lin = LinearPHSystem(**mats)
    if not callback:
        return lin, None
    K = random_skew(rng, n)
    cb = CallbackPHSystem(
        n=n, m=m, E=lambda x: lin.E, J=lambda x: lin.J + np.sum(x) * K,
        R=lambda x: lin.R + 0.01 * (x @ x) * np.eye(n), B=lambda x: lin.B,
        effort=lambda x: lin.L @ x, hamiltonian=lambda x: 0.5 * (lin.E @ x) @ (lin.L @ x),
        P=lambda x: lin.P, S=lambda x: lin.S, N=lambda x: lin.N)
    return cb, rng.standard_normal((int(rng.integers(1, 4)), n))


class TestStructureOracle:
    """``validate_structure`` gives the report of the oracle, which checks
    each coefficient's finiteness on its own and takes Gamma's and Q's
    largest entries again after scaling, to the last bit."""

    def test_same_report_bits(self):
        rng = np.random.default_rng(30)
        kinds = set()
        for case in range(2400):
            sys, samples = oracle_case(rng)
            try:
                want = reference_validate_structure(sys, samples)
            except ValueError as exc:
                kinds.add("non-finite")
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    validate_structure(sys, samples)
                continue
            got = validate_structure(sys, samples)
            assert np.array_equal(report_bits(got), report_bits(want)), (case, got, want)
            kinds.add("callback" if samples is not None else "linear")
            kinds.update(("passed",) if got.passed else ("failed",))
            if sys.is_linear and not np.isfinite(sys.Q).all():
                kinds.add("Q overflow")
        assert kinds == {"non-finite", "callback", "linear", "passed", "failed", "Q overflow"}


class TestCallbackVariant:
    @staticmethod
    def pendulum():
        # H = 1 - cos(q) + p^2/2, genuinely nonlinear effort
        return CallbackPHSystem(
            n=2, m=0,
            E=lambda x: np.eye(2),
            J=lambda x: np.array([[0., 1.], [-1., 0.]]),
            R=lambda x: np.zeros((2, 2)),
            B=lambda x: np.zeros((2, 0)),
            effort=lambda x: np.array([np.sin(x[0]), x[1]]),
            hamiltonian=lambda x: 1.0 - np.cos(x[0]) + 0.5 * x[1] ** 2,
        )

    def test_fd_gradient_check_passes(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((8, 2))
        rep = validate_structure(self.pendulum(), samples=samples, tol=1e-10)
        assert rep.passed
        assert rep.compat_residual <= 1e-6

    def test_samples_required(self):
        with pytest.raises(ValueError):
            validate_structure(self.pendulum(), samples=[])

    def test_incompatible_hamiltonian_detected(self):
        bad = CallbackPHSystem(
            n=2, m=0,
            E=lambda x: np.eye(2),
            J=lambda x: np.array([[0., 1.], [-1., 0.]]),
            R=lambda x: np.zeros((2, 2)),
            B=lambda x: np.zeros((2, 0)),
            effort=lambda x: x,
            hamiltonian=lambda x: float(x[0] ** 4 + x[1] ** 2),
        )
        rep = validate_structure(bad, samples=[np.array([1.0, 0.5])])
        assert not rep.compat_ok


class TestEvalDynamics:
    def test_pure_rotation(self):
        sys = make(J=[[0., 1.], [-1., 0.]], R=np.zeros((2, 2)))
        xdot, y = eval_dynamics(sys, [1.0, 0.0])
        assert np.allclose(xdot, [0.0, -1.0])
        assert y.size == 0

    def test_two_mass_unit_state(self):
        # dense matrix-vector oracle: xdot = (J - R) Q e1
        sys = two_mass(TwoMassParams(m1=1.0, r1=0.1))
        e1 = np.eye(5)[0]
        expected = (sys.J - sys.R) @ sys.Q @ e1
        xdot, _ = eval_dynamics(sys, e1)
        assert np.allclose(xdot, expected)
        assert np.allclose(xdot, [-0.1, 1.0, 1.0, 0.0, 0.0])

    def test_zero_effort_equilibrium(self):
        sys = make(J=[[0., 1.], [-1., 0.]], R=np.eye(2), L=np.zeros((2, 2)))
        xdot, _ = eval_dynamics(sys, [3.0, -2.0])
        assert np.allclose(xdot, 0.0)

    def test_state_dimension_checked(self):
        with pytest.raises(DimensionError):
            eval_dynamics(two_mass(), [1.0, 2.0])

    @staticmethod
    def count_svds(monkeypatch) -> list:
        calls, rcond = [], phode.core._rcond
        monkeypatch.setattr(phode.core, "_rcond", lambda m: calls.append(m) or rcond(m))
        return calls

    def test_linear_system_takes_one_svd_of_e(self, monkeypatch):
        calls = self.count_svds(monkeypatch)
        sys = two_mass()
        for x in np.eye(5):
            power_balance_residual(sys, x)
        assert len(calls) == 1

    def test_callback_system_takes_an_svd_of_e_per_call(self, monkeypatch):
        calls = self.count_svds(monkeypatch)
        sys = TestCallbackVariant.pendulum()
        for x in np.eye(2):
            eval_dynamics(sys, x)
        assert len(calls) == 2

    @pytest.mark.parametrize("linear", [True, False])
    def test_singular_flow_refused(self, linear):
        lin = make(J=np.zeros((2, 2)), R=np.eye(2), E=np.diag([1., 0.]))
        sys = lin if linear else CallbackPHSystem(
            n=2, m=0, E=lambda x: lin.E, J=lambda x: lin.J, R=lambda x: lin.R,
            B=lambda x: lin.B, effort=lin.effort, hamiltonian=lin.hamiltonian)
        with pytest.raises(SingularFlowError, match="singular E"):
            eval_dynamics(sys, [1.0, 0.0])


class TestPowerBalance:
    def test_two_mass_identity(self):
        assert power_balance_residual(two_mass(), np.eye(5)[0]) <= 1e-12

    def test_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            sys = random_linear_ph(rng, n=4, m=2, implicit=bool(rng.integers(2)))
            x = rng.standard_normal(4)
            u = rng.standard_normal(2)
            z = sys.effort(x)
            scale = 1.0 + z @ z + u @ u
            assert power_balance_residual(sys, x, u) <= 1e-10 * scale

    def test_broken_skewness_detected(self):
        sys = make(J=[[0., 1.], [1., 0.]], R=np.zeros((2, 2)))
        assert power_balance_residual(sys, [1.0, 1.0]) == pytest.approx(2.0)

    def test_random_systems_with_feedthrough(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            sys = random_linear_ph(rng, n=4, m=2, feedthrough=True,
                                   implicit=bool(rng.integers(2)))
            x = rng.standard_normal(4)
            u = rng.standard_normal(2)
            z = sys.effort(x)
            scale = 1.0 + z @ z + u @ u
            assert power_balance_residual(sys, x, u) <= 1e-10 * scale

    def test_q_symmetric_for_linear_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sys = random_linear_ph(rng, n=5, m=1, implicit=True)
            assert np.max(np.abs(sys.Q - sys.Q.T)) <= 1e-12 * np.max(np.abs(sys.Q))
