import numpy as np
import pytest

from phode.core import SingularFlowError, eval_dynamics
from phode.coupling import CouplingSpec, condense_skew
from phode.integrate import implicit_midpoint
from phode.models import (MaxwellParams, PoroelasticParams, TwoMassParams, build,
                          maxwell_grid, poroelastic, two_mass)

from util import reference_validate_structure


class TestTwoMass:
    def test_printed_entries(self):
        sys = two_mass()
        assert sys.J[0, 1] == -1.0
        assert sys.J[2, 3] == -1.0
        assert sys.R[0, 0] == 0.1
        assert np.array_equal(np.diag(sys.Q), [1., 1., 1., 1., 1.])

    def test_undamped_is_hamiltonian(self):
        sys = two_mass(TwoMassParams(r1=0.0, r2=0.0))
        assert not np.any(sys.R)

    def test_validates_tight(self):
        assert reference_validate_structure(two_mass(), tol=1e-12).passed

    def test_parameter_positivity(self):
        with pytest.raises(ValueError):
            TwoMassParams(m1=0.0)
        with pytest.raises(ValueError):
            TwoMassParams(r1=-0.1)

    def test_damped_energy_strictly_decays(self):
        sys = two_mass()
        traj = implicit_midpoint(sys, x0=[1., .5, -.3, .2, .4],
                                 t1=5.0, dt=0.01)
        assert np.all(np.diff(traj.H) < 0.0)


class TestPoroelastic:
    def test_desk_instance_validates(self):
        sys, net = poroelastic()
        assert reference_validate_structure(sys, tol=1e-12).passed
        assert isinstance(net.coupling, CouplingSpec)  # case 1
        assert net.coupling.is_skew

    def test_block_layout(self):
        p = PoroelasticParams()
        sys, _ = poroelastic(p)
        nw, npp = p.dim_w, p.dim_p
        assert np.allclose(sys.E[:nw, :nw], p.rho * p.M_u)
        assert np.allclose(sys.J[:nw, 2 * nw:], p.alpha * p.D.T)
        assert np.allclose(sys.R[2 * nw:, 2 * nw:], (p.kappa / p.nu) * p.K_p)
        assert not np.any(sys.R[:2 * nw, :])

    def test_decoupled_roles(self):
        _, net = poroelastic()
        cons, diss = net.subsystems
        assert not np.any(cons.R)   # mechanical part conserves
        assert not np.any(diss.J)   # pressure part only dissipates

    def test_zero_biot_coupling_decouples(self):
        _, net = poroelastic(PoroelasticParams(alpha=0.0))
        assert not np.any(net.coupling.C)

    def test_roundtrip(self):
        sys, net = poroelastic()
        mono = condense_skew(net)
        for a in ("E", "J", "R", "Q"):
            assert np.max(np.abs(getattr(mono, a) - getattr(sys, a))) <= 1e-14

    def test_conservative_subsystem_preserves_energy_alone(self):
        _, net = poroelastic()
        sub = net.subsystems[0]
        rng = np.random.default_rng(17)
        x0 = rng.standard_normal(sub.n)
        traj = implicit_midpoint(sub, x0=x0, t1=10.0, dt=0.01)
        assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-11

    def test_definiteness_enforced(self):
        with pytest.raises(ValueError):
            PoroelasticParams(M_u=-np.eye(3))

    @pytest.mark.parametrize("params, message", [
        ({"B_f": 1}, "B_f must be a 2-D array with 3 rows"),
        ({"B_f": [1., 2., 3.]}, "B_f must be a 2-D array with 3 rows"),
        ({"B_f": np.ones((2, 1))}, "B_f must be a 2-D array with 3 rows"),
        ({"B_g": 2}, "B_g must be a 2-D array with 2 rows"),
    ], ids=["scalar", "vector", "rows", "scalar-g"])
    def test_port_matrices_are_checked(self, params, message):
        with pytest.raises(ValueError, match=message):
            PoroelasticParams(**params)


class TestMaxwell:
    def test_structural_suite(self):
        sys, net = maxwell_grid()
        rep = reference_validate_structure(sys, tol=1e-12)
        assert rep.passed
        assert rep.skew_violation <= 1e-14
        assert not rep.e_regular  # descriptor system

    def test_simulation_refused(self):
        sys, _ = maxwell_grid()
        with pytest.raises(SingularFlowError):
            eval_dynamics(sys, np.zeros(sys.n))

    def test_lossless_when_conductivity_vanishes(self):
        p = MaxwellParams()
        sys, _ = maxwell_grid(MaxwellParams(G=p.G, C=p.C,
                                            M_kappa=np.zeros((5, 5))))
        assert not np.any(sys.R)

    def test_operator_antisymmetry_identity(self):
        sys, _ = maxwell_grid()
        A = sys.J - sys.R
        assert np.max(np.abs(A + A.T + 2.0 * sys.R)) <= 1e-14

    def test_split_second_subsystem_is_magnetic_flow(self):
        p = MaxwellParams()
        _, net = maxwell_grid(p)
        sub2 = net.subsystems[1]
        assert np.array_equal(sub2.E, p.M_mu)
        assert not np.any(sub2.J) and not np.any(sub2.R)
        # identity port: y2 = h
        assert np.array_equal(net.coupling.port_matrices[1],
                              np.eye(p.C.shape[0]))

    def test_case1_split_roundtrips(self):
        sys, net = maxwell_grid()
        mono = condense_skew(net)
        assert np.max(np.abs(mono.J - sys.J)) <= 1e-14
        assert np.max(np.abs(mono.E - sys.E)) <= 1e-14

    @pytest.mark.parametrize("params, message", [
        ({"G": 1., "C": 2.}, "G and C must be 2-D arrays"),
        ({"G": 2 * MaxwellParams().G}, "G and C must be given together"),
        ({"C": 7.}, "G and C must be given together"),
    ], ids=["scalars", "G-alone", "C-alone"])
    def test_incidence_matrices_are_checked(self, params, message):
        with pytest.raises(ValueError, match=message):
            MaxwellParams(**params)

    def test_incompatible_curl_rejected(self):
        p = MaxwellParams()
        with pytest.raises(ValueError, match="C G = 0"):
            MaxwellParams(G=p.G, C=np.ones((2, 5)))


class TestBuild:
    def test_builds_the_registered_system(self):
        sys, ref = build("two-mass", {"r1": 0.2}), two_mass(TwoMassParams(r1=0.2))
        for a in ("E", "J", "R", "B", "L"):
            assert np.array_equal(getattr(sys, a), getattr(ref, a))

    @pytest.mark.parametrize("name, params, message", [
        ("three-mass", {}, "unknown model 'three-mass'; known: maxwell, poroelastic, two-mass"),
        (["two-mass"], {}, r"unknown model \['two-mass'\]"),
        ("two-mass", {"m1": -1.}, "bad parameters: masses and stiffnesses must be positive"),
        ("two-mass", {"mu": 1.}, "bad parameters: .*unexpected keyword argument 'mu'"),
        ("maxwell", {"G": 1.}, "bad parameters: G and C must be given together"),
    ], ids=["unknown", "unhashable", "value", "keyword", "maxwell"])
    def test_refusals_are_value_errors(self, name, params, message):
        with pytest.raises(ValueError, match=message):
            build(name, params)
