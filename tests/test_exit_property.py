"""Exit 0 means the output is valid.

``phode condense`` (all three modes) and ``phode decouple`` run on
generated systems and networks with external ports, feedthrough P, S and
N, skew and general coupling matrices, regular and singular relations
and entries from 1e-300 to 1e300.  When a command exits 0, the document
it wrote passes ``phode validate`` and re-reads to the arrays the library
computes; otherwise stderr holds exactly one line and no file is written.
``phode simulate`` runs on such systems: on exit 0 its CSV passes ``phode
report`` and re-reads to the states of the library's run.  ``phode cosim``
runs on such networks, written as network or phdae documents: on exit 0
its CSV passes ``phode report`` against ``phode condense --mode general``
of the network and re-reads to the states of the library's run.
Documents that fail the structure check go through every command that
loads one: each exits 2 with one line and writes no file.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from phode.cli import main
from phode.core import LinearPHSystem
from phode.coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation, build_phdae,
                            condense_general, condense_skew)
from phode.decoupling import decouple_auto
from phode.fileio import dump_document, parse_system_text, read_trajectory
from phode.integrate import dynamic_iteration, implicit_midpoint, strang_split

from util import plain_document, random_linear_ph, random_separable, random_skew

EXPONENTS = st.integers(-300, 300)
# scales at which most runs stay in the float range
MILD = st.integers(-2, 2)


def scaled(sys, structure, effort):
    """``sys`` with J, R, B, P, S and N times ``structure`` and L times
    ``effort`` (both positive): still a valid pH system."""
    k = {a: structure * getattr(sys, a) for a in ("J", "R", "B", "P", "S", "N")}
    return LinearPHSystem(E=sys.E, L=effort * sys.L, **k)


@st.composite
def networks(draw, exponents=EXPONENTS):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = draw(st.integers(1, 3))
    subs = tuple(scaled(random_linear_ph(rng, n=draw(st.integers(1, 3)), m=draw(st.integers(0, 2)),
                                         implicit=draw(st.booleans()),
                                         feedthrough=draw(st.booleans())),
                        10.0 ** draw(exponents), 10.0 ** draw(exponents))
                 for _ in range(s))
    ports = tuple(10.0 ** draw(exponents) * rng.standard_normal((sub.n, draw(st.integers(1, 2))))
                  for sub in subs)
    k = sum(b.shape[1] for b in ports)
    C = draw(st.sampled_from([random_skew(rng, k), rng.standard_normal((k, k)),
                              np.eye(k) + 0.1 * random_skew(rng, k)]))
    kind = draw(st.sampled_from(["matrix", "relation", "singular"]))
    if kind == "matrix":
        return CoupledNetwork(subs, CouplingSpec(ports, 10.0 ** draw(exponents) * C))
    M = rng.standard_normal((k, k))
    if kind == "singular":
        M[:, 0] = 0.0
    return CoupledNetwork(subs, LinearPortRelation(ports, M=10.0 ** draw(exponents) * M,
                                                   N=10.0 ** draw(exponents) * (M @ C)))


@st.composite
def separable_systems(draw):
    """A separable system with its partition; its off-diagonal dissipation
    (case 2) or none (case 1), and some with feedthrough, which decouple
    refuses."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    sys = random_separable(rng, sizes, m=draw(st.integers(0, 2)))
    R, extra = (sys.R if draw(st.booleans()) else coupling_free(sys.R, sizes)), {}
    if sys.m and draw(st.booleans()):
        A = rng.standard_normal((sys.n + sys.m, sys.n + sys.m))
        W = A.T @ A
        R, extra = W[:sys.n, :sys.n], {"P": W[:sys.n, sys.n:], "S": W[sys.n:, sys.n:],
                                       "N": random_skew(rng, sys.m)}
    sys = LinearPHSystem(E=sys.E, J=sys.J, R=R, B=sys.B, L=sys.L, **extra)
    return scaled(sys, 10.0 ** draw(EXPONENTS), 10.0 ** draw(EXPONENTS)), sizes


def coupling_free(R, sizes):
    """The diagonal blocks of R (still semidefinite)."""
    out = np.zeros_like(R)
    for end, k in zip(np.cumsum(sizes), sizes):
        out[end - k:end, end - k:end] = R[end - k:end, end - k:end]
    return out


def w_boundary_network():
    """Feedthrough on the boundary of W >= 0 and a coupling that keeps the
    assembled R definite but not W (condensation used to check R only)."""
    s1 = LinearPHSystem(E=[[1.]], J=[[0.]], R=[[1.]], B=[[1.]], L=[[1.]], P=[[1.]], S=[[1.]])
    s2 = LinearPHSystem(E=[[1.]], J=[[0.]], R=[[1.]], B=np.zeros((1, 0)), L=[[1.]])
    return CoupledNetwork((s1, s2), CouplingSpec(([[1.]], [[1.]]), [[-0.5, 0.3], [-0.3, 0.]]))


def near_skew_network():
    """A C skew only to the tolerance, whose symmetric remainder times the
    port 1e6 makes R indefinite (skew condensation used to check nothing)."""
    s1 = LinearPHSystem(E=[[1.]], J=[[0.]], R=[[0.01]], B=np.zeros((1, 0)), L=[[1.]])
    s2 = LinearPHSystem(E=[[1.]], J=[[0.]], R=[[1.]], B=np.zeros((1, 0)), L=[[1.]])
    return CoupledNetwork((s1, s2), CouplingSpec(([[1e6]], [[1.]]), [[-1e-13, 0.], [0., 0.]]))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(argv, output: Path, compute):
    """Run ``argv`` writing ``output``; on exit 0 the document validates
    and holds the arrays of ``compute()``, otherwise one line, no file."""
    code, err = run(argv + ["-o", str(output)])
    if code == 0:
        assert run(["validate", str(output)]) == (0, "")
        written = parse_system_text(output.read_text())
        assert plain_document(written) == plain_document(compute())
        output.unlink()
    else:
        assert err.startswith("phode: ") and err.count("\n") == 1, err
        assert not output.exists()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(networks(), separable_systems()))
@example(w_boundary_network())
@example(near_skew_network())
def test_exit_0_means_the_output_is_valid(case):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "in.json"
        if isinstance(case, CoupledNetwork):
            src.write_text(dump_document(case))
            net = parse_system_text(src.read_text())
            for mode, condense in (("skew", condense_skew), ("general", condense_general),
                                   ("phdae", build_phdae)):
                check(["condense", str(src), "--mode", mode], tmp / "out.json",
                      lambda: condense(net))
        else:
            sys, sizes = case
            src.write_text(dump_document(sys))
            parsed = parse_system_text(src.read_text())
            check(["decouple", str(src), "--partition", ",".join(map(str, sizes))],
                  tmp / "out.json", lambda: decouple_auto(parsed, sizes))


@st.composite
def systems(draw, n=st.integers(1, 3)):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sys = random_linear_ph(rng, n=draw(n), m=draw(st.integers(0, 2)),
                           implicit=draw(st.booleans()), feedthrough=draw(st.booleans()))
    return scaled(sys, 10.0 ** draw(EXPONENTS), 10.0 ** draw(EXPONENTS)), rng


def x0_arg(x0):
    return "--x0=" + ",".join(repr(float(v)) for v in x0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(systems(), st.sampled_from([("midpoint", implicit_midpoint),
                                   ("strang", strang_split)]), EXPONENTS)
def test_simulate_exit_0_means_the_csv_is_valid(case, method, x_exponent):
    (sys, rng), (name, integrate) = case, method
    x0 = 10.0 ** x_exponent * rng.standard_normal(sys.n)
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.json", Path(tmp) / "out.csv"
        src.write_text(dump_document(sys))
        code, err = run(["simulate", str(src), x0_arg(x0), "--t1", "0.05", "--dt", "0.01",
                         "--method", name, "-o", str(out)])
        if code == 0:
            assert err == ""
            assert run(["report", str(out), str(src)]) == (0, "")
            traj = integrate(parse_system_text(src.read_text()), x0=x0, t1=0.05, dt=0.01)
            assert np.array_equal(read_trajectory(out.read_text())[1], traj.x)
        else:
            assert err.startswith("phode: ") and err.count("\n") == 1, err
            assert not out.exists()


COSIM = dict(window=0.02, sweeps=3, t1=0.04, dt=0.01)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(networks(), networks(MILD)), st.booleans(),
       st.sampled_from(["jacobi", "gauss-seidel"]), st.one_of(EXPONENTS, MILD))
@example(w_boundary_network(), False, "jacobi", 0)
@example(near_skew_network(), False, "jacobi", 0)
@example(decouple_auto(random_separable(np.random.default_rng(7), (2, 3)), (2, 3)), True,
         "gauss-seidel", 0)
def test_cosim_exit_0_means_the_csv_is_valid(net, phdae, mode, x_exponent):
    # a relation network is written as a phdae document half the time
    kind = "phdae" if phdae and isinstance(net.coupling, LinearPortRelation) else None
    x0 = 10.0 ** x_exponent * np.random.default_rng(x_exponent + 300).standard_normal(net.n)
    with tempfile.TemporaryDirectory() as tmp:
        src, mono, out = (Path(tmp) / f for f in ("in.json", "mono.json", "out.csv"))
        src.write_text(dump_document(net, kind=kind))
        code, err = run(["cosim", str(src), x0_arg(x0), "--mode", mode,
                         *(f"--{k}={v}" for k, v in COSIM.items()), "-o", str(out)])
        if code == 0:
            assert run(["condense", str(src), "--mode", "general", "-o", str(mono)]) == (0, "")
            assert run(["report", str(out), str(mono)]) == (0, "")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                traj = dynamic_iteration(parse_system_text(src.read_text()), mode=mode,
                                         x0=x0, **COSIM)
            assert np.array_equal(read_trajectory(out.read_text())[1], traj.x)
            # the only stderr lines are the library's warnings, which say
            # that the sweeps have not converged
            assert err == "".join(f"phode: warning: {w.message}\n" for w in caught)
            assert all("has not converged" in str(w.message) for w in caught), err
        else:
            assert err.startswith("phode: ") and err.count("\n") == 1, err
            assert not out.exists()


def broken(sys, defect):
    """``sys`` with one structural check made to fail by a margin far
    beyond the tolerance at any scale of its entries."""
    n, k = sys.n, {a: getattr(sys, a) for a in ("E", "J", "R", "B", "L", "P", "S", "N")}
    if defect == "skew":
        k["J"] = sys.J + (1.0 + max(np.max(np.abs(a), initial=0.0)
                                    for a in (sys.J, sys.B, sys.N))) * np.eye(n)
    elif defect == "psd":
        # w bounds ||W||_2 from above
        w = (n + sys.m) * max(np.max(np.abs(a), initial=0.0) for a in (sys.R, sys.P, sys.S))
        k["R"] = sys.R - (1.0 + 2.0 * w) * np.eye(n)
    else:   # E^T L = Q + c K with K skew
        K = np.zeros((n, n))
        K[0, 1], K[1, 0] = 1.0, -1.0
        k["L"] = sys.L + (1.0 + np.max(np.abs(sys.Q))) * np.linalg.solve(sys.E.T, K)
    return LinearPHSystem(**k)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(systems(n=st.integers(2, 3)), st.sampled_from(["skew", "psd", "compat"]),
       st.integers(0, 1))
def test_a_document_failing_the_load_check_exits_2_on_one_line(case, defect, position):
    (sys, rng), n = case, case[0].n
    bad = broken(sys, defect)
    subs = [random_linear_ph(rng, n=2, m=0)]
    subs.insert(position, bad)
    ports = tuple(rng.standard_normal((sub.n, 1)) for sub in subs)
    net = CoupledNetwork(tuple(subs), CouplingSpec(ports, random_skew(rng, 2)))
    with tempfile.TemporaryDirectory() as tmp:
        doc, net_doc, csv, out = (Path(tmp) / f for f in ("sys.json", "net.json", "traj.csv",
                                                           "out"))
        doc.write_text(dump_document(bad))
        net_doc.write_text(dump_document(net))
        csv.write_text(",".join(["t", *(f"x{i + 1}" for i in range(n)), "H",
                                 "balance_residual"]) + "\n" + ",".join(["0"] * (n + 3)) + "\n")
        where = f"subsystem {position + 1}: "
        for argv, path, prefix in (
                (["condense", net_doc, "-o", out], net_doc, where),
                (["cosim", net_doc, x0_arg(np.ones(n + 2)), "-o", out], net_doc, where),
                (["decouple", doc, "--partition", f"1,{n - 1}", "-o", out], doc, ""),
                (["simulate", doc, x0_arg(np.ones(n)), "-o", out], doc, ""),
                (["report", csv, doc], doc, "")):
            code, err = run([str(a) for a in argv])
            assert code == 2 and err.count("\n") == 1, (argv[0], err)
            assert err.startswith(f"phode: {path}: structure validation failed: {prefix}"), err
            assert not out.exists()
