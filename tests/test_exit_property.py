"""Exit 0 means the output is valid.

``phode condense`` (all three modes) and ``phode decouple`` run on
generated systems and networks with external ports, feedthrough P, S and
N, skew and general coupling matrices, regular and singular relations
and entries from 1e-300 to 1e300.  When a command exits 0, the document
it wrote passes ``phode validate`` and re-reads to the arrays the library
computes; otherwise stderr holds exactly one line and no file is written.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from phode.cli import main
from phode.core import LinearPHSystem
from phode.coupling import (CoupledNetwork, CouplingSpec, LinearPortRelation, build_phdae,
                            condense_general, condense_skew)
from phode.decoupling import decouple_auto
from phode.fileio import dump_document, parse_system_text

from util import plain_document, random_linear_ph, random_separable, random_skew

EXPONENTS = st.integers(-300, 300)


def scaled(sys, structure, effort):
    """``sys`` with J, R, B, P, S and N times ``structure`` and L times
    ``effort`` (both positive): still a valid pH system."""
    k = {a: structure * getattr(sys, a) for a in ("J", "R", "B", "P", "S", "N")}
    return LinearPHSystem(E=sys.E, L=effort * sys.L, **k)


@st.composite
def networks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = draw(st.integers(1, 3))
    subs = tuple(scaled(random_linear_ph(rng, n=draw(st.integers(1, 3)), m=draw(st.integers(0, 2)),
                                         implicit=draw(st.booleans()),
                                         feedthrough=draw(st.booleans())),
                        10.0 ** draw(EXPONENTS), 10.0 ** draw(EXPONENTS))
                 for _ in range(s))
    ports = tuple(10.0 ** draw(EXPONENTS) * rng.standard_normal((sub.n, draw(st.integers(1, 2))))
                  for sub in subs)
    k = sum(b.shape[1] for b in ports)
    C = draw(st.sampled_from([random_skew(rng, k), rng.standard_normal((k, k)),
                              np.eye(k) + 0.1 * random_skew(rng, k)]))
    kind = draw(st.sampled_from(["matrix", "relation", "singular"]))
    if kind == "matrix":
        return CoupledNetwork(subs, CouplingSpec(ports, 10.0 ** draw(EXPONENTS) * C))
    M = rng.standard_normal((k, k))
    if kind == "singular":
        M[:, 0] = 0.0
    return CoupledNetwork(subs, LinearPortRelation(ports, M=10.0 ** draw(EXPONENTS) * M,
                                                   N=10.0 ** draw(EXPONENTS) * (M @ C)))


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
