"""Property tests: decouple then condense gives the original system back,
and both decoupling entry points build the same network."""

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from phode.core import LinearPHSystem
from phode.coupling import CouplingSpec, condense_general, condense_skew
from phode.decoupling import decouple_auto, decouple_with_ports
from phode.fileio import dump_document, parse_system_text

from util import random_linear_ph, random_skew

FAST = settings(derandomize=True, max_examples=30, deadline=None)


@st.composite
def separable_systems(draw):
    """A block-separable system with m = 0: E, L and R block-diagonal
    (case 1) or R full (case 2), J full; E = I or SPD."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    case2 = draw(st.booleans())
    implicit = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [random_linear_ph(rng, n=k, m=0, implicit=implicit) for k in sizes]
    n = sum(sizes)
    if case2:
        A = rng.standard_normal((n, n))
        R = A.T @ A
    else:
        R = scipy.linalg.block_diag(*[b.R for b in blocks])
    sys = LinearPHSystem(E=scipy.linalg.block_diag(*[b.E for b in blocks]),
                         J=random_skew(rng, n), R=R, B=np.zeros((n, 0)),
                         L=scipy.linalg.block_diag(*[b.L for b in blocks]))
    return sys, tuple(sizes), case2


def assert_close(a, b):
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


@FAST
@given(separable_systems())
def test_decouple_then_condense_gives_the_system_back(case):
    sys, sizes, case2 = case
    net = decouple_auto(sys, sizes)
    assert isinstance(net.coupling, CouplingSpec) != case2
    mono = condense_general(net) if case2 else condense_skew(net)
    for a in ("E", "J", "R", "L"):
        assert_close(getattr(mono, a), getattr(sys, a))


@FAST
@given(separable_systems())
def test_identity_ports_reproduce_decouple_auto(case):
    sys, sizes, _ = case
    r = np.cumsum((0,) + sizes)
    blocks = {(i, j): -(sys.J - sys.R)[r[i]:r[i + 1], r[j]:r[j + 1]]
              for i in range(len(sizes)) for j in range(i + 1, len(sizes))}
    a = decouple_auto(sys, sizes)
    b = decouple_with_ports(sys, sizes, [np.eye(k) for k in sizes], blocks)
    assert type(a.coupling) is type(b.coupling)
    for sa, sb in zip(a.subsystems, b.subsystems):
        for k in "EJRBLPSN":
            assert np.array_equal(getattr(sa, k), getattr(sb, k))
    for pa, pb in zip(a.coupling.port_matrices, b.coupling.port_matrices):
        assert np.array_equal(pa, pb)
    for k in ("C", "M", "N"):
        if hasattr(a.coupling, k):
            assert np.array_equal(getattr(a.coupling, k), getattr(b.coupling, k))


@FAST
@given(separable_systems().filter(lambda case: case[2]))
def test_phdae_document_reread_eliminates_alike(case):
    sys, sizes, _ = case
    dae = decouple_auto(sys, sizes)
    reread = parse_system_text(dump_document(dae))
    a, b = condense_general(dae), condense_general(reread)
    for k in "EJRBLPSN":
        assert np.array_equal(getattr(a, k), getattr(b, k))
