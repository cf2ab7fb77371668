"""Shared test helpers: random valid systems/networks and a high-order
reference integrator used as an independent oracle."""

import numpy as np

from phode.core import LinearPHSystem
from phode.coupling import CoupledNetwork, CouplingSpec


def random_linear_ph(rng, n=4, m=2, implicit=False, feedthrough=False):
    """Random valid linear pH system: skew J, PSD R = A^T A, SPD Q and a
    compatible effort matrix L = E^{-T} Q.  With ``feedthrough`` the
    system also gets P, S (from a PSD W = [[R, P], [P^T, S]]) and a skew N."""
    A = rng.standard_normal((n, n))
    J = A - A.T
    A = rng.standard_normal((n + m, n + m)) if feedthrough else rng.standard_normal((n, n))
    W = A.T @ A
    R = W[:n, :n]
    extra = {}
    if feedthrough:
        extra = {"P": W[:n, n:], "S": W[n:, n:], "N": random_skew(rng, m)}
    B = rng.standard_normal((n, m)) if m else np.zeros((n, 0))
    A = rng.standard_normal((n, n))
    Q = A.T @ A + n * np.eye(n)
    if implicit:
        A = rng.standard_normal((n, n))
        E = A.T @ A + n * np.eye(n)
    else:
        E = np.eye(n)
    L = np.linalg.solve(E.T, Q)
    return LinearPHSystem(E=E, J=J, R=R, B=B, L=L, **extra)


def random_skew(rng, k):
    A = rng.standard_normal((k, k))
    return A - A.T


def random_network(rng, s=2, max_n=4, max_m=2, implicit=False):
    """Random skew-coupled network with valid subsystems."""
    sizes = [int(rng.integers(1, max_n + 1)) for _ in range(s)]
    ports_m = [int(rng.integers(1, max_m + 1)) for _ in range(s)]
    subs = tuple(random_linear_ph(rng, n=ni, m=0, implicit=implicit) for ni in sizes)
    ports = tuple(rng.standard_normal((ni, mi)) for ni, mi in zip(sizes, ports_m))
    C = random_skew(rng, sum(ports_m))
    return CoupledNetwork(subsystems=subs, coupling=CouplingSpec(ports, C))


def rk4_reference(sys, x0, t0, t1, dt):
    """Classical fourth-order reference solution (oracle only)."""
    A = np.linalg.solve(sys.E, (sys.J - sys.R) @ sys.L)

    def f(x):
        return A @ x

    steps = int(round((t1 - t0) / dt))
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def explicit_euler(sys, x0, t0, t1, dt):
    """Explicit Euler trajectory (oracle only, for energy comparisons)."""
    A = np.linalg.solve(sys.E, (sys.J - sys.R) @ sys.L)
    steps = int(round((t1 - t0) / dt))
    xs = [np.asarray(x0, dtype=float).copy()]
    for _ in range(steps):
        xs.append(xs[-1] + dt * A @ xs[-1])
    return t0 + dt * np.arange(steps + 1), np.array(xs)
