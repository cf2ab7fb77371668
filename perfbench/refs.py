"""NumPy-only references that the benchmark checks the CLI's outputs against.

Nothing here imports phode: every expected value is recomputed from the
matrices the benchmark generated, so a defect in the program cannot hide
in its own reference.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

#: relative tolerance for states against the one-step propagator power
STATE_RTOL = 1e-8
#: midpoint energy-balance residual allowed, relative to max |H|
BALANCE_RTOL = 1e-12
#: exact algebra (condense/decouple) tolerance, relative to the matrix scale
ALGEBRA_RTOL = 1e-12


def blockdiag(mats) -> np.ndarray:
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def matrix(doc: dict, key: str, rows: int, cols: int | None = None) -> np.ndarray:
    """A document matrix; an empty list is a rows x 0 matrix."""
    a = np.array(doc.get(key, []), dtype=float)
    if a.size == 0:
        return np.zeros((rows, 0 if cols is None else cols))
    return a.reshape(rows, -1)


def system_matrices(doc: dict) -> dict:
    n = int(doc["n"])
    eye = np.eye(n)
    return {
        "E": matrix(doc, "E", n) if "E" in doc else eye,
        "J": matrix(doc, "J", n),
        "R": matrix(doc, "R", n),
        "L": matrix(doc, "L", n) if "L" in doc else eye,
        "B": matrix(doc, "B", n),
    }


def recondense(doc: dict) -> dict:
    """Monolithic matrices of a network (or phdae) document.

    A relation M u + N y = 0 with regular M is the coupling C = M^-1 N;
    its skew part enters J and its symmetric part R.
    """
    subs = [system_matrices(s) for s in doc["subsystems"]]
    cdoc = doc["coupling"]
    ports = [matrix({"b": b}, "b", s["J"].shape[0]) for b, s in zip(cdoc["ports"], subs)]
    bhat = blockdiag(ports)
    mt = bhat.shape[1]
    if cdoc["type"] == "relation":
        C = np.linalg.solve(matrix(cdoc, "M", mt), matrix(cdoc, "N", mt))
    else:
        C = matrix(cdoc, "C", mt)
    out = {k: blockdiag([s[k] for s in subs]) for k in ("E", "J", "R", "L", "B")}
    out["J"] = out["J"] - bhat @ (0.5 * (C - C.T)) @ bhat.T
    out["R"] = out["R"] + bhat @ (0.5 * (C + C.T)) @ bhat.T
    return out


def compare(got: dict, want: dict) -> str | None:
    """Matrix-by-matrix comparison.  Condensing gives every block its own
    copy of the external ports, so a B with a multiple of the expected
    column count is compared after summing its column blocks."""
    for k in ("E", "J", "R", "L", "B"):
        g, w = got[k], want[k]
        if k == "B" and w.shape[1] and g.shape[1] % w.shape[1] == 0:
            g = g.reshape(g.shape[0], -1, w.shape[1]).sum(axis=1)
        if g.shape != w.shape:
            return f"{k} has shape {g.shape}, expected {w.shape}"
        scale = 1.0 + float(np.max(np.abs(w), initial=0.0))
        err = float(np.max(np.abs(g - w), initial=0.0))
        if err > ALGEBRA_RTOL * scale:
            return f"{k} differs by {err:.3e}"
    return None


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# one-step propagators of the integrators the CLI offers


def midpoint_phi(E, A, dt) -> np.ndarray:
    """Phi = (E - dt/2 A)^-1 (E + dt/2 A)."""
    return np.linalg.solve(E - 0.5 * dt * A, E + 0.5 * dt * A)


def strang_phi(m: dict, dt) -> np.ndarray:
    """Half dissipative midpoint step, full conservative one, half dissipative."""
    diss = midpoint_phi(m["E"], -m["R"] @ m["L"], 0.5 * dt)
    cons = midpoint_phi(m["E"], m["J"] @ m["L"], dt)
    return diss @ cons @ diss


def propagate(phi, x0, steps) -> np.ndarray:
    xs = np.empty((steps + 1, x0.size))
    xs[0] = x0
    for k in range(steps):
        xs[k + 1] = phi @ xs[k]
    return xs


class TrajectoryRef:
    """Expected states Phi^k x0 and the energy bookkeeping of a system."""

    def __init__(self, m: dict, x0, dt: float, steps: int, method: str,
                 exact_balance: bool):
        phi = (strang_phi(m, dt) if method == "strang"
               else midpoint_phi(m["E"], (m["J"] - m["R"]) @ m["L"], dt))
        self.states = propagate(phi, np.asarray(x0, dtype=float), steps)
        self.Q = m["E"].T @ m["L"]
        self.L, self.R = m["L"], m["R"]
        self.dt = dt
        # the midpoint rule balances energy exactly; split or relaxed
        # trajectories only have to report their residual correctly
        self.exact_balance = exact_balance

    def check_csv(self, path: Path) -> str | None:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        x, h, res = data[:, 1:-2], data[:, -2], data[:, -1]
        if x.shape != self.states.shape:
            return f"trajectory has shape {x.shape}, expected {self.states.shape}"
        scale = float(np.max(np.abs(self.states)))
        err = float(np.max(np.abs(x - self.states)))
        if not err <= STATE_RTOL * scale:
            return f"states off Phi^k x0 by {err:.3e} (scale {scale:.3e})"
        h_ref = 0.5 * np.einsum("ki,ij,kj->k", x, self.Q, x)
        hmax = float(np.max(np.abs(h_ref)))
        if not np.max(np.abs(h - h_ref)) <= 1e-12 * hmax:
            return "H column does not match 1/2 x^T Q x"
        zm = 0.5 * (x[1:] + x[:-1]) @ self.L.T
        res_ref = np.abs(np.diff(h) + self.dt * np.einsum("ki,ij,kj->k", zm, self.R, zm))
        if not np.max(np.abs(res[1:] - res_ref)) <= 1e-10 * hmax:
            return "balance_residual column does not match the energy balance"
        if self.exact_balance and not np.max(res) <= BALANCE_RTOL * hmax:
            return f"balance residual {np.max(res):.3e} is not at round-off (max H {hmax:.3e})"
        return None
