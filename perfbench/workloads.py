"""Seeded inputs and job lists of the three workloads.

The seed fixes every matrix entry, parameter and initial state; sizes,
block counts and job lists are the same for every seed, so runs with
different seeds do the same amount of work.  ``phode.models`` is used only
to build model inputs and the expected output of ``phode model``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from phode import models

import refs

DOCS = ("model", "validate", "decouple", "condense")


def exit_only(stdout):
    return None


@dataclass
class Job:
    """One ``phode`` command; ``check(stdout)`` returns an error or None."""

    kind: str
    argv: list
    expect: int = 0
    check: Callable[[str], str | None] = exit_only
    outputs: tuple = ()


@dataclass
class Probe:
    """A known-defect probe: ``judge(code, stdout, stderr)`` returns
    (passed, detail).  It passes only when the answer is right or the
    command reports the failure."""

    name: str
    argv: list
    judge: Callable[[int, str, str], tuple]


@dataclass
class Workload:
    jobs: list = field(default_factory=list)
    probes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# documents


def _list(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def system_doc(m: dict) -> dict:
    n = m["J"].shape[0]
    doc = {"kind": "linear", "n": n, "E": _list(m["E"]), "J": _list(m["J"]),
           "R": _list(m["R"]), "L": _list(m["L"])}
    if m["B"].shape[1]:
        doc["B"] = _list(m["B"])
    return doc


def split(m: dict, sizes) -> dict:
    """Skew-coupled network with identity ports for a block-separable
    system whose dissipation is block-diagonal (C = -J_offdiag)."""
    offs = np.cumsum([0, *sizes])
    blocks = [slice(a, b) for a, b in zip(offs[:-1], offs[1:])]
    j_off = m["J"].copy()
    for b in blocks:
        j_off[b, b] = 0.0
    subs = [system_doc({"E": m["E"][b, b], "J": m["J"][b, b], "R": m["R"][b, b],
                        "L": m["L"][b, b], "B": m["B"][b]}) for b in blocks]
    return {"kind": "network", "subsystems": subs,
            "coupling": {"type": "skew", "ports": [_list(np.eye(k)) for k in sizes],
                         "C": _list(-j_off)}}


def model_matrices(sys) -> dict:
    return {k: np.array(getattr(sys, k)) for k in ("E", "J", "R", "L", "B")}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _x0_arg(x0) -> str:
    return "--x0=" + ",".join(repr(float(v)) for v in x0)


# ---------------------------------------------------------------------------
# random systems


def _spd(rng, n, shift=0.5):
    g = rng.standard_normal((n, n))
    return g @ g.T / n + shift * np.eye(n)


def _skew(rng, n, scale):
    g = rng.standard_normal((n, n))
    return scale * (g - g.T) / np.sqrt(2 * n)


def _psd(rng, n, scale):
    f = rng.standard_normal((n, n))
    return scale * f @ f.T / n


def separable(rng, sizes, *, coupling=1.0, damping=0.1, offdiag_damping=False,
              e_identity=True, ports=1) -> dict:
    """Block-separable random pH system: Q, E and L block-diagonal, J full
    with off-diagonal blocks scaled by ``coupling``; R block-diagonal
    (case 1) or full (case 2)."""
    n = sum(sizes)
    Q = refs.blockdiag([_spd(rng, k) for k in sizes])
    if e_identity:
        E, L = np.eye(n), Q
    else:
        Es = [_spd(rng, k, 1.0) for k in sizes]
        E = refs.blockdiag(Es)
        L = refs.blockdiag([np.linalg.solve(e.T, Q[o:o + k, o:o + k])
                            for e, o, k in zip(Es, np.cumsum([0, *sizes]), sizes)])
    mask = refs.blockdiag([np.ones((k, k)) for k in sizes])
    J = _skew(rng, n, 1.0) * (mask + coupling * (1.0 - mask))
    if offdiag_damping:
        R = _psd(rng, n, damping)
    else:
        R = refs.blockdiag([_psd(rng, k, damping) for k in sizes])
    B = rng.standard_normal((n, ports))
    return {"E": E, "J": J, "R": R, "L": L, "B": B}


def dense(rng, n, *, e_identity=True, damping=0.02) -> dict:
    """Dense random pH system (one block) for the integrator kernels."""
    return separable(rng, [n], damping=damping, e_identity=e_identity, ports=2)


def even_sizes(n, k):
    return [n // k + (i < n % k) for i in range(k)]


# ---------------------------------------------------------------------------
# job checks


def validate_ok(stdout):
    bad = [ln for ln in stdout.splitlines()
           if ln.startswith("FAIL") and "E regular" not in ln]
    return f"validate reported {bad[0]!r}" if bad else None


def report_ok(steps):
    def check(stdout):
        if f"steps: {steps}" not in stdout:
            return f"report does not cover {steps} steps"
        if "monotone energy decay: ok" not in stdout:
            return "report does not print 'monotone energy decay: ok'"
        return None
    return check


def matrices_equal(path, want, reader=lambda d: refs.system_matrices(d)):
    def check(stdout):
        return refs.compare(reader(refs.read_json(path)), want)
    return check


def trajectory_ok(path, ref: refs.TrajectoryRef):
    return lambda stdout: ref.check_csv(path)


# ---------------------------------------------------------------------------
# workloads


def cli_docs(rng, work: Path) -> Workload:
    """A desk session of short document jobs on random and model systems."""
    wl = Workload()
    jobs = wl.jobs
    dt, steps = 0.01, 100
    sizes = [6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 36, 40,
             48, 56, 64, 72, 80, 90, 100, 110, 120, 130, 140, 150]
    for i, n in enumerate(sizes):
        k = 2 + i % 5
        case2 = i % 2 == 1
        m = separable(rng, even_sizes(n, k), coupling=0.5, offdiag_damping=case2,
                      e_identity=i % 3 != 2)
        src = _write(work / f"sys{i}.json", system_doc(m))
        net = work / f"net{i}.json"
        part = ",".join(map(str, even_sizes(n, k)))
        jobs.append(Job("validate", ["validate", src], check=validate_ok))
        jobs.append(Job("decouple", ["decouple", src, "--partition", part, "-o", str(net)],
                        check=matrices_equal(net, m, refs.recondense), outputs=(net,)))
        modes = ["general", "phdae"] if case2 else ["skew", "general"]
        for mode in modes:
            out = work / f"cond{i}_{mode}.json"
            reader = refs.recondense if mode == "phdae" else refs.system_matrices
            jobs.append(Job("condense", ["condense", str(net), "--mode", mode, "-o", str(out)],
                            check=matrices_equal(out, m, reader), outputs=(out,)))
        if i % 2 == 0 or n <= 40:
            x0 = rng.uniform(-1, 1, n)
            traj = work / f"traj{i}.csv"
            ref = refs.TrajectoryRef(m, x0, dt, steps, "midpoint", True)
            jobs.append(Job("simulate", ["simulate", src, _x0_arg(x0), "--t1", "1.0",
                                         "--dt", str(dt), "-o", str(traj)],
                            check=trajectory_ok(traj, ref), outputs=(traj,)))
            jobs.append(Job("report", ["report", str(traj), src], check=report_ok(steps)))

    # registered models: emitted documents must equal the constructors
    tm = models.TwoMassParams(m1=rng.uniform(0.5, 2), m2=rng.uniform(0.5, 2),
                              r1=rng.uniform(0.05, 0.3), r2=rng.uniform(0.05, 0.3))
    pp = models.PoroelasticParams(dim_w=5, dim_p=3, rho=rng.uniform(0.5, 2),
                                  kappa=rng.uniform(0.5, 2))
    expected = {
        "two-mass": (f"m1={tm.m1!r},m2={tm.m2!r},r1={tm.r1!r},r2={tm.r2!r}",
                     models.two_mass(tm)),
        "poroelastic": (f"dim_w=5,dim_p=3,rho={pp.rho!r},kappa={pp.kappa!r}",
                        models.poroelastic(pp)[0]),
        "maxwell": ("", models.maxwell_grid()[0]),
    }
    docs = {}
    for name, (params, sys) in expected.items():
        out = work / f"model_{name}.json"
        argv = ["model", name, "-o", str(out)] + (["--params", params] if params else [])
        jobs.append(Job("model", argv, check=matrices_equal(out, model_matrices(sys)),
                        outputs=(out,)))
        docs[name] = _write(work / f"in_{name}.json", system_doc(model_matrices(sys)))
        jobs.append(Job("validate", ["validate", docs[name]], check=validate_ok))

    two = model_matrices(expected["two-mass"][1])
    poro = model_matrices(expected["poroelastic"][1])
    for name, m, part in (("two-mass", two, "3,2"), ("poroelastic", poro, "10,3")):
        net = work / f"net_{name}.json"
        jobs.append(Job("decouple", ["decouple", docs[name], "--partition", part,
                                     "-o", str(net)],
                        check=matrices_equal(net, m, refs.recondense), outputs=(net,)))
        out = work / f"cond_{name}.json"
        jobs.append(Job("condense", ["condense", str(net), "-o", str(out)],
                        check=matrices_equal(out, m), outputs=(out,)))
        x0 = rng.uniform(-1, 1, m["J"].shape[0])
        traj = work / f"traj_{name}.csv"
        ref = refs.TrajectoryRef(m, x0, dt, steps, "midpoint", True)
        jobs.append(Job("simulate", ["simulate", docs[name], _x0_arg(x0), "--t1", "1.0",
                                     "-o", str(traj)],
                        check=trajectory_ok(traj, ref), outputs=(traj,)))
        jobs.append(Job("report", ["report", str(traj), docs[name]], check=report_ok(steps)))

    # two-mass variant b ports, and the documented failing alt-ports triple
    ports_b = _write(work / "ports_b.json", {
        "ports": [[[0.0], [0.0], [1.0]], [[-1.0], [0.0]]],
        "blocks": [{"i": 0, "j": 1, "C": [[-1.0]]}]})
    net_b = work / "net_two-mass_b.json"
    jobs.append(Job("decouple", ["decouple", docs["two-mass"], "--partition", "3,2",
                                 "--ports", ports_b, "-o", str(net_b)],
                    check=matrices_equal(net_b, two, refs.recondense), outputs=(net_b,)))
    perm, part, alt_ports, blocks = models.two_mass_alt_ports()
    permuted = {k: perm @ v @ perm.T for k, v in two.items() if k != "B"}
    permuted["B"] = perm @ two["B"]
    alt_sys = _write(work / "in_two-mass_alt.json", system_doc(permuted))
    alt = _write(work / "ports_alt.json", {
        "ports": [_list(b) for b in alt_ports],
        "blocks": [{"i": i, "j": j, "C": _list(c)} for (i, j), c in blocks.items()]})
    jobs.append(Job("decouple", ["decouple", alt_sys, "--partition",
                                 ",".join(map(str, part.sizes)), "--ports", alt,
                                 "-o", str(work / "net_alt.json")],
                    expect=3))
    jobs.append(Job("simulate", ["simulate", docs["maxwell"],
                                 _x0_arg(np.ones(expected["maxwell"][1].n)),
                                 "-o", str(work / "traj_maxwell.csv")],
                    expect=4))

    # README form: "--x0 -0.3,..." with a space, for the two-mass oscillator
    x0 = np.array([-0.3, 0.5, 0.1, 0.2, -0.4])
    traj = work / "traj_readme.csv"
    ref = refs.TrajectoryRef(two, x0, dt, steps, "midpoint", True)

    def judge(code, stdout, stderr):
        if code != 0:
            return False, f"exit {code}: {stderr.strip()[-120:]}"
        err = ref.check_csv(traj)
        return err is None, err or "trajectory correct"

    wl.probes.append(Probe("readme_x0_space",
                           ["simulate", docs["two-mass"], "--x0", ",".join(map(str, x0)),
                            "--t1", "1.0", "-o", str(traj)], judge))
    return wl


def sim_dense(rng, work: Path) -> Workload:
    """Long simulate + report runs on dense random systems."""
    wl = Workload()
    dt, steps = 0.01, 1000
    for n, e_identity in ((100, True), (200, True), (150, False)):
        m = dense(rng, n, e_identity=e_identity)
        src = _write(work / f"dense{n}.json", system_doc(m))
        wl.jobs.append(Job("validate", ["validate", src], check=validate_ok))
        x0 = rng.uniform(-1, 1, n)
        for method in ("midpoint", "strang"):
            traj = work / f"dense{n}_{method}.csv"
            ref = refs.TrajectoryRef(m, x0, dt, steps, method, method == "midpoint")
            wl.jobs.append(Job("simulate", ["simulate", src, _x0_arg(x0), "--t1",
                                            str(dt * steps), "--dt", str(dt),
                                            "--method", method, "-o", str(traj)],
                               check=trajectory_ok(traj, ref), outputs=(traj,)))
            wl.jobs.append(Job("report", ["report", str(traj), src],
                               check=report_ok(steps)))
    return wl


def _three_block_networks(rng):
    tm = models.two_mass(models.TwoMassParams(m1=rng.uniform(0.5, 2), m2=rng.uniform(0.5, 2),
                                              r1=rng.uniform(0.05, 0.3),
                                              r2=rng.uniform(0.05, 0.3)))
    poro = models.poroelastic(models.PoroelasticParams(
        dim_w=6, dim_p=4, rho=rng.uniform(0.5, 2), kappa=rng.uniform(0.5, 2)))[0]
    return [("two-mass", model_matrices(tm), (2, 2, 1)),
            ("poroelastic", model_matrices(poro), (6, 6, 4)),
            ("random", separable(rng, (6, 8, 10), coupling=0.3), (6, 8, 10))]


def cosim_3block(rng, work: Path) -> Workload:
    """Waveform relaxation on 3-block skew-coupled networks."""
    wl = Workload()
    dt, steps = 0.01, 500
    for name, m, sizes in _three_block_networks(rng):
        net = _write(work / f"net_{name}.json", split(m, sizes))
        mono = work / f"mono_{name}.json"
        wl.jobs.append(Job("condense", ["condense", net, "-o", str(mono)],
                           check=matrices_equal(mono, m), outputs=(mono,)))
        x0 = rng.uniform(-1, 1, m["J"].shape[0])
        ref = refs.TrajectoryRef(m, x0, dt, steps, "midpoint", True)
        span = ["--t1", str(dt * steps), "--dt", str(dt)]
        traj = work / f"mono_{name}.csv"
        wl.jobs.append(Job("simulate", ["simulate", str(mono), _x0_arg(x0), *span,
                                        "-o", str(traj)],
                           check=trajectory_ok(traj, ref), outputs=(traj,)))
        wl.jobs.append(Job("report", ["report", str(traj), str(mono)],
                           check=report_ok(steps)))
        relaxed = refs.TrajectoryRef(m, x0, dt, steps, "midpoint", False)
        for mode in ("jacobi", "gauss-seidel"):
            out = work / f"cosim_{name}_{mode}.csv"
            wl.jobs.append(Job("cosim", ["cosim", net, _x0_arg(x0), "--mode", mode,
                                         "--sweeps", "8", "--window", "0.1", *span,
                                         "-o", str(out)],
                               check=trajectory_ok(out, relaxed), outputs=(out,)))

    # CLI defaults (jacobi, 5 sweeps, t1 = 1) on a strongly coupled network
    m = separable(rng, (6, 8, 10), coupling=8.0)
    net = _write(work / "net_strong.json", split(m, (6, 8, 10)))
    x0 = rng.uniform(-1, 1, 24)
    out = work / "cosim_strong.csv"
    ref = refs.propagate(refs.midpoint_phi(m["E"], (m["J"] - m["R"]) @ m["L"], 0.01),
                         x0, 100)

    def judge(code, stdout, stderr):
        if code != 0 or stderr.strip():
            return True, f"reported: exit {code}"
        x = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[:, 1:-2]
        err = float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))
        return err <= 1e-6, f"exit 0, no warning, relative error {err:.1e}"

    wl.probes.append(Probe("cosim_default_sweeps",
                           ["cosim", net, _x0_arg(x0), "-o", str(out)], judge))
    return wl


WORKLOADS = {"cli-docs": cli_docs, "sim-dense": sim_dense, "cosim-3block": cosim_3block}
