"""Job runner, pass loop and metrics of the phode benchmark."""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

import phode.cli

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7          # fresh-process imports of phode.cli
SETUP_CAL_SAMPLES = 20     # host-speed samples before and after each import
MIN_PASSES = 3             # measured passes per run, at least

#: seconds a HostSpeed sample takes, between jobs, on the 2-core 2.1 GHz
#: Xeon VM the benchmark was tuned on; times are reported in seconds of
#: that reference speed
CAL_REF_S = 0.0011


class HostSpeed:
    """A fixed calibration kernel, independent of phode, sampled between
    jobs.  A shared host's speed drifts by tens of percent over seconds to
    minutes, and a job sees the same drift as the samples taken just
    before and after it, so ``CAL_REF_S / sample`` is the factor that turns
    the job's wall time into reference seconds.  The kernel mixes what
    phode spends time on: small LAPACK solves and matrix products behind
    Python calls, JSON and float formatting."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((40, 40))
        self.lu = scipy.linalg.lu_factor(self.m[:12, :12] + 5.0 * np.eye(12))
        self.v = rng.standard_normal(12)
        self.doc = self.m[:8].tolist()
        self.vals = self.m.ravel()[:200]

    def _kernel(self):
        for _ in range(15):
            scipy.linalg.lu_solve(self.lu, self.m[:12, :12] @ self.v)
        json.loads(json.dumps(self.doc))
        ",".join(format(x, ".17g") for x in self.vals)
        self.m @ self.m

    def sample(self) -> float:
        # an untimed first call brings the kernel back into the caches, so
        # the sample does not depend on what the preceding job evicted
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0


IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                  "t = time.perf_counter(); import phode.cli; "
                  "print(time.perf_counter() - t)")


def setup_times(speed: HostSpeed) -> list:
    """Wall time of ``import phode.cli`` in fresh processes, each with
    the speed factor of host-speed samples taken just before and after."""
    def factor():
        return CAL_REF_S / statistics.fmean(speed.sample() for _ in range(SETUP_CAL_SAMPLES))
    out = []
    for _ in range(SETUP_REPEATS):
        before = factor()
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        raw = float(proc.stdout.strip().splitlines()[-1])
        out.append((raw, 0.5 * (before + factor())))
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha1()
    for f in sorted((SRC / "phode").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:12]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one phode benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_record(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": git_commit(), "src_sha1": src_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Runner:
    """Runs jobs through ``phode.cli.main``; the first run of each job is
    checked against its reference, later runs must repeat its output."""

    def __init__(self, jobs, speed: HostSpeed):
        self.jobs = jobs
        self.speed = speed
        self.digests = [None] * len(jobs)
        self.attempted = 0
        self.failures = []

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = phode.cli.main(argv)
            except Exception:   # a traceback is a failed job, not a failed run
                traceback.print_exc()
                code = "traceback"
            dt = time.perf_counter() - t0
        return code, dt, out.getvalue(), err.getvalue()

    def _digest(self, job, stdout):
        h = hashlib.sha1(stdout.encode())
        for path in job.outputs:
            h.update(Path(path).read_bytes())
        return h.hexdigest()

    def run_pass(self, tracer=None):
        """Run every job once.  Returns the latencies and, for each job, the
        host-speed factor of the samples taken just before and after it."""
        latencies, samples = [], [self.speed.sample()]
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            code, dt, stdout, stderr = self.call(job.argv)
            latencies.append(dt)
            samples.append(self.speed.sample())
            self.attempted += 1
            error = None
            if code != job.expect:
                error = f"exit {code}, expected {job.expect}: {stderr.strip()[-200:]}"
            elif self.digests[i] is None:
                error = job.check(stdout)
                self.digests[i] = self._digest(job, stdout)
            elif self._digest(job, stdout) != self.digests[i]:
                error = "output differs from the first, checked run"
            if error:
                self.failures.append(f"job {i} ({' '.join(job.argv[:2])}): {error}")
        factors = [2 * CAL_REF_S / (a + b) for a, b in zip(samples, samples[1:])]
        return latencies, factors


def pass_summary(jobs, lat) -> dict:
    """End-to-end metrics of one untraced pass."""
    def total(kinds):
        return sum(t for j, t in zip(jobs, lat) if j.kind in kinds)
    return {"wall_s": sum(lat), "job_p50_ms": 1e3 * statistics.median(lat),
            "job_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
            "simulate_s": total(("simulate",)), "report_s": total(("report",)),
            "docs_s": total(workloads.DOCS)}


def mean_of(rows, key):
    return statistics.fmean(r[key] for r in rows)


def main(argv=None) -> int:
    if Path(phode.cli.__file__).resolve().parent != SRC / "phode":
        sys.exit(f"perfbench: imported phode from {phode.cli.__file__}, not {SRC}")
    args = parse_args(argv)
    record = run_record(args)
    speed = HostSpeed()
    setup = setup_times(speed)
    rng = np.random.default_rng(args.seed)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](rng, work)
        runner = Runner(wl.jobs, speed)
        kinds = {i: j.kind for i, j in enumerate(wl.jobs)}
        raw_wall, plain, traced, speeds = [], [], [], []
        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        last = 0.0
        # stop before a pass that would overrun the measuring time
        while (len(plain) < MIN_PASSES
               or time.perf_counter() - start + last <= args.seconds):
            t0 = time.perf_counter()
            gc.collect()
            lat, factors = runner.run_pass()
            plain.append(pass_summary(wl.jobs, [t * f for t, f in zip(lat, factors)]))
            raw_wall.append(sum(lat))
            speeds.append(statistics.fmean(factors))
            if tracer is not None:
                gc.collect()
                tracer.install()
                try:
                    lat, factors = runner.run_pass(tracer)
                finally:
                    tracer.uninstall()
                row = tracing.pass_metrics(tracer.spans, kinds, factors)
                row["trace.wall_s"] = sum(t * f for t, f in zip(lat, factors))
                traced.append(row)
            last = time.perf_counter() - t0
        probes = {}
        for probe in wl.probes:
            code, _, stdout, stderr = runner.call(probe.argv)
            ok, detail = probe.judge(code, stdout, stderr)
            probes[probe.name] = {"passed": ok, "detail": detail}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()

    # means over passes: the speed factors remove most of the host's drift,
    # and a mean averages what is left where a median of a few passes jumps
    if args.trace:
        metrics = {k: mean_of(traced, k) for k in traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - mean_of(plain, "wall_s")
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {k: (mean_of(plain, k), "ms" if k.endswith("_ms") else "s")
                   for k in plain[0]}
        metrics["setup_s"] = (statistics.median(r * f for r, f in setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record.update(passes=len(plain), jobs_per_pass=len(wl.jobs),
                  host_speed=[round(f, 4) for f in speeds],
                  raw_pass_wall_s=[round(w, 4) for w in raw_wall],
                  raw_setup_s=[round(r, 4) for r, _ in setup],
                  failures=runner.failures[:20])
    print(json.dumps({"run": record}))
    print(json.dumps({"known_defect_probes": probes}))
    correct = not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1
