"""The bosonspectra benchmark: seeded CLI jobs in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload blind --seed 1 --seconds 12 --trace 0

One client runs one job at a time; a job is one fresh
``python -m bosonspectra.cli`` process with the checkout's ``src``
first on PYTHONPATH. The workload's round of jobs (see workloads.py)
repeats until ``--seconds`` have passed, always in whole rounds. Every
output document is checked against an independent reference; a job
that exits non-zero, outlives its timeout or fails a check counts as
failed.

With ``--trace 0`` the end-to-end metrics are printed. With
``--trace 1`` every job runs twice, once plain and once under
tracer.py, and the per-layer metrics are printed instead, together
with the tracing overhead. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_INIT = os.path.join(SRC, "bosonspectra", "__init__.py")

JOB_TIMEOUT_S = 20.0
# No job starts unless its full timeout fits before this many seconds,
# so a run ends in time even when every job hangs.
RUN_BUDGET_S = 140.0
MIN_ROUNDS = 3
RECONCILE_LIMIT = 0.01
# In a plain run a calibration precedes every CALIBRATE_EVERY-th job and a
# set-up probe every PROBE_EVERY-th.
CALIBRATE_EVERY = 2
PROBE_EVERY = 4

# The calibration: a fixed task that never touches the package, made
# like a job of interpreter start, the numpy import, small numpy calls
# and pure-Python loops. A shared 2-core Xeon VM was seen to switch every
# few seconds to minutes between a fast and a slow state about 1.5x
# apart, so that raw times of the same jobs spread by 30 % or more from
# run to run. In a plain run the calibration runs before every second
# job, and the times of the set-up probe and the two jobs that follow it
# are scaled by CALIBRATION_REF_S / the calibration's time: times as on
# a host where the calibration takes CALIBRATION_REF_S, a time within
# the 0.15-0.31 s it took on that VM.
CALIBRATION = (
    "import numpy as np\n"
    "a = np.random.default_rng(0).standard_normal((6, 6))\n"
    "acc = sum(float(np.linalg.det(a @ a.T)) for _ in range(2000))\n"
    "s = sum(i * i % 7 for i in range(150000))\n"
    "assert acc > 0 and s > 0\n"
)
CALIBRATION_REF_S = 0.2

# job_s.tail is the highest percentile with at least ten jobs beyond it
# in MIN_ROUNDS rounds of ten jobs (see workloads.py for how a round is
# composed around the 50th and this percentile).
TAIL_PERCENTILE = 65

END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "outcomes_per_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


# Per-layer metrics and their units. Times and counts are totals over one
# round of the workload's jobs.
PER_LAYER = {
    "permanent.calls": "count/round",
    "permanent.self_s": "s/round",
    "permanent.max_k": "count",
    "permanent.gray_steps": "count/round",
    "permanent.ns_per_step": "ns",
    "sampling.calls": "count/round",
    "sampling.self_s": "s/round",
    "sampling.outcomes": "count/round",
    "sampling.mixture_terms": "count/round",
    "spectra.calls": "count/round",
    "spectra.self_s": "s/round",
    "spectra.configurations": "count/round",
    "network.calls": "count/round",
    "network.self_s": "s/round",
    "oracle.calls": "count/round",
    "oracle.self_s": "s/round",
    "oracle.readouts": "count/round",
    "oracle.fock_states": "count/round",
    "cli.self_s": "s/round",
    "cli.parse_s": "s/round",
    "cli.output_bytes": "B/round",
    "trace.overhead_ratio": "ratio",
    "trace.reconcile_error": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked: no source tree or a foreign package."""


@dataclass
class JobResult:
    label: str
    wall_s: float
    maxrss_kb: int
    ok: bool
    outcomes: int
    output_bytes: int
    reason: str
    layers: dict | None = None
    calibration_s: float = CALIBRATION_REF_S


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Launcher:
    """Runs jobs through launcher.py, started once with the job environment."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self, argv: list[str], cwd: str, timeout: float, stderr_path: str):
        """Run argv to completion; return (wall seconds, exit code or None on timeout, max RSS KiB)."""
        self.proc.stdin.write(json.dumps([argv, cwd, timeout, stderr_path]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("the job launcher exited")
        return tuple(json.loads(reply))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()  # kills a running job, if any
        self.proc.wait()


def provenance(workdir: str, env: dict) -> dict:
    """Where job processes import bosonspectra from, and what they run on."""
    if not os.path.isfile(PACKAGE_INIT):
        raise SetupError(f"no bosonspectra source tree at {SRC}")
    probe = ("import json, sys, numpy, bosonspectra; print(json.dumps({'file': bosonspectra.__file__, "
             "'python': sys.version.split()[0], 'numpy': numpy.__version__}))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise SetupError(f"job processes cannot import bosonspectra: {done.stderr.strip()}")
    info = json.loads(done.stdout)
    if os.path.realpath(info["file"]) != os.path.realpath(PACKAGE_INIT):
        raise SetupError(f"job processes import {info['file']}, not the working tree's {PACKAGE_INIT}")
    digest = hashlib.sha256()
    package = os.path.dirname(PACKAGE_INIT)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() if os.path.isdir(os.path.join(ROOT, ".git")) else ""
    return {
        "bosonspectra": info["file"],
        "python": info["python"],
        "numpy": info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": commit or None,
        "src_sha256": digest.hexdigest()[:16],
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Writes a round's inputs once, then runs and checks its jobs one at a time."""

    def __init__(self, jobs, workdir: str, launch: Launcher, timeout: float = JOB_TIMEOUT_S):
        os.makedirs(workdir)
        self.jobs = jobs
        self.workdir = workdir
        self.launch = launch
        self.timeout = timeout
        self.inputs = []
        for i, job in enumerate(jobs):
            path = os.path.join(workdir, f"input{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job.payload, fh, allow_nan=False)
            self.inputs.append(path)

    def argv(self, i: int, output: str, summary: str | None) -> list[str]:
        job = self.jobs[i]
        if job.command == "permanent":
            args = ["permanent", self.inputs[i]]
        else:
            args = [job.command, "--config", self.inputs[i]]
        args += ["--output", output]
        if summary is None:
            return [sys.executable, "-m", "bosonspectra.cli", *args]
        return [sys.executable, os.path.join(HERE, "tracer.py"), summary, *args]

    def run(self, i: int, traced: bool = False) -> JobResult:
        job = self.jobs[i]
        output = os.path.join(self.workdir, "output.json")
        summary = os.path.join(self.workdir, "layers.json") if traced else None
        for stale in (output, summary):
            if stale and os.path.exists(stale):
                os.remove(stale)
        wall, code, maxrss = self.launch(self.argv(i, output, summary), self.workdir, self.timeout,
                                         os.path.join(self.workdir, "stderr.txt"))
        size = os.path.getsize(output) if os.path.exists(output) else 0
        result = JobResult(job.label, wall, maxrss, False, 0, size, "")
        if code is None:
            result.reason = f"timed out after {self.timeout:g} s"
            return result
        if code != 0:
            with open(os.path.join(self.workdir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
                result.reason = f"exit code {code}: {fh.read().strip()[-300:]}"
            return result
        try:
            with open(output, encoding="utf-8") as fh:
                doc = json.load(fh)
            result.outcomes = job.check(doc)
            result.ok = True
        except (OSError, ValueError, KeyError, TypeError, workloads.CheckError) as exc:
            result.reason = f"output check failed: {exc}"
        if traced and result.ok:
            with open(summary, encoding="utf-8") as fh:
                result.layers = json.load(fh)
            result.layers["cli.output_bytes"] = float(size)
        return result


class SetupProbe:
    """CLI processes that only take the permanent of a 1x1 matrix: start-up cost alone."""

    def __init__(self, workdir: str, launch: Launcher):
        job = workloads.Job("setup", "permanent", [[[0.5, -0.25]]], self._check)
        self.runner = Runner([job], workdir, launch)
        self.runner.run(0)  # not timed: the first start may compile bytecode
        self.samples: list[tuple[float, float]] = []  # (wall, calibration) seconds

    @staticmethod
    def _check(doc) -> int:
        if doc != [0.5, -0.25]:
            raise workloads.CheckError(f"Per of a 1x1 matrix came back as {doc!r}")
        return 1

    def __call__(self, calibration_s: float) -> None:
        result = self.runner.run(0)
        if not result.ok:
            raise SetupError(f"set-up probe failed: {result.reason}")
        self.samples.append((result.wall_s, calibration_s))


class Calibration:
    """Times the CALIBRATION task, which measures the host, not the package."""

    def __init__(self, workdir: str, launch: Launcher):
        self.workdir = workdir
        self.launch = launch
        self.times: list[float] = []

    def __call__(self) -> float:
        wall, code, _ = self.launch([sys.executable, "-c", CALIBRATION], self.workdir, JOB_TIMEOUT_S,
                                    os.path.join(self.workdir, "calibration.txt"))
        if code != 0:
            raise SetupError(f"the calibration task failed with exit code {code}")
        self.times.append(wall)
        return wall


def run_rounds(runner: Runner, seconds: float, traced: bool, started: float,
               probe: SetupProbe, calibrate: Calibration):
    """Whole rounds until `seconds` have passed and MIN_ROUNDS are done.

    In a plain run calibrations and set-up probes are spread between the
    jobs, so that both are sampled across the run rather than in one
    burst. No job starts unless three times its timeout (the job and a
    traced rerun, or a calibration, a set-up probe and the job) fits in
    RUN_BUDGET_S counted from `started`.
    """
    measuring = time.perf_counter()
    rounds = []
    while True:
        results = []
        for i in range(len(runner.jobs)):
            if time.perf_counter() - started + 3 * runner.timeout > RUN_BUDGET_S:
                rounds.append(results)
                return rounds
            if traced:
                results.append((runner.run(i), runner.run(i, traced=True)))
            else:
                if i % CALIBRATE_EVERY == 0:
                    calibration_s = calibrate()
                if i % PROBE_EVERY == 0:
                    probe(calibration_s)
                result = runner.run(i)
                result.calibration_s = calibration_s
                results.append(result)
        rounds.append(results)
        if time.perf_counter() - measuring >= seconds and len(rounds) >= MIN_ROUNDS:
            return rounds


def end_to_end(setup: list[tuple[float, float]], results: list[JobResult], scaled: bool = True) -> dict:
    """The end-to-end metrics; `scaled` times are scaled by their calibrations (see CALIBRATION)."""

    def scale(calibration_s: float) -> float:
        return CALIBRATION_REF_S / calibration_s if scaled else 1.0

    walls = [r.wall_s * scale(r.calibration_s) for r in results]
    busy = math.fsum(walls)
    return {
        "setup_s": statistics.median(wall * scale(c) for wall, c in setup),
        "job_s.p50": float(np.percentile(walls, 50)),
        "job_s.tail": float(np.percentile(walls, TAIL_PERCENTILE)),
        "outcomes_per_s": sum(r.outcomes for r in results) / busy,
        "success_rate": sum(r.ok for r in results) / len(results),
        "peak_rss_mb": max(r.maxrss_kb for r in results) / 1024.0,
    }


def per_layer(rounds) -> dict:
    """Per-round totals of the traced jobs' layer numbers, median over whole rounds."""
    totals = []
    for pairs in rounds:
        total = {}
        for _, traced in pairs:
            for key, value in (traced.layers or {}).items():
                combine = max if key == "permanent.max_k" else sum
                total[key] = combine((total.get(key, 0.0), value))
        totals.append(total)
    out = {name: statistics.median(t.get(name, 0.0) for t in totals) for name in PER_LAYER}
    out["permanent.max_k"] = max(t.get("permanent.max_k", 0.0) for t in totals)
    per_step = [t["permanent.self_s"] * 1e9 / t["permanent.gray_steps"]
                for t in totals if t.get("permanent.gray_steps")]
    out["permanent.ns_per_step"] = statistics.median(per_step) if per_step else 0.0
    plain = math.fsum(p.wall_s for pairs in rounds for p, _ in pairs)
    traced = math.fsum(t.wall_s for pairs in rounds for _, t in pairs)
    out["trace.overhead_ratio"] = traced / plain
    out["trace.reconcile_error"] = max(
        (t.layers["reconcile_error"] for pairs in rounds for _, t in pairs if t.layers), default=0.0
    )
    return out


def _by_label(results) -> dict:
    shapes = {}
    for r in results:
        shapes.setdefault(r.label, []).append(r.wall_s)
    return shapes


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
        timeout: float = JOB_TIMEOUT_S) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    started = time.perf_counter()
    base = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.join(base, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    launch = None
    try:
        env = job_env()
        info = provenance(workdir, env)
        launch = Launcher(env)
        probe = SetupProbe(os.path.join(workdir, "setup"), launch)
        calibrate = Calibration(os.path.join(workdir, "setup"), launch)
        jobs = workloads.build(workload, seed, smoke)
        runner = Runner(jobs, os.path.join(workdir, "jobs"), launch, timeout)
        rounds = run_rounds(runner, seconds, trace, started, probe, calibrate)
    finally:
        if launch is not None:
            launch.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    flat = [r for results in rounds for item in results for r in (item if trace else (item,))]
    failures = [r for r in flat if not r.ok]
    whole = [results for results in rounds if len(results) == len(jobs)] or rounds
    raw = {}
    if trace:
        metrics = per_layer(whole)
        units = PER_LAYER
    else:
        metrics = end_to_end(probe.samples, flat)
        raw = end_to_end(probe.samples, flat, scaled=False)
        units = END_TO_END
    return {
        "provenance": info,
        "rounds": len(whole),
        "jobs_per_round": len(jobs),
        "setup_probes": len(probe.samples),
        "calibrations": calibrate.times,
        "raw": raw,
        "failures": [f"{r.label}: {r.reason}" for r in failures],
        "shapes": _by_label(item[0] if trace else item for results in rounds for item in results),
        "result": {
            "correct": not any(r.reason.startswith("output check failed") for r in failures),
            "attempted": len(flat),
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that the launcher still kills the job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report["result"]
    if args.trace and result["metrics"]["trace.reconcile_error"]["value"] > RECONCILE_LIMIT:
        print("error: layer self times do not add up to the root span", file=sys.stderr)
        return 2
    print(f"provenance: {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{report['rounds']} whole rounds of {report['jobs_per_round']} jobs; "
          f"{result['attempted']} jobs attempted, {result['failed']} failed")
    if not args.trace:
        print(f"job_s.tail is the p{TAIL_PERCENTILE} of {result['attempted']} job times; "
              f"setup_s is the median of {report['setup_probes']} probes; "
              f"error_rate = {result['failed']}/{result['attempted']}")
        calibrations = report["calibrations"]
        print(f"calibration: median {statistics.median(calibrations):.3f} s over {len(calibrations)} calibrations, "
              f"range {min(calibrations):.3f}-{max(calibrations):.3f} s; the metrics below scale each time "
              f"by {CALIBRATION_REF_S} s / the calibration next to it")
        for name in ("setup_s", "job_s.p50", "job_s.tail", "outcomes_per_s"):
            print(f"  unscaled {name:15s} {report['raw'][name]:.6g} {END_TO_END[name]}")
    for label, walls in report["shapes"].items():
        print(f"  shape {label:24s} median {statistics.median(walls):.3f} s unscaled over {len(walls)} jobs")
    for failure in report["failures"]:
        print(f"failed job {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
