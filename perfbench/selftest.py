"""Self-test of the benchmark, at the smallest size of every workload.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that
* every workload runs clean and prints each metric BENCHMARK.json names,
  with its unit, traced and untraced;
* the output checks reject a deliberately corrupted document of every
  job kind;
* a job that outlives its timeout is killed and counted as failed;
* the benchmark refuses to run without the package's source tree.

Takes well under a minute. It is not part of the package's test suite.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import run
import workloads

SEED = 7


def _fail(message: str) -> None:
    raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run.run(workload, SEED, 0.0, trace, smoke=True)["result"]
            if not result["correct"] or result["failed"]:
                _fail(f"{workload} (trace {int(trace)}) smoke run failed: {result}")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in listed}:
                _fail(f"{workload} (trace {int(trace)}) prints {sorted(metrics)}")
            for m in listed:
                if metrics[m["name"]]["unit"] != m["unit"]:
                    _fail(f"{workload}: {m['name']} printed in {metrics[m['name']]['unit']}")
            print(f"ok  {workload} trace {int(trace)}: {len(metrics)} metrics with units")


def _corruptions(doc):
    """Copies of a correct document, each wrong in one way."""
    if isinstance(doc, list):
        yield "permanent off by 1e-6", [doc[0] * (1 + 1e-6) + 1e-6, doc[1]]
        return
    bad = copy.deepcopy(doc)
    column = "engine" if "passed" in doc else "probability"
    bad["outcomes"][0][column] += 1e-6
    yield f"{column} off by 1e-6", bad
    if len(doc["outcomes"]) > 1:
        bad = copy.deepcopy(doc)
        bad["outcomes"].pop()
        yield "an outcome missing", bad
    if "passed" in doc:
        bad = copy.deepcopy(doc)
        bad["passed"] = False
        yield "verify not passed", bad


def check_rejections(workdir: str) -> None:
    launch = run.Launcher(run.job_env())
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build(workload, SEED, smoke=True)
            runner = run.Runner(jobs, os.path.join(workdir, workload), launch)
            for i, job in enumerate(jobs):
                output = os.path.join(runner.workdir, "doc.json")
                _, code, _ = launch(runner.argv(i, output, None), runner.workdir, run.JOB_TIMEOUT_S,
                                    os.path.join(runner.workdir, "err.txt"))
                if code != 0:
                    _fail(f"{job.label} exited with {code}")
                with open(output, encoding="utf-8") as fh:
                    doc = json.load(fh)
                job.check(copy.deepcopy(doc))
                for what, bad in _corruptions(doc):
                    try:
                        job.check(bad)
                    except workloads.CheckError:
                        continue
                    _fail(f"{job.label}: check accepted a document with {what}")
                print(f"ok  {job.label}: corrupted documents rejected")
    finally:
        launch.close()


def check_timeout() -> None:
    report = run.run("blind", SEED, 0.0, False, smoke=True, timeout=0.01)
    result = report["result"]
    rate = result["metrics"]["success_rate"]["value"]
    if result["failed"] != result["attempted"] or rate != 0.0 or not result["correct"]:
        _fail(f"forced timeouts were not counted as failures: {result}")
    if not all("timed out" in f for f in report["failures"]):
        _fail(f"unexpected failure reasons: {report['failures']}")
    print(f"ok  forced timeouts: {result['failed']}/{result['attempted']} jobs failed, "
          f"error_rate = {1 - rate:g}")


def check_refusal(workdir: str) -> None:
    bare = os.path.join(workdir, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "blind", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                          capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        _fail(f"ran without a source tree: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok  without src/: exit {done.returncode}, {done.stderr.strip()}")


def main() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(run.ROOT, ".perfbench_selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        check_metrics(spec)
        check_rejections(workdir)
        check_timeout()
        check_refusal(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
