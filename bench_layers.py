"""Before/after benchmark rows for bosonspectra, written as one JSON file.

    python bench_layers.py --base REV --out BENCH_<name>.json [--runs N]

Compares the package at git revision REV, exported with `git archive`
into a temporary directory, with the package in this working tree,
copied beside it, so that both sides' ``PYTHONPATH`` has the same
length. With the working tree's own, shorter path, the unchanged kernel
rows at k >= 14 read 12-15 % faster on the working tree's side in 10 of
10 runs (most likely the environment's size shifting the process's
memory layout); with equal paths they read within 4 %. REV must be
78f2e60 or later: the accuracy child calls
``pairsum._pair_sums(cols, gram, sigs)``, the form it has from there
on. The file holds:

* ``machine``: CPU, core count, Python, numpy, the BLAS numpy was built
  against and ``np.finfo(np.longdouble)``;
* ``trees``: each side's revision and a digest of its package sources;
* ``end_to_end``: one row per fixed config. Each run starts fresh
  ``python -m bosonspectra.cli`` processes per side, the side that goes
  first alternating from run to run, with ``PYTHONDONTWRITEBYTECODE=1``:
  one compiles the package, as a user's first run does, and one reads
  bytecode compiled beforehand (``precompiled``), so that start-up and
  engine read apart. The bytecode is written once per side and row, by
  an untimed run of the same job with ``PYTHONPYCACHEPREFIX`` set to a
  per-side directory under the temporary directory and bytecode writing
  on, so no tree gets a ``__pycache__``; the timed runs read it with the
  same prefix. (A prefix hides every installed ``__pycache__``, numpy's
  too, so it must hold everything a job imports.) A row gives, each
  way, each side's median and quartiles of wall time (spawn to exit)
  and of peak RSS (``ru_maxrss`` from ``os.wait4``) and how many runs
  the working tree's RSS was lower, and whether every run wrote the
  same bytes;
* ``streams``: one row per in-process query stream. Each run starts one
  child process per side, the side that goes first alternating from run
  to run; the child reads the whole stream of ``probability_chunks`` or
  ``verify_chunks`` REPEATS times and reports the best wall time and a
  digest of the totals' bytes. A row gives each side's median and
  quartiles of that best time, how many runs the working tree was faster
  and whether both sides' totals had the same bytes;
* ``kernel``: one row per size k of ``permanent_ryser`` on one random
  complex k x k matrix, k = 8, 10, ..., 22. Each run starts one child
  process per side, the side that goes first alternating from run to
  run; the child times every size REPEATS times in process and reports
  the best wall time and a digest of the result's bytes per size. A row
  gives each side's median and quartiles of that best time, how many
  runs the working tree was faster and whether both sides' results had
  the same bytes;
* ``refusal``: the over-budget blind mixture (six photons, each five
  components alternating two Gaussians, 15625 combinations, on
  ``make_random_unitary(6, 1)``) that ``probability_chunks`` refuses
  with ``CapacityError`` at the call. Each run starts one child process
  per side, alternating, which times one refusal; the row gives each
  side's median and quartiles and whether both sides' messages agree;
* ``accuracy``: one row per family, n, m and Haar seed. Each side's
  child computes every listed signature's ``probability_nonresolved``
  once and, for the signatures ``sampling._costs`` routes to the pair
  sum, their kappa (from ``pairsum._pair_sums``, fed what each side's
  signature asks for). A child of the standard library alone then
  computes each signature's exact value from the double U and G by
  ``tests/exact_reference.probability_nonresolved_eps``. A row gives
  each side's worst and median relative error against those values,
  its worst error over the values the pair sum gave, its worst kappa
  and how many signatures fell back to the split sum;
* ``eigvalsh_fallback``: for the generic and near-identical Gaussian
  families at n = 2..16, the n at which ``orthonormal_decomposition``
  called ``np.linalg.eigvalsh`` and the n it refused.

The configs are generic Gaussian photons (photon j: mu = 0.2 j,
sigma = 1 + 0.05 j, tau = 0.3 j) on ``make_random_unitary(m, 1)``,
written out as an explicit unitary so that no job runs a QR
factorisation; the two n = 5 stream rows and the accuracy rows also use
the near-identical family (mu = 0.05 j, sigma = 1 + 0.01 j,
tau = 0.02 j). In a stream row of n photons, the last few are mixtures:
photon j with weight 0.4 and the family's photon j + n with weight 0.6.
The accuracy rows at n = 5, m = 7 take every signature; those at
n = 6, m = 8 a sample fixed here, before either side runs: every 13th
signature of the sweep and (0, 0, 1, 1, 1, 1, 1, 1).
This process imports only the standard library: Linux carries a
parent's resident size into its child's peak at exec, so a parent
holding numpy would raise every job's reading. numpy runs in child
processes only.
"""

import argparse
import fractions
import hashlib
import io
import itertools
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 120.0

# name -> (subcommand, n, m, detector, query); photons from the generic family.
ROWS = {
    "permanent 1x1": ("permanent", 0, 0, None, None),
    "blind sweep n=4 m=5": ("distribution", 4, 5, "nonresolved", "distribution"),
    "resolved sweep n=4 m=4": ("distribution", 4, 4, "resolved", "distribution"),
    "two-species signature n=8 m=12": ("distribution", 8, 12, "nonresolved", {"signature": [1] * 8 + [0] * 4}),
    "verify n=4 m=4": ("verify", 4, 4, "nonresolved", "distribution"),
}

# Gaussian photon j of a family: mu, sigma - 1 and tau are j times these steps.
FAMILIES = {"generic": (0.2, 0.05, 0.3), "near-identical": (0.05, 0.01, 0.02)}

# name -> (n, m, mixed photons, detector, stream, family); each mixed photon doubles the combinations.
STREAMS = {
    "pure resolved sweep n=4 m=5": (4, 5, 0, "resolved", "probability_chunks", "generic"),
    "pure resolved sweep n=4 m=7": (4, 7, 0, "resolved", "probability_chunks", "generic"),
    "pure blind sweep n=4 m=5": (4, 5, 0, "nonresolved", "probability_chunks", "generic"),
    "pure blind sweep n=5 m=7": (5, 7, 0, "nonresolved", "probability_chunks", "generic"),
    "near-identical blind sweep n=5 m=7": (5, 7, 0, "nonresolved", "probability_chunks", "near-identical"),
    "mixed resolved sweep n=3 m=4, 4 combinations": (3, 4, 2, "resolved", "probability_chunks", "generic"),
    "mixed resolved sweep n=3 m=5, 8 combinations": (3, 5, 3, "resolved", "probability_chunks", "generic"),
    "mixed blind sweep n=4 m=5, 8 combinations": (4, 5, 3, "nonresolved", "probability_chunks", "generic"),
    "mixed verify n=3 m=4, 4 combinations": (3, 4, 2, "nonresolved", "verify_chunks", "generic"),
}
REPEATS = 7

STREAM = """
import hashlib, json, sys, time
from bosonspectra import GaussianWavepacket, MixedPhotonSource, make_random_unitary, probability_chunks, verify_chunks
n, m, mixed, detector, stream, (mu, sigma, tau), repeats = json.loads(sys.argv[1])
g = lambda j: GaussianWavepacket(mu * j, 1.0 + sigma * j, tau * j)
photons = [g(j) if j < n - mixed else MixedPhotonSource(((0.4, g(j)), (0.6, g(j + n)))) for j in range(n)]
u, run = make_random_unitary(m, 1), {"probability_chunks": probability_chunks, "verify_chunks": verify_chunks}[stream]
best = float("inf")
for _ in range(repeats):
    start = time.perf_counter()
    chunks = list(run(u, photons, None, detector))
    best = min(best, time.perf_counter() - start)
digest = hashlib.sha256(b"".join(totals.tobytes() for _, totals in chunks)).hexdigest()[:16]
print(json.dumps({"best_s": best, "outcomes": sum(len(outcomes) for outcomes, _ in chunks), "digest": digest}))
"""

# Sizes of the kernel rows; entry (i, j) of the k x k matrix is complex normal over sqrt(2 k), from seed k.
KERNEL_SIZES = list(range(8, 23, 2))

KERNEL = """
import hashlib, json, sys, time
import numpy as np
from bosonspectra import permanent_ryser
sizes, repeats = json.loads(sys.argv[1])
out = {}
for k in sizes:
    rng = np.random.default_rng(k)
    a = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2 * k)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        value = permanent_ryser(a)
        best = min(best, time.perf_counter() - start)
    out[k] = {"best_s": best, "digest": hashlib.sha256(np.complex128(value).tobytes()).hexdigest()[:16]}
print(json.dumps(out))
"""

REFUSAL = """
import json, time
from bosonspectra import CapacityError, GaussianWavepacket, MixedPhotonSource, make_random_unitary, probability_chunks
a, b = GaussianWavepacket(0.0, 1.0, 0.0), GaussianWavepacket(0.7, 1.2, 0.3)
photon = MixedPhotonSource(tuple((0.2, a if c % 2 == 0 else b) for c in range(5)))
u = make_random_unitary(6, 1)
start = time.perf_counter()
try:
    probability_chunks(u, [photon] * 6, None, "nonresolved")
except CapacityError as exc:
    print(json.dumps({"best_s": time.perf_counter() - start, "message": str(exc)}))
"""

# name -> (family, n, m, Haar seed, "sample" for the fixed sample or None for every signature); see the
# module docstring.
ACCURACY_CASES = {
    **{f"{family} n=5 m=7 seed={seed}": (family, 5, 7, seed, None)
       for family in ("near-identical", "generic") for seed in (1, 2)},
    **{f"{family} n=6 m=8 seed=1, sample": (family, 6, 8, 1, "sample") for family in ("near-identical", "generic")},
}

ACCURACY = """
import json, operator, sys
import numpy as np
from bosonspectra import GaussianWavepacket, gram_matrix, lambda_from_photons, make_random_unitary
from bosonspectra import probability_nonresolved
from bosonspectra import pairsum, sampling
out = []
for (mu, sigma, tau), n, m, seed, sigs in json.loads(sys.stdin.read()):
    photons = [GaussianWavepacket(mu * j, 1.0 + sigma * j, tau * j) for j in range(n)]
    u, lam = make_random_unitary(m, seed), lambda_from_photons(photons)
    sigs = [tuple(sig) for sig in sigs]
    values = [probability_nonresolved(u, lam, None, sig) for sig in sigs]
    routed = [i for i, sig in enumerate(sigs) if operator.lt(*sampling._costs(n, lam.basis_size, sig))]
    kappas = []
    if routed:
        kappas = pairsum._pair_sums(u.matrix[:, :n], lam.gram, np.array([sigs[i] for i in routed]))[1]
    pairs = lambda a: [[z.real, z.imag] for z in a.ravel().tolist()]
    out.append({"values": values, "kappas": [k if k < float("inf") else None for k in kappas],
                "kept": [i for i, k in zip(routed, kappas) if k <= sampling.PAIR_SUM_KAPPA],
                "limit": sampling.PAIR_SUM_KAPPA, "u": pairs(u.matrix[:, :n]), "g": pairs(gram_matrix(photons))})
print(json.dumps(out))
"""

# Standard library only: exact values of the double U[:, T] and G, as "p/q" strings.
EXACT = """
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
import exact_reference as ex
out = []
for u, g, n, m, sigs in json.loads(sys.stdin.read()):
    exact = lambda pairs, cols: [[(Fraction(re), Fraction(im)) for re, im in pairs[r * cols:(r + 1) * cols]]
                                 for r in range(len(pairs) // cols)]
    uu, gg = exact(u, n), exact(g, n)
    out.append([str(ex.probability_nonresolved_eps(uu, gg, tuple(range(1, n + 1)), tuple(sig))) for sig in sigs])
print(json.dumps(out))
"""

MACHINE = """
import json, platform, sys
import numpy as np
blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
ld = np.finfo(np.longdouble)
print(json.dumps({
    "python": sys.version.split()[0], "implementation": platform.python_implementation(),
    "numpy": np.__version__,
    "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    "longdouble": {"dtype": str(ld.dtype), "nmant": int(ld.nmant), "eps": str(ld.eps),
                   "precision": int(ld.precision)},
}))
"""

UNITARIES = """
import json, sys
from bosonspectra import make_random_unitary
print(json.dumps({m: [[[z.real, z.imag] for z in row] for row in make_random_unitary(m, 1).matrix.tolist()]
                  for m in map(int, sys.argv[1:])}))
"""

FALLBACK = """
import json
import numpy as np
from bosonspectra import BosonSpectraError, GaussianWavepacket, lambda_from_photons
families = {
    "generic (mu 0.2j, sigma 1 + 0.05j, tau 0.3j)": (0.2, 0.05, 0.3),
    "near-identical (mu 0.05j, sigma 1 + 0.01j, tau 0.02j)": (0.05, 0.01, 0.02),
}
eigvalsh, calls, out = np.linalg.eigvalsh, [], {}
np.linalg.eigvalsh = lambda a: calls.append(len(a)) or eigvalsh(a)
for name, (mu, sigma, tau) in families.items():
    refused = {}
    calls.clear()
    for n in range(2, 17):
        try:
            lambda_from_photons([GaussianWavepacket(mu * j, 1.0 + sigma * j, tau * j) for j in range(n)])
        except BosonSpectraError as exc:
            refused[n] = type(exc).__name__
    out[name] = {"n": [2, 16], "eigvalsh_at_n": list(calls), "refused": refused}
print(json.dumps(out))
"""


def _python(code: str, tree: str, *args: str, stdin: str | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, input=stdin, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def _signatures(n: int, m: int) -> list[tuple[int, ...]]:
    """Every signature of n photons over m modes, in the engine's sweep order (lexicographic)."""
    return [tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
            for cuts in itertools.combinations_with_replacement(range(n + 1), m - 1)]


def _accuracy(trees: dict) -> list[dict]:
    """The accuracy rows: each side's values and kappas, then exact values of the double U and G."""
    cases = []
    for family, n, m, seed, sample in ACCURACY_CASES.values():
        sigs = _signatures(n, m)
        if sample:
            sigs = sorted(set(sigs[::13]) | {(0, 0) + (1,) * n})
        cases.append((FAMILIES[family], n, m, seed, sigs))
    sides = {side: _python(ACCURACY, tree, stdin=json.dumps(cases)) for side, tree in trees.items()}
    inputs = [(row["u"], row["g"], n, m, sigs) for row, (_, n, m, _, sigs) in zip(sides["head"], cases)]
    same_inputs = all(a["u"] == b["u"] and a["g"] == b["g"] for a, b in zip(sides["base"], sides["head"]))
    exact = _python(EXACT, trees["head"], os.path.join(ROOT, "tests"), stdin=json.dumps(inputs))
    rows = []
    for k, (name, want) in enumerate(zip(ACCURACY_CASES, exact)):
        want = [fractions.Fraction(w) for w in want]
        row = {"row": name, "signatures": len(want), "same_double_inputs": same_inputs}
        for side, results in sides.items():
            result = results[k]
            errors = [float(abs(fractions.Fraction(v) - w) / w) for v, w in zip(result["values"], want)]
            kappas = [math.inf if kappa is None else kappa for kappa in result["kappas"]]
            row[side] = {"worst_rel": max(errors), "median_rel": statistics.median(errors),
                         "worst_rel_pair_sum_kept": max((errors[i] for i in result["kept"]), default=0.0),
                         "worst_kappa": str(max(kappas, default=0.0)),
                         "pair_sum_routed": len(kappas),
                         "kappa_fallbacks": sum(kappa > result["limit"] for kappa in kappas)}
        rows.append(row)
    return rows


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        return platform.processor()


def _digest(tree: str) -> str:
    package = os.path.join(tree, "src", "bosonspectra")
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, check=True).stdout


def _export(rev: str, into: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(into, filter="data")


def _configs(tree: str, workdir: str) -> dict:
    """Each row's CLI arguments after the subcommand, with its input files written to workdir."""
    unitaries = _python(UNITARIES, tree, *sorted({str(m) for _, _, m, _, _ in ROWS.values() if m}))
    args = {}
    for i, (name, (command, n, m, detector, query)) in enumerate(ROWS.items()):
        path = os.path.join(workdir, f"input{i}.json")
        if command == "permanent":
            payload = [[0.5]]
        else:
            # The two-species row alternates the family's first two photons.
            js = [j % 2 for j in range(n)] if name.startswith("two-species") else range(n)
            payload = {
                "network": {"unitary": unitaries[str(m)]},
                "photons": [{"gaussian": {"mu": 0.2 * j, "sigma": 1.0 + 0.05 * j, "tau": 0.3 * j}} for j in js],
                "detector": detector,
                "query": query,
            }
        with open(path, "w") as f:
            json.dump(payload, f)
        args[name] = [command, path] if command == "permanent" else [command, "--config", path]
    return args


def _job(tree: str, args: list[str], output: str, pycache: str | None = None,
         write: bool = False) -> tuple[float, int, str]:
    """(wall seconds, peak RSS in KiB, sha256 of the output) of one CLI process.

    With pycache, the process reads bytecode under that PYTHONPYCACHEPREFIX;
    with write too, it writes there what it compiles, and nowhere else.
    """
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    if pycache:
        env["PYTHONPYCACHEPREFIX"] = pycache
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    if os.path.exists(output):
        os.remove(output)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "bosonspectra.cli", *args, "--output", output], env=env,
                            cwd=os.path.dirname(output), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    pidfd, ready = os.pidfd_open(proc.pid), []
    try:
        ready, _, _ = select.select([pidfd], [], [], TIMEOUT_S)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
        if not ready:
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"{args} in {tree} {'timed out' if not ready else f'exited {proc.returncode}'}")
    with open(output, "rb") as f:
        return wall, usage.ru_maxrss, hashlib.sha256(f.read()).hexdigest()


def _summary(values: list[float], scale: float, digits: int) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {key: round(v * scale, digits) for key, v in (("median", median), ("q1", q1), ("q3", q3))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree with")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--runs", type=int, default=10, help="runs per row and side (default 10)")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be at least 4, for quartiles")

    with tempfile.TemporaryDirectory(prefix="bench_layers_") as scratch:
        base = os.path.join(scratch, "base")
        os.mkdir(base)
        _export(args.base, base)
        head = os.path.join(scratch, "head")
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(head, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees = {"base": base, "head": head}
        machine = {"cpu": _cpu(), "cores": os.cpu_count(), **_python(MACHINE, ROOT)}
        inputs, out = _configs(ROOT, scratch), os.path.join(scratch, "out.json")
        pycache = {side: os.path.join(scratch, f"pycache_{side}") for side in trees}
        for name in ROWS:
            for side, tree in trees.items():
                _job(tree, inputs[name], out, pycache[side], write=True)
        ways = {"source": None, "precompiled": pycache}
        samples = {name: {way: {side: [] for side in trees} for way in ways} for name in ROWS}
        for run in range(args.runs):
            order = ("base", "head") if run % 2 == 0 else ("head", "base")
            for name in ROWS:
                for side in order:
                    for way, prefix in ways.items():
                        samples[name][way][side].append(_job(trees[side], inputs[name], out, prefix and prefix[side]))
        rows = []
        for name, by_way in samples.items():
            row = {"row": name}
            for way, sides in by_way.items():
                rss = {side: [kib for _, kib, _ in runs] for side, runs in sides.items()}
                row[way] = {side: {"wall_s": _summary([w for w, _, _ in runs], 1.0, 4),
                                   "peak_rss_mb": _summary(rss[side], 1 / 1024, 2)} for side, runs in sides.items()}
                row[way]["head_rss_lower_runs"] = sum(h < b for h, b in zip(rss["head"], rss["base"]))
            row["same_document"] = len({digest for sides in by_way.values() for runs in sides.values()
                                        for _, _, digest in runs}) == 1
            rows.append(row)
        streams = {name: {side: [] for side in trees} for name in STREAMS}
        for run in range(args.runs):
            order = ("base", "head") if run % 2 == 0 else ("head", "base")
            for name, spec in STREAMS.items():
                for side in order:
                    *shape, family = spec
                    args_json = json.dumps([*shape, FAMILIES[family], REPEATS])
                    streams[name][side].append(_python(STREAM, trees[side], args_json))
        stream_rows = []
        for name, sides in streams.items():
            best = {side: [result["best_s"] for result in runs] for side, runs in sides.items()}
            row = {"row": name, "outcomes": sides["head"][0]["outcomes"]}
            row.update((side, {"best_s": _summary(values, 1.0, 6)}) for side, values in best.items())
            row["head_faster_runs"] = sum(h < b for h, b in zip(best["head"], best["base"]))
            row["same_totals"] = len({result["digest"] for runs in sides.values() for result in runs}) == 1
            stream_rows.append(row)
        kernel = {side: [] for side in trees}
        for run in range(args.runs):
            for side in ("base", "head") if run % 2 == 0 else ("head", "base"):
                kernel[side].append(_python(KERNEL, trees[side], json.dumps([KERNEL_SIZES, REPEATS])))
        kernel_rows = []
        for k in map(str, KERNEL_SIZES):
            best = {side: [result[k]["best_s"] for result in runs] for side, runs in kernel.items()}
            row = {"row": f"permanent_ryser k={k}", "k": int(k)}
            row.update((side, {"best_s": _summary(values, 1.0, 6)}) for side, values in best.items())
            row["head_faster_runs"] = sum(h < b for h, b in zip(best["head"], best["base"]))
            row["same_result"] = len({result[k]["digest"] for runs in kernel.values() for result in runs}) == 1
            kernel_rows.append(row)
        refusal = {side: [] for side in trees}
        for run in range(args.runs):
            for side in ("base", "head") if run % 2 == 0 else ("head", "base"):
                refusal[side].append(_python(REFUSAL, trees[side]))
        best = {side: [result["best_s"] for result in runs] for side, runs in refusal.items()}
        refusal_row = {"row": "refuse the 15625-combination over-budget blind mixture"}
        refusal_row.update((side, {"best_s": _summary(values, 1.0, 4)}) for side, values in best.items())
        refusal_row["head_faster_runs"] = sum(h < b for h, b in zip(best["head"], best["base"]))
        refusal_row["same_message"] = len({result["message"] for runs in refusal.values() for result in runs}) == 1
        accuracy = _accuracy(trees)
        fallback = {side: _python(FALLBACK, tree) for side, tree in trees.items()}
        result = {
            "machine": machine,
            "trees": {
                "base": {"rev": _git("rev-parse", args.base).decode().strip(), "sources": _digest(base)},
                "head": {"rev": "working tree on " + _git("rev-parse", "HEAD").decode().strip(),
                         "sources": _digest(head)},
            },
            "settings": {"runs": args.runs, "env": {"PYTHONDONTWRITEBYTECODE": "1"}, "order": "alternating",
                         "precompiled": "PYTHONPYCACHEPREFIX per side, written by one untimed run of each row's job",
                         "stream_repeats": REPEATS,
                         "kernel_repeats": REPEATS},
            "end_to_end": rows,
            "streams": stream_rows,
            "kernel": kernel_rows,
            "refusal": refusal_row,
            "accuracy": accuracy,
            "eigvalsh_fallback": fallback,
        }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for row in rows:
        for way in ways:
            base, head = row[way]["base"], row[way]["head"]
            print(f"{row['row']:32} {way:11} peak RSS {base['peak_rss_mb']['median']:6.2f} -> "
                  f"{head['peak_rss_mb']['median']:6.2f} MB "
                  f"({row[way]['head_rss_lower_runs']}/{args.runs} lower), wall {base['wall_s']['median']:.3f} -> "
                  f"{head['wall_s']['median']:.3f} s, same document: {row['same_document']}")
    for row in stream_rows:
        base, head = row["base"]["best_s"], row["head"]["best_s"]
        print(f"{row['row']:48} best {base['median'] * 1e3:8.2f} -> {head['median'] * 1e3:8.2f} ms "
              f"({row['head_faster_runs']}/{args.runs} faster), same totals: {row['same_totals']}")
    for row in kernel_rows:
        base, head = row["base"]["best_s"], row["head"]["best_s"]
        print(f"{row['row']:48} best {base['median'] * 1e3:8.2f} -> {head['median'] * 1e3:8.2f} ms "
              f"({row['head_faster_runs']}/{args.runs} faster), same result: {row['same_result']}")
    base, head = refusal_row["base"]["best_s"], refusal_row["head"]["best_s"]
    print(f"{refusal_row['row']:48} {base['median']:8.3f} -> {head['median']:8.3f} s "
          f"({refusal_row['head_faster_runs']}/{args.runs} faster), same message: {refusal_row['same_message']}")
    for row in accuracy:
        print(f"{row['row']:40} worst/median rel {row['base']['worst_rel']:.1e}/{row['base']['median_rel']:.1e} -> "
              f"{row['head']['worst_rel']:.1e}/{row['head']['median_rel']:.1e}, worst kappa "
              f"{float(row['base']['worst_kappa']):.3g} -> {float(row['head']['worst_kappa']):.3g}, fallbacks "
              f"{row['base']['kappa_fallbacks']} -> {row['head']['kappa_fallbacks']} of {row['signatures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
