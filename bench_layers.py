"""Before/after benchmark rows for bosonspectra, written as one JSON file.

    python bench_layers.py --base REV --out BENCH_<name>.json [--runs N]

Compares the package at git revision REV, exported with `git archive`
into a temporary directory, with the package in this working tree,
copied beside it. REV must be 78f2e60 or later: the accuracy rows call
``pairsum._pair_sums(cols, gram, sigs)``, the form it has from there
on. End-to-end rows run each tree in fresh processes, with
``PYTHONPATH``s of one length. Every in-process row runs in a paired
child that imports both packages, copied once more as ``bs_base`` and
``bs_head`` (the package imports itself only relatively, and
``__init__`` resolves its submodules through ``__name__``): a tree
timed in a process of its own carries that process's memory layout,
which read the unchanged kernel 10-13 % apart in ``BENCH_40.json``.
The A/A run ``BENCH_41.json`` (the same engine code on both sides, 10
runs) read every timed row's median head/base ratio within 0.986-1.006,
so a row does not resolve a change below about 2 %. One run's ratio
strays further: the quartiles read within 0.967-1.022, except for the
resolved n = 4 streams (0.960 and 0.874 at q1, 1.056 at q3), whose best
times' quartiles lay up to 47 % apart. The file holds:

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
  same bytes. Judge peak RSS on the ``precompiled`` rows: a ``source``
  row also measures the compiler's heap, and in ``BENCH_41.json`` the
  ``source`` rows moved 0.2-0.4 MB on a change to ``cli.py`` alone,
  while the ``precompiled`` rows read equal;
* ``streams``: one row per in-process query stream, the whole stream of
  ``probability_chunks`` or ``verify_chunks``;
* ``queries``: one row per family, every signature of n = 5, m = 7
  asked by its own ``probability_nonresolved`` call, all on one lambda
  that each timed call builds first, so that no repeat finds answers
  cached on the lambda of an earlier one;
* ``kernel``: one row per size k of ``permanent_ryser`` on one random
  complex k x k matrix, k = 8, 10, ..., 22;
* ``refusal``: the over-budget blind mixture (six photons, each five
  components alternating two Gaussians, 15625 combinations, on
  ``make_random_unitary(6, 1)``) that ``probability_chunks`` refuses
  with ``CapacityError`` at the call;
* ``accuracy``: one row per family, n, m and Haar seed. One paired child
  computes, once per side, every listed signature's
  ``probability_nonresolved`` and, for the signatures
  ``sampling._costs`` routes to the pair sum, their kappa (from
  ``pairsum._pair_sums``, fed what each side's signature asks for). A
  child of the standard library alone then computes each signature's
  exact value from the double U and G by
  ``tests/exact_reference.probability_nonresolved_eps``. A row gives
  each side's worst and median relative error against those values,
  its worst error over the values the pair sum gave, its worst kappa
  and how many signatures fell back to the split sum;
* ``eigvalsh_fallback``: for the generic and near-identical Gaussian
  families at n = 2..16, the n at which ``orthonormal_decomposition``
  called ``np.linalg.eigvalsh`` and the n it refused, counted per side
  in one paired child.

In each run's paired child, a stream, query, kernel or refusal row
calls each side REPEATS times, alternating sides call by call (which
side goes first alternates from run to run), and keeps each side's best
wall time and a digest of its result (the refusal's message). A row
gives each side's median and quartiles of that best time, those of each
run's ratio head/base, how many runs the working tree was faster and
whether every result had the same bytes.

The configs are generic Gaussian photons (photon j: mu = 0.2 j,
sigma = 1 + 0.05 j, tau = 0.3 j) on ``make_random_unitary(m, 1)``,
written out as an explicit unitary so that no job runs a QR
factorisation; one n = 5 stream row, one query row and the accuracy
rows also use the near-identical family (mu = 0.05 j,
sigma = 1 + 0.01 j, tau = 0.02 j). A two-species row, end-to-end or
stream, alternates the family's first two photons; the identical stream
row repeats its first (r = 1, so every blind signature takes the split
sum, one split per signature). In a stream row of
n photons, the last few are mixtures: photon j with weight 0.4 and the
family's photon j + n with weight 0.6.
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
    "two-species blind sweep n=5 m=7": (5, 7, 0, "nonresolved", "probability_chunks", "generic"),
    "identical blind sweep n=5 m=7": (5, 7, 0, "nonresolved", "probability_chunks", "generic"),
}
# name -> (n, m, family): every signature asked by its own probability_nonresolved call, on one lambda per call.
QUERIES = {f"{family} signatures n=5 m=7, one query each": (5, 7, family) for family in ("generic", "near-identical")}
REPEATS = 7

# Sizes of the kernel rows; entry (i, j) of the k x k matrix is complex normal over sqrt(2 k), from seed k.
KERNEL_SIZES = list(range(8, 23, 2))

REFUSAL_ROW = "refuse the 15625-combination over-budget blind mixture"

# name -> (family, n, m, Haar seed, "sample" for the fixed sample or None for every signature); see the
# module docstring.
ACCURACY_CASES = {
    **{f"{family} n=5 m=7 seed={seed}": (family, 5, 7, seed, None)
       for family in ("near-identical", "generic") for seed in (1, 2)},
    **{f"{family} n=6 m=8 seed=1, sample": (family, 6, 8, 1, "sample") for family in ("near-identical", "generic")},
}

# Imports bs_base and bs_head from its PYTHONPATH. Each task on stdin, name -> [kind, *args], makes a (call,
# describe) pair per side. Each side is called `repeats` times, alternating, base first when run + repeat is
# even; per side the child reports the best wall time of a call and what describe makes of its last result.
PAIRED = """
import hashlib, importlib, json, operator, sys, time
import numpy as np

def gaussian(bs, family, j):
    mu, sigma, tau = family
    return bs.GaussianWavepacket(mu * j, 1.0 + sigma * j, tau * j)

def stream(bs, js, m, mixed, detector, stream, family):
    n, g = len(js), lambda j: gaussian(bs, family, j)
    photons = [g(j) if k < n - mixed else bs.MixedPhotonSource(((0.4, g(j)), (0.6, g(j + n))))
               for k, j in enumerate(js)]
    u, run = bs.make_random_unitary(m, 1), getattr(bs, stream)
    return lambda: list(run(u, photons, None, detector)), lambda chunks: {
        "outcomes": sum(len(outcomes) for outcomes, _ in chunks),
        "digest": hashlib.sha256(b"".join(totals.tobytes() for _, totals in chunks)).hexdigest()[:16]}

def queries(bs, n, m, family, sigs):
    photons, u = [gaussian(bs, family, j) for j in range(n)], bs.make_random_unitary(m, 1)
    sigs = [tuple(sig) for sig in sigs]
    def call():
        lam = bs.lambda_from_photons(photons)
        return [bs.probability_nonresolved(u, lam, None, sig) for sig in sigs]
    return call, lambda values: {"outcomes": len(values),
                                 "digest": hashlib.sha256(np.array(values).tobytes()).hexdigest()[:16]}

def kernel(bs, k):
    rng = np.random.default_rng(k)
    a = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2 * k)
    return lambda: bs.permanent_ryser(a), lambda value: {
        "digest": hashlib.sha256(np.complex128(value).tobytes()).hexdigest()[:16]}

def refusal(bs):
    a, b = bs.GaussianWavepacket(0.0, 1.0, 0.0), bs.GaussianWavepacket(0.7, 1.2, 0.3)
    photon = bs.MixedPhotonSource(tuple((0.2, a if c % 2 == 0 else b) for c in range(5)))
    u = bs.make_random_unitary(6, 1)
    def call():
        try:
            bs.probability_chunks(u, [photon] * 6, None, "nonresolved")
        except bs.CapacityError as exc:
            return str(exc)
    return call, lambda message: {"digest": message}

def accuracy(bs, cases):
    pairsum, sampling = (importlib.import_module(f"{bs.__name__}.{name}") for name in ("pairsum", "sampling"))
    pairs = lambda a: [[z.real, z.imag] for z in a.ravel().tolist()]
    def call():
        out = []
        for family, n, m, seed, sigs in cases:
            photons = [gaussian(bs, family, j) for j in range(n)]
            u, lam = bs.make_random_unitary(m, seed), bs.lambda_from_photons(photons)
            sigs = [tuple(sig) for sig in sigs]
            values = [bs.probability_nonresolved(u, lam, None, sig) for sig in sigs]
            routed = [i for i, sig in enumerate(sigs) if operator.lt(*sampling._costs(n, lam.basis_size, sig))]
            kappas = []
            if routed:
                kappas = pairsum._pair_sums(u.matrix[:, :n], lam.gram, np.array([sigs[i] for i in routed]))[1]
            out.append({"values": values, "kappas": [k if k < float("inf") else None for k in kappas],
                        "kept": [i for i, k in zip(routed, kappas) if k <= sampling.PAIR_SUM_KAPPA],
                        "limit": sampling.PAIR_SUM_KAPPA, "u": pairs(u.matrix[:, :n]),
                        "g": pairs(bs.gram_matrix(photons))})
        return out
    return call, lambda rows: {"rows": rows}

def fallback(bs, families):
    def call():
        eigvalsh, calls, out = np.linalg.eigvalsh, [], {}
        np.linalg.eigvalsh = lambda a: calls.append(len(a)) or eigvalsh(a)
        try:
            for name, family in families.items():
                refused = {}
                calls.clear()
                for n in range(2, 17):
                    try:
                        bs.lambda_from_photons([gaussian(bs, family, j) for j in range(n)])
                    except bs.BosonSpectraError as exc:
                        refused[n] = type(exc).__name__
                out[name] = {"n": [2, 16], "eigvalsh_at_n": list(calls), "refused": refused}
        finally:
            np.linalg.eigvalsh = eigvalsh
        return out
    return call, lambda families: {"families": families}

sides = {side: importlib.import_module(f"bs_{side}") for side in ("base", "head")}
tasks, repeats, run = json.loads(sys.stdin.read())
out = {}
for name, (kind, *args) in tasks.items():
    calls = {side: globals()[kind](bs, *args) for side, bs in sides.items()}
    best, last = dict.fromkeys(sides, float("inf")), {}
    for repeat in range(repeats):
        for side in ("base", "head") if (run + repeat) % 2 == 0 else ("head", "base"):
            start = time.perf_counter()
            last[side] = calls[side][0]()
            best[side] = min(best[side], time.perf_counter() - start)
    out[name] = {side: {"best_s": best[side], **calls[side][1](last[side])} for side in sides}
print(json.dumps(out))
"""

# Standard library only: exact values of the double U[:, T] and G, as "p/q" strings.
EXACT = """
import json, sys
from fractions import Fraction
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


def _python(code: str, path: str, *args: str, stdin: str | None = None) -> dict:
    """The JSON that code prints, run with path as PYTHONPATH; a failing child raises with its stderr's tail."""
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, input=stdin, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"child process exited {done.returncode}; its stderr ends:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout)


def _pair(trees: dict, into: str) -> None:
    """Copy each side's package into `into` as bs_<side>, for the paired child."""
    for side, tree in trees.items():
        shutil.copytree(os.path.join(tree, "src", "bosonspectra"), os.path.join(into, f"bs_{side}"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def _paired(paired: str, tasks: dict, repeats: int, run: int) -> dict:
    """One paired child's results, name -> side -> best_s and description; see PAIRED."""
    return _python(PAIRED, paired, stdin=json.dumps([tasks, repeats, run]))


def _timed_row(runs: list[dict], name: str, same: str, **fields) -> dict:
    """One row of the paired children's runs: best times, head/base ratios, head wins and same bytes."""
    best = {side: [result[name][side]["best_s"] for result in runs] for side in ("base", "head")}
    ratios = [h / b for h, b in zip(best["head"], best["base"])]
    row = {"row": name, **fields}
    row.update((side, {"best_s": _summary(values, 1.0, 6)}) for side, values in best.items())
    row["head_base_ratio"] = _summary(ratios, 1.0, 4)
    row["head_faster_runs"] = sum(ratio < 1.0 for ratio in ratios)
    row[same] = len({result[name][side]["digest"] for result in runs for side in best}) == 1
    return row


def _species(name: str, n: int) -> list[int]:
    """Each photon's index in its family: a two-species row alternates its first two photons, an identical row repeats
    its first."""
    if name.startswith("identical"):
        return [0] * n
    return [j % 2 for j in range(n)] if name.startswith("two-species") else list(range(n))


def _signatures(n: int, m: int) -> list[tuple[int, ...]]:
    """Every signature of n photons over m modes, in the engine's sweep order (lexicographic)."""
    return [tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
            for cuts in itertools.combinations_with_replacement(range(n + 1), m - 1)]


def _accuracy(paired: str) -> list[dict]:
    """The accuracy rows: each side's values and kappas against exact values of the double U and G."""
    cases = []
    for family, n, m, seed, sample in ACCURACY_CASES.values():
        sigs = _signatures(n, m)
        if sample:
            sigs = sorted(set(sigs[::13]) | {(0, 0) + (1,) * n})
        cases.append((FAMILIES[family], n, m, seed, sigs))
    once = _paired(paired, {"accuracy": ["accuracy", cases]}, 1, 0)["accuracy"]
    sides = {side: result["rows"] for side, result in once.items()}
    inputs = [(row["u"], row["g"], n, m, sigs) for row, (_, n, m, _, sigs) in zip(sides["head"], cases)]
    same_inputs = all(a["u"] == b["u"] and a["g"] == b["g"] for a, b in zip(sides["base"], sides["head"]))
    exact = _python(EXACT, os.path.join(ROOT, "tests"), stdin=json.dumps(inputs))
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


def _configs(workdir: str) -> dict:
    """Each row's CLI arguments after the subcommand, with its input files written to workdir."""
    unitaries = _python(UNITARIES, os.path.join(ROOT, "src"), *sorted({str(m) for _, _, m, _, _ in ROWS.values() if m}))
    args = {}
    for i, (name, (command, n, m, detector, query)) in enumerate(ROWS.items()):
        path = os.path.join(workdir, f"input{i}.json")
        if command == "permanent":
            payload = [[0.5]]
        else:
            payload = {
                "network": {"unitary": unitaries[str(m)]},
                "photons": [{"gaussian": {"mu": 0.2 * j, "sigma": 1.0 + 0.05 * j, "tau": 0.3 * j}}
                            for j in _species(name, n)],
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
        paired = os.path.join(scratch, "paired")
        _pair(trees, paired)
        machine = {"cpu": _cpu(), "cores": os.cpu_count(), **_python(MACHINE, "")}
        inputs, out = _configs(scratch), os.path.join(scratch, "out.json")
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
        tasks = {name: ["stream", _species(name, n), *shape, FAMILIES[family]]
                 for name, (n, *shape, family) in STREAMS.items()}
        tasks.update((name, ["queries", n, m, FAMILIES[family], _signatures(n, m)])
                     for name, (n, m, family) in QUERIES.items())
        tasks.update((f"permanent_ryser k={k}", ["kernel", k]) for k in KERNEL_SIZES)
        tasks[REFUSAL_ROW] = ["refusal"]
        timed = [_paired(paired, tasks, REPEATS, run) for run in range(args.runs)]
        stream_rows, query_rows = ([_timed_row(timed, name, "same_totals", outcomes=timed[0][name]["head"]["outcomes"])
                                    for name in names] for names in (STREAMS, QUERIES))
        kernel_rows = [_timed_row(timed, f"permanent_ryser k={k}", "same_result", k=k) for k in KERNEL_SIZES]
        refusal_row = _timed_row(timed, REFUSAL_ROW, "same_message")
        accuracy = _accuracy(paired)
        families = {f"{name} (mu {mu}j, sigma 1 + {sigma}j, tau {tau}j)": (mu, sigma, tau)
                    for name, (mu, sigma, tau) in FAMILIES.items()}
        fallback = _paired(paired, {"fallback": ["fallback", families]}, 1, 0)["fallback"]
        result = {
            "machine": machine,
            "trees": {
                "base": {"rev": _git("rev-parse", args.base).decode().strip(), "sources": _digest(base)},
                "head": {"rev": "working tree on " + _git("rev-parse", "HEAD").decode().strip(),
                         "sources": _digest(head)},
            },
            "settings": {"runs": args.runs, "env": {"PYTHONDONTWRITEBYTECODE": "1"}, "order": "alternating",
                         "precompiled": "PYTHONPYCACHEPREFIX per side, written by one untimed run of each row's job",
                         "in_process": "one paired child per run, sides alternating call by call",
                         "repeats": REPEATS},
            "end_to_end": rows,
            "streams": stream_rows,
            "queries": query_rows,
            "kernel": kernel_rows,
            "refusal": refusal_row,
            "accuracy": accuracy,
            "eigvalsh_fallback": {side: result["families"] for side, result in fallback.items()},
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
    for row in [*stream_rows, *query_rows, *kernel_rows, refusal_row]:
        base, head = row["base"]["best_s"], row["head"]["best_s"]
        same = ", ".join(f"{key}: {value}" for key, value in row.items() if key.startswith("same_"))
        print(f"{row['row']:55} best {base['median'] * 1e3:8.2f} -> {head['median'] * 1e3:8.2f} ms, head/base "
              f"{row['head_base_ratio']['median']:.3f} ({row['head_faster_runs']}/{args.runs} faster), {same}")
    for row in accuracy:
        print(f"{row['row']:40} worst/median rel {row['base']['worst_rel']:.1e}/{row['base']['median_rel']:.1e} -> "
              f"{row['head']['worst_rel']:.1e}/{row['head']['median_rel']:.1e}, worst kappa "
              f"{float(row['base']['worst_kappa']):.3g} -> {float(row['head']['worst_kappa']):.3g}, fallbacks "
              f"{row['base']['kappa_fallbacks']} -> {row['head']['kappa_fallbacks']} of {row['signatures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
