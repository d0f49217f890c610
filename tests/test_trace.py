"""The traced CLI path of perfbench/tracer.py, run as the benchmark runs it.

tracer.py wraps every cross-module function binding of the package and
adds up per-layer numbers, among them 2^len(args[0]) for each call into
`permanent`, so an engine change can make a traced job fail or its
summary non-finite while the plain CLI works. These cases run the tracer
in a subprocess with this checkout's src first on PYTHONPATH.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GAUSSIANS = [(0.0, 1.0, 0.0), (0.3, 0.8, 0.9), (-0.4, 1.2, -0.6), (0.2, 1.0, 1.5), (0.5, 0.7, -1.1),
             (-0.2, 0.9, 0.4)]


def experiment(n: int, modes: int, detector: str, query="distribution") -> dict:
    return {
        "network": {"preset": "random", "modes": modes, "seed": 5},
        "photons": [{"gaussian": dict(zip(("mu", "sigma", "tau"), spec))} for spec in GAUSSIANS[:n]],
        "detector": detector,
        "query": query,
    }


def permanent_matrix(k: int) -> list:
    return np.random.default_rng(k).standard_normal((k, k, 2)).tolist()


def _refuse(constant):
    raise ValueError(f"non-finite summary value {constant}")


def two_species(n: int, modes: int) -> dict:
    """Photons of two alternating Gaussian spectra (r = 2), one collision-free signature."""
    cfg = experiment(0, modes, "nonresolved", {"signature": [1] * n + [0] * (modes - n)})
    cfg["photons"] = [{"gaussian": dict(zip(("mu", "sigma", "tau"), GAUSSIANS[j % 2]))} for j in range(n)]
    return cfg


# The blind sweep and the n = 6 signature take the pair sum, whose kernel
# calls the tracer does not see (it wraps only the layers' bindings, and
# pairsum is none): their check is that the photons' basis was built
# (spectra.calls, one per run through mixture_lambdas). The two-species n = 8
# signature's pair sum cancels (kappa 70) and its split sum over 256 splits
# answers; verify runs the Fock oracle beside the engine.
@pytest.mark.parametrize("command,payload,counter", [
    (["distribution", "--config"], experiment(4, 5, "nonresolved"), "spectra.calls"),
    (["distribution", "--config"], experiment(6, 6, "nonresolved", {"signature": [1] * 6}), "spectra.calls"),
    (["distribution", "--config"], two_species(8, 12), "permanent.calls"),
    (["distribution", "--config"], experiment(3, 4, "resolved"), "permanent.calls"),
    (["verify", "--config"], experiment(3, 4, "nonresolved"), "spectra.calls"),
    (["permanent"], permanent_matrix(13), "permanent.calls"),
], ids=["blind sweep", "blind signature n=6", "two-species signature n=8", "resolved sweep", "verify sweep",
        "permanent k=13"])
def test_traced_run_ends_with_a_finite_summary(tmp_path, command, payload, counter):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    summary = tmp_path / "summary.json"
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(summary), *command, str(path),
         "--output", str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    values = json.loads(summary.read_text(), parse_constant=_refuse)
    assert all(isinstance(v, (int, float)) for v in values.values())
    assert values[counter] > 0
