import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bosonspectra.sampling
from bosonspectra import (
    CapacityError,
    GaussianWavepacket,
    LambdaMatrix,
    MixedPhotonSource,
    distribution_nonresolved,
    distribution_resolved,
    fock_evolve,
    lambda_from_photons,
    make_beamsplitter_50_50,
    make_dft,
    make_random_unitary,
    mixture_lambdas,
    oracle_probability,
    probability_chunks,
    probability_indistinguishable_fast,
    probability_mixed,
    probability_nonresolved,
    verify_against_oracle,
    verify_chunks,
)
from bosonspectra.sampling import DISTRIBUTION_OUTCOME_CAP, STACK_SIZE, mixture_lambdas
from bosonspectra.cli import (
    EXIT_CAPACITY_ERROR,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILURE,
    _metadata,
    _run_distribution,
    _run_hom_scan,
    _run_permanent,
    _run_verify,
    _usage,
    load_config,
    main,
)
from bosonspectra.document import (
    _outcome_column,
    _repr_column,
    _rows_text,
    _sig15,
    _sig15_column,
    _write_document,
)
from conftest import SIG15_EDGES, SPECIAL_FLOATS, hom_lambda


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main(argv + ["--output", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def hom_config(alpha, **overrides):
    beta = math.sqrt(max(1.0 - alpha**2, 0.0))
    cfg = {
        "network": {"preset": "beamsplitter"},
        "photons": [
            {"coefficients": [[1.0, 0.0], [0.0, 0.0]]},
            {"coefficients": [[alpha, 0.0], [beta, 0.0]]},
        ],
        "detector": "nonresolved",
        "query": "distribution",
    }
    cfg.update(overrides)
    return cfg


GAUSSIANS = [(0.0, 1.0, 0.0), (0.3, 0.8, 0.9), (-0.4, 1.2, -0.6), (0.2, 1.0, 1.5), (0.5, 0.7, -1.1)]


GENERIC = [{"gaussian": {"mu": 0.2 * j, "sigma": 1.0 + 0.05 * j, "tau": 0.3 * j}} for j in range(31)]
SIX_GAUSSIANS = [{"gaussian": {"mu": 0.1 * k, "sigma": 1.0 + 0.1 * k, "tau": 0.3 * k}} for k in range(6)]


def mixed_experiment():
    """Three photons on a random 4-mode network, two of them 2-component mixtures.

    Returns the config and the same photons as library objects.
    """
    g = [GaussianWavepacket(*spec) for spec in GAUSSIANS]
    photons = [
        g[0],
        MixedPhotonSource(((0.3, g[1]), (0.7, g[2]))),
        MixedPhotonSource(((0.6, g[3]), (0.4, g[4]))),
    ]

    def gaussian(spec):
        return {"gaussian": {"mu": spec.mu, "sigma": spec.sigma, "tau": spec.tau}}

    config = {
        "network": {"preset": "random", "modes": 4, "seed": 9},
        "photons": [
            gaussian(g[0]),
            {"mixture": [{"probability": 0.3, **gaussian(g[1])},
                         {"probability": 0.7, **gaussian(g[2])}]},
            {"mixture": [{"probability": 0.6, **gaussian(g[3])},
                         {"probability": 0.4, **gaussian(g[4])}]},
        ],
    }
    return config, make_random_unitary(4, 9), photons


def weighted_states(u, photons):
    """(weight, Fock state) for every mixture combination, the oracle side of verify."""
    return [(w, fock_evolve(u, lam)) for w, lam in mixture_lambdas(photons, "nonresolved")]


class TestDistribution:
    @pytest.mark.parametrize("command,detector", [("distribution", "resolved"), ("verify", "nonresolved")])
    def test_engine_jobs_need_no_eigensolver(self, tmp_path, monkeypatch, command, detector):
        # The Cholesky factor certifies these Gram matrices positive
        # semidefinite on its own, so np.linalg.eigvalsh never runs.
        def no_eigensolver(a):
            raise AssertionError("np.linalg.eigvalsh was called")

        psi = [{"gaussian": {"mu": 0.2 * j, "sigma": 1.0 + 0.05 * j, "tau": 0.3 * j}} for j in range(4)]
        photons = psi[:3] if command == "distribution" else [
            {"mixture": [{"probability": 0.3, **psi[0]}, {"probability": 0.7, **psi[3]}]}, psi[1], psi[2]]
        cfg = write_json(tmp_path / "cfg.json", {"network": {"preset": "random", "modes": 4, "seed": 1},
                                                 "photons": photons, "detector": detector})
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
        code, doc = run(tmp_path, [command, "--config", cfg])
        assert code == EXIT_OK and doc["outcomes"]

    def test_hom_alpha_one_three_outcomes(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(1.0))
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        probs = {tuple(o["outcome"]): o["probability"] for o in doc["outcomes"]}
        assert len(probs) == 3
        assert probs[(1, 1)] == pytest.approx(0.0, abs=1e-15)
        assert probs[(2, 0)] == pytest.approx(0.5)
        assert probs[(0, 2)] == pytest.approx(0.5)
        assert doc["sum"] == pytest.approx(1.0, abs=1e-9)

    def test_single_photon_on_beamsplitter(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "beamsplitter"},
            "photons": [{"coefficients": [[1.0, 0.0]]}],
        })
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        probs = {tuple(o["outcome"]): o["probability"] for o in doc["outcomes"]}
        assert probs[(1, 0)] == pytest.approx(0.5)
        assert probs[(0, 1)] == pytest.approx(0.5)

    def test_config_defaults_materialized_in_echo(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "random", "modes": 3},
            "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}],
        })
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        echo = doc["config"]
        assert echo["input_modes"] == [1]
        assert echo["detector"] == "nonresolved"
        assert echo["query"] == "distribution"
        assert echo["network"]["seed"] == 0
        assert echo["photons"][0]["gaussian"]["tau"] == 0.0
        assert "eps" not in echo
        assert set(doc["metadata"]) == {"engine", "mixture_terms"}
        assert doc["metadata"]["mixture_terms"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "random", "modes": 4, "seed": 9},
            "photons": [
                {"gaussian": {"mu": 0.0, "sigma": 1.0}},
                {"gaussian": {"mu": 0.5, "sigma": 1.2, "tau": 0.3}},
            ],
        })
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["distribution", "--config", cfg, "--output", str(out1)]) == EXIT_OK
        assert main(["distribution", "--config", cfg, "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_signature_query(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, query={"signature": [1, 1]}))
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        assert len(doc["outcomes"]) == 1
        assert doc["outcomes"][0]["probability"] == pytest.approx(0.375)

    def test_signature_query_on_65_modes(self, tmp_path):
        gaussian = {"gaussian": {"mu": 0.0, "sigma": 1.0, "tau": 0.0}}
        sig = [1, 1] + [0] * 63
        cfg = write_json(tmp_path / "cfg.json", {"network": {"preset": "dft", "modes": 65},
                                                 "photons": [gaussian, gaussian], "query": {"signature": sig}})
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        expected = probability_indistinguishable_fast(make_dft(65), sig, sig)
        assert doc["outcomes"][0]["probability"] == pytest.approx(expected, rel=1e-12)

    def test_resolved_query(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(
            0.5, detector="resolved", query={"resolved": [[1, 1], [0, 0]]}))
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        assert doc["outcomes"][0]["probability"] == 0.0

    def test_resolved_distribution(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, detector="resolved"))
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        probs = {tuple(tuple(part) for part in o["outcome"]): o["probability"]
                 for o in doc["outcomes"]}
        assert probs[((1, 1), (0, 0))] == 0.0
        assert doc["sum"] == pytest.approx(1.0, abs=1e-9)

    def test_mixed_resolved_sweep_equals_weighted_oracle(self, tmp_path):
        config, u, photons = mixed_experiment()
        cfg = write_json(tmp_path / "c.json", {**config, "detector": "resolved"})
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        # GAUSSIANS lists the components in photon order, then component order.
        common = lambda_from_photons([GaussianWavepacket(*spec) for spec in GAUSSIANS]).matrix
        states = [(w1 * w2, fock_evolve(u, LambdaMatrix(common[[0, a, b]])))
                  for w1, a in ((0.3, 1), (0.7, 2)) for w2, b in ((0.6, 3), (0.4, 4))]
        assert common.shape == (5, 5)
        assert len(doc["outcomes"]) == math.comb(4 * 5 + 3 - 1, 3)
        for row in doc["outcomes"]:
            oracle = sum(w * oracle_probability(state, row["outcome"], "resolved") for w, state in states)
            assert row["probability"] == pytest.approx(oracle, abs=1e-12)

    def test_mixed_resolved_marginal_equals_blind_sweep(self, tmp_path):
        config, _, _ = mixed_experiment()
        _, resolved = run(tmp_path, ["distribution", "--config",
                                     write_json(tmp_path / "r.json", {**config, "detector": "resolved"})])
        _, blind = run(tmp_path, ["distribution", "--config", write_json(tmp_path / "b.json", config)])
        marginal = {}
        for row in resolved["outcomes"]:
            sig = tuple(map(sum, zip(*row["outcome"])))
            marginal[sig] = marginal.get(sig, 0.0) + row["probability"]
        assert len(marginal) == len(blind["outcomes"])
        for row in blind["outcomes"]:
            assert marginal[tuple(row["outcome"])] == pytest.approx(row["probability"], abs=1e-12)

    def test_mixed_resolved_query_needs_common_basis_parts(self, tmp_path):
        config, u, photons = mixed_experiment()
        outcome = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
        cfg = write_json(tmp_path / "c.json", {**config, "detector": "resolved",
                                               "query": {"resolved": outcome}})
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        assert doc["outcomes"][0]["probability"] == _sig15(
            probability_mixed(u, photons, None, outcome, "resolved"))
        short = write_json(tmp_path / "s.json", {**config, "detector": "resolved",
                                                 "query": {"resolved": outcome[:2]}})
        assert main(["distribution", "--config", short]) == EXIT_INPUT_ERROR

    def test_readme_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        cfg = tmp_path / "readme.json"
        cfg.write_text(block)
        code, doc = run(tmp_path, ["distribution", "--config", str(cfg)])
        assert code == EXIT_OK
        assert doc["sum"] == pytest.approx(1.0, abs=1e-9)

    def test_mixed_photon_distribution(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "beamsplitter"},
            "photons": [
                {"coefficients": [[1.0, 0.0], [0.0, 0.0]]},
                {"mixture": [
                    {"probability": 0.5, "coefficients": [[1.0, 0.0], [0.0, 0.0]]},
                    {"probability": 0.5, "coefficients": [[0.0, 0.0], [1.0, 0.0]]},
                ]},
            ],
        })
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        probs = {tuple(o["outcome"]): o["probability"] for o in doc["outcomes"]}
        assert probs[(1, 1)] == pytest.approx(0.25)
        assert doc["metadata"]["mixture_terms"] == 2
        assert doc["sum"] == pytest.approx(1.0, abs=1e-9)

    def test_mixed_sweep_equals_probability_mixed(self, tmp_path):
        config, u, photons = mixed_experiment()
        code, doc = run(tmp_path, ["distribution", "--config", write_json(tmp_path / "c.json", config)])
        assert code == EXIT_OK
        assert len(doc["outcomes"]) == 20  # C(3+4-1, 3) signatures
        for row in doc["outcomes"]:
            assert row["probability"] == _sig15(probability_mixed(u, photons, None, row["outcome"]))


class TestErrors:
    def test_invalid_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["distribution", "--config", str(bad)]) == EXIT_INPUT_ERROR

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["distribution", "--config", str(tmp_path / "nope.json")]) == EXIT_INPUT_ERROR

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, typo=1))
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_eps_flag_and_key_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5))
        for command in ("distribution", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", cfg, "--eps", "0.7"])
            assert exc.value.code == EXIT_INPUT_ERROR
        cfg = write_json(tmp_path / "eps.json", hom_config(0.5, eps=0.0))
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_inconsistent_query_detector_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json",
                         hom_config(0.5, query={"resolved": [[1, 1], [0, 0]]}))
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_nonunitary_matrix_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"unitary": [[1.0, 1.0], [0.0, 1.0]]},
            "photons": [{"coefficients": [[1.0, 0.0]]}],
        })
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_too_many_photons_for_default_inputs_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "beamsplitter"},
            "photons": [{"coefficients": [[1.0, 0.0]]}] * 3,
        })
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("case", ["31 distinct photons", "16 generic photons", "65 photons of two species",
                                      "mixture"])
    def test_work_over_the_budget_exits_3_before_any_output(self, tmp_path, monkeypatch, capsys, case):
        species = [{"gaussian": {"mu": 0.0, "sigma": 1.0, "tau": 0.0}},
                   {"gaussian": {"mu": 0.3, "sigma": 0.8, "tau": 0.9}}]
        n, photons = {
            "31 distinct photons": (31, GENERIC[:31]),
            "16 generic photons": (16, GENERIC[:16]),
            "65 photons of two species": (65, [species[j % 2] for j in range(65)]),
        }.get(case, (2, None))
        if photons is None:
            # Two combinations of 4 and 8 multiply-adds under a budget of 11.
            monkeypatch.setattr(bosonspectra.sampling, "_WORK_BUDGET", 11)
            far = {"probability": 0.5, "gaussian": {"mu": 40.0, "sigma": 1.0, "tau": 0.0}}
            photons = [species[0], {"mixture": [{"probability": 0.5, **species[0]}, far]}]
        cfg = write_json(tmp_path / "cfg.json", {"network": {"preset": "dft", "modes": n}, "photons": photons,
                                                 "query": {"signature": [1] * n}})
        assert main(["distribution", "--config", cfg]) == EXIT_CAPACITY_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the query's") and captured.err.count("\n") == 1
        assert "exceed the work budget" in captured.err

    def test_verify_mixture_over_the_budget_exits_3_before_any_expansion(self, tmp_path, monkeypatch, capsys):
        # Two combinations of 4 and 8 multiply-adds under a budget of 11, as
        # distribution's "mixture" case above: refused before any Fock expansion.
        def no_expansion(*args):
            raise AssertionError("fock_evolve ran before the work budget was checked")

        monkeypatch.setattr(bosonspectra.sampling, "_WORK_BUDGET", 11)
        monkeypatch.setattr(bosonspectra.oracle, "fock_evolve", no_expansion)
        psi = {"gaussian": {"mu": 0.0, "sigma": 1.0, "tau": 0.0}}
        far = {"probability": 0.5, "gaussian": {"mu": 40.0, "sigma": 1.0, "tau": 0.0}}
        photons = [psi, {"mixture": [{"probability": 0.5, **psi}, far]}]
        cfg = write_json(tmp_path / "cfg.json", {"network": {"preset": "dft", "modes": 2}, "photons": photons,
                                                 "query": {"signature": [1, 1]}})
        assert main(["verify", "--config", cfg]) == EXIT_CAPACITY_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the query's 12 multiply-adds exceed the work budget")

    def test_ill_conditioned_gram_exits_3(self, tmp_path, capsys):
        # 16 slowly varying Gaussians: the decomposition, not the input,
        # loses unit norm, first on photon 15.
        photons = [{"gaussian": {"mu": 0.05 * j, "sigma": 1.0 + 0.01 * j, "tau": 0.02 * j}} for j in range(16)]
        cfg = write_json(tmp_path / "cfg.json", {"network": {"preset": "dft", "modes": 16}, "photons": photons})
        assert main(["distribution", "--config", cfg]) == EXIT_CAPACITY_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the Gram matrix is too ill-conditioned")
        assert "photon 15's row" in captured.err

    @pytest.mark.parametrize("command", ["distribution", "verify"])
    def test_cancelled_gram_is_not_psd_and_exits_2(self, tmp_path, capsys, command):
        # Centres near 1e8 cancel the closed-form overlaps to |G01| = e: an
        # input error, caught by the PSD check before the factor's row norms.
        photons = [{"gaussian": {"mu": 1e8 + d, "sigma": 1.0}} for d in (0.0, 0.3, 0.6)]
        cfg = write_json(tmp_path / "cfg.json", {"network": {"preset": "dft", "modes": 3}, "photons": photons})
        assert main([command, "--config", cfg]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Gram matrix is not positive semidefinite (min eigenvalue")


class TestArgv:
    """The argv grammar: a subcommand, then --opt value or --opt=value, with MATRIX anywhere after permanent."""

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["distribution", "-h"], ["permanent", "--help"],
                                      ["hom-scan", "--output", "x.json", "-h"]])
    def test_help_prints_usage_to_stdout_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("usage: bosonspectra ") and err == ""

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["--config", "c.json"],
        ["distribution"], ["verify", "--output", "o.json"], ["permanent"], ["permanent", "--output", "o.json"],
        ["distribution", "--config"], ["hom-scan", "--alpha-grid"], ["distribution", "--config", "--output", "o.json"],
        ["distribution", "--config", "c.json", "--seed", "1.5"], ["verify", "--config", "c.json", "--seed=x"],
        ["distribution", "--conf", "c.json"], ["hom-scan", "--seed", "1"], ["hom-scan", "0:1:3"],
        ["permanent", "m.json", "extra.json"],
    ])
    def test_usage_errors_exit_2_with_usage_on_stderr(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: bosonspectra ")
        *usage, error = err.splitlines()
        assert error.startswith("bosonspectra") and ": error: " in error
        assert not any("error:" in line for line in usage)

    def test_equals_form_writes_the_same_document(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, network={"preset": "random", "modes": 2}))
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(["distribution", "--config", cfg, "--seed", "3", "--output", str(spaced)]) == EXIT_OK
        assert main(["distribution", f"--config={cfg}", "--seed=3", f"--output={joined}"]) == EXIT_OK
        assert joined.read_bytes() == spaced.read_bytes()
        assert json.loads(joined.read_text())["config"]["network"]["seed"] == 3

    def test_matrix_before_or_after_output(self, tmp_path):
        path = write_json(tmp_path / "m.json", [[1.0] * 4] * 4)
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        assert main(["permanent", "--output", str(before), path]) == EXIT_OK
        assert main(["permanent", path, f"--output={after}"]) == EXIT_OK
        assert before.read_bytes() == after.read_bytes() == b"[24.0, 0.0]\n"

    def test_negative_seed_reaches_the_network(self, tmp_path, capsys):
        # -5 is --seed's value, not an option; the seed check then refuses it
        # as it refuses the same seed written in the config, each naming where
        # the seed came from (both used to print numpy's "expected non-negative integer").
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, network={"preset": "random", "modes": 2}))
        assert main(["distribution", "--config", cfg, "--seed", "-5"]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -5\n"
        cfg = write_json(tmp_path / "seeded.json", hom_config(0.5, network={"preset": "random", "modes": 2, "seed": -5}))
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: network.seed must be >= 0, got -5\n"


ROOT = Path(__file__).resolve().parents[1]
ENTRY = ["-m", "bosonspectra.cli"]
# The same entry point with verify's tolerance below every deviation, so verify exits 4.
FAILING_VERIFY = ["-c", "import bosonspectra.cli as cli; cli.VERIFY_TOLERANCE = -1.0; cli.console_main()"]


def spawn(args, cwd, stdout=subprocess.PIPE):
    """A fresh `python ARGS` process, its stdout buffered: PYTHONUNBUFFERED is removed from its environment."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def process_jobs(tmp_path) -> dict:
    """name -> (interpreter arguments before the subcommand, argv, exit code), inputs written to tmp_path."""
    mixed, _, _ = mixed_experiment()
    configs = {
        "blind sweep": mixed,
        "signature": {"network": {"preset": "random", "modes": 4, "seed": 3}, "photons": GENERIC[:3],
                      "query": {"signature": [1, 0, 2, 0]}},
        "resolved sweep": {**mixed, "detector": "resolved"},
        "verify": mixed,
        "failed verify": hom_config(0.5),
    }
    paths = {name: write_json(tmp_path / f"{i}.json", config) for i, (name, config) in enumerate(configs.items())}
    return {
        "permanent": (ENTRY, ["permanent", write_json(tmp_path / "m.json", [[0.5, 1], [2, [1, 1]]])], EXIT_OK),
        "blind sweep": (ENTRY, ["distribution", "--config", paths["blind sweep"]], EXIT_OK),
        "signature": (ENTRY, ["distribution", "--config", paths["signature"]], EXIT_OK),
        "resolved sweep": (ENTRY, ["distribution", "--config", paths["resolved sweep"]], EXIT_OK),
        "verify": (ENTRY, ["verify", "--config", paths["verify"]], EXIT_OK),
        "failed verify": (FAILING_VERIFY, ["verify", "--config", paths["failed verify"]], EXIT_VERIFY_FAILURE),
        "hom-scan": (ENTRY, ["hom-scan", "--alpha-grid", "0:1:300"], EXIT_OK),
    }


class TestProcess:
    """The console entry point in fresh processes: main's bytes and exit code, then os._exit."""

    @pytest.mark.parametrize("name", ["permanent", "blind sweep", "signature", "resolved sweep", "verify",
                                      "failed verify", "hom-scan"])
    def test_process_writes_what_main_writes(self, tmp_path, capsys, monkeypatch, name):
        prefix, argv, code = process_jobs(tmp_path)[name]
        if prefix is FAILING_VERIFY:
            import bosonspectra.cli as cli_mod

            monkeypatch.setattr(cli_mod, "VERIFY_TOLERANCE", -1.0)
        assert main(argv + ["--output", str(tmp_path / "main.json")]) == code
        assert main(argv) == code
        expected = (tmp_path / "main.json").read_bytes()
        assert capsys.readouterr() == (expected.decode(), "")
        to_file = spawn(prefix + argv + ["--output", "process.json"], tmp_path)
        to_stdout = spawn(prefix + argv, tmp_path)
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (code, b"", b"")
        assert (tmp_path / "process.json").read_bytes() == expected
        assert (to_stdout.returncode, to_stdout.stdout, to_stdout.stderr) == (code, expected, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("name", ["permanent", "blind sweep", "resolved sweep"])
    def test_failed_stdout_write_exits_2_with_one_error_line(self, tmp_path, name):
        # The interpreter's own last flush used to fail again: exit 120 and
        # "Exception ignored ... OSError" on stderr.
        prefix, argv, _ = process_jobs(tmp_path)[name]
        with open("/dev/full", "wb") as full:
            done = spawn(prefix + argv, tmp_path, stdout=full)
        assert done.returncode == EXIT_INPUT_ERROR
        err = done.stderr.decode().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "No space left" in err[0], err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["-h"], ["verify", "--help"]])
    def test_help_to_full_stdout_exits_2_with_one_error_line(self, tmp_path, argv):
        # Help used to leave its text to the interpreter's last flush: exit 120
        # and "Exception ignored ... OSError" on stderr.
        with open("/dev/full", "wb") as full:
            done = spawn(ENTRY + argv, tmp_path, stdout=full)
        assert done.returncode == EXIT_INPUT_ERROR
        err = done.stderr.decode().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "No space left" in err[0], err

    def test_help_and_usage_errors_exit_as_before(self, tmp_path):
        helped = spawn(ENTRY + ["-h"], tmp_path)
        assert helped.returncode == EXIT_OK and helped.stderr == b""
        assert helped.stdout.decode().startswith(_usage() + "\n")
        refused = spawn(ENTRY + ["distribution"], tmp_path)
        assert refused.returncode == EXIT_INPUT_ERROR and refused.stdout == b""
        assert refused.stderr.decode().splitlines() == [
            *_usage("distribution").splitlines(), "bosonspectra distribution: error: argument --config is required"]

    def test_console_script_is_the_process_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"bosonspectra": "bosonspectra.cli:console_main"}


class TestStrictInputs:
    """Every config value is used exactly as written or rejected with exit 2."""

    @pytest.mark.parametrize("config", [
        # Non-integral and boolean counts used to be truncated by int().
        {"network": {"preset": "dft", "modes": 3},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}] * 2,
         "query": {"signature": [1.9, 0.1, 1]}},
        {"network": {"preset": "dft", "modes": 2.7},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        {"network": {"preset": "random", "modes": 3, "seed": 1.5},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        hom_config(0.5, input_modes=[True, 2]),
        hom_config(0.5, detector="resolved", query={"resolved": [[True, 1], [0, 0]]}),
        hom_config(0.5, query={"signature": 2}),
        # Other values of the wrong type used to be coerced by float() or
        # end in a TypeError traceback.
        {"network": {"preset": ["dft"], "modes": 2},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        {"network": {"preset": "beamsplitter"},
         "photons": [{"gaussian": {"mu": [0.0], "sigma": 1.0}},
                     {"gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        {"network": {"preset": "beamsplitter"},
         "photons": [{"gaussian": {"mu": "0.5", "sigma": 1.0}},
                     {"gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        {"network": {"preset": "beamsplitter"},
         "photons": [{"coefficients": 5}, {"gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        {"network": {"preset": "beamsplitter"},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}},
                     {"mixture": [{"probability": "1", "gaussian": {"mu": 0.0, "sigma": 1.0}}]}]},
    ])
    def test_mistyped_values_exit_2(self, tmp_path, config):
        cfg = write_json(tmp_path / "cfg.json", config)
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR

    def test_no_document_prints_negative_zero(self, tmp_path):
        # A config's -0.0 and the alpha grid's start used to be echoed as -0.0.
        config = {"network": {"preset": "beamsplitter"}, "photons": [
            {"gaussian": {"mu": -0.0, "sigma": 1.0, "tau": -0.0}},
            {"mixture": [{"probability": 1.0, "gaussian": {"mu": 0.5, "sigma": 1.0}},
                         {"probability": -0.0, "gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        ]}
        assert "-0.0" in json.dumps(config)
        out = tmp_path / "out.json"
        for argv in (["distribution", "--config", write_json(tmp_path / "cfg.json", config)],
                     ["hom-scan", "--alpha-grid=-0.0:-0.0:1"], ["hom-scan", "--alpha-grid=-0.0:1:3"]):
            assert main(argv + ["--output", str(out)]) == EXIT_OK
            assert re.search(r"-0\.0(?![0-9])", out.read_text()) is None, argv

    @pytest.mark.parametrize("network", [
        # 'modes' used to be ignored beside an explicit unitary or the beamsplitter.
        {"unitary": [[1.0, 0.0], [0.0, 1.0]], "modes": 7},
        {"unitary": [[1.0, 0.0], [0.0, 1.0]], "modes": True},
        {"unitary": [[1.0, 0.0], [0.0, 1.0]], "modes": "2"},
        {"preset": "beamsplitter", "modes": 3},
        {"preset": "beamsplitter", "modes": 2.5},
    ])
    def test_network_modes_must_match_the_network(self, tmp_path, network):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, network=network))
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("network", [
        {"unitary": [[1.0, 0.0], [0.0, 1.0]], "modes": 2},
        {"preset": "beamsplitter", "modes": 2.0},
    ])
    def test_matching_network_modes_accepted(self, tmp_path, network):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, network=network))
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        assert doc["config"]["network"]["modes"] == 2

    def test_integral_float_counts_accepted(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, query={"signature": [1.0, 1]}))
        code, doc = run(tmp_path, ["distribution", "--config", cfg])
        assert code == EXIT_OK
        assert doc["config"]["query"] == {"signature": [1, 1]}

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_literals_exit_2(self, tmp_path, capsys, literal):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "network": {"preset": "beamsplitter"},
            "photons": [
                {"coefficients": [[1.0, 0.0], [0.0, 0.0]]},
                {"mixture": [
                    {"probability": "P", "coefficients": [[1.0, 0.0], [0.0, 0.0]]},
                    {"probability": 0.5, "coefficients": [[0.0, 0.0], [1.0, 0.0]]},
                ]},
            ],
        }).replace('"P"', literal))
        assert main(["distribution", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        matrix = tmp_path / "m.json"
        matrix.write_text(f"[[{literal}]]")
        assert main(["permanent", str(matrix)]) == EXIT_INPUT_ERROR
        # Both are refused while the JSON is read, before any later check.
        assert capsys.readouterr().err.count(f"non-finite number {literal}") == 2

    @pytest.mark.parametrize("command", ["distribution", "verify"])
    @pytest.mark.parametrize("key,value", [("tau", 1e200), ("sigma", 1e-300), ("sigma", 1e300), ("mu", 1e200)])
    def test_gaussian_overlap_out_of_range_exits_2(self, tmp_path, capsys, command, key, value):
        # Finite parameters whose closed-form overlap overflows or divides by
        # zero used to end in a traceback with exit 1.
        extreme = {"mu": 0.0, "sigma": 1.0, "tau": 0.0, key: value}
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "beamsplitter"},
            "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0, "tau": 0.0}}, {"gaussian": extreme}],
        })
        out = tmp_path / "out.json"
        assert main([command, "--config", cfg, "--output", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the overlap of GaussianWavepacket"), err
        assert f"{key}={value!r}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["distribution", "permanent"])
    def test_integers_beyond_the_double_range_exit_2(self, tmp_path, capsys, command):
        # float() of a 401-digit integer raises OverflowError; it used to end
        # in a traceback with exit 1.
        if command == "permanent":
            argv = [command, write_json(tmp_path / "m.json", [[10**400]])]
            where = argv[1] + "[0]"
        else:
            config, _, _ = mixed_experiment()
            config["photons"][1]["mixture"][0]["probability"] = 10**400
            argv = [command, "--config", write_json(tmp_path / "cfg.json", config)]
            where = "photons[1].mixture[0].probability"
        out = tmp_path / "out.json"
        assert main(argv + ["--output", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: {where} must be finite: a 401-digit integer overflows a double\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset,digits", [("random", 401), ("dft", 31), ("dft", 10)])
    def test_network_beyond_any_array_exits_3(self, tmp_path, capsys, preset, digits):
        # numpy refused 10**400 and 10**30 modes with its own wording and exit 2;
        # these are refused before any array is made, as 10**8 modes run out of memory.
        config = {"network": {"preset": preset, "modes": 10 ** (digits - 1)}, "photons": GENERIC[:1]}
        out = tmp_path / "out.json"
        assert main(["distribution", "--config", write_json(tmp_path / "cfg.json", config), "--output", str(out)]) == (
            EXIT_CAPACITY_ERROR)
        err = capsys.readouterr().err
        assert err == f"error: network.modes has {digits} digits: its unitary exceeds numpy's array size\n"
        assert not out.exists()

    def test_overflowing_permanent_exits_2(self, tmp_path, capsys):
        # Per = 2e616 overflows a double; it used to be written as Infinity with exit 0.
        path = write_json(tmp_path / "m.json", [[1e308, 1e308], [1e308, 1e308]])
        out = tmp_path / "out.json"
        assert main(["permanent", path, "--output", str(out)]) == EXIT_INPUT_ERROR
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000) and data type complex128"),
        MemoryError(),
    ])
    def test_out_of_memory_exits_3_with_one_error_line(self, tmp_path, monkeypatch, capsys, error):
        # It used to end in a traceback and exit 1.
        def exhausted(modes):
            raise error

        monkeypatch.setattr("bosonspectra.network.make_dft", exhausted)
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "dft", "modes": 100000},
            "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}],
        })
        out = tmp_path / "out.json"
        assert main(["distribution", "--config", cfg, "--output", str(out)]) == EXIT_CAPACITY_ERROR
        assert capsys.readouterr().err == f"error: {str(error) or 'out of memory'}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["distribution", "verify"])
    @pytest.mark.parametrize("network", [
        # --seed used to be dropped without a word beside any other network
        # and beside a 'random' preset's own, different seed.
        {"preset": "beamsplitter"},
        {"preset": "dft", "modes": 2},
        {"unitary": [[1.0, 0.0], [0.0, 1.0]]},
        {"preset": "random", "modes": 2, "seed": 7},
    ])
    def test_seed_flag_that_would_be_ignored_exits_2(self, tmp_path, capsys, command, network):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, network=network))
        assert main([command, "--config", cfg, "--seed", "5"]) == EXIT_INPUT_ERROR
        assert "--seed 5 would be ignored" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["distribution", "verify"])
    @pytest.mark.parametrize("network", [
        {"preset": "random", "modes": 2},
        {"preset": "random", "modes": 2, "seed": 5},
    ])
    def test_seed_flag_seeds_a_random_preset(self, tmp_path, command, network):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, network=network))
        code, doc = run(tmp_path, [command, "--config", cfg, "--seed", "5"])
        assert code == EXIT_OK
        assert doc["config"]["network"] == {"preset": "random", "modes": 2, "seed": 5}

    @pytest.mark.parametrize("config", [
        hom_config(0.5, network={"preset": "beamsplitter", "mode": 2}),
        hom_config(0.5, network={"preset": "dft", "modes": 2, "seed": 3}),
        hom_config(0.5, query={"signature": [1, 1], "resolved": [[1, 1], [0, 0]]}),
        {"network": {"preset": "beamsplitter"},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}},
                     {"gaussian": {"mu": 0.0, "sigma": 1.0, "tua": 3.0}}]},
        {"network": {"preset": "beamsplitter"},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}, "label": "a"},
                     {"gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        {"network": {"preset": "beamsplitter"},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0},
                      "coefficients": [[1.0, 0.0]]},
                     {"gaussian": {"mu": 0.0, "sigma": 1.0}}]},
        {"network": {"preset": "beamsplitter"},
         "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}},
                     {"mixture": [{"probability": 1.0, "weight": 1.0,
                                   "gaussian": {"mu": 0.0, "sigma": 1.0}}]}]},
    ])
    def test_unknown_nested_keys_exit_2(self, tmp_path, config):
        cfg = write_json(tmp_path / "cfg.json", config)
        assert main(["distribution", "--config", cfg]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("text,key", [
        ('{"network": {"preset": "beamsplitter"}, "detector": "nonresolved", "detector": "resolved", '
         '"photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}]}', "detector"),
        ('{"network": {"preset": "dft", "modes": 2, "modes": 2}, '
         '"photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}]}', "modes"),
        # json.load used to keep the last value: this ran with mu = 0.0.
        ('{"network": {"preset": "beamsplitter"}, '
         '"photons": [{"gaussian": {"mu": 0.5, "mu": 0.0, "sigma": 1.0}}]}', "mu"),
        ('{"network": {"preset": "beamsplitter"}, "photons": [{"mixture": '
         '[{"probability": 1.0, "probability": 1.0, "gaussian": {"mu": 0.0, "sigma": 1.0}}]}]}', "probability"),
        ('{"network": {"preset": "beamsplitter"}, "query": {"signature": [1, 0], "signature": [0, 1]}, '
         '"photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}]}', "signature"),
    ], ids=["top level", "network", "gaussian", "mixture component", "query"])
    def test_duplicate_keys_exit_2(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert json.loads(text)  # valid JSON, whose last value would win
        assert main(["distribution", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: duplicate key {key!r}\n"

    @pytest.mark.parametrize("command", ["distribution", "verify"])
    @pytest.mark.parametrize("overrides,error", [
        # Each was checked by the CLI itself before the engine, which now
        # makes every check when its stream is made, before a byte goes out.
        ({"query": {"signature": [1, 1, 0]}}, "occupation has 3 modes, expected 2"),
        ({"query": {"signature": [3, -1]}}, "occupation counts must be non-negative"),
        ({"query": {"signature": [1, 0]}}, "signature holds 1 photons, expected 2"),
        ({"detector": "resolved", "query": {"resolved": [[1, 0], [0, 0]]}},
         "resolved outcome holds 1 photons, expected 2"),
        ({"detector": "resolved", "query": {"resolved": [[1, 1, 0], [0, 0, 0]]}}, "occupation has 3 modes, expected 2"),
        ({"photons": [{"coefficients": [[1.0, 0.0]]}] * 3}, "input modes must lie in 1..2, got (1, 2, 3)"),
        ({"detector": "bogus"}, "unknown detector model 'bogus'"),
    ], ids=["signature length", "negative count", "signature photons", "resolved photons", "part length",
            "default modes", "detector"])
    def test_engine_checks_exit_2_before_any_output(self, tmp_path, capsys, command, overrides, error):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, **overrides))
        out = tmp_path / "out.json"
        assert main([command, "--config", cfg]) == EXIT_INPUT_ERROR
        assert main([command, "--config", cfg, "--output", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and all(line.startswith(f"error: {error}") for line in lines)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["distribution", "verify"])
    def test_null_input_modes_mean_the_default(self, tmp_path, command):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, input_modes=None))
        code, doc = run(tmp_path, [command, "--config", cfg])
        assert code == EXIT_OK
        assert doc["config"]["input_modes"] == [1, 2]


class TestHomScan:
    def test_endpoints_and_tolerance(self, tmp_path):
        code, doc = run(tmp_path, ["hom-scan", "--alpha-grid", "0:1:21"])
        assert code == EXIT_OK
        rows = doc["outcomes"]
        assert rows[0]["alpha"] == 0.0
        assert rows[0]["coincidence_probability"] == pytest.approx(0.5)
        assert rows[-1]["alpha"] == 1.0
        assert rows[-1]["coincidence_probability"] == pytest.approx(0.0, abs=1e-15)
        assert doc["max_abs_difference"] <= 1e-12

    @pytest.mark.parametrize("count", [1, 21, STACK_SIZE + 44])
    def test_rows_keep_the_bytes_of_one_list(self, tmp_path, count):
        # The rows go out STACK_SIZE at a time; the document is the one
        # built whole, one point after another, before they streamed.
        out = tmp_path / "out.json"
        assert main(["hom-scan", "--alpha-grid", f"0.1:0.9:{count}", "--output", str(out)]) == EXIT_OK
        text = out.read_text()
        rows, max_diff = [], 0.0
        for alpha in np.linspace(0.1, 0.9, count):
            alpha = float(alpha)
            p = probability_nonresolved(make_beamsplitter_50_50(), hom_lambda(alpha), (1, 2), (1, 1))
            closed = (1.0 - alpha**2) / 2.0
            max_diff = max(max_diff, abs(p - closed))
            rows.append({"alpha": alpha, "coincidence_probability": _sig15(p),
                         "closed_form": _sig15(closed), "difference": _sig15(abs(p - closed))})
        doc = {**json.loads(text), "outcomes": rows, "max_abs_difference": _sig15(max_diff)}
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # 10^4 points: built whole, the rows peaked at 10.2 MB of Python
        # allocations; four float64 columns and one chunk of rows at a time
        # peak at about 0.9 MB.
        tracemalloc.start()
        try:
            code = main(["hom-scan", "--alpha-grid", "0:1:10000", "--output", os.devnull])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 3e6

    def test_out_of_range_grid_exits_2(self, tmp_path):
        assert main(["hom-scan", "--alpha-grid", "0:1.5:5"]) == EXIT_INPUT_ERROR
        assert main(["hom-scan", "--alpha-grid", "0:1"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("count", [DISTRIBUTION_OUTCOME_CAP + 1, 10**18])
    def test_grid_over_the_cap_exits_3_before_any_work(self, tmp_path, monkeypatch, capsys, count):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr("bosonspectra.sampling.probability_nonresolved", refuse)
        code = main(["hom-scan", "--alpha-grid", f"0:1:{count}"])
        assert code == EXIT_CAPACITY_ERROR
        assert "exceeds the sweep cap" in capsys.readouterr().err


class TestVerify:
    def test_hom_instance_passes(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5))
        code, doc = run(tmp_path, ["verify", "--config", cfg])
        assert code == EXIT_OK
        assert doc["passed"] is True
        assert doc["max_deviation"] <= 1e-9

    def test_random_three_photon_instance_passes(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "random", "modes": 4, "seed": 42},
            "photons": [
                {"gaussian": {"mu": 0.0, "sigma": 1.0}},
                {"gaussian": {"mu": 0.4, "sigma": 1.1, "tau": 0.7}},
                {"gaussian": {"mu": -0.3, "sigma": 0.8, "tau": -0.5}},
            ],
        })
        code, doc = run(tmp_path, ["verify", "--config", cfg])
        assert code == EXIT_OK
        assert doc["max_deviation"] <= 1e-9
        assert len(doc["outcomes"]) == 20  # C(3+4-1, 3) signatures

    def test_resolved_detector_verify(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5, detector="resolved"))
        code, doc = run(tmp_path, ["verify", "--config", cfg])
        assert code == EXIT_OK
        assert doc["passed"] is True

    def test_mixed_source_verify(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "beamsplitter"},
            "photons": [
                {"coefficients": [[1.0, 0.0], [0.0, 0.0]]},
                {"mixture": [
                    {"probability": 0.5, "coefficients": [[1.0, 0.0], [0.0, 0.0]]},
                    {"probability": 0.5, "coefficients": [[0.0, 0.0], [1.0, 0.0]]},
                ]},
            ],
        })
        code, doc = run(tmp_path, ["verify", "--config", cfg])
        assert code == EXIT_OK
        assert doc["passed"] is True

    def test_mixed_columns_equal_weighted_engine_and_oracle(self, tmp_path):
        config, u, photons = mixed_experiment()
        code, doc = run(tmp_path, ["verify", "--config", write_json(tmp_path / "c.json", config)])
        assert code == EXIT_OK
        assert doc["metadata"]["mixture_terms"] == 4
        states = weighted_states(u, photons)
        assert len(doc["outcomes"]) == 20
        for row in doc["outcomes"]:
            sig = row["outcome"]
            assert row["engine"] == _sig15(probability_mixed(u, photons, None, sig))
            oracle = sum(w * oracle_probability(state, sig) for w, state in states)
            assert row["oracle"] == _sig15(oracle)

    def test_mixture_sweep_adds_like_probability_mixed(self, monkeypatch):
        # Unrounded: the document's 15 digits would hide a change of summation order.
        _, u, photons = mixed_experiment()
        # Chunks of 7 outcomes, so totals are also taken chunk by chunk.
        monkeypatch.setattr(bosonspectra.sampling, "STACK_SIZE", 7)
        chunks = list(verify_chunks(u, photons))
        assert [len(outcomes) for outcomes, _ in chunks] == [7, 7, 6]
        states = weighted_states(u, photons)
        for outcomes, totals in chunks:
            for sig, (engine, oracle) in zip(outcomes, totals.tolist()):
                assert engine == probability_mixed(u, photons, None, sig)
                assert oracle == sum(w * oracle_probability(state, sig) for w, state in states)

    def test_mixed_resolved_sweep_enumerates_its_count_rows_once(self, monkeypatch):
        # 1540 outcomes over 4 combinations: one _count_blocks stream, shared.
        _, u, photons = mixed_experiment()
        calls = []
        count_blocks = bosonspectra.sampling._count_blocks
        monkeypatch.setattr(bosonspectra.sampling, "_count_blocks", lambda *args: calls.append(args) or
                            count_blocks(*args))
        # Each block's kernel index rows are made once, for all 4 combinations.
        rows_calls = []
        count_rows = bosonspectra.sampling._count_rows
        monkeypatch.setattr(bosonspectra.sampling, "_count_rows", lambda counts: rows_calls.append(len(counts)) or
                            count_rows(counts))
        chunks = list(probability_chunks(u, photons, None, "resolved"))
        assert sum(len(outcomes) for outcomes, _ in chunks) == 1540
        assert len(calls) == 1
        assert rows_calls == [len(outcomes) for outcomes, _ in chunks]

    @pytest.mark.parametrize("stream", [probability_chunks, verify_chunks], ids=lambda f: f.__name__)
    def test_mixture_over_budget_refused_before_any_joint_matrix(self, monkeypatch, stream):
        def no_joint(*args):
            raise AssertionError("a joint matrix was built before the work budget was checked")

        _, u, photons = mixed_experiment()
        monkeypatch.setattr(bosonspectra.sampling, "_joint_matrix", no_joint)
        monkeypatch.setattr(bosonspectra.sampling, "_WORK_BUDGET", 10)
        with pytest.raises(CapacityError, match="exceed the work budget 10"):
            stream(u, photons)

    @pytest.mark.parametrize("detector", ["nonresolved", "resolved"])
    def test_engine_column_is_probability_chunks(self, detector):
        _, u, photons = mixed_experiment()
        engine = [(outcomes, totals.tolist()) for outcomes, totals in probability_chunks(u, photons, None, detector)]
        verified = [(outcomes, totals[:, 0].tolist()) for outcomes, totals in verify_chunks(u, photons, None, detector)]
        assert verified == engine

    def test_mixed_resolved_verify_passes(self, tmp_path):
        config, _, _ = mixed_experiment()
        cfg = write_json(tmp_path / "c.json", {**config, "detector": "resolved"})
        code, doc = run(tmp_path, ["verify", "--config", cfg])
        assert code == EXIT_OK
        assert doc["passed"] is True
        assert doc["metadata"]["mixture_terms"] == 4
        assert len(doc["outcomes"]) == math.comb(4 * 5 + 3 - 1, 3)

    def test_over_cap_instance_exits_3(self, tmp_path, capsys):
        # Over the oracle's state budget, beyond its key format (65 joint
        # modes), and within the budget but over the engine's sweep cap.
        over_budget = {"network": {"preset": "dft", "modes": 8}, "photons": SIX_GAUSSIANS}
        beyond_keys = {"network": {"preset": "dft", "modes": 65}, "photons": SIX_GAUSSIANS[:1]}
        over_sweep = {"network": {"preset": "dft", "modes": 10}, "detector": "resolved",
                      "photons": [{"coefficients": row} for row in np.eye(6).tolist()]}
        for name, config, error in [("budget", over_budget, "the oracle's"), ("keys", beyond_keys, "the oracle's"),
                                    ("sweep", over_sweep, "82598880 resolved outcomes")]:
            out = tmp_path / f"{name}.out"
            cfg = write_json(tmp_path / f"{name}.json", config)
            assert main(["verify", "--config", cfg, "--output", str(out)]) == EXIT_CAPACITY_ERROR
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith(f"error: {error}") and err.count("\n") == 1

    def test_over_budget_instance_with_bad_inputs_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "dft", "modes": 8},
            "photons": SIX_GAUSSIANS,
            "input_modes": [1, 1, 2, 3, 4, 5],
        })
        assert main(["verify", "--config", cfg]) == EXIT_INPUT_ERROR
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("detector", ["nonresolved", "resolved"])
    def test_single_outcome_query(self, tmp_path, detector):
        config, _, _ = mixed_experiment()
        config["detector"] = detector
        code, sweep = run(tmp_path, ["verify", "--config", write_json(tmp_path / "sweep.json", config)])
        assert code == EXIT_OK
        row = max(sweep["outcomes"], key=lambda row: row["engine"])
        kind = "signature" if detector == "nonresolved" else "resolved"
        config["query"] = {kind: row["outcome"]}
        code, doc = run(tmp_path, ["verify", "--config", write_json(tmp_path / "query.json", config)])
        assert code == EXIT_OK
        assert doc["config"]["query"] == config["query"]
        assert doc["outcomes"] == [row]
        assert doc["max_deviation"] == row["deviation"]

    def test_failed_verification_exits_4(self, tmp_path, monkeypatch):
        import bosonspectra.cli as cli_mod

        monkeypatch.setattr(cli_mod, "VERIFY_TOLERANCE", -1.0)
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5))
        code, doc = run(tmp_path, ["verify", "--config", cfg])
        assert code == EXIT_VERIFY_FAILURE
        assert doc["passed"] is False


def reference_text(config_path) -> str:
    """A sweep's document as written before sweeps streamed, byte for byte.

    Whole-sweep dicts from the library, weighted per combination in
    Python floats, every row rounded by _sig15 and the whole document
    run through json's own indent encoder.
    """
    cfg = load_config(config_path)
    sweep = distribution_resolved if cfg.detector == "resolved" else distribution_nonresolved
    totals = {}
    for weight, lam in mixture_lambdas(cfg.photons, cfg.detector):
        for outcome, p in sweep(cfg.interferometer, lam, cfg.input_modes).items():
            totals[outcome] = totals.get(outcome, 0.0) + weight * p
    doc = {
        "config": cfg.echo,
        "metadata": _metadata(cfg),
        "outcomes": [{"outcome": o, "probability": _sig15(p)} for o, p in totals.items()],
        "sum": _sig15(sum(totals.values())),
    }
    return json.dumps(with_lists(doc), indent=2, sort_keys=True) + "\n"


def one_gaussian(modes):
    return {"network": {"preset": "dft", "modes": modes},
            "photons": [{"gaussian": {"mu": 0.2, "sigma": 1.0, "tau": 0.3}}], "detector": "resolved"}


def stream_configs():
    """Sweeps of every length around the chunk size, keyed by a short name."""
    config, _, _ = mixed_experiment()
    four_components = {**one_gaussian(64), "photons": [{"mixture": [
        {"probability": 0.25, "gaussian": {"mu": mu, "sigma": sigma, "tau": tau}}
        for mu, sigma, tau in GAUSSIANS[:4]]}]}
    return {
        "36 outcomes": ({**hom_config(0.5), "network": {"preset": "random", "modes": 4, "seed": 2},
                         "detector": "resolved"}, 36),
        "256 outcomes over 4 profiles": (four_components, STACK_SIZE),
        "257 outcomes": (one_gaussian(257), STACK_SIZE + 1),
        "mixed resolved sweep": ({**config, "detector": "resolved"}, 1540),
        "mixed blind sweep": (config, 20),
    }


class TestStreaming:
    """Sweeps go out chunk by chunk, with the bytes they had when written whole."""

    @pytest.mark.parametrize("name", list(stream_configs()))
    def test_documents_keep_their_bytes(self, tmp_path, name):
        config, count = stream_configs()[name]
        cfg = write_json(tmp_path / "cfg.json", config)
        out = tmp_path / "out.json"
        assert main(["distribution", "--config", cfg, "--output", str(out)]) == EXIT_OK
        text = out.read_text()
        assert len(json.loads(text)["outcomes"]) == count
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert text == reference_text(cfg)

    def test_peak_memory_does_not_grow_with_the_sweep(self, tmp_path):
        # 31465 outcomes, a 17 MB document: held whole, the run peaked at
        # 42 MB of Python allocations; streamed, at about 1 MB.
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "random", "modes": 7, "seed": 4},
            "photons": [{"gaussian": {"mu": mu, "sigma": sigma, "tau": tau}}
                        for mu, sigma, tau in GAUSSIANS[:4]],
            "detector": "resolved",
        })
        out = tmp_path / "out.json"
        tracemalloc.start()
        try:
            code = main(["distribution", "--config", cfg, "--output", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert out.stat().st_size > 15e6
        assert peak < 8e6

    @pytest.mark.parametrize("existing", [True, False])
    def test_failure_mid_stream_leaves_no_partial_document(self, tmp_path, monkeypatch, existing):
        amplitudes = bosonspectra.sampling._resolved_amplitudes
        calls = []

        def fail_on_second_chunk(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return amplitudes(*args)

        monkeypatch.setattr(bosonspectra.sampling, "_resolved_amplitudes", fail_on_second_chunk)
        cfg = write_json(tmp_path / "cfg.json", one_gaussian(STACK_SIZE + 1))
        out = tmp_path / "out.json"
        if existing:
            out.write_text("previous document\n")
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(RuntimeError, match="injected"):
            main(["distribution", "--config", cfg, "--output", str(out)])
        assert len(calls) == 2
        assert sorted(os.listdir(tmp_path)) == before
        if existing:
            assert out.read_text() == "previous document\n"

    def test_checks_run_before_the_first_byte(self, tmp_path, capsys):
        # Six generic photons over six modes: C(41, 6) resolved outcomes, over the cap.
        cfg = write_json(tmp_path / "cfg.json", {
            "network": {"preset": "dft", "modes": 6},
            "photons": [{"gaussian": {"mu": 0.3 * j, "sigma": 1.0, "tau": 0.5 * j}} for j in range(6)],
            "detector": "resolved",
        })
        out = tmp_path / "out.json"
        out.write_text("previous document\n")
        assert main(["distribution", "--config", cfg]) == EXIT_CAPACITY_ERROR
        assert main(["distribution", "--config", cfg, "--output", str(out)]) == EXIT_CAPACITY_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("exceed the sweep cap") == 2
        assert out.read_text() == "previous document\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out.json"]

    def test_output_to_a_device_is_written_in_place(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5))
        assert main(["distribution", "--config", cfg, "--output", os.devnull]) == EXIT_OK
        assert not Path(os.devnull).is_file()

    def test_output_keeps_the_file_mode(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", hom_config(0.5))
        out = tmp_path / "out.json"
        out.write_text("")
        out.chmod(0o640)
        assert main(["distribution", "--config", cfg, "--output", str(out)]) == EXIT_OK
        assert out.stat().st_mode & 0o777 == 0o640
        assert json.loads(out.read_text())["sum"] == pytest.approx(1.0)


class TestPermanent:
    def test_hadamard_file(self, tmp_path):
        r = 1.0 / math.sqrt(2.0)
        path = write_json(tmp_path / "m.json", [[r, r], [r, -r]])
        code, doc = run(tmp_path, ["permanent", path])
        assert code == EXIT_OK
        assert abs(complex(doc[0], doc[1])) < 1e-12

    def test_identity_4(self, tmp_path):
        path = write_json(tmp_path / "m.json",
                          [[1 if i == j else 0 for j in range(4)] for i in range(4)])
        code, doc = run(tmp_path, ["permanent", path])
        assert code == EXIT_OK
        assert doc == [1.0, 0.0]

    def test_all_ones_4(self, tmp_path):
        path = write_json(tmp_path / "m.json", [[1.0] * 4] * 4)
        code, doc = run(tmp_path, ["permanent", path])
        assert code == EXIT_OK
        assert doc == [24.0, 0.0]

    def test_complex_pairs_accepted(self, tmp_path):
        path = write_json(tmp_path / "m.json", [[[0.0, 1.0]]])
        code, doc = run(tmp_path, ["permanent", path])
        assert code == EXIT_OK
        assert doc == [0.0, 1.0]

    def test_non_square_exits_2(self, tmp_path):
        path = write_json(tmp_path / "m.json", [[1.0, 2.0]])
        assert main(["permanent", path]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("k", [2, 5])
    def test_overflow_exits_2_with_one_error_line(self, tmp_path, capsys, k):
        # Both k overflow inside the Glynn sum; stderr holds the error line
        # and no numpy warning.
        path = write_json(tmp_path / "m.json", [[1e308] * k] * k)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["permanent", path]) == EXIT_INPUT_ERROR
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def with_lists(value):
    """value with every tuple turned into a list, as the documents once held them."""
    if isinstance(value, (tuple, list)):
        return [with_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: with_lists(v) for k, v in value.items()}
    return value


def materialized(doc):
    """doc as plain data: its outcome chunks in one list of rows, _sig15_column values rounded by _sig15.

    Values are taken in key order and callables called, as the writer
    does. This is the document as it was built before documents
    streamed, and json.dumps of it is what was written then.
    """
    if not isinstance(doc, dict):
        return doc
    plain = {}
    for key in sorted(doc):
        value = doc[key]
        if key == "outcomes":
            value = [
                dict(zip(chunk, row))
                for chunk in value
                for row in zip(*(list(map(_sig15, values)) if render is _sig15_column else values
                                 for render, values in chunk.values()))
            ]
        elif callable(value):
            value = value()
        plain[key] = value
    return plain


def stdlib_text(doc) -> str:
    indent = 2 if isinstance(doc, dict) else None
    return json.dumps(with_lists(materialized(doc)), indent=indent, sort_keys=True) + "\n"


FINITE_SPECIALS = [x for x in SPECIAL_FLOATS if math.isfinite(x)]


def writer_documents(tmp_path):
    """One document of every kind the CLI writes, keyed by a short name.

    Outcomes come as chunks of columns, as the writer takes them. The
    sweeps stream, so each call makes new documents.
    """
    def config(payload):
        return load_config(write_json(tmp_path / "cfg.json", payload))

    blind = {
        "network": {"preset": "random", "modes": 4, "seed": 3},
        "photons": [{"gaussian": {"mu": 0.1 * j, "sigma": 1.0, "tau": 0.4 * j}} for j in range(3)],
    }
    four_photons = {
        "network": {"preset": "random", "modes": 4, "seed": 5},
        "photons": [{"gaussian": {"mu": mu, "sigma": sigma, "tau": tau}} for mu, sigma, tau in GAUSSIANS[:4]],
        "detector": "resolved",
    }
    mixed, _, _ = mixed_experiment()
    docs = {
        "blind sweep": _run_distribution(config(blind)),
        "signature query": _run_distribution(config({**blind, "query": {"signature": [2, 0, 1, 0]}})),
        "resolved sweep": _run_distribution(config({**blind, "detector": "resolved"})),
        "long resolved sweep": _run_distribution(config(four_photons)),
        "resolved query": _run_distribution(config(hom_config(
            0.5, detector="resolved", query={"resolved": [[2, 0], [0, 0]]}))),
        "mixed distribution": _run_distribution(config(mixed)),
        "mixed resolved sweep": _run_distribution(config({**mixed, "detector": "resolved"})),
        "pure verify": _run_verify(config(blind)),
        "mixed verify": _run_verify(config(mixed)),
        "resolved verify": _run_verify(config({**blind, "detector": "resolved"})),
        "hom-scan": _run_hom_scan("0:1:11"),
        "special floats": {
            "config": {"note": "line\nbreak", "nested": {"b": [1, 2.5], "a": {}}},
            "outcomes": [{
                "outcome": (_outcome_column, [(j, 1) for j in range(len(FINITE_SPECIALS))]),
                "probability": (_repr_column, FINITE_SPECIALS),
                "rounded": (_sig15_column, FINITE_SPECIALS),
            }],
            "sum": float("nan"),  # not an outcome column: json.dumps writes it
        },
        "rounded values": {"outcomes": [{
            "outcome": (_outcome_column, [(j,) for j in range(len(SIG15_EDGES) - 1)]),
            "probability": (_sig15_column, [x for x in SIG15_EDGES if x != 1.7976931348623157e308]),
        }]},
        "percent keys": {"outcomes": [{
            "100%": (_repr_column, [0.5] * 2), "%s": (_sig15_column, [0.25] * 2),
            "outcome": (_outcome_column, [(0,)] * 2),
        }]},
        "no outcomes": {"config": {}, "outcomes": [], "passed": False},
        "empty document": {},
        "permanent": _run_permanent(write_json(tmp_path / "m.json", [[1.0, 2.0], [3.0, -0.5]])),
    }
    return docs


@pytest.mark.parametrize("x", SIG15_EDGES + SPECIAL_FLOATS)
def test_sig15_texts_are_repr_of_sig15(x):
    # The 15-digit column; a value that is not finite, or rounds to infinity, raises.
    rounded = _sig15(x)
    if not math.isfinite(rounded):
        for column in ([x], [0.25, x, 1 / 3, 0.0]):
            with pytest.raises(ValueError, match="not finite"):
                _sig15_column(column)
        return
    expected = float.__repr__(rounded)
    assert _sig15_column([x]) == (["", ""], [[expected]])
    # In a column, one value that needs repr's spelling decides for all.
    assert _sig15_column([0.25, x, 1 / 3, 0.0]) == (["", ""], [["0.25", expected, "0.333333333333333", "0.0"]])


@pytest.mark.parametrize("x", SPECIAL_FLOATS[-3:])
def test_non_finite_values_raise_and_leave_no_file(tmp_path, x):
    out = tmp_path / "out.json"
    for render in (_repr_column, _sig15_column):
        doc = {"outcomes": [{"outcome": (_outcome_column, [(0, 1), (1, 0)]), "probability": (render, [0.5, x])}]}
        with pytest.raises(ValueError, match="not finite"):
            _write_document(doc, str(out))
        assert not out.exists()


def test_writer_fills_a_template_for_every_cli_row(tmp_path, monkeypatch):
    # Rows never go through json.dumps, only row keys do.
    docs = writer_documents(tmp_path)

    def dumps(value, **kwargs):
        assert isinstance(value, str), "rows went through json.dumps"
        return json.dumps(value, **kwargs)

    monkeypatch.setattr("bosonspectra.document.json", SimpleNamespace(dumps=dumps))
    long_sweep = []
    for name in ["blind sweep", "long resolved sweep", "mixed resolved sweep", "resolved verify",
                 "hom-scan"]:
        for chunk in docs[name]["outcomes"]:
            _rows_text(chunk)
            if name == "long resolved sweep":
                long_sweep.append(chunk["outcome"][1])
    # Several chunks, the kernel's stacks, of outcomes with four parts.
    assert len(long_sweep) > 1 and {len(outcomes) for outcomes in long_sweep[:-1]} == {STACK_SIZE}
    assert len(long_sweep[0][0]) == 4


def test_writer_matches_stdlib_indent_encoder(tmp_path, capsys):
    expected = {name: stdlib_text(doc) for name, doc in writer_documents(tmp_path).items()}
    outcome = json.loads(expected["resolved sweep"])["outcomes"][0]["outcome"]
    assert len(outcome) > 1  # basis_size > 1
    outcome = json.loads(expected["mixed resolved sweep"])["outcomes"][0]["outcome"]
    assert len(outcome) == 5  # the common basis
    assert len(json.loads(expected["resolved verify"])["outcomes"][0]["outcome"]) == 3
    for name, doc in writer_documents(tmp_path).items():
        _write_document(doc, "-")
        text = capsys.readouterr().out
        assert text == expected[name], name
        if "verify" in name or "sweep" in name or "query" in name or name == "hom-scan":
            # What the CLI writes also reads back to itself: every number is repr of its value.
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name
