"""Command-line front end: JSON experiment configs in, JSON results out.

Config schema (complex numbers are [re, im] pairs; bare numbers are
taken as real)::

    {
      "network": {"preset": "beamsplitter"}
                 | {"preset": "dft", "modes": 4}
                 | {"preset": "random", "modes": 5, "seed": 42}
                 | {"unitary": [[[re, im], ...], ...]},
      "photons": [
        {"gaussian": {"mu": 0.0, "sigma": 1.0, "tau": 0.0}},
        {"coefficients": [[re, im], ...]},
        {"mixture": [{"probability": 0.5, "gaussian": {...}}, ...]}
      ],
      "input_modes": [1, 2],            # optional, default 1..n
      "detector": "nonresolved",        # or "resolved"
      "query": "distribution"           # or {"signature": [...]}
                                        # or {"resolved": [[...], ...]}
    }

Keys outside this schema or given twice, counts that are not integers
and the literals NaN and Infinity are rejected, at every level.

Results documents echo the fully resolved config (defaults
materialized), carry engine metadata, and list outcomes with
probabilities printed to 15 significant digits; the document module
writes them. The CLI hands it the engine's (outcomes, totals) chunks as
columns, each naming its format, never as rows. A distribution sweep
streams: sampling.probability_chunks hands over STACK_SIZE outcomes at
a time, weighted over every mixture combination; each chunk is rendered
and written before the next is made, and only one float per outcome is
kept, for the trailing sum.
Every check runs before the first byte goes out; only a kappa fallback
over the split cap, or MemoryError, can stop a sweep midway, leaving a
partial document on stdout and a file output as it was. The CLI calls
only public engine names. Exit codes: 0 success, 2 input error, 3
capacity error or out of memory, 4 verification failure.

A job imports only what its subcommand runs. At module level this
file imports document, errors and permanent, all that `permanent`
needs; the functions that parse configs and run the other subcommands
import network, spectra and sampling themselves, so `distribution`
and `hom-scan` load every module but oracle, and only `verify`
(_run_verify) imports oracle.
"""

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .document import _outcome_column, _repr_column, _sig15, _sig15_column, _write_document
from .errors import BosonSpectraError, CapacityError, ConfigurationError
from .permanent import permanent_ryser

if TYPE_CHECKING:
    from .network import Interferometer

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_CAPACITY_ERROR = 3
EXIT_VERIFY_FAILURE = 4

VERIFY_TOLERANCE = 1e-9
DEFAULT_RANDOM_SEED = 0


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigurationError(f"non-finite number {text} is not allowed")
    return value


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is rejected, where json would keep the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigurationError(f"duplicate key {key!r}")
        data[key] = value
    return data


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys,
                             parse_float=_finite_float, parse_constant=_finite_float)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc


def _check_keys(data: dict, allowed, where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_int(value, where: str) -> int:
    """A JSON integer; integral floats such as 2.0 pass, booleans never do."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigurationError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _parse_real(value, where: str) -> float:
    """A JSON number; strings, lists and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_counts(data, where: str) -> tuple[int, ...]:
    if not isinstance(data, list):
        raise ConfigurationError(f"{where}: expected a list of integers, got {data!r}")
    return tuple(_parse_int(c, where) for c in data)


def _parse_complex(entry, where: str) -> complex:
    """A real number, or an [re, im] pair of them."""
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_parse_real(entry[0], where), _parse_real(entry[1], where))
    return complex(_parse_real(entry, where), 0.0)


def _complex_pair(z: complex) -> list:
    # + 0.0 folds negative zero so documents never print -0.0
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _parse_matrix(data, where: str) -> np.ndarray:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ConfigurationError(f"{where}: expected a nested array of rows")
    rows = [[_parse_complex(e, where) for e in r] for r in data]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigurationError(f"{where}: rows have unequal lengths")
    return np.array(rows, dtype=np.complex128)


def _parse_network(data, seed_flag) -> "tuple[Interferometer, dict]":
    from .network import Interferometer, make_beamsplitter_50_50, make_dft, make_random_unitary

    if not isinstance(data, dict):
        raise ConfigurationError("config 'network' must be an object")
    preset = data.get("preset")
    if "unitary" in data:
        allowed = {"unitary", "modes"}
    elif preset == "random":
        allowed = {"preset", "modes", "seed"}
    else:
        allowed = {"preset", "modes"}
    _check_keys(data, allowed, "network")
    modes = _parse_int(data["modes"], "network.modes") if "modes" in data else None
    if "unitary" in data:
        u = Interferometer(_parse_matrix(data["unitary"], "network.unitary"))
        echo = {
            "unitary": [[_complex_pair(z) for z in row] for row in u.matrix],
            "modes": u.m,
        }
    elif preset == "beamsplitter":
        u = make_beamsplitter_50_50()
        echo = {"preset": "beamsplitter", "modes": 2}
    elif preset in ("dft", "random"):
        if modes is None:
            raise ConfigurationError(f"network preset {preset!r} needs 'modes'")
        if preset == "dft":
            u = make_dft(modes)
            echo = {"preset": "dft", "modes": u.m}
        else:
            default = DEFAULT_RANDOM_SEED if seed_flag is None else seed_flag
            seed = _parse_int(data.get("seed", default), "network.seed")
            u = make_random_unitary(modes, seed)
            echo = {"preset": "random", "modes": u.m, "seed": seed}
    else:
        raise ConfigurationError(
            f"network needs 'unitary' or a preset in ('beamsplitter', 'dft', 'random'), got {data!r}"
        )
    if modes is not None and modes != u.m:
        raise ConfigurationError(f"network.modes is {modes}, but the network has {u.m} modes")
    if seed_flag is not None and echo.get("seed") != seed_flag:
        raise ConfigurationError(
            f"--seed {seed_flag} would be ignored: it seeds only a 'random' network preset "
            "that gives no 'seed' or the same one"
        )
    return u, echo


def _parse_pure_spec(data, where: str, extra_keys=()):
    from .spectra import CoefficientSpectrum, GaussianWavepacket

    if not isinstance(data, dict):
        raise ConfigurationError(f"{where}: photon spec must be an object")
    kind = "gaussian" if "gaussian" in data else "coefficients"
    _check_keys(data, {kind, *extra_keys}, where)
    if "gaussian" in data:
        g = data["gaussian"]
        if not isinstance(g, dict) or "mu" not in g or "sigma" not in g:
            raise ConfigurationError(f"{where}: gaussian spec needs 'mu' and 'sigma'")
        _check_keys(g, {"mu", "sigma", "tau"}, f"{where}.gaussian")
        mu, sigma, tau = (
            _parse_real(g.get(key, 0.0), f"{where}.gaussian.{key}") for key in ("mu", "sigma", "tau")
        )
        spec = GaussianWavepacket(mu, sigma, tau)
        echo = {"gaussian": {"mu": spec.mu, "sigma": spec.sigma, "tau": spec.tau}}
        return spec, echo
    if "coefficients" in data:
        if not isinstance(data["coefficients"], list):
            raise ConfigurationError(f"{where}.coefficients: expected a list")
        coeffs = [_parse_complex(e, f"{where}.coefficients") for e in data["coefficients"]]
        spec = CoefficientSpectrum(np.array(coeffs))
        echo = {"coefficients": [_complex_pair(z) for z in spec.coefficients]}
        return spec, echo
    raise ConfigurationError(f"{where}: photon spec needs 'gaussian' or 'coefficients'")


def _parse_photon(data, where: str):
    from .sampling import MixedPhotonSource

    if isinstance(data, dict) and "mixture" in data:
        _check_keys(data, {"mixture"}, where)
        comps = data["mixture"]
        if not isinstance(comps, list) or not comps:
            raise ConfigurationError(f"{where}: 'mixture' must be a non-empty list")
        parsed = []
        echoes = []
        for ci, comp in enumerate(comps):
            if not isinstance(comp, dict) or "probability" not in comp:
                raise ConfigurationError(f"{where}.mixture[{ci}]: needs 'probability'")
            spec, echo = _parse_pure_spec(comp, f"{where}.mixture[{ci}]", {"probability"})
            p = _parse_real(comp["probability"], f"{where}.mixture[{ci}].probability")
            parsed.append((p, spec))
            echoes.append({"probability": p, **echo})
        return MixedPhotonSource(tuple(parsed)), {"mixture": echoes}
    return _parse_pure_spec(data, where)


def _parse_query(data, detector: str):
    if data is None or data == "distribution":
        return None, "distribution"
    if isinstance(data, dict) and "signature" in data:
        _check_keys(data, {"signature"}, "query")
        if detector != "nonresolved":
            raise ConfigurationError("signature queries need detector 'nonresolved'")
        sig = _parse_counts(data["signature"], "query.signature")
        return sig, {"signature": list(sig)}
    if isinstance(data, dict) and "resolved" in data:
        _check_keys(data, {"resolved"}, "query")
        if detector != "resolved":
            raise ConfigurationError("resolved-outcome queries need detector 'resolved'")
        parts = data["resolved"]
        if not isinstance(parts, list):
            raise ConfigurationError(f"query.resolved: expected a list of parts, got {parts!r}")
        parts = tuple(_parse_counts(part, "query.resolved") for part in parts)
        return parts, {"resolved": [list(p) for p in parts]}
    raise ConfigurationError(
        f"query must be 'distribution', {{'signature': [...]}} or {{'resolved': [...]}}, got {data!r}"
    )


@dataclass
class ExperimentConfig:
    interferometer: "Interferometer"
    photons: list
    input_modes: tuple
    detector: str
    outcome: tuple | None  # a single outcome to query, or None for the whole sweep
    echo: dict


def load_config(path: str, seed_flag=None) -> ExperimentConfig:
    """Parse and validate an experiment config file, materializing defaults."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top-level config must be an object")
    _check_keys(data, {"network", "photons", "input_modes", "detector", "query"}, "config")

    if "network" not in data or "photons" not in data:
        raise ConfigurationError("config needs 'network' and 'photons'")
    interferometer, network_echo = _parse_network(data["network"], seed_flag)

    if not isinstance(data["photons"], list) or not data["photons"]:
        raise ConfigurationError("config 'photons' must be a non-empty list")
    photons = []
    photons_echo = []
    for pi, pdata in enumerate(data["photons"]):
        spec, echo = _parse_photon(pdata, f"photons[{pi}]")
        photons.append(spec)
        photons_echo.append(echo)

    input_modes = data.get("input_modes")
    if input_modes is None:
        input_modes = list(range(1, len(photons) + 1))
    input_modes = _parse_counts(input_modes, "input_modes")

    detector = data.get("detector", "nonresolved")

    outcome, query_echo = _parse_query(data.get("query"), detector)

    echo = {
        "network": network_echo,
        "photons": photons_echo,
        "input_modes": list(input_modes),
        "detector": detector,
        "query": query_echo,
    }
    return ExperimentConfig(
        interferometer=interferometer,
        photons=photons,
        input_modes=input_modes,
        detector=detector,
        outcome=outcome,
        echo=echo,
    )


def _metadata(cfg: ExperimentConfig) -> dict:
    from .sampling import mixture_terms

    return {"engine": f"bosonspectra {__version__}", "mixture_terms": mixture_terms(cfg.photons)}


def _run_distribution(cfg: ExperimentConfig) -> dict:
    """The results document, its outcomes a stream of column chunks (see _write_document).

    probability_chunks checks everything at the call, here, before a byte
    is written.
    """
    from .sampling import probability_chunks

    chunks = probability_chunks(cfg.interferometer, cfg.photons, cfg.input_modes, cfg.detector, cfg.outcome)
    # One float64 array per chunk; the sum runs over their values as Python
    # floats, in sweep order, as it did over the whole sweep's list.
    totals = []

    def columns():
        for outcomes, total in chunks:
            totals.append(total)
            yield {"outcome": (_outcome_column, outcomes), "probability": (_sig15_column, total.tolist())}

    return {
        "config": cfg.echo,
        "metadata": _metadata(cfg),
        "outcomes": columns(),
        "sum": lambda: _sig15(sum(itertools.chain.from_iterable(map(np.ndarray.tolist, totals)))),
    }


def _run_verify(cfg: ExperimentConfig) -> dict:
    from .oracle import verify_chunks

    chunks = []
    for outcomes, totals in verify_chunks(cfg.interferometer, cfg.photons, cfg.input_modes, cfg.detector, cfg.outcome):
        engine, oracle = totals.T
        columns = {"engine": engine, "oracle": oracle, "deviation": abs(engine - oracle)}
        chunks.append({"outcome": (_outcome_column, outcomes),
                       **{key: (_sig15_column, values.tolist()) for key, values in columns.items()}})
    max_dev = max([0.0] + [max(chunk["deviation"][1]) for chunk in chunks])
    return {
        "config": cfg.echo,
        "metadata": _metadata(cfg),
        "outcomes": chunks,
        "max_deviation": _sig15(max_dev),
        "tolerance": VERIFY_TOLERANCE,
        "passed": bool(max_dev <= VERIFY_TOLERANCE),
    }


def _parse_alpha_grid(text: str) -> tuple[float, float, int]:
    from .sampling import DISTRIBUTION_OUTCOME_CAP

    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"--alpha-grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigurationError(f"--alpha-grid must be start:stop:count, got {text!r}") from exc
    if count < 1:
        raise ConfigurationError("--alpha-grid count must be >= 1")
    if count > DISTRIBUTION_OUTCOME_CAP:
        raise CapacityError(
            f"--alpha-grid count {count} exceeds the sweep cap {DISTRIBUTION_OUTCOME_CAP}"
        )
    if not (0.0 <= start <= stop <= 1.0):
        raise ConfigurationError(f"alpha grid must lie within [0, 1], got {start}:{stop}")
    return start, stop, count


def _run_hom_scan(grid_text: str) -> dict:
    # max_abs_difference sorts before outcomes: a first pass keeps four
    # floats per grid point, and the rows go out STACK_SIZE at a time.
    from .network import make_beamsplitter_50_50
    from .sampling import STACK_SIZE, probability_nonresolved
    from .spectra import LambdaMatrix

    start, stop, count = _parse_alpha_grid(grid_text)
    beamsplitter = make_beamsplitter_50_50()
    alphas = np.linspace(start, stop, count)
    engine, closed = np.empty(count), np.empty(count)
    for i, alpha in enumerate(map(float, alphas)):
        lam = LambdaMatrix([[1.0, 0.0], [alpha, math.sqrt(max(1.0 - alpha**2, 0.0))]])
        engine[i] = probability_nonresolved(beamsplitter, lam, (1, 2), (1, 1))
        closed[i] = (1.0 - alpha**2) / 2.0
    diffs = np.abs(engine - closed)
    columns = {"alpha": (_repr_column, alphas), "coincidence_probability": (_sig15_column, engine),
               "closed_form": (_sig15_column, closed), "difference": (_sig15_column, diffs)}

    def chunks():
        for i in range(0, count, STACK_SIZE):
            yield {key: (render, values[i : i + STACK_SIZE].tolist()) for key, (render, values) in columns.items()}

    return {
        "config": {
            "experiment": "hom-scan",
            "alpha_grid": {"start": start, "stop": stop, "count": count},
            "network": {"preset": "beamsplitter", "modes": 2},
            "input_modes": [1, 2],
            "detector": "nonresolved",
            "signature": [1, 1],
        },
        "metadata": {"engine": f"bosonspectra {__version__}"},
        "outcomes": chunks(),
        "max_abs_difference": _sig15(diffs.max()),
    }


def _run_permanent(path: str) -> list:
    matrix = _parse_matrix(_load_json(path), path)
    value = permanent_ryser(matrix)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigurationError(f"{path}: the permanent overflows a double ({value})")
    return _complex_pair(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonspectra",
        description="Exact interferometer statistics for spectrally structured photons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("distribution", help="outcome probabilities for a config")
    p_dist.add_argument("--config", required=True, help="experiment config JSON path")
    p_dist.add_argument("--output", default="-", help="results path or '-' for stdout")
    p_dist.add_argument("--seed", type=int, default=None, help="seed for the 'random' network preset")

    p_hom = sub.add_parser("hom-scan", help="two-photon coincidence dip vs distinguishability")
    p_hom.add_argument("--alpha-grid", default="0:1:21", help="start:stop:count within [0, 1]")
    p_hom.add_argument("--output", default="-", help="results path or '-' for stdout")

    p_verify = sub.add_parser("verify", help="engine vs brute-force Fock oracle")
    p_verify.add_argument("--config", required=True, help="experiment config JSON path")
    p_verify.add_argument("--output", default="-", help="results path or '-' for stdout")
    p_verify.add_argument("--seed", type=int, default=None, help="seed for the 'random' network preset")

    p_perm = sub.add_parser("permanent", help="permanent of a complex matrix file")
    p_perm.add_argument("matrix", help="JSON matrix path (entries are numbers or [re, im])")
    p_perm.add_argument("--output", default="-", help="results path or '-' for stdout")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "distribution":
            cfg = load_config(args.config, args.seed)
            _write_document(_run_distribution(cfg), args.output)
            return EXIT_OK
        if args.command == "hom-scan":
            _write_document(_run_hom_scan(args.alpha_grid), args.output)
            return EXIT_OK
        if args.command == "verify":
            cfg = load_config(args.config, args.seed)
            doc = _run_verify(cfg)
            _write_document(doc, args.output)
            return EXIT_OK if doc["passed"] else EXIT_VERIFY_FAILURE
        if args.command == "permanent":
            _write_document(_run_permanent(args.matrix), args.output)
            return EXIT_OK
        raise ConfigurationError(f"unknown command {args.command!r}")
    except (CapacityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY_ERROR
    except (BosonSpectraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
