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
and the literals NaN and Infinity are rejected, at every level, by the
value rules of errors, each value named by its JSON path.

Results documents echo the fully resolved config (defaults
materialized), carry engine metadata, and list outcomes with
probabilities printed to 15 significant digits; the document module
writes them. The CLI hands it the engine's (outcomes, totals) chunks as
columns, each naming its format, never as rows. A distribution sweep
streams: sampling.probability_chunks hands over STACK_SIZE outcomes at
a time, weighted over every mixture combination; each chunk is rendered
and written before the next is made, and only one float per outcome is
kept, for the trailing sum.
Every check runs before the first byte goes out, the work budget's
included; only a kappa fallback whose split sum is over that budget, or
MemoryError, can stop a sweep midway, leaving a
partial document on stdout and a file output as it was. The CLI calls
only public engine names. Exit codes: 0 success, 2 input error (a
failed write to stdout too), 3 capacity error or out of memory, 4
verification failure.

The process entry point, console_main (the `bosonspectra` script and
`python -m bosonspectra.cli`), runs main and ends the process with
os._exit right after its document and stderr are flushed, skipping the
interpreter's teardown: every output is written, closed or flushed
inside main, so nothing is left for teardown to do. No job registers an
atexit callback; a wrapper that does, such as `coverage run -m`, loses
its own. A run that leaves main by an exception (-h, a usage error, an
uncaught bug, KeyboardInterrupt) exits the normal way. main(argv)
returns its exit code for callers in the same process.

_COMMANDS is the argv grammar: each subcommand's options and their
defaults. An option takes its value as the next argument or after '=',
permanent's MATRIX may come before or after --output, and an option is
never abbreviated. -h/--help prints help to stdout, flushed, and exits
0 (2 with one error line if the write fails); a usage error prints the
usage and one error line to stderr and exits 2 (both by SystemExit,
before any other work).

A job imports only what its subcommand runs. At module level this
file imports document, errors and permanent, all that `permanent`
needs; the functions that parse configs and run the other subcommands
import network, spectra and sampling themselves, so `distribution`
and `hom-scan` load every module but oracle, and only `verify`
(_run_verify) imports oracle. Of the standard library, no job loads
argparse (with gettext and locale) or dataclasses (with copy): the
records are plain classes on errors._Record, and _parse_args reads
argv.
"""

import itertools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from . import __version__
from .document import _outcome_column, _repr_column, _sig15, _sig15_column, _write_document
from .errors import BosonSpectraError, CapacityError, ConfigurationError, _integer, _real, _Record
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


def _parse_counts(data, where: str) -> tuple[int, ...]:
    if not isinstance(data, list):
        raise ConfigurationError(f"{where}: expected a list of integers, got {data!r}")
    return tuple(_integer(c, f"{where}[{i}]") for i, c in enumerate(data))


def _parse_complex(entry, where: str) -> complex:
    """A real number, or an [re, im] pair of them."""
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_real(entry[0], where), _real(entry[1], where))
    return complex(_real(entry, where), 0.0)


def _complex_pair(z: complex) -> list:
    # + 0.0 folds negative zero so documents never print -0.0
    return [float(z.real) + 0.0, float(z.imag) + 0.0]


def _parse_matrix(data, where: str) -> list[list[complex]]:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ConfigurationError(f"{where}: expected a nested array of rows")
    return [[_parse_complex(e, row) for e in r] for i, r in enumerate(data) for row in [f"{where}[{i}]"]]


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
    modes = _integer(data["modes"], "network.modes", 1) if "modes" in data else None
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
        if modes > math.isqrt(sys.maxsize // 16):  # the m x m unitary's bytes
            raise CapacityError(f"network.modes has {len(str(modes))} digits: its unitary exceeds numpy's array size")
        if preset == "dft":
            u = make_dft(modes)
            echo = {"preset": "dft", "modes": u.m}
        else:
            default = DEFAULT_RANDOM_SEED if seed_flag is None else seed_flag
            seed = _integer(data.get("seed", default), "network.seed" if "seed" in data else "--seed", 0)
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
            _real(g.get(key, 0.0), f"{where}.gaussian.{key}") for key in ("mu", "sigma", "tau")
        )
        spec = GaussianWavepacket(mu, sigma, tau)
        echo = {"gaussian": {"mu": spec.mu, "sigma": spec.sigma, "tau": spec.tau}}
        return spec, echo
    if "coefficients" in data:
        if not isinstance(data["coefficients"], list):
            raise ConfigurationError(f"{where}.coefficients: expected a list")
        coeffs = [_parse_complex(e, f"{where}.coefficients[{i}]") for i, e in enumerate(data["coefficients"])]
        spec = CoefficientSpectrum(coeffs)
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
            p = _real(comp["probability"], f"{where}.mixture[{ci}].probability")
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


class ExperimentConfig(_Record):
    """A parsed config: the engine's inputs and the echo its document prints.

    outcome is a single outcome to query, or None for the whole sweep.
    Like the engine's records, a config is read-only.
    """

    _fields = ("interferometer", "photons", "input_modes", "detector", "outcome", "echo")

    def __init__(self, interferometer: "Interferometer", photons: list, input_modes: tuple, detector: str,
                 outcome: tuple | None, echo: dict) -> None:
        vars(self).update(interferometer=interferometer, photons=photons, input_modes=input_modes,
                          detector=detector, outcome=outcome, echo=echo)


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
    start, stop = _real(start, "--alpha-grid start"), _real(stop, "--alpha-grid stop")
    count = _integer(count, "--alpha-grid count", 1)
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


_REQUIRED = object()
_OUTPUT = {"--output": ("-", "results path, or '-' for stdout")}
_CONFIG = {"--config": (_REQUIRED, "experiment config JSON path"), **_OUTPUT,
           "--seed": (None, "integer seed for the 'random' network preset")}
# Each subcommand's help line and options, {name: (default, help)}. An option
# whose default is _REQUIRED must be given; MATRIX is a positional argument.
_COMMANDS = {
    "distribution": ("outcome probabilities for a config", _CONFIG),
    "hom-scan": ("two-photon coincidence dip vs distinguishability",
                 {"--alpha-grid": ("0:1:21", "start:stop:count within [0, 1]"), **_OUTPUT}),
    "verify": ("engine vs brute-force Fock oracle", _CONFIG),
    "permanent": ("permanent of a complex matrix file",
                  {"MATRIX": (_REQUIRED, "JSON matrix path (entries are numbers or [re, im])"), **_OUTPUT}),
}


def _usage(command=None) -> str:
    """The usage lines of command, or of every subcommand."""
    lines = []
    for name in [command] if command else _COMMANDS:
        words = [f"bosonspectra {name} [-h]"]
        for option, (default, _) in _COMMANDS[name][1].items():
            word = f"{option} {option[2:].upper().replace('-', '_')}" if option.startswith("--") else option
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines.append(" ".join(words))
    return "usage: " + "\n       ".join(lines)


def _help(command=None) -> str:
    text = [_usage(command), "", "Exact interferometer statistics for spectrally structured photons."]
    for name in [command] if command else _COMMANDS:
        text += ["", f"{name}: {_COMMANDS[name][0]}"]
        text += [f"  {option:14} {what}" + ("" if default in (None, _REQUIRED) else f" (default {default})")
                 for option, (default, what) in _COMMANDS[name][1].items()]
    return "\n".join(text)


def _parse_args(argv: list) -> tuple[str, dict]:
    """The subcommand and its options' values, defaults filled in.

    An option's value follows it as the next argument or after '='.
    -h or --help prints help to stdout, flushed, and exits 0; a usage
    error prints the usage and one error line to stderr and exits 2.
    """
    command = argv[0] if argv else None
    known = command if command in _COMMANDS else None

    def fail(message):
        print(_usage(known), file=sys.stderr)
        print(f"bosonspectra{' ' + known if known else ''}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)

    if command in ("-h", "--help"):
        print(_help(), flush=True)
        raise SystemExit(EXIT_OK)
    if known is None:
        fail("no subcommand" if command is None else f"unknown subcommand {command!r}")
    options = _COMMANDS[command][1]
    values = {}
    args = iter(argv[1:])
    for arg in args:
        if arg in ("-h", "--help"):
            print(_help(command), flush=True)
            raise SystemExit(EXIT_OK)
        if arg.startswith("-") and arg != "-":
            name, has_value, value = arg.partition("=")
            if name not in options:
                fail(f"unrecognized argument {name}")
            if not has_value:
                value = next(args, None)
                if value is None or value.startswith("--"):
                    fail(f"argument {name} expects a value")
        elif "MATRIX" in options and "MATRIX" not in values:
            name, value = "MATRIX", arg
        else:
            fail(f"unrecognized argument {arg!r}")
        values[name] = value
    for name, (default, _) in options.items():
        if name not in values:
            if default is _REQUIRED:
                fail(f"argument {name} is required")
            values[name] = default
    if values.get("--seed") is not None:
        try:
            values["--seed"] = int(values["--seed"])
        except ValueError:
            fail(f"argument --seed: invalid integer {values['--seed']!r}")
    return command, values


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; argv defaults to sys.argv[1:]."""
    try:
        command, args = _parse_args(sys.argv[1:] if argv is None else argv)
        output = args["--output"]
        if command == "permanent":
            _write_document(_run_permanent(args["MATRIX"]), output)
            return EXIT_OK
        if command == "hom-scan":
            _write_document(_run_hom_scan(args["--alpha-grid"]), output)
            return EXIT_OK
        cfg = load_config(args["--config"], args["--seed"])
        if command == "distribution":
            _write_document(_run_distribution(cfg), output)
            return EXIT_OK
        doc = _run_verify(cfg)
        _write_document(doc, output)
        return EXIT_OK if doc["passed"] else EXIT_VERIFY_FAILURE
    except (CapacityError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY_ERROR
    except (BosonSpectraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> NoReturn:
    """Run main on sys.argv and end the process with its exit code, skipping interpreter teardown.

    main has written, closed or flushed every output by the time it
    returns; stderr is flushed here, and stdout is never flushed again,
    so a write main already reported cannot fail a second time.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
