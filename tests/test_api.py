import ast
import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bosonspectra
import bosonspectra.cli
import bosonspectra.document

REMOVED = {"chi", "enumerate_configurations", "t_sets", "mixture_tuples", "permanent_stack", "enumerate_partitions"}
ENGINE_MODULES = ("sampling", "oracle", "network", "spectra", "permanent")
ROOT = Path(__file__).resolve().parents[1]


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter with this checkout's src first on PYTHONPATH, as perfbench starts its jobs."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def test_every_exported_name_resolves():
    for name in bosonspectra.__all__:
        assert getattr(bosonspectra, name) is not None, name
    assert len(set(bosonspectra.__all__)) == len(bosonspectra.__all__)


def test_removed_names_are_gone():
    assert REMOVED.isdisjoint(bosonspectra.__all__)
    assert not any(hasattr(bosonspectra, name) for name in REMOVED)
    assert not hasattr(bosonspectra.sampling, "_Engine")
    assert not hasattr(bosonspectra.sampling, "mixture_tuples")
    assert not hasattr(bosonspectra.sampling, "_resolved_probability_padded")
    assert not hasattr(bosonspectra.sampling, "_resolved_sweep")
    for name in ("_mixture_terms", "_nonresolved_chunks", "_resolved_chunks", "_pools", "enumerate_partitions",
                 "_FACTORIALS", "_factorial_products", "as_resolved_outcome", "_priced_chunks", "_chunk",
                 "_pure_chunks"):
        assert not hasattr(bosonspectra.sampling, name), name
    for name in ("_repeat_indices", "_submatrix", "_exact_int"):
        assert not hasattr(bosonspectra.network, name), name
    for name in ("_parse_int", "_parse_real"):
        assert not hasattr(bosonspectra.cli, name), name
    assert "mixed" not in inspect.signature(bosonspectra.cli.ExperimentConfig).parameters
    assert not hasattr(bosonspectra.cli, "build_parser")
    assert not hasattr(bosonspectra.cli, "_outcome_json")
    assert not hasattr(bosonspectra.cli, "_mixture_sweep")
    assert not hasattr(bosonspectra.permanent, "permanent_stack")
    for name in ("_Sig15", "_column_texts", "_sig15_texts"):
        assert not hasattr(bosonspectra.document, name), name
    for name in ("MAX_PHOTONS", "MAX_MODES", "MAX_BASIS"):
        assert not hasattr(bosonspectra.oracle, name), name


def test_records_keep_their_dataclass_behaviour(tmp_path):
    # Constructors, repr, ==, hash, read-only fields, copy and pickle, as the
    # dataclasses these seven classes once were gave them.
    from bosonspectra import (CoefficientSpectrum, GaussianWavepacket, Interferometer, LambdaMatrix,
                              MixedPhotonSource, fock_evolve, make_dft)

    g = GaussianWavepacket(0.1, 1.5)
    assert g == GaussianWavepacket(mu=0.1, sigma=1.5, tau=0.0) and hash(g) == hash(GaussianWavepacket(0.1, 1.5, 0.0))
    assert g != GaussianWavepacket(0.1, 1.5, 0.2) and g.__eq__((0.1, 1.5, 0.0)) is NotImplemented
    c = CoefficientSpectrum(coefficients=np.array([0.6, 0.8j]))
    mixed = MixedPhotonSource(components=((0.25, g), (0.75, c)))
    assert mixed == MixedPhotonSource(((0.25, GaussianWavepacket(0.1, 1.5)), (0.75, CoefficientSpectrum([0.6, 0.8j]))))
    u = Interferometer(matrix=np.eye(2))
    lam = LambdaMatrix([[1.0, 0.0], [0.6, 0.8]])
    state = fock_evolve(make_dft(2), lam)
    (tmp_path / "c.json").write_text(json.dumps({
        "network": {"preset": "dft", "modes": 2}, "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}],
    }))
    cfg = bosonspectra.cli.load_config(str(tmp_path / "c.json"))
    assert repr(g) == "GaussianWavepacket(mu=0.1, sigma=1.5, tau=0.0)"
    assert repr(mixed) == ("MixedPhotonSource(components=((0.25, GaussianWavepacket(mu=0.1, sigma=1.5, tau=0.0)), "
                           "(0.75, CoefficientSpectrum())))")
    assert repr(u) == "Interferometer()" and repr(state) == "FockState(m=2, basis_size=2, n=2)"
    assert repr(lam) == "LambdaMatrix(n=2, basis_size=2)"
    assert repr(cfg) == (
        "ExperimentConfig(interferometer=Interferometer(), photons=[GaussianWavepacket(mu=0.0, sigma=1.0, tau=0.0)], "
        "input_modes=(1,), detector='nonresolved', outcome=None, echo={'network': {'preset': 'dft', 'modes': 2}, "
        "'photons': [{'gaussian': {'mu': 0.0, 'sigma': 1.0, 'tau': 0.0}}], 'input_modes': [1], "
        "'detector': 'nonresolved', 'query': 'distribution'})"
    )
    assert str(inspect.signature(type(state))) == (
        "(m: int, basis_size: int, n: int, occupations: numpy.ndarray, keys: numpy.ndarray, values: numpy.ndarray)"
        " -> None"
    )
    twins = {id(record): (copy.copy(record), pickle.loads(pickle.dumps(record)))
             for record in (g, c, mixed, u, lam, state, cfg)}
    for record in (g, c, mixed, u, lam, state, cfg):
        assert all(twin is not record and repr(twin) == repr(record) for twin in twins[id(record)])
    for record in (g, c, mixed):
        assert all(twin == record and hash(twin) == hash(record) for twin in twins[id(record)])
    # Networks, lambda matrices and Fock states are equal only to themselves,
    # so a config's copy, which shares its network, is equal to it, and its
    # pickle is not.
    assert all(twin != record for record in (u, lam, state) for twin in twins[id(record)])
    assert twins[id(cfg)][0] == cfg and twins[id(cfg)][1] != cfg
    twin = pickle.loads(pickle.dumps(state))
    assert dict(twin.amplitudes) == dict(state.amplitudes) and twin.norm_squared() == state.norm_squared()
    for record, field in ((g, "mu"), (c, "coefficients"), (mixed, "components"), (u, "matrix"), (lam, "matrix"),
                          (state, "n"), (cfg, "detector")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = None
    # A config is read-only like the engine's records; its list and dict
    # fields leave it unhashable.
    twin = copy.copy(cfg)
    with pytest.raises(AttributeError):
        twin.detector = "resolved"
    assert twin == cfg and cfg.detector == "nonresolved"
    with pytest.raises(TypeError):
        hash(cfg)


@pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))],
                         ids=["copy", "deepcopy", "pickle"])
def test_record_arrays_stay_read_only_in_copies(twin):
    # The constructors freeze these arrays after checking them; a copy or an
    # unpickled record must not hand out a writeable one that skips the checks.
    from bosonspectra import CoefficientSpectrum, Interferometer, LambdaMatrix, orthonormal_decomposition

    lam = LambdaMatrix([[0.6, 0.8j]])
    for record, field in ((lam, "matrix"), (lam, "gram"), (orthonormal_decomposition([[1, 0.6], [0.6, 1]]), "gram"),
                          (Interferometer(np.eye(2)), "matrix"), (CoefficientSpectrum([0.6, 0.8j]), "coefficients")):
        array = getattr(twin(record), field)
        assert not array.flags.writeable and np.array_equal(array, getattr(record, field))
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        assert getattr(record, field).flags.writeable is False


def test_cli_binds_only_public_engine_names():
    # The CLI reaches the engine through public names only: permanent_ryser
    # at module level, the rest imported inside the functions that use them.
    engine = {f"bosonspectra.{name}" for name in ENGINE_MODULES}
    private = [
        name for name, obj in vars(bosonspectra.cli).items()
        if inspect.isfunction(obj) and obj.__module__ in engine
        and (name.startswith("_") or obj.__name__.startswith("_"))
    ]
    assert private == []
    assert bosonspectra.cli.permanent_ryser is bosonspectra.permanent.permanent_ryser
    tree = ast.parse(Path(bosonspectra.cli.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if isinstance(node, ast.ImportFrom) and node.module in ENGINE_MODULES
        for alias in node.names
    ]
    assert {module for module, _ in imported} == {"network", "oracle", "sampling", "spectra"}
    for module, name in imported:
        assert not name.startswith("_") and hasattr(getattr(bosonspectra, module), name), (module, name)


def test_package_imports_form_no_cycle():
    # Every `from .x import` of the package, those inside functions
    # included, is an edge; a cycle means two modules each own half of
    # something.
    package = Path(bosonspectra.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = {
            node.module or (alias.name if alias.name in modules else "__init__")
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name not in done:
            path.append(name)
            for target in sorted(graph[name]):
                visit(target)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_modules_use_every_import():
    # Every name an import binds is read as a name in its scope: the
    # function that imports it lazily, or the module. A name in a string
    # annotation is read; a name in a docstring is not.
    def imports(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield scope, child
            yield from imports(child, child if isinstance(child, ast.FunctionDef) else scope)

    def read(scope):
        names = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        annotations = [node.annotation for node in ast.walk(scope) if isinstance(node, (ast.arg, ast.AnnAssign))]
        annotations += [node.returns for node in ast.walk(scope) if isinstance(node, ast.FunctionDef)]
        for text in (node.value for a in annotations if a for node in ast.walk(a) if isinstance(node, ast.Constant)):
            if isinstance(text, str):
                names |= read(ast.parse(text, mode="eval"))
        return names

    package = Path(bosonspectra.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, node in imports(tree, tree):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read(scope):
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_package_imported_from_this_checkout():
    # Tier-1 must test these sources, never an installed copy.
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(bosonspectra.__file__).resolve().is_relative_to(src)


# Each runs in a new interpreter, so that no earlier import has loaded a name.
LAZY_EXPORTS = {
    "bare import loads no submodule":
        "import sys, bosonspectra\n"
        "assert [m for m in sys.modules if m.startswith('bosonspectra.')] == []",
    "each name is its module's object":
        "import importlib, bosonspectra\n"
        "for name in bosonspectra.__all__:\n"
        "    obj = getattr(bosonspectra, name)\n"
        "    assert obj.__module__.startswith('bosonspectra.'), name\n"
        "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name",
    "dir lists every name":
        "import bosonspectra\n"
        "assert set(bosonspectra.__all__) <= set(dir(bosonspectra))",
    "star import binds every name":
        "import bosonspectra\n"
        "names = {}\n"
        "exec('from bosonspectra import *', names)\n"
        "assert all(names[name] is getattr(bosonspectra, name) for name in bosonspectra.__all__)",
    "submodule after a bare import":
        "import bosonspectra\n"
        "assert bosonspectra.sampling.probability_chunks is bosonspectra.probability_chunks",
    "unknown names raise":
        "import bosonspectra\n"
        "assert not hasattr(bosonspectra, 'chi')\n"
        "try:\n"
        "    from bosonspectra import chi\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('bosonspectra.chi imported')",
}


@pytest.mark.parametrize("check", LAZY_EXPORTS.values(), ids=LAZY_EXPORTS.keys())
def test_lazy_exports(check):
    fresh_python("-c", check)


CONFIG_MODULES = {"errors", "document", "permanent", "network", "spectra", "sampling"}


@pytest.mark.parametrize("argv,loaded", [
    (["permanent", "matrix.json"], {"errors", "document", "permanent"}),
    (["distribution", "--config", "config.json"], CONFIG_MODULES),
    (["distribution", "--config", "three.json"], CONFIG_MODULES | {"pairsum"}),
    (["hom-scan", "--alpha-grid", "0:1:3"], CONFIG_MODULES | {"pairsum"}),
    (["verify", "--config", "config.json"], CONFIG_MODULES | {"oracle"}),
], ids=["permanent", "distribution", "distribution, pair sum", "hom-scan", "verify"])
def test_each_subcommand_imports_only_what_it_runs(tmp_path, argv, loaded):
    # Two identical photons (r = 1) take the split sum; three distinct ones
    # (r = 3), like HOM's two (r = 2), the pair sum.
    (tmp_path / "matrix.json").write_text(json.dumps([[[0.5, -0.25]]]))
    (tmp_path / "config.json").write_text(json.dumps({
        "network": {"preset": "beamsplitter"},
        "photons": [{"gaussian": {"mu": 0.0, "sigma": 1.0}}, {"gaussian": {"mu": 0.0, "sigma": 1.0}}],
    }))
    (tmp_path / "three.json").write_text(json.dumps({
        "network": {"preset": "dft", "modes": 3},
        "photons": [{"gaussian": {"mu": mu, "sigma": 1.0}} for mu in (0.0, 0.5, 1.0)],
    }))
    paths = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv]
    done = fresh_python("-X", "importtime", "-m", "bosonspectra.cli", *paths, "--output", str(tmp_path / "out.json"))
    modules = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert {name.split(".", 1)[1] for name in modules if name.startswith("bosonspectra.")} == loaded
    # Nor does a job load a standard-library framework to build records or read argv.
    assert modules.isdisjoint({"argparse", "dataclasses", "gettext", "locale", "copy"})


def _photons(count: int = 2) -> list:
    return [{"gaussian": {"mu": 0.0, "sigma": 1.0}}] * count


# Each reader of an outside value: (the value's name in its error, the kinds of value it reads, and
# a call that reads the value). A call that returns (argv, payload) is a CLI job: the payload is
# written to a JSON file whose path goes at the end of argv.
READERS = {
    "make_dft": ("mode count", "count", lambda v: bosonspectra.make_dft(v)),
    "make_random_unitary modes": ("mode count", "count", lambda v: bosonspectra.make_random_unitary(v, 1)),
    "make_random_unitary seed": ("seed", "count", lambda v: bosonspectra.make_random_unitary(2, v)),
    "enumerate_resolved_outcomes n": ("photon count", "integer",
                                      lambda v: list(bosonspectra.enumerate_resolved_outcomes(v, 2, 1))),
    "enumerate_resolved_outcomes m": ("mode count", "count",
                                      lambda v: list(bosonspectra.enumerate_resolved_outcomes(1, v, 1))),
    "enumerate_resolved_outcomes basis": ("basis size", "integer",
                                          lambda v: list(bosonspectra.enumerate_resolved_outcomes(1, 2, v))),
    "default_input_modes": ("photon count", "integer", lambda v: bosonspectra.default_input_modes(v)),
    "as_occupation": ("occupation count", "integer", lambda v: bosonspectra.as_occupation((v, 1))),
    "input modes": ("input mode", "integer", lambda v: bosonspectra.probability_nonresolved(
        bosonspectra.make_beamsplitter_50_50(), bosonspectra.LambdaMatrix(np.eye(2)), (1, v), (1, 1))),
    "GaussianWavepacket mu": ("mu", "real", lambda v: bosonspectra.GaussianWavepacket(v, 1.0)),
    "GaussianWavepacket sigma": ("sigma", "real", lambda v: bosonspectra.GaussianWavepacket(0.0, v)),
    "GaussianWavepacket tau": ("tau", "real", lambda v: bosonspectra.GaussianWavepacket(0.0, 1.0, v)),
    "MixedPhotonSource": ("mixture weight", "real", lambda v: bosonspectra.MixedPhotonSource(
        ((v, bosonspectra.GaussianWavepacket(0.0, 1.0)), (1.0, bosonspectra.GaussianWavepacket(0.0, 1.0))))),
    "Interferometer": ("interferometer matrix", "array", lambda v: bosonspectra.Interferometer(v)),
    "LambdaMatrix": ("lambda matrix", "array", lambda v: bosonspectra.LambdaMatrix(v)),
    "LambdaMatrix.rotated": ("rotation matrix", "array", lambda v: bosonspectra.LambdaMatrix(np.eye(2)).rotated(v)),
    "CoefficientSpectrum": ("coefficient row", "array", lambda v: bosonspectra.CoefficientSpectrum(v[0])),
    "orthonormal_decomposition": ("Gram matrix", "array", lambda v: bosonspectra.orthonormal_decomposition(v)),
    "permanent_ryser": ("matrix", "array", lambda v: bosonspectra.permanent_ryser(v)),
    "permanent_naive": ("matrix", "array", lambda v: bosonspectra.permanent_naive(v)),
    # The CLI names a value by its JSON path. Strict JSON cannot spell nan or an infinity, and
    # the config reader refuses those literals before any value is read (test_cli.py), so its
    # real readers take the other real inputs.
    "config network.modes": ("network.modes", "count", lambda v: (
        ["distribution", "--config"], {"network": {"preset": "dft", "modes": v}, "photons": _photons(1)})),
    "config network.seed": ("network.seed", "count", lambda v: (
        ["distribution", "--config"],
        {"network": {"preset": "random", "modes": 2, "seed": v}, "photons": _photons()})),
    "--seed": ("--seed", "flag", lambda v: (
        ["distribution", "--seed", str(v), "--config"],
        {"network": {"preset": "random", "modes": 2}, "photons": _photons()})),
    "config input_modes": ("input_modes[1]", "integer", lambda v: (
        ["distribution", "--config"],
        {"network": {"preset": "beamsplitter"}, "photons": _photons(), "input_modes": [1, v]})),
    "config query.signature": ("query.signature[0]", "integer", lambda v: (
        ["distribution", "--config"], {"network": {"preset": "beamsplitter"}, "photons": _photons(),
                                       "query": {"signature": [v, 1]}})),
    "config gaussian mu": ("photons[1].gaussian.mu", "json real", lambda v: (
        ["distribution", "--config"], {"network": {"preset": "beamsplitter"},
                                       "photons": _photons(1) + [{"gaussian": {"mu": v, "sigma": 1.0}}]})),
    "config mixture probability": ("photons[0].mixture[1].probability", "json real", lambda v: (
        ["distribution", "--config"], {"network": {"preset": "beamsplitter"}, "photons": [{"mixture": [
            {"probability": 1.0, **_photons(1)[0]}, {"probability": v, **_photons(1)[0]}]}]})),
    "config network.unitary": ("network.unitary[0]", "array", lambda v: (
        ["distribution", "--config"], {"network": {"unitary": v}, "photons": _photons(1)})),
    "config coefficients": ("photons[0].coefficients[1]", "array", lambda v: (
        ["distribution", "--config"], {"network": {"preset": "beamsplitter"}, "photons": [{"coefficients": v[0]}]})),
    "permanent MATRIX": ("json[0]", "array", lambda v: (["permanent"], v)),
}
STRING_MATRIX = [[1, "0"], ["0", 1]]  # numpy would read it as the identity
VALUES = {
    "integer": {"True": True, "'1'": "1", "2.5": 2.5},
    "count": {"True": True, "'1'": "1", "2.5": 2.5, "-1": -1},
    "flag": {"-1": -1},
    "real": {"nan": float("nan"), "inf": float("inf"), "10**400": 10**400, "True": True},
    "json real": {"10**400": 10**400, "True": True},
    "array": {"strings": STRING_MATRIX},
}


@pytest.mark.parametrize("reader,value", [(reader, value) for reader, (_, kind, _) in READERS.items()
                                          for value in VALUES[kind]])
def test_malformed_values_are_refused_by_name(tmp_path, capsys, reader, value):
    # Each used to pass (True as 1, "1" as 1 where numpy parses strings, 2.5 as a float mode
    # count), or to fail with numpy's or Python's own error, naming no value.
    name, kind, read = READERS[reader]
    try:
        job = read(VALUES[kind][value])
    except bosonspectra.BosonSpectraError as exc:
        assert name in str(exc)
        return
    argv, payload = job
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert bosonspectra.cli.main([*argv, str(path), "--output", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and name in err, err
    assert not (tmp_path / "out.json").exists()
