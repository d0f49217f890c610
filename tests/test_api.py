import inspect
from pathlib import Path

import bosonspectra
import bosonspectra.cli
import bosonspectra.document

REMOVED = {"chi", "enumerate_configurations", "t_sets", "mixture_tuples", "permanent_stack", "enumerate_partitions"}
ENGINE_MODULES = ("sampling", "oracle", "network", "spectra", "permanent")


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
                 "_FACTORIALS", "_factorial_products"):
        assert not hasattr(bosonspectra.sampling, name), name
    assert "mixed" not in bosonspectra.cli.ExperimentConfig.__dataclass_fields__
    assert not hasattr(bosonspectra.cli, "_outcome_json")
    assert not hasattr(bosonspectra.cli, "_mixture_sweep")
    assert not hasattr(bosonspectra.permanent, "permanent_stack")
    for name in ("_Sig15", "_column_texts", "_sig15_texts"):
        assert not hasattr(bosonspectra.document, name), name
    for name in ("MAX_PHOTONS", "MAX_MODES", "MAX_BASIS"):
        assert not hasattr(bosonspectra.oracle, name), name


def test_cli_binds_only_public_engine_names():
    # The CLI reaches the engine through public names only, bound at module
    # level: perfbench's tracer times a cli -> engine call only through such
    # a binding, and it replaces every one it finds.
    engine = {f"bosonspectra.{name}" for name in ENGINE_MODULES}
    private = [
        name for name, obj in vars(bosonspectra.cli).items()
        if inspect.isfunction(obj) and obj.__module__ in engine
        and (name.startswith("_") or obj.__name__.startswith("_"))
    ]
    assert private == []
    for module, name in [("sampling", "probability_chunks"), ("sampling", "mixture_terms"),
                         ("sampling", "probability_nonresolved"), ("oracle", "verify_chunks"),
                         ("permanent", "permanent_ryser")]:
        assert getattr(bosonspectra.cli, name) is getattr(getattr(bosonspectra, module), name), name


def test_package_imported_from_this_checkout():
    # Tier-1 must test these sources, never an installed copy.
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(bosonspectra.__file__).resolve().is_relative_to(src)
