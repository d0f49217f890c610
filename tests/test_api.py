from pathlib import Path

import bosonspectra
import bosonspectra.cli

REMOVED = {"chi", "enumerate_configurations", "t_sets", "mixture_tuples"}


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
    assert "mixed" not in bosonspectra.cli.ExperimentConfig.__dataclass_fields__
    assert not hasattr(bosonspectra.cli, "_outcome_json")


def test_package_imported_from_this_checkout():
    # Tier-1 must test these sources, never an installed copy.
    src = Path(__file__).resolve().parents[1] / "src"
    assert Path(bosonspectra.__file__).resolve().is_relative_to(src)
