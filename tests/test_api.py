import bosonspectra

REMOVED = {"chi", "enumerate_configurations", "t_sets"}


def test_every_exported_name_resolves():
    for name in bosonspectra.__all__:
        assert getattr(bosonspectra, name) is not None, name
    assert len(set(bosonspectra.__all__)) == len(bosonspectra.__all__)


def test_removed_names_are_gone():
    assert REMOVED.isdisjoint(bosonspectra.__all__)
    assert not any(hasattr(bosonspectra, name) for name in REMOVED)
    assert not hasattr(bosonspectra.sampling, "_Engine")
