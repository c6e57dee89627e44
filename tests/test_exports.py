"""Every name a layer exports resolves: the per-layer tracer of the benchmark
looks up each ``__all__`` entry with ``getattr``, so a stale entry would
break every traced run."""

import importlib

import pytest

LAYERS = ["scalars", "algebra", "pbw", "identities", "verma", "linalg", "realizations", "cli"]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"w22.{layer}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
