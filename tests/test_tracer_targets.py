"""perfbench's tracer finds every function that its layers name.

A function moved to another module leaves its layer with no spans, and the
layer's per-layer metric then reads 0 without a word; this test fails first.
"""
import importlib
from pathlib import Path

import qrakit.cli  # noqa: F401  the tracer wraps modules that are loaded
import qrakit.io
import qrakit.model
import qrakit.sim  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_layer_target_is_found(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        assert tracer._patched
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    # the io.validate layer names io's import of the model's function
    assert qrakit.io.validate_dataset is qrakit.model.validate_dataset
