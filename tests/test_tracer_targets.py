"""perfbench's tracer finds every function that its layers name, and sees
every table that ``qra`` prints.

A function moved to another module, a table rendered past the traced
functions, or an engine that routes around a traced function (reading
``_T_975`` instead of calling ``t_quantile``, say) leaves its layer without
spans, and the layer's per-layer metric then reads 0 without a word; these
tests fail first.
"""
import importlib
from pathlib import Path

import pytest

import qrakit.cli  # the tracer wraps modules that are loaded
import qrakit.engine
import qrakit.io
import qrakit.model
import qrakit.sim  # noqa: F401
from qrakit.render import FORMATS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing").Tracer()


def test_every_layer_target_is_found(tracer):
    tracer.install()
    try:
        assert tracer._patched
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    # the io.validate layer names io's import of the model's function
    assert qrakit.io.validate_dataset is qrakit.model.validate_dataset


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_layer_sees_every_table_qra_prints(tracer, capsys, fmt):
    """``qra`` renders through ``render_reports``, which the tracer does not wrap;
    the tables it joins must still each be one ``render`` span."""
    tracer.install()
    try:
        code = qrakit.cli.main(["assess", "--input", "builtin", "--conditions",
                                "--render", fmt])
        render = tracer.take()["render"]
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert code == 0
    # one precision table and 18 condition matrices, joined by 18 newlines
    assert render["calls"] == 19
    assert render["bytes"] == len(out.encode("utf-8")) - 18


def test_the_engine_goes_through_every_traced_layer(tracer):
    """Each assessed pair is one span of each layer on its path."""
    dataset = qrakit.io.bundled_paper_dataset()
    tracer.install()
    try:
        for obj, meas in dataset.pairs():
            qrakit.engine.run_qra_test(dataset, obj, meas)
        totals = tracer.take()
    finally:
        tracer.uninstall()
    assert len(dataset.pairs()) == 18
    for layer in ("engine.assess", "model.group", "engine.condition_diff",
                  "precision.pipeline", "precision.t_quantile"):
        assert totals[layer]["calls"] == 18, layer
