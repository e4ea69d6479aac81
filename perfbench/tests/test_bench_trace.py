import sys

import pytest

import tracing
import workloads


def _attributes():
    """Every attribute of every qrakit module and of QraDataset."""
    import qrakit.model

    holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "qrakit"]
    holders.append(qrakit.model.QraDataset)
    return {(id(h), name): value for h in holders for name, value in vars(h).items()}


@pytest.fixture(params=["library_sweep", "corpus"])
def workload(request, tmp_path):
    if request.param == "library_sweep":
        return workloads.LibrarySweep(tmp_path, 1), None
    return workloads.Corpus10k(tmp_path, 1, n_objects=30), "csv"


def test_traced_run_restores_every_wrapped_attribute(workload):
    wl, variant = workload
    before = _attributes()
    tracer = tracing.Tracer()
    with tracer.installed(*wl.shared_datasets()):
        assert tracer._patched
        wl.op(variant)
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(type(d.measurements) is tuple for d in wl.shared_datasets())


def test_traced_and_untraced_outputs_are_identical(workload):
    wl, variant = workload
    wl.prepare()
    plain = wl.collect(variant, wl.op(variant))
    raw, layers, _ = wl.traced_op(variant, tracing.Tracer())
    assert wl.collect(variant, raw) == plain
    assert wl.verify(variant, plain) == []
    assert layers["engine.assess"]["calls"] > 0
    assert layers["precision.t_quantile"]["calls"] == layers["engine.assess"]["calls"]
