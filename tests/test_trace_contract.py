"""The benchmark's span tracer wraps names of the package from outside
(`perfbench/spans.py`). A renamed or inlined name would silently turn its
per-layer metrics to null, so these tests load the tracer as it is and
check every name it wraps against the package in `src/`."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from p2psim import engine
from p2psim.estimator import EstimatorArrays

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name: str, path: str):
    """The owner of the wrapped name, its last attribute, and the value."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def test_every_traced_name_is_a_callable_of_the_package():
    spans = load_spans()
    src = ROOT / "src"
    assert set(spans.ENGINE_PHASES) <= set(spans.TARGETS)
    for name, targets in spans.TARGETS.items():
        for module_name, path in targets:
            module = importlib.import_module(module_name)
            assert Path(module.__file__).resolve().is_relative_to(src), module_name
            _, _, fn = resolve(module_name, path)
            assert callable(fn), f"{name}: {module_name}.{path}"
    # The sweep hook counts the swept ids this property returns.
    assert isinstance(engine.Simulation.last_w_sweep, property)


def test_a_traced_run_reports_every_layer_metric():
    # Wrap the package as the benchmark does, run a small simulation with
    # growth, departures and whitewashing, and put every name back after.
    spans = load_spans()
    saved = [
        resolve(module_name, path)
        for targets in spans.TARGETS.values()
        for module_name, path in targets
    ]
    tracer = spans.Tracer()
    # The kernel's own count of swept nodes, step by step, that the sweep
    # hook must reproduce.
    sweep, swept = EstimatorArrays.sweep, []

    def counted_sweep(*args):
        result = sweep(*args)
        swept.append(result[0])
        return result

    try:
        EstimatorArrays.sweep = counted_sweep
        tracer.install()
        sim = engine.Simulation(
            engine.SimConfig(n=120, growth_percent_per_10=5.0, legit_departure_prob=0.02,
                             iterations=0, seed=1)
        )
        for _ in range(30):
            sim.step()
    finally:
        EstimatorArrays.sweep = sweep
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    assert not tracer.missing
    _, calls = tracer.self_times()
    for phase in spans.ENGINE_PHASES:
        assert calls[phase] > 0, phase
    metrics = spans.layer_metrics(tracer, 0.0)
    assert metrics["estimator.swept_nodes"] == sum(swept) > 0
    assert [k for k, v in metrics.items() if v is None] == []
