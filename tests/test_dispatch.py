"""Mechanism dispatch resolves at call time, and perfbench's workloads run.

attention.forward and grad.backward are the only places that pick a
function by mechanism name.  Both look it up through module globals when
called, so a replaced module attribute sees every call; perfbench's span
tracer and its stability step counter rely on that.  The benchmark calls
attnlab by name, signature and return shape; the workload check below runs
each workload's warm-up and finite-difference probes against this tree.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from attnlab import attention, grad, linalg, model
from attnlab.attention import MECHANISMS, AttentionSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_attribute_exists(monkeypatch):
    tracer = _load_perfbench(monkeypatch, "tracer")
    before = [getattr(module, attr) for module, attr, _ in tracer.TRACED]
    with tracer.Tracer():
        pass
    assert [getattr(module, attr) for module, attr, _ in tracer.TRACED] == before


def test_stability_runs_one_forward_per_step(monkeypatch):
    # perfbench counts SGD steps as attention.forward calls
    calls = []  # [mechanism, forward calls] per _stability_replica call
    forward, replica = attention.forward, grad._stability_replica

    def counted_forward(Q, K, V, spec, **kw):
        calls[-1][1] += 1
        return forward(Q, K, V, spec, **kw)

    def counted_replica(spec, *args):
        calls.append([spec.mechanism, 0])
        rsd = replica(spec, *args)
        assert np.isfinite(rsd)  # no replica diverged, so each ran every step
        return rsd

    monkeypatch.setattr(attention, "forward", counted_forward)
    monkeypatch.setattr(grad, "_stability_replica", counted_replica)
    specs = grad.default_stability_specs()
    grad.grad_stability_experiment(specs, steps=4, replicas=2)
    assert calls == [[s.mechanism, 4] for s in specs for _ in range(2)]


def test_backward_looks_up_at_call_time(monkeypatch):
    sentinel = tuple(np.full((2, 2), float(i)) for i in range(3))
    monkeypatch.setattr(grad, "_state_backward", lambda *args, **kw: sentinel)
    Q = np.zeros((2, 2))
    out = grad.backward(Q, Q, Q, Q, AttentionSpec("norm"))
    assert len(out) == 3
    assert all(a is b for a, b in zip(out, sentinel))


@pytest.mark.parametrize("mech", MECHANISMS)
@pytest.mark.parametrize("causal", [False, True])
def test_backward_equals_mechanism_backward(mech, causal):
    Q, K, V, dO = (linalg.uniform(8, 4, seed=s) for s in (1, 2, 3, 4))
    spec = AttentionSpec(mech, block_size=4, causal=causal)
    direct = {"vanilla": grad.vanilla_backward, "linear": grad._state_backward,
              "norm": grad._state_backward, "diag": grad.diag_backward}[mech]
    want = direct(Q, K, V, dO, spec)[:3]
    got = grad.backward(Q, K, V, dO, spec)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("mech", MECHANISMS)
@pytest.mark.parametrize("causal", [False, True])
def test_empty_sequence_gives_empty_outputs(mech, causal):
    X = np.zeros((0, 4))
    spec = AttentionSpec(mech, block_size=4, causal=causal)
    for reference in (False, True):
        assert attention.forward(X, X, X, spec, reference=reference).O.shape == (0, 4)
    assert [g.shape for g in grad.backward(X, X, X, X, spec)] == [(0, 4)] * 3
    override = None if mech == "linear" else mech  # no layer runs linear
    config = model.ModelConfig(n_layers=2, n_early=1, d_model=4, n_heads=2, block_size=4,
                               causal=causal, attention_override=override)
    assert model.model_forward(X, config).shape == (0, 4)


@pytest.mark.parametrize("name", ["long-seq", "model-step", "lab-small"])
def test_perfbench_workload_runs(monkeypatch, name):
    # workloads.py imports its sibling oracle.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = _load_perfbench(monkeypatch, "workloads")
        workload = workloads.WORKLOADS[name](1)
        assert workload.ops()
        workload.warm_up()
        probes = workload.probes()
        failed = [probe_name for probe_name, probe in probes
                  if not workloads.fd_passes(*probe())]
    finally:
        sys.modules.pop("oracle", None)
    assert failed == []
