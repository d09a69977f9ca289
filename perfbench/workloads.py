"""The three benchmark workloads.

Each workload is a closed loop with one caller: a pass runs a fixed, seeded
list of ops one at a time. Inputs come from numpy's generator seeded with the
benchmark's ``--seed``; attnlab receives only the arrays (the lab suites take
the seed itself, as ``attnlab verify`` does). Every op result is reduced to a
summary outside the timed call and checked: against the independent
reference in ``oracle`` for long-seq and model-step, and for pass flags and
run-to-run identity on lab-small.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from statistics import median
from time import perf_counter_ns
from typing import Any, Callable

import numpy as np

from attnlab import attention, cli, grad, model
from attnlab.attention import AttentionSpec

import oracle

FD_TOL = 1e-6  # the lab's own finite-difference tolerance (attnlab verify --suite fd)
WEIGHTS = ("W_Q", "W_K", "W_V", "W_O", "W_g", "W_u", "W_down")


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]     # the timed call into attnlab
    summarize: Callable[[Any], Any]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _spec(mech, causal, block=64):
    if mech == "diag":
        return AttentionSpec("diag", block_size=block, causal=causal)
    if mech in ("linear", "norm"):
        return AttentionSpec(mech, kernel="1+elu", causal=causal, epsilon=1e-5)
    return AttentionSpec("vanilla", causal=causal)


def _backward(mech, Q, K, V, dO, spec):
    # looked up at call time so a traced run sees its proxies
    fn = {"vanilla": grad.vanilla_backward, "linear": grad.linear_scaled_backward,
          "norm": grad.norm_backward, "diag": grad.diag_backward}[mech]
    return fn(Q, K, V, dO, spec)[:3]


def _fd(forward_fn, params, analytic, dO):
    """The timed part of a probe: ``grad.finite_diff_check`` at the lab's
    step. Returns its error and the same check at a quarter of the step, for
    ``fd_passes``."""
    err = grad.finite_diff_check(forward_fn, params, analytic, dO)
    return err, lambda: grad.finite_diff_check(forward_fn, params, analytic, dO,
                                               h=grad.FD_STEP / 4)


def fd_passes(err, finer):
    """A probe's verdict: its error within FD_TOL.

    On an ill-conditioned draw the central difference's O(h^2) truncation
    alone can exceed FD_TOL (the norm layer's gradient reaches ~900 on about
    2% of seeds). Then the error must shrink like h^2 when h shrinks 4x; the
    error of a wrong gradient stays put. This recheck is not timed, so that
    verify_s does not depend on how the seed's draw is conditioned.
    """
    return err <= FD_TOL or finer() <= max(FD_TOL, err / 8)


def _fd_attention(mech, causal, seed):
    n, d = 8, 4
    rng = np.random.default_rng(seed)
    Q, K, V, dO = (rng.uniform(-0.5, 0.5, (n, d)) for _ in range(4))
    spec = _spec(mech, causal, block=4)
    dQ, dK, dV = _backward(mech, Q, K, V, dO, spec)
    return _fd(lambda p: attention.forward(p["Q"], p["K"], p["V"], spec).O,
               {"Q": Q.copy(), "K": K.copy(), "V": V.copy()},
               {"Q": dQ, "K": dK, "V": dV}, dO)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.expected: dict = {}

    def check(self, kind, summary) -> bool:
        """Golden reference summaries, computed once per op kind on demand."""
        if kind not in self.expected:
            self.expected[kind] = self.reference(kind)
        return oracle.matches(summary, self.expected[kind])

    def observe(self, kind, out) -> None:
        """Extra samples an op yields besides its own time (timed passes only)."""

    def probes(self) -> list:
        """(name, probe) pairs; a probe returns what ``fd_passes`` takes."""
        return []


class LongSeq(Workload):
    """Single-head attention, d=16: every mechanism, causal and not."""

    name = "long-seq"
    D = 16
    LENGTHS = (1024, 2048)
    MECHS = ("vanilla", "linear", "norm", "diag")
    # linear's backward carries an O(n^3) report: about 11 s at n=1024
    LINEAR_BWD = {1024: 256, 2048: 512}
    # forwards other than vanilla take 2-180 ms; a pass repeats them so that
    # their medians do not rest on one short sample
    FWD_REPEATS = 8

    def __init__(self, seed):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.qkv = {n: tuple(rng.uniform(-0.5, 0.5, (n, self.D)) for _ in range(3))
                    for n in (256, 512, 1024, 2048)}
        self.probe_seed = int(rng.integers(2**63))
        self.sizes = {"d": self.D, "lengths": list(self.LENGTHS),
                      "linear_bwd_lengths": list(self.LINEAR_BWD.values()),
                      "diag_block": 64, "kernel": "1+elu", "epsilon": 1e-5, "dO": 0.5}
        self.train_pairs = []  # (forward kind, backward kind, n)

    @staticmethod
    def tag(causal):
        return "causal" if causal else "nc"

    def _fwd(self, mech, causal, n, qkv=None):
        Q, K, V = qkv or self.qkv[n]
        spec = _spec(mech, causal)
        return Op(f"attention.{mech}.{self.tag(causal)}.n{n}.fwd",
                  lambda: attention.forward(Q, K, V, spec).O, oracle.abs_sums)

    def _bwd(self, mech, causal, n, qkv=None):
        Q, K, V = qkv or self.qkv[n]
        dO = np.full((n, self.D), 0.5)
        spec = _spec(mech, causal)
        return Op(f"grad.{mech}.{self.tag(causal)}.n{n}.bwd",
                  lambda: _backward(mech, Q, K, V, dO, spec),
                  lambda g: oracle.abs_sums(*g))

    def ops(self):
        groups, short, self.train_pairs = [], [], []
        for mech in self.MECHS:
            for causal in (False, True):
                for n in self.LENGTHS:
                    nb = self.LINEAR_BWD[n] if mech == "linear" else n
                    fwd = [self._fwd(mech, causal, m) for m in sorted({n, nb}, reverse=True)]
                    bwd = self._bwd(mech, causal, nb)
                    groups.append(fwd + [bwd])
                    if mech != "vanilla":
                        short += fwd
                    self.train_pairs.append((fwd[-1].kind, bwd.kind, nb))
        # the short forwards' other FWD_REPEATS - 1 calls come in rounds of
        # one call each, spread evenly between the groups: the host's speed
        # drifts, and adjacent calls would all sample one moment of it
        rounds, ops = self.FWD_REPEATS - 1, []
        for g, group in enumerate(groups):
            ops += group
            if (g + 1) * rounds // len(groups) > g * rounds // len(groups):
                ops += short
        return ops

    def warm_up(self):
        # one full-size forward first: the allocator settles its thresholds
        # for the n x n buffers before any timed call
        self._fwd("vanilla", False, 1024).call()
        rng = np.random.default_rng(0)
        qkv = tuple(rng.uniform(-0.5, 0.5, (64, self.D)) for _ in range(3))
        for mech in self.MECHS:
            for causal in (False, True):
                self._fwd(mech, causal, 64, qkv).call()
                self._bwd(mech, causal, 64, qkv).call()

    def reference(self, kind):
        _, mech, tag, size, phase = kind.split(".")
        n = int(size[1:])
        Q, K, V = self.qkv[n]
        if phase == "fwd":
            return oracle.abs_sums(oracle.attention(mech, Q, K, V, causal=tag == "causal"))
        _, g = oracle.attention(mech, Q, K, V, np.full((n, self.D), 0.5),
                                causal=tag == "causal")
        return oracle.abs_sums(*g)

    def probes(self):
        """Finite differences through each mechanism at n=8."""
        cases = itertools.product(self.MECHS, (False, True))
        return [(f"fd.{m}.{self.tag(c)}",
                 lambda m=m, c=c, i=i: _fd_attention(m, c, [self.probe_seed, i]))
                for i, (m, c) in enumerate(cases)]

    def throughput(self, times):
        fwd = geomean([op_n(k) / median(t) for k, t in times.items() if k.endswith(".fwd")])
        train = geomean([n / (median(times[f]) + median(times[b]))
                         for f, b, n in self.train_pairs])
        return fwd, train


def op_n(kind):
    """Token count encoded in a long-seq op kind (``...n2048.fwd``)."""
    return int(kind.split(".")[3][1:])


class ModelStep(Workload):
    """The paper's hybrid stack: a diag layer then a norm layer, variant t2."""

    name = "model-step"
    N = 2048
    HEADS = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.cfg = model.ModelConfig(n_layers=2, n_early=1, d_model=32, n_heads=self.HEADS,
                                     block_size=64, variant="t2")
        rng = np.random.default_rng(seed)
        self.params = self._params(self.cfg, rng)
        d = self.cfg.d_model
        self.x0 = rng.normal(size=(self.N, d))
        self.G = [rng.uniform(-0.5, 0.5, (self.N, d)) for _ in range(2)]
        self.x1 = model.layer_forward(self.x0, self.params[0], 0, self.cfg)
        self.probe_seed = int(rng.integers(2**63))
        self.sizes = {"n": self.N, "d_model": d, "n_heads": self.HEADS, "layers": ["diag", "norm"],
                      "variant": "t2", "block_size": 64, "ffn_dim": self.cfg.ffn_dim}

    @staticmethod
    def _params(cfg, rng):
        d, f = cfg.d_model, cfg.ffn_dim
        shapes = {"W_Q": (d, d), "W_K": (d, d), "W_V": (d, d), "W_O": (d, d),
                  "W_g": (d, f), "W_u": (d, f), "W_down": (f, d)}
        return [model.LayerParams(**{k: rng.normal(0.0, 1.0 / math.sqrt(d), s)
                                     for k, s in shapes.items()})
                for _ in range(cfg.n_layers)]

    def _ops(self, x0, x1, G, params, cfg, fwd_repeats=5):

        def grads(out):
            dx, g = out
            return oracle.abs_sums(dx, *(g[k] for k in WEIGHTS))

        # the forward (0.2 s) repeats so its median rests on several samples,
        # spread around the backwards so that they sample more than one
        # moment of the host's drifting speed
        fwd = Op("model.model_forward", lambda: model.model_forward(x0, cfg, params),
                 oracle.abs_sums)
        diag = Op("model.layer_backward.diag",
                  lambda: model.layer_backward(x0, params[0], 0, cfg, G[0]), grads)
        norm = Op("model.layer_backward.norm",
                  lambda: model.layer_backward(x1, params[1], 1, cfg, G[1]), grads)
        if not fwd_repeats:
            return [diag, norm]
        half = fwd_repeats // 2
        return [fwd] * half + [diag, fwd, norm] + [fwd] * (fwd_repeats - half - 1)

    def ops(self):
        return self._ops(self.x0, self.x1, self.G, self.params, self.cfg)

    def warm_up(self):
        self.ops()[0].call()  # full-size forward: settles the allocator as on long-seq
        n = 128
        for op in self._ops(self.x0[:n], self.x1[:n], [g[:n] for g in self.G],
                            self.params, self.cfg, fwd_repeats=0):
            op.call()

    def reference(self, kind):
        kw = dict(heads=self.cfg.n_heads, block=self.cfg.block_size, eps=self.cfg.epsilon)
        if kind == "model.model_forward":
            y = oracle.layer(self.x0, self.params[0], "diag", **kw)
            return oracle.abs_sums(oracle.layer(y, self.params[1], "norm", **kw))
        i, mech = (0, "diag") if kind.endswith("diag") else (1, "norm")
        x = self.x0 if i == 0 else self.x1
        _, dx, g = oracle.layer(x, self.params[i], mech, G=self.G[i], **kw)
        return oracle.abs_sums(dx, *(g[k] for k in WEIGHTS))

    def probes(self):
        """Finite differences through the norm layer at n=8, d_model=4."""
        cfg = model.ModelConfig(n_layers=2, n_early=1, d_model=4, n_heads=2,
                                block_size=4, glu_dim=6, variant="t2")
        rng = np.random.default_rng(self.probe_seed)
        params = self._params(cfg, rng)[1]
        x, d_out = rng.normal(size=(8, 4)), rng.uniform(-0.5, 0.5, (8, 4))

        def layer_fd():
            dx, g = model.layer_backward(x, params, 1, cfg, d_out)

            def fwd(p):
                lp = model.LayerParams(**{k: p[k] for k in WEIGHTS})
                return model.layer_forward(p["x"], lp, 1, cfg)

            named = {"x": x.copy(), **{k: v.copy() for k, v in params.named().items()}}
            return _fd(fwd, named, {"x": dx, **g}, d_out)

        return [("fd.layer.norm", layer_fd)]

    def throughput(self, times):
        t_fwd = median(times["model.model_forward"])
        t_bwd = sum(median(t) for k, t in times.items() if k.startswith("model.layer_backward"))
        return self.N / t_fwd, self.N / (t_fwd + t_bwd)


class LabSmall(Workload):
    """The lab's verification workflow: the four verify suites, then the
    gradient-stability experiment, at the seed."""

    name = "lab-small"
    # bounds runs 50 of its default 200 trials and the experiment 30 SGD
    # steps, so that a run with its tracemalloc pass (about 5x slower on these
    # small calls) stays near a minute
    SUITES = {"bounds": {"trials": 50}, "oracle": {}, "fd": {}, "dilution": {}}
    STAB = dict(steps=30, learning_rate=0.2, n=32, d=8, replicas=5)

    def __init__(self, seed):
        super().__init__(seed)
        self.fwd_ns: dict = {}      # mechanism -> forward call times (ns)
        self.steps = 0
        self.sizes = {"suites": self.SUITES, "stability": self.STAB,
                      "stability_specs": [s.mechanism for s in grad.default_stability_specs()]}

    def _stability(self, **overrides):
        """Run the experiment, timing each attention.forward call it makes:
        one per SGD step, so diverging replicas that stop early count right."""
        calls: dict = {}
        inner = attention.forward

        def counted(Q, K, V, spec, **kw):
            t0 = perf_counter_ns()
            out = inner(Q, K, V, spec, **kw)
            calls.setdefault(spec.mechanism, []).append(perf_counter_ns() - t0)
            return out

        attention.forward = counted
        try:
            rep = grad.grad_stability_experiment(grad.default_stability_specs(),
                                                 seed=self.seed, **{**self.STAB, **overrides})
        finally:
            attention.forward = inner
        return rep.to_json(), calls

    def ops(self):
        ops = [Op(f"cli.verify_{s}",
                  lambda s=s: getattr(cli, f"verify_{s}")(self.seed, **self.SUITES[s]),
                  lambda r: json.dumps(r, sort_keys=True, default=repr))
               for s in self.SUITES]
        ops.append(Op("grad.grad_stability_experiment", self._stability,
                      lambda r: r[0]))
        return ops

    def warm_up(self):
        self._stability(steps=2, replicas=1)

    def check(self, kind, summary):
        """Suites must pass; every pass must reproduce the first exactly."""
        first = self.expected.setdefault(kind, summary)
        ok = summary == first
        if kind.startswith("cli."):
            ok = ok and json.loads(summary)["pass"] is True
        return ok

    def observe(self, kind, out):
        if kind == "grad.grad_stability_experiment":
            for mech, ns in out[1].items():
                self.fwd_ns.setdefault(mech, []).extend(ns)
                self.steps += len(ns)

    def throughput(self, times):
        n = self.STAB["n"]
        # a forward call at n=32 takes either ~160 or ~300 us, in streaks; a
        # median flips between the two, the sum moves with their mix
        fwd = geomean([n * len(ns) / (sum(ns) / 1e9) for ns in self.fwd_ns.values()])
        train = self.steps * n / sum(times["grad.grad_stability_experiment"])
        return fwd, train


WORKLOADS = {w.name: w for w in (LongSeq, ModelStep, LabSmall)}
