"""Span tracing from outside the program.

A traced run replaces attributes of the attnlab modules with thin proxies
that record a span per call: name, optional tag, start, end, parent span and
the benchmark op it ran under. attnlab itself is untouched; internal calls
are caught because they resolve module globals (``linalg.matmul``,
``grad._max_abs_dp_ds``) or names imported into ``model`` at call time.
Spans stay in memory and are written out when the run ends. Only the traced
process installs the proxies; untraced runs call attnlab directly.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from time import perf_counter_ns

from attnlab import attention, cli, dilution, grad, linalg, model

NAME, TAG, START, END, PARENT, OP = range(6)

BACKWARDS = ("grad.vanilla_backward", "grad.linear_scaled_backward",
             "grad.norm_backward", "grad.diag_backward")
REPORTS = ("grad._max_abs_dp_ds", "grad._min_abs_active", "grad.rmsnorm_jacobian")
HEAD_FORWARDS = ("attention.vanilla_forward", "attention.diag_forward",
                 "attention.norm_forward")


def _matmul_shape(args, kwargs):
    a, b = args[0], args[1]
    return (a.shape[0], a.shape[1], b.shape[1])


def _spec_mechanism(args, kwargs):
    return args[0].mechanism


# (module, attribute, tag function). Names imported into model by value are
# wrapped on model as well, under attention's name.
TRACED = [
    (linalg, "matmul", _matmul_shape),
    (linalg, "row_softmax", None),
    (linalg, "row_rmsnorm", None),
    (attention, "forward", None),
    (attention, "vanilla_forward", None),
    (attention, "linear_scaled_forward", None),
    (attention, "norm_forward", None),
    (attention, "diag_forward", None),
    (attention, "_linear_causal", None),
    (model, "vanilla_forward", None),
    (model, "norm_forward", None),
    (model, "diag_forward", None),
    (model, "model_forward", None),
    (model, "layer_forward", None),
    (model, "layer_backward", None),
    (model, "glu_ffn", None),
    (model, "glu_ffn_backward", None),
    (model, "_attention_sublayer", None),
    (model, "_attention_sublayer_backward", None),
    (grad, "vanilla_backward", None),
    (grad, "linear_scaled_backward", None),
    (grad, "norm_backward", None),
    (grad, "diag_backward", None),
    (grad, "rmsnorm_backward", None),
    (grad, "rmsnorm_jacobian", None),
    (grad, "_max_abs_dp_ds", None),
    (grad, "_min_abs_active", None),
    (grad, "unified_dp_ds", None),
    (grad, "finite_diff_check", None),
    (grad, "grad_stability_experiment", None),
    (grad, "_stability_replica", _spec_mechanism),
    (dilution, "dilution_curve", None),
    (dilution, "row_expansion_curve", None),
    (dilution, "compare_curves", None),
    (cli, "verify_bounds", None),
    (cli, "verify_oracle", None),
    (cli, "verify_fd", None),
    (cli, "verify_dilution", None),
]

_ORIGIN = {model: {"vanilla_forward": "attention", "norm_forward": "attention",
                   "diag_forward": "attention"}}


class Tracer:
    """Records spans while installed; ``with Tracer() as t:`` scopes it."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, tag in TRACED:
            short = _ORIGIN.get(module, {}).get(attr, module.__name__.rsplit(".", 1)[-1])
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._proxy(orig, f"{short}.{attr}", tag))
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()
        return False

    def _proxy(self, fn, name, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, tag(args, kwargs) if tag else None, 0, 0,
                   stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "tag": s[TAG], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT],
                                     "op": s[OP]}) + "\n")


class SpanStats:
    """Per-name totals over a list of spans, with self time.

    Self time is a span's duration minus the time its direct children cover;
    calls on one thread nest, so children never overlap.
    """

    def __init__(self, spans):
        self.spans = spans
        child = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            self.calls[s[NAME]] += 1
            self.total_ns[s[NAME]] += dur
            self.self_ns[s[NAME]] += dur - child[i]

    def ancestor(self, i, names):
        """Index of the nearest enclosing span named in ``names``, or -1."""
        p = self.spans[i][PARENT]
        while p >= 0 and self.spans[p][NAME] not in names:
            p = self.spans[p][PARENT]
        return p

    def named(self, names):
        return [i for i, s in enumerate(self.spans) if s[NAME] in names]

    def dur(self, i):
        return self.spans[i][END] - self.spans[i][START]
