"""attnlab benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload long-seq --seed 1 --seconds 10 --trace 0

Runs whole passes of the workload's op list until ``--seconds`` of timed work
have elapsed (at least one pass), with one of the workload's
finite-difference probes after each op. The untimed work, three set-up
measurements in fresh interpreters and each op kind once under tracemalloc
for peak memory, runs spread over the first pass. Then every op result is
checked.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs untraced and traced passes in one process and reports the per-layer
metrics. Human-readable lines come first; the last line of stdout is one
JSON object. A full result (environment block, per-op timings, failures) and,
for traced runs, the spans are written under perfbench/out/.
"""

from __future__ import annotations

import os
import sys

# Pin every BLAS/OpenMP pool to at most the cores this process may use;
# this must happen before numpy is imported.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC) if _cur.isdigit() and int(_cur) > 0 else NPROC)

import argparse
import hashlib
import json
import math
import platform
import subprocess
import tracemalloc
from collections import defaultdict
from pathlib import Path
from statistics import StatisticsError, median
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
MIB = float(1 << 20)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "attnlab" / "__init__.py").is_file():
    fail(f"no attnlab sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import attnlab  # noqa: E402
from tracer import BACKWARDS, HEAD_FORWARDS, NAME, REPORTS, TAG, SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS, LongSeq, ModelStep, fd_passes  # noqa: E402

if Path(attnlab.__file__).resolve().parent != SRC / "attnlab":
    fail(f"imported attnlab from {attnlab.__file__}, not from {SRC}")


class Run:
    """Op timings, summaries and failures of one benchmark process."""

    def __init__(self, wl):
        self.wl = wl
        self.times = defaultdict(list)      # kind -> seconds, untraced passes
        self.summaries = []                 # (kind, summary) of every op that returned
        self.failures = []                  # (what, detail)
        self.attempted = 0
        self.probes = wl.probes()
        self.probe_s = defaultdict(list)    # probe name -> seconds, untraced passes

    def call(self, op):
        self.attempted += 1
        try:
            return True, op.call()
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            self.failures.append((op.kind, f"{type(exc).__name__}: {exc}"))
            return False, None

    def passes(self, seconds, tracer=None, between=()):
        """Whole passes until ``seconds`` of timed work have elapsed; returns
        pass seconds.

        Untraced passes run one probe after each op, cycling through the
        probes, so that verify_s samples the whole run as the op times do; a
        pass's time excludes them. The untimed tasks ``between`` run spread
        evenly over the ops of the first pass. The host's speed drifts over
        tens of seconds, so the timed samples are spread over the whole run
        rather than bunched before or after its untimed work.
        """
        out, between = [], list(between)
        untimed_ns, done = 0, 0
        start = perf_counter_ns()
        while not out or perf_counter_ns() - start - untimed_ns < seconds * 1e9:
            p0, aside_ns, ops = perf_counter_ns(), 0, self.wl.ops()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = self.attempted
                t0 = perf_counter_ns()
                ok, res = self.call(op)
                dt = (perf_counter_ns() - t0) / 1e9
                if ok:
                    if tracer is None:
                        self.times[op.kind].append(dt)
                        self.wl.observe(op.kind, res)
                    self.summaries.append((op.kind, op.summarize(res)))
                del res
                if tracer is None and self.probes:
                    aside_ns += self.probe(*self.probes[i % len(self.probes)])
                t0 = perf_counter_ns()
                while done < len(between) * (i + 1) // len(ops):
                    between[done]()
                    done += 1
                untimed_ns += perf_counter_ns() - t0
                aside_ns += perf_counter_ns() - t0
            out.append((perf_counter_ns() - p0 - aside_ns) / 1e9)
        return out

    def memory_tasks(self):
        """One task per op kind: the op alone under tracemalloc, its
        high-water mark into ``self.peaks``. Their maximum is the pass's."""

        def task(op):
            tracemalloc.start()
            try:
                ok, res = self.call(op)
                self.peaks[op.kind] = tracemalloc.get_traced_memory()[1] / MIB
            finally:
                tracemalloc.stop()
            if ok:
                self.summaries.append((op.kind, op.summarize(res)))

        self.peaks = {}
        return [lambda op=op: task(op) for op in {op.kind: op for op in self.wl.ops()}.values()]

    def probe(self, name, probe):
        """One finite-difference probe: records the seconds of its timed part
        and returns the nanoseconds it took with its verdict."""
        self.attempted += 1
        t0 = perf_counter_ns()
        try:
            err, finer = probe()
            dt = perf_counter_ns() - t0
            ok = fd_passes(err, finer)
        except Exception as exc:
            ok, name = False, f"{name}: {type(exc).__name__}: {exc}"
        if ok:
            self.probe_s[name].append(dt / 1e9)
        else:
            self.failures.append(("probe", name))
        return perf_counter_ns() - t0

    def check(self):
        for kind, summary in self.summaries:
            if not self.wl.check(kind, summary):
                self.failures.append((kind, f"summary {summary!r} does not match "
                                            f"the reference {self.wl.expected.get(kind)!r}"))


def timing(samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    out = {"count": len(s), "median": median(s)}
    for p in (99.9, 99.0, 90.0):
        if len(s) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = s[min(len(s) - 1, math.ceil(p / 100 * len(s)) - 1)]
            break
    return out


def setup_seconds(workload, seed):
    """Process start to first timed op, in a fresh interpreter: imports,
    input generation, model initialisation and warm-up."""
    t0 = perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return (int(proc.stdout.split()[-1]) - t0) / 1e9


def spread(*task_lists):
    """The tasks of all lists in one list, each list's spread evenly over it."""
    placed = [((j + 0.5) / len(tasks), task)
              for tasks in task_lists for j, task in enumerate(tasks)]
    return [task for _, task in sorted(placed, key=lambda p: p[0])]


def environment(args, wl):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 prints instead
        blas = None
    digest = hashlib.sha256()
    for f in sorted((SRC / "attnlab").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": NPROC, "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(), "platform": platform.platform(),
        "seed": args.seed, "git_revision": git_revision(),
        "attnlab_sha256": digest.hexdigest(), "workload": wl.name, "sizes": wl.sizes,
        "seconds": args.seconds, "trace": args.trace,
    }


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def per_layer(wl, times, stats, traced_s, peaks, overhead):
    """Every per-layer metric; 0 where this workload does not run the layer.

    Self times, calls and computed counts are per traced pass.
    """
    k = 1.0 / len(traced_s)
    ms = lambda kind: median(times[kind]) * 1e3 if times.get(kind) else 0.0  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    self_s = lambda name: stats.self_ns[name] / 1e9 * k  # noqa: E731
    m = {}
    for mech in LongSeq.MECHS:
        for tag in ("nc", "causal"):
            fwd = [ms(f"attention.{mech}.{tag}.n{n}.fwd") for n in LongSeq.LENGTHS]
            ns = [LongSeq.LINEAR_BWD[n] if mech == "linear" else n for n in LongSeq.LENGTHS]
            bwd = [ms(f"grad.{mech}.{tag}.n{n}.bwd") for n in ns]
            for n, f in zip(LongSeq.LENGTHS, fwd):
                m[f"attention.{mech}.{tag}.n{n}.fwd_ms"] = f
            m[f"attention.{mech}.{tag}.fwd_doubling"] = ratio(fwd[1], fwd[0])
            for n, b in zip(ns, bwd):
                m[f"grad.{mech}.{tag}.n{n}.bwd_ms"] = b
                m[f"grad.{mech}.{tag}.n{n}.bwd_peak_mib"] = peaks.get(
                    f"grad.{mech}.{tag}.n{n}.bwd", 0.0)
            m[f"grad.{mech}.{tag}.bwd_doubling"] = ratio(bwd[1], bwd[0])

    # report work inside the backward: bound and Jacobian diagnostics
    spans = stats.spans
    roots = [i for i in stats.named(BACKWARDS) if stats.ancestor(i, BACKWARDS) < 0]
    bwd_ns = defaultdict(int)
    for i in roots:
        bwd_ns[spans[i][NAME]] += stats.dur(i)
    rep_ns = defaultdict(int)
    for i in stats.named(REPORTS):
        a = stats.ancestor(i, BACKWARDS)
        if a >= 0:
            rep_ns[spans[a][NAME]] += stats.dur(i)
    m["grad.report.self_s"] = sum(stats.total_ns[r] for r in REPORTS) / 1e9 * k
    m["grad.report.share"] = ratio(sum(rep_ns.values()), sum(bwd_ns.values()))
    for mech, fn in (("linear", "grad.linear_scaled_backward"), ("norm", "grad.norm_backward")):
        m[f"grad.report.{mech}.share"] = ratio(rep_ns[fn], bwd_ns[fn])

    mm = [s[TAG] for s in spans if s[NAME] == "linalg.matmul"]
    flops = sum(2 * a * b * c for a, b, c in mm)
    nbytes = sum(8 * (a * b + b * c + a * c) for a, b, c in mm)
    m["linalg.matmul.calls"] = len(mm) * k
    m["linalg.matmul.flops"] = flops * k
    m["linalg.matmul.bytes"] = nbytes * k
    m["linalg.matmul.ops_per_byte"] = ratio(flops, nbytes)
    m["linalg.matmul.self_s"] = self_s("linalg.matmul")
    m["linalg.matmul.gflops"] = ratio(flops, stats.self_ns["linalg.matmul"])
    m["linalg.matmul.share"] = ratio(m["linalg.matmul.self_s"], sum(traced_s) * k)
    for name in ("linalg.row_softmax", "linalg.row_rmsnorm", "grad.rmsnorm_backward",
                 "model.glu_ffn", "model.glu_ffn_backward", "grad.finite_diff_check",
                 "grad.unified_dp_ds", "dilution.dilution_curve"):
        m[f"{name}.self_s"] = self_s(name)
    m["dilution.row_expansion_curve.calls"] = stats.calls["dilution.row_expansion_curve"] * k

    m["model.model_forward.ms"] = ms("model.model_forward")
    for mech in ("diag", "norm"):
        m[f"model.layer_backward.{mech}.ms"] = ms(f"model.layer_backward.{mech}")
    heads = sum(1 for i in stats.named(HEAD_FORWARDS)
                if stats.ancestor(i, ("model.layer_backward",)) >= 0)
    m["model.head_fwd_per_head_grad"] = ratio(
        heads, ModelStep.HEADS * stats.calls["model.layer_backward"])

    steps, replica_ns = defaultdict(int), defaultdict(int)
    for i in stats.named(("grad._stability_replica",)):
        replica_ns[spans[i][TAG]] += stats.dur(i)
    for i in stats.named(("attention.forward",)):
        a = stats.ancestor(i, ("grad._stability_replica",))
        if a >= 0:
            steps[spans[a][TAG]] += 1
    for mech in ("vanilla", "linear", "norm"):
        m[f"grad.stability.{mech}.step_ms"] = ratio(replica_ns[mech] / 1e6, steps[mech])
    m["grad.stability.steps"] = sum(steps.values()) * k
    for suite in ("bounds", "oracle", "fd", "dilution"):
        m[f"cli.verify_{suite}.s"] = ms(f"cli.verify_{suite}") / 1e3
    m["trace.overhead_frac"] = overhead
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    if args.setup_only:
        print(perf_counter_ns())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    run = Run(wl)
    setup = []
    untimed = spread([lambda: setup.append(setup_seconds(args.workload, args.seed))] * SETUP_REPEATS,
                     run.memory_tasks())
    untraced_s = run.passes(args.seconds / 2 if args.trace else args.seconds, between=untimed)
    tracer = None
    if args.trace:
        with Tracer() as tracer:
            traced_s = run.passes(args.seconds / 2, tracer)
    top_mib, peaks = max(run.peaks.values()), run.peaks
    run.check()

    try:
        fwd, train = wl.throughput(run.times)
        if run.probes:  # one round of every probe, from per-probe medians
            verify_s = sum(median(run.probe_s[name]) for name, _ in run.probes)
        else:  # lab-small: the verify suites are ops of the pass
            verify_s = sum(median(run.times[f"cli.verify_{s}"]) for s in wl.SUITES)
    except (KeyError, StatisticsError, ZeroDivisionError) as exc:
        for what, detail in run.failures[:10]:
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        fail(f"no metrics: an op kind has no successful call ({type(exc).__name__}: {exc})")
    metrics = {"setup_s": median(setup), "fwd_tokens_per_s": fwd,
               "train_tokens_per_s": train, "verify_s": verify_s, "peak_mib": top_mib}
    if args.trace:
        overhead = median(traced_s) / median(untraced_s) - 1.0
        metrics = per_layer(wl, run.times, SpanStats(tracer.spans), traced_s, peaks, overhead)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"BENCHMARK.json lists metrics this run does not produce: {missing}")

    failed = len(run.failures)
    error_rate = failed / run.attempted
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "environment": environment(args, wl),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "all_metrics": metrics,
        "setup_samples_s": setup,
        "probes_s": {name: timing(t) for name, t in run.probe_s.items()},
        "pass_seconds": {"untraced": untraced_s, **({"traced": traced_s} if args.trace else {})},
        "ops_s": {kind: timing(t) for kind, t in run.times.items()},
        "op_peak_mib": peaks,
        "attempted": run.attempted, "failed": failed, "error_rate": error_rate,
        "failures": run.failures[:50],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl.gz")

    env = result["environment"]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  passes {len(untraced_s)}"
          f"  python {env['python']}  numpy {env['numpy']}  nproc {NPROC}"
          f"  git {env['git_revision'] or '-'}")
    for kind, t in result["ops_s"].items():
        extra = "".join(f"  {q} {v * 1e3:.3f} ms" for q, v in t.items() if q.startswith("p"))
        print(f"  op {kind:<40} n={t['count']:<4} median {t['median'] * 1e3:.3f} ms{extra}")
    for m in wanted:
        print(f"{m['name']:<44} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{'error_rate':<44} {error_rate:.6g} ({failed} failed of {run.attempted} attempted)")
    for what, detail in run.failures[:10]:
        print(f"  FAILED {what}: {detail}")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
