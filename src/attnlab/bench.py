"""Wall-clock and peak-memory scaling harness.

Asymptotics are the product here, not absolute speed: medians of warm reps
feed a log-log slope fit per mechanism, and tracemalloc high-water marks
establish how peak allocation grows with sequence length.  Timing runs and
memory runs are separate (tracemalloc slows allocation down).
"""

from __future__ import annotations

import csv
import io
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import attention, grad, linalg
from .attention import AttentionSpec

DEFAULT_LENGTHS = (1024, 2048, 3072, 4096, 5120)
WARMUP_REPS = 2


@dataclass
class BenchResult:
    mechanism: str
    n: int
    d: int
    reps: int
    warmup: int
    median_ns: Optional[int]      # None when the run exhausted memory
    peak_bytes: Optional[int]
    mode: str = "forward"         # "forward" | "forward_backward"

    def csv_row(self) -> list:
        dash = lambda v: "-" if v is None else v
        return [self.mechanism, self.n, self.d, self.mode,
                dash(self.median_ns), dash(self.peak_bytes)]


CSV_HEADER = ["mechanism", "n", "d", "mode", "median_ns", "peak_bytes"]


def results_to_csv(results: Sequence[BenchResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in results:
        writer.writerow(r.csv_row())
    return buf.getvalue()


def _run_once(mechanism: str, Q, K, V, mode: str) -> None:
    spec = AttentionSpec(mechanism)
    if mode == "forward":
        attention.forward(Q, K, V, spec)
        return
    grad.backward(Q, K, V, np.full(Q.shape, 0.5), spec)


def track_peak_memory(run: Callable[[], None]) -> int:
    """High-water mark of bytes allocated while run() executes."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def bench_cell(mechanism: str, n: int, d: int, reps: int, seed: int,
               mode: str = "forward") -> BenchResult:
    """Median wall-clock of warm reps plus one traced run for peak bytes."""
    Q, K, V = linalg._seeded_qkv(seed, n, d, -0.5, 0.5)
    try:
        for _ in range(WARMUP_REPS):
            _run_once(mechanism, Q, K, V, mode)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            _run_once(mechanism, Q, K, V, mode)
            times.append(time.perf_counter_ns() - t0)
        peak = track_peak_memory(lambda: _run_once(mechanism, Q, K, V, mode))
    except MemoryError:
        return BenchResult(mechanism, n, d, reps, WARMUP_REPS, None, None, mode)
    median = int(np.median(times))
    return BenchResult(mechanism, n, d, reps, WARMUP_REPS, median, peak, mode)


def run_scaling(mechanisms: Sequence[str], lengths: Sequence[int] = DEFAULT_LENGTHS,
                d: int = 16, reps: int = 5, seed: int = 7,
                mode: str = "forward") -> list[BenchResult]:
    """One BenchResult per (mechanism, length); lengths must ascend."""
    if list(lengths) != sorted(lengths):
        raise ValueError("lengths must be ascending")
    if reps < 5:
        raise ValueError("need at least 5 warm reps for a stable median")
    results = []
    for mech in mechanisms:
        for n in lengths:
            results.append(bench_cell(mech, n, d, reps, seed, mode))
    return results


def loglog_slope(results: Sequence[BenchResult], mechanism: str,
                 value: str = "median_ns") -> float:
    """Least-squares slope of log(value) against log(n) for one mechanism."""
    pts = [(r.n, getattr(r, value)) for r in results
           if r.mechanism == mechanism and getattr(r, value) is not None]
    if len(pts) < 2:
        raise ValueError(f"not enough data points for {mechanism!r}")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def peak_ratio(mechanism: str, n: int, d: int, seed: int = 7,
               mode: str = "forward") -> float:
    """Peak-bytes growth factor when the sequence length doubles."""
    Q1, K1, V1 = linalg._seeded_qkv(seed, n, d, -0.5, 0.5)
    Q2, K2, V2 = linalg._seeded_qkv(seed, 2 * n, d, -0.5, 0.5)
    p1 = track_peak_memory(lambda: _run_once(mechanism, Q1, K1, V1, mode))
    p2 = track_peak_memory(lambda: _run_once(mechanism, Q2, K2, V2, mode))
    return p2 / p1
