"""Locally accumulated attention score and the expanding-window curve.

Two views of the same question "how local is the attention mass?":

* :func:`local_score` sums a row over a centered window covering a given
  fraction of the sequence (score as a function of window ratio).
* :func:`dilution_curve` walks an expanding window outward from the diagonal,
  alternating sides, and records the window length at which each of 100
  evenly spaced score thresholds is first reached (ratio as a function of
  score), averaged over rows.

The expansion walk preserves the reference procedure's semantics: expansion
alternates sides starting with the left neighbour, column 0 is only counted
when it is the starting center, cursors clip at the row ends, and rows that
never reach a threshold saturate at the full row length.  Two deliberate
normalizations: the recorded length is the covered span itself rather than
the cursor distance (which would overshoot by two), and the threshold
comparison carries an absolute slack of 1e-9 so float row sums behave like
their exact-arithmetic values.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix

NUM_THRESHOLDS = 100
CROSSING_SLACK = 1e-9
ROW_SUM_TOL = 1e-6


@dataclass
class DilutionCurve:
    thresholds: np.ndarray  # strictly increasing, 0..1
    ratios: np.ndarray      # window-length fractions, averaged over rows
    n: int                  # rows averaged (zero rows excluded)
    m: int                  # row length
    skipped_rows: int = 0   # zero rows (possible under ReLU scores)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["threshold", "ratio"])
        for t, r in zip(self.thresholds, self.ratios):
            writer.writerow([f"{t:.17g}", f"{r:.17g}"])
        return buf.getvalue()


def scores_to_distribution(S: Matrix) -> Matrix:
    """Row-normalized score magnitudes: a distribution view of raw scores.

    Lets unnormalized score matrices (which are not row-stochastic) enter the
    curve machinery; all-zero rows stay zero and are skipped downstream.
    """
    A = np.abs(S)
    sums = A.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(sums > 0, A / sums, 0.0)


def local_score(P: Matrix, i: int, r: float) -> float:
    """Row mass inside a centered window covering fraction r of the row.

    The window length is round(r * N) (at least 1 when r > 0); at sequence
    boundaries it shifts inward so its length is preserved.
    """
    n, m = P.shape
    if not (0 <= i < n):
        raise IndexError(f"row {i} out of range for {n} rows")
    if not (0.0 <= r <= 1.0):
        raise ValueError("r must lie in [0, 1]")
    length = int(round(r * m))
    if r > 0:
        length = max(length, 1)
    if length == 0:
        return 0.0
    start = i - (length - 1) // 2
    start = min(max(start, 0), m - length)
    return float(np.sum(P[i, start:start + length]))


def row_expansion_curve(row: np.ndarray, center: int,
                        thresholds: np.ndarray) -> np.ndarray:
    """Window lengths recorded by the alternating expansion for one row.

    The covered interval [lo, hi] starts at the center and grows one column
    per step, left side first; column 0 only ever joins as the starting
    center.  A row whose reachable mass never crosses the remaining
    thresholds saturates them at the full row length.
    """
    m = row.shape[0]
    num = thresholds.shape[0]
    cnt = np.zeros(num)
    s = float(row[center])
    lo = hi = center
    lo_limit = 0 if center == 0 else 1
    j = 1
    flag = 0
    while j < num:
        if s >= thresholds[j] - CROSSING_SLACK:
            cnt[j] = hi - lo + 1
            j += 1
            continue
        if lo == lo_limit and hi == m - 1:
            break  # exhausted: no candidate columns remain
        if flag == 1:
            if hi < m - 1:
                hi += 1
                s += float(row[hi])
            flag = 0
        else:
            if lo > lo_limit:
                lo -= 1
                s += float(row[lo])
            flag = 1
    if j < num:
        cnt[j:] = m  # saturate: these thresholds would need the whole row
    cnt[0] = 0.0
    return cnt


def dilution_curve(P: Matrix) -> DilutionCurve:
    """Average expanding-window curve over the rows of a square weight matrix.

    Rows must sum to 1 within ROW_SUM_TOL; all-zero rows (ReLU scores can
    produce them) are skipped and counted in the result.
    """
    n, m = P.shape
    if n != m:
        raise ValueError(f"expected a square matrix, got {P.shape}")
    thresholds = np.linspace(0.0, 1.0, NUM_THRESHOLDS)
    sums = P.sum(axis=1)
    zero_rows = np.abs(sums) < ROW_SUM_TOL
    bad = ~zero_rows & (np.abs(sums - 1.0) > ROW_SUM_TOL)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"row {i} sums to {float(sums[i])!r}, expected 1 +- {ROW_SUM_TOL}")
    cnts = np.zeros(NUM_THRESHOLDS)
    used = 0
    for i in range(n):
        if zero_rows[i]:
            continue
        cnts += row_expansion_curve(P[i], i, thresholds)
        used += 1
    if used:
        cnts = cnts / used / m
    return DilutionCurve(thresholds=thresholds, ratios=cnts, n=used, m=m,
                         skipped_rows=int(np.sum(zero_rows)))


def map_curve(maps) -> DilutionCurve:
    """Curve averaged over several maps of one shape, e.g. a layer's heads.

    Every map is row-normalized first (scores_to_distribution), so maps whose
    rows are not stochastic, such as the normalized mechanism's raw scores or
    ReLU block scores, get a curve as well.
    """
    curves = [dilution_curve(scores_to_distribution(P)) for P in maps]
    return DilutionCurve(thresholds=curves[0].thresholds,
                         ratios=np.mean([c.ratios for c in curves], axis=0),
                         n=sum(c.n for c in curves), m=curves[0].m,
                         skipped_rows=sum(c.skipped_rows for c in curves))


def compare_curves(a: DilutionCurve, b: DilutionCurve) -> float:
    """Signed concentration-area difference between two curves.

    Computed as the trapezoidal integral of (b.ratios - a.ratios) over the
    shared threshold grid: if a reaches each score threshold with smaller
    windows than b, the result is positive, meaning a is the more locally
    concentrated map.  (Equivalently, by exchanging the axes: area under a's
    score-vs-ratio curve minus area under b's.)
    """
    if a.thresholds.shape != b.thresholds.shape or not np.allclose(
            a.thresholds, b.thresholds):
        raise ValueError("curves live on different threshold grids")
    return float(np.trapezoid(b.ratios - a.ratios, a.thresholds))
