"""Locally accumulated attention score and the expanding-window curve.

Two views of the same question "how local is the attention mass?":

* :func:`local_score` sums a row over a centered window covering a given
  fraction of the sequence (score as a function of window ratio).
* :func:`dilution_curve` grows a window outward from the diagonal and records
  the window length at which each of 100 evenly spaced score thresholds is
  first reached (ratio as a function of score), averaged over rows.

Row i's window takes its columns in one expansion order: the center, then the
left and right neighbours in turn, left first, a side clipped at the row end
skipped, and column 0 joining only as the center.  A threshold records the
window's span, 1 plus the first position in that order where the running sum
reaches the threshold less an absolute slack of 1e-9 (so float row sums act
like their exact values), or the full row length when no position does.
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
    """Recorded window lengths of one row expanding around `center`, one per
    increasing threshold; entry 0 is 0."""
    return _expansion_lengths(row[None, :], np.array([center]), thresholds)


def _expansion_lengths(rows: Matrix, centers: np.ndarray,
                       thresholds: np.ndarray) -> np.ndarray:
    """Sum of row_expansion_curve(rows[i], centers[i]) over i, for all rows at once.

    The expansion order sorts a row's columns by key: 0 at the center, 2k - 1
    at distance k to the left, 2k to the right, and last, counting 0.0, an
    excluded column 0.  np.add.accumulate adds along it one column at a time,
    as the window grows, so each sum is bit for bit the window's mass; with
    finite entries, the running maximum first reaches a threshold where they do.
    """
    k, m = rows.shape
    num = thresholds.shape[0]
    order = np.abs(4 * (np.arange(m) - centers[:, None]) + 1) // 2  # 2k right, 2k - 1 left
    order[centers > 0, :1] = 2 * m  # column 0 joins only as the center: last, as 0.0
    order = np.argsort(order, axis=1, kind="stable")  # timsort: a row's keys form two runs
    sums = np.take_along_axis(rows, order, axis=1)
    sums[centers > 0, -1:] = 0.0
    np.add.accumulate(sums, axis=1, out=sums)
    np.maximum.accumulate(sums, axis=1, out=sums)
    # j is first reached after the positions reaching <= j; never reached: m, not m + 1
    reached = np.searchsorted(thresholds - CROSSING_SLACK, sums, side="right")
    short = np.bincount(reached.ravel(), minlength=num + 1)[:num]
    short -= np.bincount(reached[:, -1:].ravel(), minlength=num + 1)[:num]
    lengths = (np.cumsum(short) + k).astype(float)
    lengths[0] = 0.0
    return lengths


def dilution_curve(P: Matrix) -> DilutionCurve:
    """Average expanding-window curve over the rows of a square weight matrix.

    Entries must be finite and rows must sum to 1 within ROW_SUM_TOL; all-zero
    rows (ReLU scores can produce them) are skipped and counted in the result.
    """
    n, m = P.shape
    if n != m:
        raise ValueError(f"expected a square matrix, got {P.shape}")
    thresholds = np.linspace(0.0, 1.0, NUM_THRESHOLDS)
    finite = np.isfinite(P).all(axis=1)
    if not np.all(finite):
        raise ValueError(f"row {int(np.argmin(finite))} holds a non-finite entry")
    sums = P.sum(axis=1)
    zero_rows = np.abs(sums) < ROW_SUM_TOL
    bad = ~zero_rows & (np.abs(sums - 1.0) > ROW_SUM_TOL)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"row {i} sums to {float(sums[i])!r}, expected 1 +- {ROW_SUM_TOL}")
    used = np.flatnonzero(~zero_rows)
    cnts = _expansion_lengths(P[used], used, thresholds)
    if used.size:
        cnts = cnts / used.size / m
    return DilutionCurve(thresholds=thresholds, ratios=cnts, n=used.size, m=m,
                         skipped_rows=n - used.size)


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
