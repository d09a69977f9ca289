import numpy as np
import pytest

from attnlab import dilution, linalg
from attnlab.attention import AttentionSpec, diag_forward, linear_scaled_forward
from attnlab.dilution import (CROSSING_SLACK, DilutionCurve, compare_curves,
                              dilution_curve, local_score, row_expansion_curve)


def brute_force_recorded_lengths(row, center, thresholds):
    """Replay the alternating expansion, recomputing every window sum from
    scratch by slicing (independent of the incremental implementation), and
    find per threshold the first window whose mass reaches it."""
    m = row.shape[0]
    lo_limit = 0 if center == 0 else 1
    # enumerate the walk: covered interval after each expansion step
    states = [(center, center)]
    lo, hi, flag = center, center, 0
    while not (lo == lo_limit and hi == m - 1):
        if flag == 1:
            hi = min(m - 1, hi + 1)
            flag = 0
        else:
            lo = max(lo_limit, lo - 1)
            flag = 1
        states.append((lo, hi))

    cnt = np.zeros(len(thresholds))
    for j in range(1, len(thresholds)):
        hit = None
        for lo, hi in states:
            if float(np.sum(row[lo:hi + 1])) >= thresholds[j] - CROSSING_SLACK:
                hit = hi - lo + 1
                break
        cnt[j] = m if hit is None else hit
    return cnt


def banded_matrix(m=8):
    """Rows hold 0.4 on the diagonal, 0.2 at distance 1, 0.1 at distance 2,
    renormalized so each row sums to exactly 1."""
    P = np.zeros((m, m))
    for i in range(m):
        for off, val in ((0, 0.4), (1, 0.2), (-1, 0.2), (2, 0.1), (-2, 0.1)):
            j = i + off
            if 0 <= j < m:
                P[i, j] = val
        P[i] /= P[i].sum()
    return P


class TestLocalScore:
    def test_uniform_mass_interior(self):
        n = 20
        P = np.full((n, n), 1.0 / n)
        got = local_score(P, 10, 0.4)
        assert got == pytest.approx(round(0.4 * n) / n, abs=1e-12)

    def test_identity_concentrates_fully(self):
        P = np.eye(9)
        for r in (0.05, 0.3, 1.0):
            assert local_score(P, 4, r) == 1.0

    def test_documented_reading_forty_percent_sixty(self):
        # a row engineered so that the 40% neighbourhood holds 0.6 of the mass
        m = 10
        row = np.full(m, 0.4 / (m - 4))
        window = slice(4, 8)  # round(0.4 * 10) = 4 slots, start = 5 - (4-1)//2
        row[window] = 0.15
        P = np.tile(row, (m, 1))
        assert local_score(P, 5, 0.4) == pytest.approx(0.6)

    def test_boundary_window_shifts_inward(self):
        P = np.eye(6)
        # window of length 3 at the first row covers [0, 2]
        assert local_score(P, 0, 0.5) == 1.0
        assert local_score(np.roll(np.eye(6), 2, axis=1), 0, 0.5) == 1.0

    def test_zero_ratio_means_empty_window(self):
        assert local_score(np.eye(4), 1, 0.0) == 0.0

    def test_errors(self):
        with pytest.raises(IndexError):
            local_score(np.eye(3), 5, 0.5)
        with pytest.raises(ValueError):
            local_score(np.eye(3), 1, 1.5)


class TestDilutionCurve:
    def test_identity_curve(self):
        m = 32
        curve = dilution_curve(np.eye(m))
        assert curve.ratios[0] == 0.0
        assert np.allclose(curve.ratios[1:], 1.0 / m)

    def test_uniform_curve_tracks_thresholds(self):
        m = 64
        curve = dilution_curve(np.full((m, m), 1.0 / m))
        err = np.max(np.abs(curve.ratios[1:] - curve.thresholds[1:]))
        assert err <= 2.0 / m

    def test_banded_case_matches_brute_force(self):
        P = banded_matrix(8)
        thresholds = np.linspace(0.0, 1.0, 100)
        for i in range(8):
            got = row_expansion_curve(P[i], i, thresholds)
            want = brute_force_recorded_lengths(P[i], i, thresholds)
            assert np.array_equal(got, want), f"row {i}"

    def test_monotone_in_threshold(self):
        for t in range(30):
            s = linalg.split_seed(200, t)
            raw = linalg.uniform(12, 12, seed=s, low=0.0, high=1.0) + 1e-3
            P = raw / raw.sum(axis=1, keepdims=True)
            curve = dilution_curve(P)
            assert np.all(np.diff(curve.ratios) >= -1e-15)

    def test_zero_rows_skipped_and_reported(self):
        P = np.eye(6)
        P[2] = 0.0
        curve = dilution_curve(P)
        assert curve.skipped_rows == 1
        assert curve.n == 5
        assert np.allclose(curve.ratios[1:], 1.0 / 6)

    def test_bad_row_sums_rejected(self):
        with pytest.raises(ValueError, match=r"^row 0 sums to 2\.0, expected"):
            dilution_curve(np.full((4, 4), 0.5))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            dilution_curve(np.full((3, 4), 0.25))

    def test_csv_format(self):
        curve = dilution_curve(np.eye(4))
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "threshold,ratio"
        assert len(lines) == 101
        t0, r0 = lines[1].split(",")
        assert float(t0) == 0.0 and float(r0) == 0.0


class TestConsistencyWithLocalScore:
    def test_recorded_length_reaches_threshold_for_symmetric_rows(self):
        # rows of the banded matrix are symmetric about their center away from
        # the boundary, so the alternating expansion's recorded span, replayed
        # as a centered window, must collect at least the threshold mass
        P = banded_matrix(8)
        thresholds = np.linspace(0.0, 1.0, 100)
        for i in (2, 3, 4, 5):
            cnt = row_expansion_curve(P[i], i, thresholds)
            for j in range(1, 100):
                if cnt[j] >= 8:
                    continue
                score = local_score(P, i, cnt[j] / 8)
                assert score >= thresholds[j] - 1e-9, (i, j)


class TestBlockConfinement:
    def test_interior_rows_saturate_within_two_blocks(self):
        w, blocks = 4, 4
        n = w * blocks
        Q = linalg.uniform(n, 4, seed=201)
        K = linalg.uniform(n, 4, seed=202)
        V = linalg.uniform(n, 4, seed=203)
        P = diag_forward(Q, K, V, AttentionSpec("diag", block_size=w),
                         reference=True).P
        thresholds = np.linspace(0.0, 1.0, 100)
        for i in range(n):
            block = i // w
            if block in (0, blocks - 1) or i % w in (0, w - 1):
                continue  # only rows strictly inside an interior block
            cnt = row_expansion_curve(P[i], i, thresholds)
            assert np.max(cnt) <= 2 * w - 1, f"row {i}"


class TestCompareCurves:
    def test_identical_curves_give_zero(self):
        c = dilution_curve(np.eye(8))
        assert compare_curves(c, c) == 0.0

    def test_identity_beats_uniform(self):
        m = 16
        ident = dilution_curve(np.eye(m))
        uni = dilution_curve(np.full((m, m), 1.0 / m))
        assert compare_curves(ident, uni) > 0.0
        assert compare_curves(uni, ident) < 0.0

    def test_grid_mismatch_rejected(self):
        a = dilution_curve(np.eye(4))
        b = DilutionCurve(thresholds=np.linspace(0, 1, 50),
                          ratios=np.zeros(50), n=4, m=4)
        with pytest.raises(ValueError):
            compare_curves(a, b)

    def test_block_attention_more_concentrated_than_rescaled_linear(self):
        for t in range(100):
            s = linalg.split_seed(204, t)
            Q = linalg.uniform(32, 8, seed=linalg.split_seed(s, 1))
            K = linalg.uniform(32, 8, seed=linalg.split_seed(s, 2))
            V = linalg.uniform(32, 8, seed=linalg.split_seed(s, 3))
            Pd = diag_forward(Q, K, V, AttentionSpec("diag", block_size=4),
                              reference=True).P
            Pl = linear_scaled_forward(Q, K, V,
                                       AttentionSpec("linear", kernel="1+elu"),
                                       reference=True).P
            area = compare_curves(dilution_curve(Pd), dilution_curve(Pl))
            assert area > 0.0, t
