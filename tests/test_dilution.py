import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnlab import dilution, linalg
from attnlab.attention import AttentionSpec, diag_forward, forward, linear_scaled_forward
from attnlab.dilution import (CROSSING_SLACK, DilutionCurve, compare_curves,
                              dilution_curve, row_expansion_curve)


def walk_row_expansion_curve(row, center, thresholds):
    """The stateful expansion walk that the closed form replaced, kept as the
    reference it must match bit for bit."""
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


def walk_dilution_curve(P):
    """(ratios, n, skipped_rows) of the per-row loop over the walk."""
    n, m = P.shape
    thresholds = np.linspace(0.0, 1.0, dilution.NUM_THRESHOLDS)
    zero_rows = np.abs(P.sum(axis=1)) < dilution.ROW_SUM_TOL
    cnts = np.zeros(dilution.NUM_THRESHOLDS)
    used = 0
    for i in range(n):
        if zero_rows[i]:
            continue
        cnts += walk_row_expansion_curve(P[i], i, thresholds)
        used += 1
    if used:
        cnts = cnts / used / m
    return cnts, used, int(np.sum(zero_rows))


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


def seeded_map(kind, n, seed):
    """An n x n map whose rows sum to 1, except the rows a kind zeroes."""
    if kind == "identity":
        return np.eye(n)
    if kind == "all_zero":
        return np.zeros((n, n))
    if kind in ("uniform", "zero_rows"):
        raw = linalg.uniform(n, n, seed=seed, low=0.0, high=1.0)
    elif kind == "sharp":
        raw = linalg.uniform(n, n, seed=seed, low=0.0, high=1.0) ** 12
    else:  # negative entries; spreading the row's deficit keeps them
        raw = linalg.uniform(n, n, seed=seed, low=-1.0, high=1.0)
        return raw + (1.0 - raw.sum(axis=1, keepdims=True)) / n
    P = raw / raw.sum(axis=1, keepdims=True)
    if kind == "zero_rows":
        P[::3] = 0.0
    return P


def mechanism_map(mechanism, n, seed, **spec):
    Q, K, V = (linalg.uniform(n, 4, seed=linalg.split_seed(seed, i)) for i in range(3))
    P = forward(Q, K, V, AttentionSpec(mechanism, **spec), reference=True).P
    return dilution.scores_to_distribution(P)


MAP_KINDS = ("uniform", "sharp", "identity", "zero_rows", "all_zero", "negative")


def assert_matches_walk(P):
    curve = dilution_curve(P)
    ratios, used, skipped = walk_dilution_curve(P)
    assert np.array_equal(curve.ratios, ratios)
    assert (curve.n, curve.skipped_rows) == (used, skipped)
    thresholds = np.linspace(0.0, 1.0, dilution.NUM_THRESHOLDS)
    m = P.shape[0]
    for i in range(m):
        for center in {0, i, m - 1}:
            got = row_expansion_curve(P[i], center, thresholds)
            assert np.array_equal(got, walk_row_expansion_curve(P[i], center, thresholds)), i


class TestClosedFormMatchesWalk:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    @pytest.mark.parametrize("kind", MAP_KINDS)
    def test_seeded_maps(self, kind, n):
        assert_matches_walk(seeded_map(kind, n, seed=300 + n))

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("mechanism,spec", [
        ("diag", {"block_size": 4, "diag_score_fn": "rela"}),
        ("diag", {"block_size": 4}),
        ("linear", {}),
        ("norm", {}),
        ("vanilla", {})], ids=["rela", "diag", "linear", "norm", "vanilla"])
    def test_mechanism_maps(self, mechanism, spec, causal):
        assert_matches_walk(mechanism_map(mechanism, 24, seed=310, causal=causal, **spec))

    @given(st.sampled_from(MAP_KINDS), st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_random_maps(self, kind, n, seed):
        assert_matches_walk(seeded_map(kind, n, seed))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # a row holding both infinities sums to NaN, which no tolerance test rejects
        P = np.eye(5)
        P[3, 1], P[3, 2] = bad, -bad
        with pytest.raises(ValueError, match=r"^row 3 holds a non-finite entry$"):
            dilution_curve(P)


class TestConsistencyWithCenteredWindow:
    def test_recorded_length_reaches_threshold_for_symmetric_rows(self):
        # rows of the banded matrix are symmetric about their center away from
        # the boundary, so the alternating expansion's recorded span, replayed
        # as a window centered on the row's diagonal, must collect at least
        # the threshold mass
        P = banded_matrix(8)
        thresholds = np.linspace(0.0, 1.0, 100)
        for i in (2, 3, 4, 5):
            cnt = row_expansion_curve(P[i], i, thresholds)
            for j in range(1, 100):
                if cnt[j] >= 8:
                    continue
                length = int(cnt[j])
                start = min(max(i - (length - 1) // 2, 0), 8 - length)
                score = float(np.sum(P[i, start:start + length]))
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
