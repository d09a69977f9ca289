import numpy as np
import pytest

from attnlab import bench
from attnlab.bench import BenchResult, loglog_slope, results_to_csv, track_peak_memory


class TestHarness:
    def test_empty_run_costs_only_baseline(self):
        peak = track_peak_memory(lambda: None)
        assert peak < 100_000

    def test_peak_scales_with_allocation(self):
        small = track_peak_memory(lambda: np.zeros((100, 100)))
        large = track_peak_memory(lambda: np.zeros((200, 200)))
        assert 3.0 <= large / small <= 5.0

    def test_bench_cell_records_reps_and_warmup(self):
        r = bench.bench_cell("norm", 64, 8, reps=5, seed=3)
        assert r.reps == 5 and r.warmup == 2
        assert r.median_ns is not None and r.median_ns > 0
        assert r.peak_bytes is not None and r.peak_bytes > 0

    def test_run_scaling_validates_inputs(self):
        with pytest.raises(ValueError):
            bench.run_scaling(["norm"], lengths=(200, 100), d=8)
        with pytest.raises(ValueError):
            bench.run_scaling(["norm"], lengths=(100, 200), d=8, reps=3)

    def test_csv_format_and_dash_for_failures(self):
        rows = [BenchResult("norm", 100, 8, 5, 2, 123, 456),
                BenchResult("vanilla", 100, 8, 5, 2, None, None)]
        text = results_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "mechanism,n,d,mode,median_ns,peak_bytes"
        assert lines[1] == "norm,100,8,forward,123,456"
        assert lines[2] == "vanilla,100,8,forward,-,-"

    def test_loglog_slope_recovers_exponent(self):
        rows = [BenchResult("x", n, 8, 5, 2, int(3.0 * n ** 2), 0)
                for n in (100, 200, 400)]
        assert loglog_slope(rows, "x") == pytest.approx(2.0, abs=1e-9)
        with pytest.raises(ValueError):
            loglog_slope(rows, "missing")

    @pytest.mark.parametrize("mech", ["linear", "norm"])
    def test_linear_backward_peak_memory_doubles(self, mech):
        # the state-form backward keeps no n x n array: peak bytes grow
        # linearly in n (tracemalloc peaks are deterministic)
        ratio = bench.peak_ratio(mech, 1024, 16, mode="forward_backward")
        assert 1.6 <= ratio <= 2.4, ratio

    def test_forward_backward_mode(self):
        r = bench.bench_cell("vanilla", 64, 8, reps=5, seed=4,
                             mode="forward_backward")
        assert r.mode == "forward_backward"
        assert r.median_ns > 0


@pytest.mark.slow
class TestScalingLaws:
    def test_time_slopes_small_grid(self):
        # coarse smoke at short lengths with wide bands (the cache transition
        # sits inside this grid); repeated 3x, majority wins. The acceptance
        # suite enforces the tight bands on the 1K..5K grid.
        bands = {"norm": (0.5, 1.5), "diag": (0.5, 1.5), "vanilla": (1.5, 2.5)}
        passes = {mech: 0 for mech in bands}
        for rep in range(3):
            results = bench.run_scaling(list(bands), lengths=(512, 1024, 2048),
                                        d=16, reps=5, seed=5 + rep)
            for mech, (lo, hi) in bands.items():
                if lo <= loglog_slope(results, mech) <= hi:
                    passes[mech] += 1
        assert all(v >= 2 for v in passes.values()), passes

    def test_peak_memory_doubling_ratios(self):
        vr = bench.peak_ratio("vanilla", 2048, 16, seed=6)
        nr = bench.peak_ratio("norm", 2048, 16, seed=6)
        assert 3.2 <= vr <= 4.8, vr
        assert 1.6 <= nr <= 2.4, nr
