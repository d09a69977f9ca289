import json
import math
import time

import numpy as np
import pytest

from attnlab import linalg, model
from attnlab.dilution import compare_curves, map_curve
from attnlab.model import LayerParams, ModelConfig


def zero_params(config):
    d, f = config.d_model, config.ffn_dim
    return LayerParams(*(np.zeros(s) for s in
                         [(d, d)] * 4 + [(d, f), (d, f), (f, d)]))


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(variant="t3")
        with pytest.raises(ValueError):
            ModelConfig(n_layers=2, n_early=3)
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, n_heads=4)

    def test_variant_wiring(self):
        t1 = ModelConfig(variant="t1", n_layers=2, n_early=1)
        assert t1.attention_spec(0).diag_score_fn == "rela"
        assert t1.attention_spec(1).kernel == "elu"
        t2 = ModelConfig(variant="t2", n_layers=2, n_early=1)
        assert t2.attention_spec(0).diag_score_fn == "softmax"
        assert t2.attention_spec(1).kernel == "1+elu"

    def test_all_early_topology(self):
        cfg = ModelConfig(n_layers=4, n_early=4)
        assert [cfg.layer_mechanism(i) for i in range(4)] == ["diag"] * 4
        cfg = ModelConfig(n_layers=4, n_early=0)
        assert [cfg.layer_mechanism(i) for i in range(4)] == ["norm"] * 4

    def test_json_round_trip(self):
        cfg = ModelConfig(n_layers=3, n_early=1, d_model=16, n_heads=4,
                          block_size=8, variant="t1", causal=True, seed=99)
        assert ModelConfig(**json.loads(cfg.to_json())) == cfg

    def test_attention_override(self):
        cfg = ModelConfig(attention_override="vanilla")
        assert all(cfg.layer_mechanism(i) == "vanilla" for i in range(cfg.n_layers))


class TestGluFfn:
    def test_zero_input(self):
        cfg = ModelConfig(d_model=8, n_heads=2, glu_dim=12)
        params = model.init_layer(cfg, 0)
        out = model.glu_ffn(np.zeros((4, 8)), params)
        assert np.array_equal(out, np.zeros((4, 8)))

    def test_zero_gate_annihilates(self):
        cfg = ModelConfig(d_model=8, n_heads=2, glu_dim=12)
        params = model.init_layer(cfg, 0)
        params.W_u[:] = 0.0
        x = linalg.uniform(4, 8, seed=31)
        assert np.array_equal(model.glu_ffn(x, params), np.zeros((4, 8)))

    def test_matches_direct_formula(self):
        cfg = ModelConfig(d_model=8, n_heads=2, glu_dim=12)
        params = model.init_layer(cfg, 0)
        x = linalg.uniform(5, 8, seed=32)
        a = x @ params.W_g
        b = x @ params.W_u
        want = ((a / (1 + np.exp(-a))) * b) @ params.W_down
        got = model.glu_ffn(x, params)
        assert np.max(np.abs(got - want)) <= 1e-14


class TestLayerForward:
    def test_zero_weights_identity(self):
        cfg = ModelConfig(n_layers=1, n_early=1, d_model=8, n_heads=2,
                          block_size=4)
        x = linalg.uniform(8, 8, seed=33)
        out = model.layer_forward(x, zero_params(cfg), 0, cfg)
        assert np.array_equal(out, x)

    def test_single_head_full_block_t2_matches_vanilla_transformer_block(self):
        n, d = 8, 8
        cfg = ModelConfig(n_layers=1, n_early=1, d_model=d, n_heads=1,
                          block_size=n, glu_dim=16, variant="t2", seed=41)
        params = model.init_layer(cfg, 0)
        x = linalg.uniform(n, d, seed=42)
        got = model.layer_forward(x, params, 0, cfg)

        # independent assembly with plain numpy ops
        def rms(v, eps):
            return v / np.sqrt((v * v).mean(axis=1, keepdims=True) + eps)

        a1 = rms(x, cfg.epsilon)
        Q, K, V = a1 @ params.W_Q, a1 @ params.W_K, a1 @ params.W_V
        S = Q @ K.T / math.sqrt(d)
        P = np.exp(S - S.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        h = x + (P @ V) @ params.W_O
        a2 = rms(h, cfg.epsilon)
        g = a2 @ params.W_g
        want = h + (((g / (1 + np.exp(-g))) * (a2 @ params.W_u)) @ params.W_down)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_wrong_width_rejected(self):
        cfg = ModelConfig(d_model=8, n_heads=2)
        with pytest.raises(ValueError):
            model.layer_forward(np.zeros((4, 6)), zero_params(cfg), 0, cfg)


class TestModelForward:
    def test_zero_layers_identity(self):
        cfg = ModelConfig(n_layers=0, n_early=0, d_model=8, n_heads=2)
        x = linalg.uniform(4, 8, seed=51)
        assert np.array_equal(model.model_forward(x, cfg, []), x)

    def test_variants_differ(self):
        x = linalg.uniform(8, 8, seed=52)
        cfg1 = ModelConfig(n_layers=2, n_early=1, d_model=8, n_heads=2,
                           block_size=4, variant="t1", seed=5)
        cfg2 = ModelConfig(n_layers=2, n_early=1, d_model=8, n_heads=2,
                           block_size=4, variant="t2", seed=5)
        a = model.model_forward(x, cfg1)
        b = model.model_forward(x, cfg2)
        assert np.max(np.abs(a - b)) > 1e-8

    def test_causal_model_ignores_future_tokens(self):
        cfg = ModelConfig(n_layers=2, n_early=1, d_model=8, n_heads=2,
                          block_size=4, causal=True, seed=6)
        params = model.init_params(cfg)
        x = linalg.uniform(8, 8, seed=53)
        base = model.model_forward(x, cfg, params)
        x2 = x.copy()
        x2[6] += 5.0
        pert = model.model_forward(x2, cfg, params)
        assert np.all((pert[:6] - base[:6]) == 0.0)

    def test_depth_residual_identity(self):
        cfg = ModelConfig(n_layers=3, n_early=1, d_model=8, n_heads=2,
                          block_size=4)
        params = [zero_params(cfg) for _ in range(3)]
        x = linalg.uniform(8, 8, seed=54)
        assert np.array_equal(model.model_forward(x, cfg, params), x)


class TestDiagnostics:
    def test_early_layers_more_concentrated_than_late(self):
        cfg = ModelConfig(n_layers=2, n_early=1, d_model=16, n_heads=2,
                          block_size=4, variant="t2", seed=8)
        x = linalg.uniform(32, 16, seed=57)
        curves = []
        for i, p in enumerate(model.init_params(cfg)):
            x, maps = model.layer_forward(x, p, i, cfg, collect_P=True)
            curves.append(map_curve(maps))
        early, late = curves
        assert early is not None and late is not None
        assert compare_curves(early, late) > 0.0

    def test_per_layer_maps_shapes(self):
        cfg = ModelConfig(n_layers=2, n_early=1, d_model=8, n_heads=2,
                          block_size=4, seed=9)
        x = linalg.uniform(8, 8, seed=58)
        per_layer_P = []
        for i, p in enumerate(model.init_params(cfg)):
            x, maps = model.layer_forward(x, p, i, cfg, collect_P=True)
            per_layer_P.append(maps)
        assert len(per_layer_P) == 2
        assert len(per_layer_P[0]) == 2  # one map per head
        assert per_layer_P[0][0].shape == (8, 8)


class TestLayerBackward:
    def test_matches_finite_differences(self):
        from attnlab import grad
        for cfg in (
            ModelConfig(n_layers=1, n_early=1, d_model=8, n_heads=2,
                        block_size=4, glu_dim=12, variant="t2", seed=11),
            ModelConfig(n_layers=1, n_early=0, d_model=8, n_heads=2,
                        glu_dim=12, variant="t2", seed=12),
        ):
            params = model.init_layer(cfg, 0)
            x = linalg.uniform(8, 8, seed=59)
            d_out = linalg.uniform(8, 8, seed=60)
            dx, grads = model.layer_backward(x, params, 0, cfg, d_out)

            def fwd(p):
                lp = LayerParams(p["W_Q"], p["W_K"], p["W_V"], p["W_O"],
                                 p["W_g"], p["W_u"], p["W_down"])
                return model.layer_forward(p["x"], lp, 0, cfg)

            named = {"x": x.copy(),
                     **{k: v.copy() for k, v in params.named().items()}}
            err = grad.finite_diff_check(fwd, named, {"x": dx, **grads}, d_out)
            assert err <= 1e-6, cfg

    @pytest.mark.parametrize("n_early", [1, 0], ids=["diag", "norm"])
    def test_runs_each_head_forward_once(self, monkeypatch, n_early):
        from attnlab import attention
        cfg = ModelConfig(n_layers=1, n_early=n_early, d_model=8, n_heads=2,
                          block_size=4, glu_dim=12, variant="t2", seed=13)
        calls = []
        inner = attention.forward

        def counted(Q, K, V, spec, **kw):
            calls.append(spec.mechanism)
            return inner(Q, K, V, spec, **kw)

        monkeypatch.setattr(attention, "forward", counted)
        x = linalg.uniform(8, 8, seed=61)
        model.layer_backward(x, model.init_layer(cfg, 0), 0, cfg,
                             linalg.uniform(8, 8, seed=62))
        assert calls == [cfg.layer_mechanism(0)] * cfg.n_heads

    def test_wrong_width_raises_layer_forwards_error(self):
        cfg = ModelConfig(n_layers=1, n_early=1, d_model=8, n_heads=2,
                          block_size=4, glu_dim=12, seed=14)
        with pytest.raises(ValueError, match="^expected 8 columns, got 5$"):
            model.layer_backward(linalg.uniform(8, 5, seed=63), model.init_layer(cfg, 0), 0,
                                 cfg, linalg.uniform(8, 8, seed=64))


@pytest.mark.slow
class TestComplexityScaling:
    def test_linear_stack_scales_linearly_vanilla_quadratically(self):
        def doubling_ratio(cfg, n):
            # n and 2n alternate in one loop, so that a slow stretch of a
            # shared host falls on both sizes rather than on one of them
            xs = [linalg.uniform(m, cfg.d_model, seed=71) for m in (n, 2 * n)]
            params = model.init_params(cfg)
            times = ([], [])
            for x in xs:
                model.model_forward(x, cfg, params)  # warm
            for _ in range(5):
                for x, t in zip(xs, times):
                    t0 = time.perf_counter()
                    model.model_forward(x, cfg, params)
                    t.append(time.perf_counter() - t0)
            return float(np.median(times[1])) / float(np.median(times[0]))

        mixed = ModelConfig(n_layers=2, n_early=1, d_model=32, n_heads=2,
                            block_size=64, seed=31)
        vanilla = ModelConfig(n_layers=2, n_early=1, d_model=32, n_heads=2,
                              block_size=64, seed=31,
                              attention_override="vanilla")
        # wall-clock ratios on sub-second timings are noisy; accept the first
        # clean attempt out of three
        history = []
        for attempt in range(3):
            mixed_ratio = doubling_ratio(mixed, 2048)
            vanilla_ratio = doubling_ratio(vanilla, 2048)
            history.append((mixed_ratio, vanilla_ratio))
            if mixed_ratio <= 2.6 and vanilla_ratio >= 3.4:
                return
        raise AssertionError(f"doubling ratios out of range: {history}")
