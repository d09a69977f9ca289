"""Command-line surface: verification suites, reports, curves, benchmarks.

Every command resolves its configuration (flags override an optional JSON
config file; the seed falls back to ATTNLAB_SEED) and echoes the resolved
values in its output, so a run can be reproduced from the artifact alone.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import attention, bench, dilution, grad, kernels, linalg, model
from .attention import AttentionSpec

DEFAULT_SEED = 7


# ---------------------------------------------------------------------------
# Verification suites (exposed for tests as well as the CLI)
# ---------------------------------------------------------------------------


class _Suite:
    """One suite's checks: each check's worst value, its bound and pass flag,
    and the seeds whose value broke a check."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.checks: dict = {}
        self.failing: list = []

    def see(self, check: str, value, bound: float, seed: int, *, above: bool = False) -> None:
        """Record one value of `check`, which must be <= bound (> bound when
        `above`).  The worst value is the max (the min when `above`); a NaN
        fails its check and stays the worst value."""
        c = self.checks.setdefault(check, {"value": value, "bound": bound, "pass": True})
        if math.isnan(value) or (value < c["value"] if above else value > c["value"]):
            c["value"] = value
        if not (value > bound if above else value <= bound):
            c["pass"] = False
            self.failing.append({"check": check, "seed": seed})

    def result(self) -> dict:
        return {"suite": self.name, "seed": self.seed,
                "pass": all(c["pass"] for c in self.checks.values()),
                "checks": self.checks, "failing_seeds": self.failing}


def verify_bounds(seed: int = DEFAULT_SEED, trials: int = 200) -> dict:
    """Map-Jacobian and loss-gradient bounds plus the matrix norm facts."""
    suite = _Suite("bounds", seed)
    for t in range(trials):
        s = linalg.split_seed(seed, 10, t)
        n = 2 + s % 15
        d = 1 + (s >> 8) % 8
        Q, K, V = linalg._seeded_qkv(s, n, d)
        S, P = attention._tile_scores(Q, K, AttentionSpec("vanilla"), "softmax")
        suite.see("vanilla_max_dp_ds", grad._max_abs_dp_ds(P, S, kernels.get_kernel("exp")),
                  0.25 + 1e-12, s)

    for t in range(trials):
        s = linalg.split_seed(seed, 11, t)
        n = 2 + s % 7
        d = 1 + (s >> 8) % 4
        Q, K, V = linalg._seeded_qkv(s, n, d)
        features = attention._kernel_features(Q, K, V, AttentionSpec("linear"))
        Tt, S = attention._kernel_attention(*features, causal=False, reference=True)
        P = S / Tt[:, -1:]
        c3 = float(np.min(np.abs(S)))
        m = grad._max_abs_dp_ds(P, S, kernels.get_kernel("identity"))
        suite.see("linear_dp_ds_excess_over_quarter_c3", m - 1.0 / (4.0 * c3), 1e-9, s)

    for t in range(trials):
        s = linalg.split_seed(seed, 12, t)
        eps = 1e-3 if t % 2 == 0 else 1e-5
        Q, K, V = linalg._seeded_qkv(s, 8, 8)
        dO = linalg.uniform(8, 8, linalg.split_seed(s, 4))
        spec = AttentionSpec("norm", kernel="1+elu", epsilon=eps)
        _, _, _, rep = grad.norm_backward(Q, K, V, dO, spec)
        suite.see("norm_dL_ds_over_bound", rep.max_abs_dL_ds / rep.theoretical_bound, 1.0, s)

    for t in range(trials):
        s = linalg.split_seed(seed, 13, t)
        n = 1 + s % 32
        r = 1 + (s >> 8) % 32
        m = 1 + (s >> 16) % 32
        X = linalg.uniform(n, m, linalg.split_seed(s, 1))
        Y = linalg.uniform(r, m, linalg.split_seed(s, 2))
        lhs = linalg.row_norm_max(linalg.matmul(X, linalg.transpose(Y)))
        rhs = math.sqrt(r) * linalg.row_norm_max(X) * linalg.row_norm_max(Y)
        suite.see("h_submultiplicativity_excess", lhs - rhs, 1e-9, s)
        est = linalg.spectral_norm_estimate(X, 200)
        suite.see("spectral_vs_sqrt_n_h_excess", est - math.sqrt(n) * linalg.row_norm_max(X),
                  1e-9, s)
    return suite.result()


def verify_oracle(seed: int = DEFAULT_SEED, trials: int = 200) -> dict:
    """Efficient vs reference forms, plus the block-attention degeneracies."""
    suite = _Suite("oracle", seed)
    for t in range(trials):
        s = linalg.split_seed(seed, 20, t)
        n = 2 + s % 63
        d = 1 + (s >> 8) % 16
        causal = (t % 3 == 0)
        Q, K, V = linalg._seeded_qkv(s, n, d)
        for mech in ("linear", "norm"):
            spec = AttentionSpec(mech, kernel="1+elu", causal=causal)
            eff = attention.forward(Q, K, V, spec).O
            ref = attention.forward(Q, K, V, spec, reference=True).O
            suite.see(f"{mech}_efficient_vs_reference", float(np.max(np.abs(eff - ref))),
                      1e-10, s)

    for t in range(50):
        s = linalg.split_seed(seed, 21, t)
        w = 2 + s % 6
        blocks = 1 + (s >> 8) % 4
        n = w * blocks
        d = 1 + (s >> 16) % 8
        Q, K, V = linalg._seeded_qkv(s, n, d)
        got = attention.diag_forward(Q, K, V, AttentionSpec("diag", block_size=w)).O
        want = _masked_vanilla(Q, K, V, w)
        suite.see("diag_vs_masked_vanilla", float(np.max(np.abs(got - want))), 1e-12, s)

    for t in range(50):
        s = linalg.split_seed(seed, 22, t)
        n = 2 + s % 15
        d = 1 + (s >> 8) % 8
        Q, K, V = linalg._seeded_qkv(s, n, d)
        got = attention.diag_forward(Q, K, V, AttentionSpec("diag", block_size=n)).O
        want = attention.vanilla_forward(Q, K, V).O
        suite.see("diag_w_eq_n_vs_vanilla", float(np.max(np.abs(got - want))), 1e-14, s)
    return suite.result()


def _masked_vanilla(Q, K, V, w):
    n, d = Q.shape
    S = linalg.matmul(Q, linalg.transpose(K)) / math.sqrt(d)
    block = np.arange(n) // w
    P = linalg.row_softmax(S + np.where(block[:, None] == block, 0.0, -np.inf))
    return linalg.matmul(P, V)


def verify_fd(seed: int = DEFAULT_SEED) -> dict:
    """Finite-difference agreement for every analytic backward."""
    suite = _Suite("fd", seed)
    tol = 1e-6
    s = linalg.split_seed(seed, 30)
    cases = (  # name, Q/K/V stream, n, d, spec, dO seed, failing seed
        ("fd_vanilla", 30, 6, 4, AttentionSpec("vanilla"), linalg.split_seed(s, 4), s),
        ("fd_linear", 31, 8, 4, AttentionSpec("linear", kernel="1+elu"),
         linalg.split_seed(seed, 31, 4), seed),
        ("fd_norm", 32, 8, 8, AttentionSpec("norm", kernel="1+elu", epsilon=1e-5),
         linalg.split_seed(seed, 32, 4), seed),
        ("fd_diag", 33, 8, 4, AttentionSpec("diag", block_size=4),
         linalg.split_seed(seed, 33, 4), seed),
    )
    for name, stream, n, d, spec, dO_seed, failing_seed in cases:
        Q, K, V = linalg._seeded_qkv(linalg.split_seed(seed, stream), n, d)
        dO = linalg.uniform(n, d, dO_seed)
        err = grad._fd_for_mechanism(Q, K, V, dO, spec, grad.backward(Q, K, V, dO, spec))
        suite.see(name, err, tol, failing_seed)

    cfg = model.ModelConfig(n_layers=1, n_early=1, d_model=8, n_heads=2,
                            block_size=4, glu_dim=12, variant="t2", seed=seed)
    params = model.init_layer(cfg, 0)
    x = linalg.uniform(8, 8, linalg.split_seed(seed, 34))
    d_out = linalg.uniform(8, 8, linalg.split_seed(seed, 34, 2))
    dx, grads_ = model.glu_ffn_backward(x, params, d_out)
    err = grad.finite_diff_check(
        lambda p: model.glu_ffn(p["x"], model.LayerParams(
            params.W_Q, params.W_K, params.W_V, params.W_O,
            p["W_g"], p["W_u"], p["W_down"])),
        {"x": x.copy(), "W_g": params.W_g.copy(), "W_u": params.W_u.copy(),
         "W_down": params.W_down.copy()},
        {"x": dx, **grads_}, d_out)
    suite.see("fd_glu", err, tol, seed)

    suite.see("fd_layer_diag", _fd_layer(cfg, params, x, d_out), tol, seed)
    cfg_norm = model.ModelConfig(n_layers=1, n_early=0, d_model=8, n_heads=2,
                                 block_size=4, glu_dim=12, variant="t2", seed=seed)
    suite.see("fd_layer_norm", _fd_layer(cfg_norm, model.init_layer(cfg_norm, 0), x, d_out),
              tol, seed)
    return suite.result()


def _fd_layer(cfg, params, x, d_out) -> float:
    dx, grads_ = model.layer_backward(x, params, 0, cfg, d_out)

    def fwd(p):
        lp = model.LayerParams(p["W_Q"], p["W_K"], p["W_V"], p["W_O"],
                               p["W_g"], p["W_u"], p["W_down"])
        return model.layer_forward(p["x"], lp, 0, cfg)

    named = {"x": x.copy(), **{k: v.copy() for k, v in params.named().items()}}
    return grad.finite_diff_check(fwd, named, {"x": dx, **grads_}, d_out)


def verify_dilution(seed: int = DEFAULT_SEED) -> dict:
    suite = _Suite("dilution", seed)
    m = 64
    ident = dilution.dilution_curve(np.eye(m))
    suite.see("identity_curve", float(np.max(np.abs(ident.ratios[1:] - 1.0 / m))),
              2.0 / m, seed)
    uni = dilution.dilution_curve(np.full((m, m), 1.0 / m))
    suite.see("uniform_curve", float(np.max(np.abs(uni.ratios[1:] - uni.thresholds[1:]))),
              2.0 / m, seed)

    for t in range(100):
        s = linalg.split_seed(seed, 40, t)
        Q, K, V = linalg._seeded_qkv(s, 32, 8)
        Pd = attention.diag_forward(Q, K, V, AttentionSpec("diag", block_size=4),
                                    reference=True).P
        Pl = attention.linear_scaled_forward(
            Q, K, V, AttentionSpec("linear", kernel="1+elu"), reference=True).P
        area = dilution.compare_curves(dilution.dilution_curve(Pd),
                                       dilution.dilution_curve(Pl))
        suite.see("diag_vs_linear_min_area", area, 0.0, s, above=True)
    return suite.result()


SUITES = {
    "bounds": verify_bounds,
    "oracle": verify_oracle,
    "fd": verify_fd,
    "dilution": verify_dilution,
}


# ---------------------------------------------------------------------------
# JSON / matrix-file helpers
# ---------------------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # 'inf', '-inf', 'nan'
    return obj


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def read_matrix_file(path: str):
    with open(path) as fh:
        content = fh.read()
    if not content.strip():
        return np.zeros((0, 0))
    m = np.loadtxt(io.StringIO(content), dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: input holds a non-finite value (nan or inf)")
    return m


def write_matrix_file(path: str, m) -> None:
    np.savetxt(path, m, fmt="%.17g")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ATTNLAB_SEED", DEFAULT_SEED)
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"ATTNLAB_SEED must be an integer, got {env!r}") from None


def _load_config_file(args) -> dict:
    """Model config keys from --config; an unknown key or a value of the wrong
    JSON type is a usage error."""
    if not args.config:
        return {}
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    types = get_type_hints(model.ModelConfig)
    unknown = sorted(set(cfg) - set(types))
    if unknown:
        raise ValueError(f"{args.config}: unknown config key(s): {', '.join(unknown)}")
    for key, value in cfg.items():
        kind = types[key]
        if not _config_type_ok(kind, value):
            name = kind.__name__ if isinstance(kind, type) else str(kind).replace("typing.", "")
            raise ValueError(f"{args.config}: config key {key!r} must be {name}, "
                             f"got {json.dumps(value)}")
    return cfg


def _config_type_ok(kind, value) -> bool:
    if isinstance(value, bool):  # JSON true/false; bool subclasses int
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)  # kind may be Optional[str]


def _given(args, *names: str) -> dict:
    """The flags among `names` given on the command line; each defaults to None."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _check_sizes(**sizes: int) -> None:
    """A size flag below 1 is a usage error that names the flag and its value."""
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"--{name} must be >= 1, got {value}")


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = {name: SUITES[name](seed) for name in names}
    ok = all(r["pass"] for r in results.values())
    _emit({"command": "verify",
           "config": {"suite": args.suite, "seed": seed},
           "pass": ok,
           "results": results}, args.out)
    return 0 if ok else 1


def cmd_adversarial(args) -> int:
    seed = _resolve_seed(args)
    kern = kernels.get_kernel(args.kernel)
    points = []
    x0_values = [args.x0sq]
    if args.sweep:
        x0_values = [1e-2, 1e-4, 1e-6]
    for x0sq in x0_values:
        inst = grad.build_adversarial(args.n, args.d, x0sq, kern)
        observed = grad.adversarial_observed(inst, kern)
        points.append({
            "x0_norm_sq": x0sq,
            "predicted": inst.predicted_grad_magnitude,
            "observed": observed,
            "relative_error": abs(observed - inst.predicted_grad_magnitude)
            / inst.predicted_grad_magnitude,
        })
    _emit({"command": "adversarial",
           "config": {"n": args.n, "d": args.d, "x0sq": args.x0sq,
                      "kernel": args.kernel, "sweep": args.sweep, "seed": seed},
           "vanilla_bound": 0.25,
           "points": points}, args.out)
    return 0


# Flags that only dilution's seeded projections read, with their defaults; with
# --config the model comes from the file, so passing one is a usage error.
_PROJECTION_DEFAULTS = {"d": 16, "block_size": 8, "epsilon": 1e-5, "kernel": "1+elu",
                        "causal": False, "mechanisms": "vanilla,linear,diag"}


def cmd_dilution(args) -> int:
    seed = _resolve_seed(args)
    outdir = args.out or "."
    given = _given(args, *_PROJECTION_DEFAULTS)
    if args.config and given:
        raise ValueError(f"--{next(iter(given)).replace('_', '-')}: not read with "
                         "--config, which takes the model from the file")
    X = read_matrix_file(args.input) if args.input else None
    if X is not None and X.size == 0:  # one check for both paths
        raise ValueError(f"{args.input}: input is empty")
    if args.config:
        return _dilution_from_model(args, X, seed, outdir)
    vars(args).update(_PROJECTION_DEFAULTS | given)
    if X is not None:
        n, d = X.shape
    else:
        n, d = args.n, args.d
        _check_sizes(n=n, d=d)
        X = linalg.uniform(n, d, linalg.split_seed(seed, 1))
    Q = linalg.matmul(X, linalg.normal(d, d, linalg.split_seed(seed, 2), std=1 / math.sqrt(d)))
    K = linalg.matmul(X, linalg.normal(d, d, linalg.split_seed(seed, 3), std=1 / math.sqrt(d)))
    V = linalg.matmul(X, linalg.normal(d, d, linalg.split_seed(seed, 4), std=1 / math.sqrt(d)))
    curves = {}
    mechanisms = args.mechanisms.split(",")
    for mech in mechanisms:
        spec = AttentionSpec(mech, kernel=args.kernel, block_size=args.block_size,
                             causal=args.causal, epsilon=args.epsilon)
        curves[mech] = dilution.map_curve([attention.forward(Q, K, V, spec, reference=True).P])
    return _emit_curves(curves, mechanisms, outdir,
                        {"mechanisms": args.mechanisms, "n": n, "d": d, "seed": seed,
                         "block_size": args.block_size, "input": args.input})


def _dilution_from_model(args, X, seed: int, outdir: str) -> int:
    """Per-layer curves of a configured model on X (--input), else on seeded input."""
    config = model.ModelConfig(**_load_config_file(args))
    if X is None:
        _check_sizes(n=args.n)
        X = linalg.uniform(args.n, config.d_model, linalg.split_seed(seed, 1))
    curves = {}
    for i, params in enumerate(model.init_params(config)):
        X, maps = model.layer_forward(X, params, i, config, collect_P=True)
        curves[f"layer{i}_{config.layer_mechanism(i)}"] = dilution.map_curve(maps)
    return _emit_curves(curves, sorted(curves), outdir,
                        json.loads(config.to_json()) | {"seed": seed, "n": X.shape[0]})


def _emit_curves(curves: dict, order: Sequence[str], outdir: str, config: dict) -> int:
    """Write one CSV per curve and emit the signed area of each pair in `order`."""
    os.makedirs(outdir, exist_ok=True)
    written = {}
    for name, curve in curves.items():
        path = os.path.join(outdir, f"dilution_{name}.csv")
        with open(path, "w") as fh:
            fh.write(curve.to_csv())
        written[name] = path
    areas = {}
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            areas[f"{a}_minus_{b}"] = dilution.compare_curves(curves[a], curves[b])
    _emit({"command": "dilution", "config": config, "files": written,
           "signed_areas": areas}, None)
    return 0


def cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    lengths = [int(v) for v in args.lengths.split(",")]
    _check_sizes(lengths=min(lengths), d=args.d)
    mechanisms = args.mechanisms.split(",")
    results = bench.run_scaling(mechanisms, lengths, d=args.d, reps=args.reps,
                                seed=seed, mode=args.mode)
    csv_text = bench.results_to_csv(results)
    if not args.out:
        sys.stdout.write(csv_text)  # CSV alone keeps stdout parseable
        return 0
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    slopes = {}
    for mech in mechanisms:
        try:
            slopes[mech] = bench.loglog_slope(results, mech)
        except ValueError:
            slopes[mech] = None
    _emit({"command": "bench",
           "config": {"lengths": lengths, "mechanisms": mechanisms, "d": args.d,
                      "reps": args.reps, "mode": args.mode, "seed": seed},
           "loglog_slopes": slopes,
           "csv": args.out}, None)
    return 0


def cmd_stability(args) -> int:
    seed = _resolve_seed(args)
    # the experiment is non-causal; its n=32 rows must be a multiple of the
    # diag block size
    specs = [AttentionSpec(mech, kernel=args.kernel, block_size=8, causal=False,
                           epsilon=args.epsilon)
             for mech in args.mechanisms.split(",")]
    report = grad.grad_stability_experiment(specs, steps=args.steps, seed=seed,
                                            learning_rate=args.lr)
    _emit({"command": "stability",
           "config": {"mechanisms": args.mechanisms, "steps": args.steps,
                      "lr": args.lr, "seed": seed, "kernel": args.kernel},
           "rsd": report.rsd,
           "replicas": report.replicas}, args.out)
    return 0


def cmd_pad_forward(args) -> int:
    if not args.out:
        raise ValueError("pad-forward requires --out")
    cfg_kwargs = _load_config_file(args)
    # only explicitly-given flags override the config file
    cfg_kwargs |= _given(args, "block_size", "causal", "seed", "n_heads", "variant", "epsilon")
    cfg_kwargs.setdefault("seed", _resolve_seed(args))
    config = model.ModelConfig(**cfg_kwargs)
    X = read_matrix_file(args.input)
    if X.size == 0:
        X = X.reshape(0, config.d_model)
    n = X.shape[0]
    w = config.block_size
    padded_n = ((n + w - 1) // w) * w
    if X.shape[1] != config.d_model:
        raise ValueError(f"input has {X.shape[1]} columns, model wants {config.d_model}")
    if padded_n != n and not config.causal:
        # every real row attends to the zero rows, so padding would change it
        raise ValueError(f"non-causal model: {n} rows is not a multiple of block size {w}, "
                         "and padding would change the real rows")
    Xp = np.zeros((padded_n, config.d_model))
    Xp[:n] = X
    out = model.model_forward(Xp, config)
    write_matrix_file(args.out, out[:n])
    _emit({"command": "pad_forward", "config": json.loads(config.to_json()),
           "rows_in": n, "rows_out": n, "padded_to": padded_n}, None)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# Flags that several subcommands share; each subparser declares only the ones
# its command reads, so passing any other is a usage error.
_SHARED_FLAGS = {
    "--seed": dict(type=int, help="root seed (or ATTNLAB_SEED env var; default 7)"),
    "--n": dict(type=int),
    "--d": dict(type=int),
    "--heads": dict(type=int, dest="n_heads"),
    "--block-size": dict(type=int, dest="block_size"),
    "--epsilon": dict(type=float),
    "--kernel": dict(default="1+elu", choices=sorted(kernels.KERNELS)),
    "--variant": dict(choices=("t1", "t2")),
    "--causal": dict(action="store_true", default=None),
    "--out": dict(),
    "--config": dict(help="JSON config file"),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnlab",
        description="attention mechanisms: verification, reports, benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the property suites")
    _add_shared(p, "--seed", "--out")
    p.add_argument("--suite", choices=("all",) + tuple(SUITES), default="all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("adversarial", help="map-Jacobian blow-up instance")
    _add_shared(p, "--seed", "--n", "--d", "--kernel", "--out")
    p.add_argument("--x0sq", type=float, default=1e-6,
                   help="squared norm of the shared feature vector")
    p.add_argument("--sweep", action="store_true")
    p.set_defaults(fn=cmd_adversarial, n=4, d=4)

    p = sub.add_parser("dilution", help="write locality curves as CSV")
    _add_shared(p, "--seed", "--n", "--d", "--block-size", "--epsilon", "--kernel",
                "--causal", "--out", "--config")
    p.add_argument("--mechanisms")
    p.add_argument("--input", default=None,
                   help="whitespace-separated matrix file (else seeded random)")
    p.set_defaults(fn=cmd_dilution, n=64, kernel=None)

    p = sub.add_parser("bench", help="scaling benchmark, CSV output")
    _add_shared(p, "--seed", "--d", "--out")
    p.add_argument("--lengths", default="1024,2048,3072,4096,5120")
    p.add_argument("--mechanisms", default="vanilla,norm,diag")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--mode", choices=("forward", "forward_backward"),
                   default="forward")
    p.set_defaults(fn=cmd_bench, d=16)

    p = sub.add_parser("stability", help="gradient-stability experiment")
    _add_shared(p, "--seed", "--kernel", "--epsilon", "--out")
    p.add_argument("--mechanisms", default="vanilla,linear,norm")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.25)
    p.set_defaults(fn=cmd_stability, epsilon=1e-4)

    p = sub.add_parser("pad-forward", help="zero-pad, run the model, strip padding")
    _add_shared(p, "--seed", "--heads", "--block-size", "--epsilon", "--variant",
                "--causal", "--out", "--config")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_pad_forward)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
