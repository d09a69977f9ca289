import json
import math
import os
import pathlib
import shlex

import numpy as np
import pytest

from attnlab import cli, linalg, model
from attnlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerifyCommand:
    def test_bounds_suite_passes_and_reports(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "bounds", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        checks = payload["results"]["bounds"]["checks"]
        assert checks["vanilla_max_dp_ds"]["value"] <= 0.25
        assert checks["vanilla_max_dp_ds"]["pass"] is True

    def test_oracle_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "oracle")
        assert code == 0
        checks = json.loads(out)["results"]["oracle"]["checks"]
        assert checks["linear_efficient_vs_reference"]["value"] <= 1e-10
        assert checks["norm_efficient_vs_reference"]["value"] <= 1e-10

    def test_fd_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "fd")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_dilution_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "dilution")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.slow
    def test_all_suites_default_flags(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["results"]) == {"bounds", "oracle", "fd", "dilution"}
        assert payload["pass"] is True


class TestSuiteRecorder:
    """Each failing value lists its seed under the check it broke."""

    @staticmethod
    def failed(result):
        names = {f["check"] for f in result["failing_seeds"]}
        assert names <= set(result["checks"])
        return {name for name, c in result["checks"].items() if not c["pass"]}, names

    def test_spectral_fact_fails_alone(self, monkeypatch):
        monkeypatch.setattr(linalg, "spectral_norm_estimate", lambda X, iters: math.inf)
        result = cli.verify_bounds(7, trials=4)
        assert result["pass"] is False
        assert self.failed(result) == ({"spectral_vs_sqrt_n_h_excess"},) * 2
        assert len(result["failing_seeds"]) == 4
        assert result["checks"]["spectral_vs_sqrt_n_h_excess"]["value"] == math.inf

    def test_area_must_stay_above_its_bound(self, monkeypatch):
        monkeypatch.setattr(cli.dilution, "compare_curves", lambda a, b: -1.0)
        result = cli.verify_dilution(7)
        assert self.failed(result) == ({"diag_vs_linear_min_area"},) * 2
        check = result["checks"]["diag_vs_linear_min_area"]
        assert check["value"] == -1.0 and check["bound"] == 0.0
        seeds = [f["seed"] for f in result["failing_seeds"]]
        assert seeds == [linalg.split_seed(7, 40, t) for t in range(100)]

    def test_nan_fails_its_check(self, monkeypatch):
        monkeypatch.setattr(cli.grad, "_max_abs_dp_ds", lambda P, S, kernel: math.nan)
        result = cli.verify_bounds(7, trials=3)
        failed, _ = self.failed(result)
        # the linear check reads the same extremum
        assert failed == {"vanilla_max_dp_ds", "linear_dp_ds_excess_over_quarter_c3"}
        assert math.isnan(result["checks"]["vanilla_max_dp_ds"]["value"])


class TestAdversarialCommand:
    def test_example_point(self, capsys):
        code, out = run_cli(capsys, "adversarial", "--n", "4", "--d", "4",
                            "--x0sq", "1e-6")
        assert code == 0
        payload = json.loads(out)
        assert payload["vanilla_bound"] == 0.25
        point = payload["points"][0]
        assert point["observed"] == pytest.approx(187500.0, rel=1e-6)
        assert point["relative_error"] <= 1e-6

    def test_boundary_point(self, capsys):
        code, out = run_cli(capsys, "adversarial", "--n", "2", "--d", "4",
                            "--x0sq", "1.0")
        point = json.loads(out)["points"][0]
        assert point["predicted"] == pytest.approx(0.25)

    def test_sweep_monotone(self, capsys):
        code, out = run_cli(capsys, "adversarial", "--n", "4", "--d", "4",
                            "--x0sq", "1e-2", "--sweep")
        points = json.loads(out)["points"]
        observed = [p["observed"] for p in points]
        assert observed == sorted(observed)
        assert observed[-1] / observed[0] == pytest.approx(1e4, rel=1e-6)

    def test_byte_identical_reruns(self, capsys):
        _, first = run_cli(capsys, "adversarial", "--n", "4", "--d", "4",
                           "--x0sq", "1e-4")
        _, second = run_cli(capsys, "adversarial", "--n", "4", "--d", "4",
                            "--x0sq", "1e-4")
        assert first == second


class TestSeedResolution:
    def test_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTNLAB_SEED", "123")
        _, out = run_cli(capsys, "adversarial", "--n", "4", "--d", "4",
                         "--x0sq", "1e-4")
        assert json.loads(out)["config"]["seed"] == 123

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTNLAB_SEED", "123")
        _, out = run_cli(capsys, "adversarial", "--seed", "9", "--n", "4",
                         "--d", "4", "--x0sq", "1e-4")
        assert json.loads(out)["config"]["seed"] == 9

    def test_non_integer_env_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("ATTNLAB_SEED", "abc")
        code = main(["adversarial", "--n", "4", "--d", "4", "--x0sq", "1e-4"])
        assert code == 2
        assert capsys.readouterr().err == "error: ATTNLAB_SEED must be an integer, got 'abc'\n"


class TestDilutionCommand:
    def test_writes_csvs_and_areas(self, capsys, tmp_path):
        code, out = run_cli(capsys, "dilution", "--seed", "3",
                            "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        for mech in ("vanilla", "linear", "diag"):
            path = payload["files"][mech]
            assert os.path.exists(path)
            with open(path) as fh:
                header = fh.readline().strip()
            assert header == "threshold,ratio"
        # block attention is more concentrated, so linear minus diag < 0
        assert payload["signed_areas"]["linear_minus_diag"] < 0.0

    def test_reads_matrix_input(self, capsys, tmp_path):
        X = linalg.uniform(16, 8, seed=4)
        src = tmp_path / "input.txt"
        cli.write_matrix_file(str(src), X)
        code, out = run_cli(capsys, "dilution", "--input", str(src),
                            "--mechanisms", "vanilla", "--block-size", "4",
                            "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["config"]["n"] == 16

    def test_unreadable_input_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "dilution", "--input",
                          str(tmp_path / "missing.txt"), "--out", str(tmp_path))
        assert code == 2

    def test_empty_input_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "input.txt"
        src.write_text("")
        code = main(["dilution", "--input", str(src), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {src}: input is empty\n"

    def test_empty_input_with_config_is_the_same_error(self, capsys, tmp_path):
        src, cfg_path = tmp_path / "input.txt", tmp_path / "c.json"
        src.write_text("")
        cfg_path.write_text(json.dumps({"n_layers": 1, "n_early": 1}))
        code = main(["dilution", "--config", str(cfg_path), "--input", str(src),
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {src}: input is empty\n"

    @pytest.mark.parametrize("argv", [
        ["--config", "c.json", "--input", "empty.txt"], ["--n", "0"]], ids=" ".join)
    def test_usage_error_leaves_no_out_directory(self, capsys, tmp_path, argv):
        (tmp_path / "c.json").write_text(json.dumps({"n_layers": 1, "n_early": 1}))
        (tmp_path / "empty.txt").write_text("")
        argv = [str(tmp_path / a) if a.endswith((".json", ".txt")) else a for a in argv]
        code = main(["dilution", *argv, "--out", str(tmp_path / "dz")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not (tmp_path / "dz").exists()

    def test_model_config_writes_per_layer_curves(self, capsys, tmp_path):
        cfg = model.ModelConfig(n_layers=2, n_early=1, d_model=8, n_heads=2,
                                block_size=4, seed=17)
        cfg_path = tmp_path / "model.json"
        cfg_path.write_text(cfg.to_json())
        code, out = run_cli(capsys, "dilution", "--config", str(cfg_path),
                            "--n", "16", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads(out)
        assert set(payload["files"]) == {"layer0_diag", "layer1_norm"}
        for path in payload["files"].values():
            assert os.path.exists(path)
        # block layer concentrates more than the normalized late layer
        assert payload["signed_areas"]["layer0_diag_minus_layer1_norm"] > 0.0

    @pytest.mark.parametrize("seed", ["1", "7"])
    def test_t1_model_config_curves_relu_block_scores(self, capsys, tmp_path, seed):
        # ReLU block rows sum to R / (R + eps), not 1, until row-normalized
        cfg_path = tmp_path / "model.json"
        cfg_path.write_text(json.dumps({"n_layers": 2, "n_early": 1, "d_model": 8,
                                        "n_heads": 2, "block_size": 4, "variant": "t1"}))
        code, out = run_cli(capsys, "dilution", "--config", str(cfg_path), "--n", "16",
                            "--seed", seed, "--out", str(tmp_path))
        assert code == 0
        files = json.loads(out)["files"]
        assert set(files) == {"layer0_diag", "layer1_norm"}
        for path in files.values():
            assert os.path.exists(path)


class TestBenchCommand:
    def test_csv_to_stdout(self, capsys):
        code, out = run_cli(capsys, "bench", "--lengths", "64,128",
                            "--mechanisms", "norm", "--d", "8", "--reps", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mechanism,n,d,mode,median_ns,peak_bytes"
        assert len(lines) == 3

    def test_csv_to_file_with_summary(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, out = run_cli(capsys, "bench", "--lengths", "64,128,256",
                            "--mechanisms", "norm", "--d", "8", "--reps", "5",
                            "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        payload = json.loads(out)
        assert "norm" in payload["loglog_slopes"]


class TestStabilityCommand:
    def test_zero_lr_rsd_zero(self, capsys):
        code, out = run_cli(capsys, "stability", "--steps", "10",
                            "--mechanisms", "vanilla", "--lr", "0.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["rsd"]["vanilla"] == 0.0

    def test_smoke_run_reports_all_mechanisms(self, capsys):
        code, out = run_cli(capsys, "stability", "--steps", "25", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["rsd"]) == {"vanilla", "linear", "norm"}

    def test_diag_blocks_divide_experiment_length(self, capsys):
        code, out = run_cli(capsys, "stability", "--mechanisms", "diag",
                            "--steps", "3")
        assert code == 0
        assert json.loads(out)["rsd"]["diag"] >= 0.0


class TestPadForwardCommand:
    def _config(self, tmp_path, causal=True):
        cfg = model.ModelConfig(n_layers=2, n_early=1, d_model=8, n_heads=2,
                                block_size=4, causal=causal, seed=11)
        path = tmp_path / "config.json"
        path.write_text(cfg.to_json())
        return cfg, str(path)

    def test_pads_and_strips(self, capsys, tmp_path):
        cfg, cfg_path = self._config(tmp_path)
        X = linalg.uniform(10, 8, seed=12)
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        cli.write_matrix_file(str(src), X)
        code, out = run_cli(capsys, "pad-forward", "--input", str(src),
                            "--out", str(dst), "--config", cfg_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["rows_in"] == 10 and payload["padded_to"] == 12
        result = cli.read_matrix_file(str(dst))
        assert result.shape == (10, 8)

    def test_causal_padding_leaves_prefix_unchanged(self, capsys, tmp_path):
        cfg, cfg_path = self._config(tmp_path, causal=True)
        X = linalg.uniform(10, 8, seed=13)
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        cli.write_matrix_file(str(src), X)
        run_cli(capsys, "pad-forward", "--input", str(src), "--out", str(dst),
                "--config", cfg_path)
        padded_out = cli.read_matrix_file(str(dst))
        direct = model.model_forward(X[:8], cfg, model.init_params(cfg))
        # text round trip costs the last bit or two; compare at that level
        assert np.allclose(padded_out[:8], direct, atol=1e-12, rtol=0)

    def test_empty_input_empty_output(self, capsys, tmp_path):
        cfg, cfg_path = self._config(tmp_path)
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text("")
        code, out = run_cli(capsys, "pad-forward", "--input", str(src),
                            "--out", str(dst), "--config", cfg_path)
        assert code == 0
        assert json.loads(out)["rows_out"] == 0
        assert cli.read_matrix_file(str(dst)).size == 0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_input_is_usage_error(self, capsys, tmp_path, bad):
        _, cfg_path = self._config(tmp_path)
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text(f"1 {bad} 3 4 5 6 7 8\n1 2 3 4 5 6 7 8\n")
        code = main(["pad-forward", "--input", str(src), "--out", str(dst),
                     "--config", cfg_path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "non-finite" in err
        assert not dst.exists()

    def test_non_causal_padding_is_usage_error(self, capsys, tmp_path):
        _, cfg_path = self._config(tmp_path, causal=False)
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        cli.write_matrix_file(str(src), linalg.uniform(10, 8, seed=16))
        code = main(["pad-forward", "--input", str(src), "--out", str(dst),
                     "--config", cfg_path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "non-causal" in err
        assert not dst.exists()

    def test_non_causal_without_padding_runs(self, capsys, tmp_path):
        cfg, cfg_path = self._config(tmp_path, causal=False)
        X = linalg.uniform(8, 8, seed=17)
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        cli.write_matrix_file(str(src), X)
        code, out = run_cli(capsys, "pad-forward", "--input", str(src),
                            "--out", str(dst), "--config", cfg_path)
        assert code == 0 and json.loads(out)["padded_to"] == 8
        direct = model.model_forward(X, cfg, model.init_params(cfg))
        assert np.allclose(cli.read_matrix_file(str(dst)), direct, atol=1e-12, rtol=0)

    def test_missing_out_is_usage_error(self, capsys, tmp_path):
        cfg, cfg_path = self._config(tmp_path)
        src = tmp_path / "in.txt"
        cli.write_matrix_file(str(src), linalg.uniform(4, 8, seed=14))
        code = main(["pad-forward", "--input", str(src), "--config", cfg_path])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: pad-forward requires --out\n"

    def test_column_mismatch_is_usage_error(self, capsys, tmp_path):
        _, cfg_path = self._config(tmp_path)
        src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
        cli.write_matrix_file(str(src), linalg.uniform(4, 3, seed=18))
        code = main(["pad-forward", "--input", str(src), "--out", str(dst),
                     "--config", cfg_path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: input has 3 columns, model wants 8\n"
        assert not dst.exists()


# Shared flags that each subcommand does not read; passing one is a usage error.
UNREAD_FLAGS = {
    "verify": ["--n 4", "--d 4", "--heads 2", "--block-size 4", "--epsilon 1e-5",
               "--kernel relu", "--variant t1", "--causal", "--config c.json"],
    "adversarial": ["--heads 2", "--block-size 4", "--epsilon 1e-5", "--variant t1",
                    "--causal", "--config c.json"],
    "dilution": ["--heads 2", "--variant t1"],
    "bench": ["--n 4", "--heads 2", "--block-size 4", "--epsilon 1e-5",
              "--kernel relu", "--variant t1", "--causal", "--config c.json"],
    "stability": ["--n 4", "--d 4", "--heads 2", "--block-size 4", "--variant t1",
                  "--causal", "--config c.json"],
    "pad-forward": ["--n 4", "--d 4", "--kernel relu"],
}

# Flags that only dilution's seeded-projection path reads: --config takes the
# model from its file, so each is a usage error beside it.
CONFIG_UNREAD_FLAGS = ["--d 3", "--block-size 8", "--epsilon 0.5", "--kernel relu",
                       "--causal", "--mechanisms vanilla"]


def _usage_case(*argv, config=None):
    """A (argv, config) case named by its flags and the config's JSON."""
    name = " ".join(argv) + ("" if config is None else " config " + json.dumps(config))
    return pytest.param(list(argv), config, id=name)


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["pad-forward", "dilution"])
    def test_unknown_config_key_exits_2(self, capsys, tmp_path, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"n_layers": 1, "n_early": 1, "bogus": 1}))
        src = tmp_path / "in.txt"
        cli.write_matrix_file(str(src), linalg.uniform(4, 32, seed=15))
        code = main([command, "--config", str(cfg_path), "--input", str(src),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "bogus" in err

    @pytest.mark.parametrize("command", ["pad-forward", "dilution"])
    @pytest.mark.parametrize("entry", [
        {"n_layers": "2"}, {"n_heads": True}, {"epsilon": "1e-5"},
        {"causal": 1}, {"variant": 2}, {"attention_override": 3}],
        ids=lambda entry: next(iter(entry)))
    def test_wrong_config_type_exits_2(self, capsys, tmp_path, command, entry):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(entry))
        src = tmp_path / "in.txt"
        cli.write_matrix_file(str(src), linalg.uniform(4, 32, seed=15))
        code = main([command, "--config", str(cfg_path), "--input", str(src),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and repr(next(iter(entry))) in err

    @pytest.mark.parametrize("command,flag", [
        pytest.param(command, flag, id=f"{command} {flag}")
        for command, flags in UNREAD_FLAGS.items() for flag in flags])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, command, flag):
        base = ["--input", "x.txt", "--out", "y.txt"] if command == "pad-forward" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *base, *flag.split()])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", CONFIG_UNREAD_FLAGS)
    def test_flag_config_does_not_read_exits_2(self, capsys, tmp_path, flag):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"n_layers": 1, "n_early": 1}))
        code = main(["dilution", "--config", str(cfg_path), "--n", "8", *flag.split(),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: " + flag.split()[0] + ":")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["dilution", "--epsilon", "0"], ["dilution", "--block-size", "0"],
        ["stability", "--epsilon", "0"]], ids=" ".join)
    def test_explicit_zero_reaches_validation(self, capsys, tmp_path, argv):
        code = main([*argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")

    @staticmethod
    def _run_usage_error(capsys, tmp_path, argv, config):
        if argv[0] == "pad-forward":
            src = tmp_path / "in.txt"
            cli.write_matrix_file(str(src), linalg.uniform(4, 32, seed=15))
            argv = [*argv, "--input", str(src)]
        if config is not None:
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg_path)]
        if argv[0] != "adversarial":
            argv = [*argv, "--out", str(tmp_path / "out")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")
        return err

    @pytest.mark.parametrize("argv,config", [
        _usage_case("stability", "--mechanisms", "norm", "--epsilon", "nan", "--steps", "3"),
        _usage_case("stability", "--mechanisms", "norm", "--epsilon", "inf", "--steps", "3"),
        _usage_case("dilution", "--epsilon", "nan"),
        _usage_case("pad-forward", "--epsilon", "nan"),
        _usage_case("pad-forward", config={"epsilon": math.nan}),
        _usage_case("dilution", config={"epsilon": math.inf}),
        _usage_case("adversarial", "--x0sq", "nan"),
        _usage_case("adversarial", "--x0sq", "inf"),
        _usage_case("stability", "--lr", "nan", "--steps", "3"),
        _usage_case("stability", "--lr", "inf", "--steps", "3")])
    def test_non_finite_value_exits_2(self, capsys, tmp_path, argv, config):
        self._run_usage_error(capsys, tmp_path, argv, config)

    @pytest.mark.parametrize("argv,config", [
        _usage_case("pad-forward", "--heads", "0"),
        _usage_case("pad-forward", "--block-size", "0"),
        _usage_case("pad-forward", config={"n_heads": 0}),
        _usage_case("pad-forward", config={"d_model": 0}),
        _usage_case("pad-forward", config={"block_size": 0}),
        _usage_case("pad-forward", config={"n_layers": -1, "n_early": -1}),
        _usage_case("pad-forward", config={"n_early": -1}),
        _usage_case("dilution", config={"n_heads": 0}),
        _usage_case("adversarial", "--n", "1"),
        _usage_case("adversarial", "--n", "0"),
        _usage_case("adversarial", "--d", "0"),
        _usage_case("dilution", "--d", "0"),
        _usage_case("dilution", "--n", "0"),
        _usage_case("dilution", "--n", "0", config={"n_layers": 1, "n_early": 1}),
        _usage_case("bench", "--lengths", "64", "--d", "0"),
        _usage_case("bench", "--lengths", "0"),
        _usage_case("bench", "--lengths", "64,-4")])
    def test_out_of_range_size_exits_2(self, capsys, tmp_path, argv, config):
        assert ">= " in self._run_usage_error(capsys, tmp_path, argv, config)  # states the range

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


PAD_CONFIG = {"n_layers": 1, "n_early": 1, "d_model": 8, "n_heads": 2, "block_size": 4}
ROW_8 = "0.5 0.25 -0.5 1 2 -1 0 0.125\n"


def _table_case(name, argv, files=None, env=None):
    return pytest.param(argv, files or {}, env or {}, id=name)


# Every usage error that README's "Command line" section lists.  In argv,
# {f} stands for the file tmp_path/f, whose text `files` gives (no entry: the
# file does not exist).
README_USAGE_ERRORS = [
    _table_case("unreadable --input", ["dilution", "--input", "{missing.txt}"]),
    _table_case("unreadable --config", ["dilution", "--config", "{missing.json}"]),
    _table_case("config that is not JSON", ["dilution", "--config", "{c.json}"],
                {"c.json": "{n_layers: 1"}),
    _table_case("unknown config key", ["dilution", "--config", "{c.json}"],
                {"c.json": json.dumps({"bogus": 1})}),
    _table_case("config value of the wrong JSON type",
                ["pad-forward", "--config", "{c.json}", "--input", "{x.txt}",
                 "--out", "{y.txt}"], {"c.json": json.dumps({"n_heads": "2"}),
                                       "x.txt": ROW_8 * 8}),
    _table_case("config flag that --config replaces",
                ["dilution", "--config", "{c.json}", "--causal"],
                {"c.json": json.dumps({"n_layers": 1, "n_early": 1})}),
    _table_case("--epsilon 0", ["stability", "--epsilon", "0", "--steps", "1"]),
    _table_case("--block-size 0", ["dilution", "--block-size", "0"]),
    _table_case("--d 0", ["dilution", "--d", "0"]),
    _table_case("--lengths 0", ["bench", "--lengths", "0"]),
    _table_case("--lr nan", ["stability", "--lr", "nan", "--steps", "1"]),
    _table_case("empty --input", ["dilution", "--input", "{x.txt}"], {"x.txt": ""}),
    _table_case("empty --input with --config",
                ["dilution", "--config", "{c.json}", "--input", "{x.txt}"],
                {"c.json": json.dumps({"n_layers": 1, "n_early": 1}), "x.txt": ""}),
    _table_case("non-finite --input", ["dilution", "--input", "{x.txt}"],
                {"x.txt": "1 2\nnan 4\n"}),
    _table_case("pad-forward without --out",
                ["pad-forward", "--config", "{c.json}", "--input", "{x.txt}"],
                {"c.json": json.dumps(PAD_CONFIG), "x.txt": ROW_8 * 8}),
    _table_case("pad-forward with the wrong column count",
                ["pad-forward", "--config", "{c.json}", "--input", "{x.txt}",
                 "--out", "{y.txt}"], {"c.json": json.dumps(PAD_CONFIG), "x.txt": "1 2 3\n"}),
    _table_case("non-causal pad-forward that would pad",
                ["pad-forward", "--config", "{c.json}", "--input", "{x.txt}",
                 "--out", "{y.txt}"], {"c.json": json.dumps(PAD_CONFIG),
                                       "x.txt": ROW_8 * 6}),
    _table_case("non-integer ATTNLAB_SEED", ["adversarial"], env={"ATTNLAB_SEED": "7.5"}),
]


@pytest.mark.parametrize("argv,files,env", README_USAGE_ERRORS)
def test_readme_usage_error_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch,
                                                       argv, files, env):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(tmp_path)  # a run that wrongly succeeds writes here
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "y.txt").exists()


class TestReadme:
    def test_every_documented_command_parses(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        lines = [line for line in readme.read_text().splitlines()
                 if line.startswith("attnlab ")]
        assert len(lines) >= 10
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
