"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datagen import GenerationConfig, generate_benchmark
from repro.datagen.io import read_dataset_csv, write_dataset_csv


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.command == "generate"
        assert args.entities == 1000
        assert args.sources == 5

    def test_match_arguments(self):
        args = build_parser().parse_args(
            ["match", "data.csv", "--kind", "securities", "--model", "logistic"]
        )
        assert args.kind == "securities"
        assert args.model == "logistic"

    def test_match_runtime_defaults_are_serial(self):
        args = build_parser().parse_args(["match", "data.csv"])
        assert args.workers == 1
        assert args.batch_size == 2048
        assert args.executor == "process"
        assert args.blocking_shards == 1

    def test_match_runtime_flags(self):
        args = build_parser().parse_args([
            "match", "data.csv", "--workers", "4",
            "--batch-size", "512", "--executor", "thread",
            "--blocking-shards", "8",
        ])
        assert args.workers == 4
        assert args.batch_size == 512
        assert args.executor == "thread"
        assert args.blocking_shards == 8

    def test_run_runtime_flags_default_to_unset(self):
        # `run` must distinguish "not passed" from any concrete value so the
        # spec file's [pipeline.runtime] survives unless overridden.
        args = build_parser().parse_args(["run", "config.toml"])
        assert args.workers is None
        assert args.batch_size is None
        assert args.executor is None
        assert args.blocking_shards is None

    def test_run_accepts_runtime_flags(self):
        args = build_parser().parse_args([
            "run", "config.toml", "--workers", "3",
            "--batch-size", "128", "--executor", "thread",
            "--blocking-shards", "4",
        ])
        assert args.workers == 3
        assert args.batch_size == 128
        assert args.executor == "thread"
        assert args.blocking_shards == 4

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"),
        ("--workers", "-2"),
        ("--workers", "two"),
        ("--batch-size", "0"),
        ("--batch-size", "-16"),
        ("--batch-size", "1.5"),
    ])
    def test_invalid_runtime_values_fail_with_clear_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["match", "data.csv", flag, value])
        assert excinfo.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["match", "run", "ingest"])
    @pytest.mark.parametrize("flag", [
        "--profile-cache", "--no-profile-cache",
        "--columnar-dispatch", "--no-columnar-dispatch",
        "--warm-pool", "--no-warm-pool",
    ])
    def test_retired_matching_route_flags_are_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "input", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_executor_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["match", "data.csv", "--workers", "2", "--executor", "fiber"]
            )
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestGenerateCommand:
    def test_writes_csv_files(self, tmp_path, capsys):
        exit_code = main([
            "generate", "--entities", "25", "--sources", "3",
            "--seed", "5", "--output-dir", str(tmp_path),
        ])
        assert exit_code == 0
        companies = read_dataset_csv(tmp_path / "companies.csv")
        securities = read_dataset_csv(tmp_path / "securities.csv")
        assert len(companies) > 0
        assert len(securities) > 0
        output = capsys.readouterr().out
        assert "company records" in output

    def test_wdc_flag(self, tmp_path):
        exit_code = main([
            "generate", "--entities", "20", "--sources", "3",
            "--output-dir", str(tmp_path), "--wdc",
        ])
        assert exit_code == 0
        assert (tmp_path / "wdc_products.csv").exists()


class TestStatsCommand:
    def test_prints_table1_row(self, tmp_path, capsys):
        benchmark = generate_benchmark(GenerationConfig(num_entities=20, num_sources=3, seed=2))
        path = write_dataset_csv(benchmark.companies, tmp_path / "companies.csv")
        exit_code = main(["stats", str(path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "# of Records" in output
        assert "# of Matches" in output

    def test_missing_file(self, tmp_path, capsys):
        exit_code = main(["stats", str(tmp_path / "missing.csv")])
        assert exit_code == 2
        assert "not found" in capsys.readouterr().err


class TestMatchCommand:
    def test_end_to_end_with_logistic_model(self, tmp_path, capsys):
        benchmark = generate_benchmark(GenerationConfig(num_entities=40, num_sources=3, seed=3))
        path = write_dataset_csv(benchmark.companies, tmp_path / "companies.csv")
        exit_code = main([
            "match", str(path), "--kind", "companies",
            "--model", "logistic", "--epochs", "1",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Post F1" in output

    def test_missing_file(self, tmp_path):
        assert main(["match", str(tmp_path / "missing.csv")]) == 2

    def test_parallel_match_runs_end_to_end(self, tmp_path, capsys):
        benchmark = generate_benchmark(GenerationConfig(num_entities=40, num_sources=3, seed=3))
        path = write_dataset_csv(benchmark.companies, tmp_path / "companies.csv")
        exit_code = main([
            "match", str(path), "--kind", "companies",
            "--model", "logistic", "--epochs", "1",
            "--workers", "2", "--batch-size", "64", "--executor", "thread",
        ])
        assert exit_code == 0
        assert "Post F1" in capsys.readouterr().out

    def test_match_missing_file_message_matches_stats(self, tmp_path, capsys):
        # `_require_dataset` is shared, so the two commands must report a
        # missing dataset with byte-identical messages.
        missing = tmp_path / "missing.csv"
        assert main(["stats", str(missing)]) == 2
        stats_err = capsys.readouterr().err
        assert main(["match", str(missing)]) == 2
        match_err = capsys.readouterr().err
        assert stats_err == match_err

    def test_parallel_match_reproduces_serial_output(self, tmp_path, capsys):
        benchmark = generate_benchmark(GenerationConfig(num_entities=30, num_sources=3, seed=6))
        path = write_dataset_csv(benchmark.companies, tmp_path / "companies.csv")
        base = ["match", str(path), "--kind", "companies", "--model", "logistic",
                "--epochs", "1"]
        assert main(base) == 0
        serial_output = capsys.readouterr().out
        assert main(base + ["--workers", "2", "--batch-size", "32",
                            "--executor", "thread"]) == 0
        parallel_output = capsys.readouterr().out

        def score_cells(text):
            # All table cells except the wall-clock "Inference (s)" column.
            return [
                [cell.strip() for cell in line.split("|")][:-1]
                for line in text.splitlines()
                if "|" in line
            ]

        assert score_cells(parallel_output) == score_cells(serial_output)


def _score_cells(text):
    """All table cells except the wall-clock "Inference (s)" column."""
    return [
        [cell.strip() for cell in line.split("|")][:-1]
        for line in text.splitlines()
        if "|" in line
    ]


class TestRunCommand:
    def _write_dataset(self, tmp_path):
        benchmark = generate_benchmark(
            GenerationConfig(num_entities=30, num_sources=3, seed=6)
        )
        return write_dataset_csv(benchmark.companies, tmp_path / "companies.csv")

    def test_run_matches_equivalent_match_invocation(self, tmp_path, capsys):
        dataset = self._write_dataset(tmp_path)
        config = tmp_path / "experiment.toml"
        config.write_text(
            "[experiment]\n"
            f'dataset = "{dataset}"\n'
            'kind = "companies"\n'
            'model = "logistic"\n'
            "epochs = 1\n"
            "seed = 0\n"
        )
        assert main(["run", str(config)]) == 0
        run_output = capsys.readouterr().out
        assert main([
            "match", str(dataset), "--kind", "companies",
            "--model", "logistic", "--epochs", "1", "--seed", "0",
        ]) == 0
        match_output = capsys.readouterr().out
        assert _score_cells(run_output) == _score_cells(match_output)

    def test_run_json_spec(self, tmp_path, capsys):
        dataset = self._write_dataset(tmp_path)
        config = tmp_path / "experiment.json"
        config.write_text(
            '{"experiment": {"dataset": "%s", "kind": "companies", '
            '"model": "logistic", "epochs": 1}}' % dataset
        )
        assert main(["run", str(config)]) == 0
        assert "Post F1" in capsys.readouterr().out

    def test_run_dataset_flag_overrides_spec(self, tmp_path, capsys):
        dataset = self._write_dataset(tmp_path)
        config = tmp_path / "experiment.toml"
        config.write_text(
            '[experiment]\ndataset = "does/not/exist.csv"\n'
            'kind = "companies"\nmodel = "logistic"\nepochs = 1\n'
        )
        assert main(["run", str(config), "--dataset", str(dataset)]) == 0
        assert "Post F1" in capsys.readouterr().out

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.toml")]) == 2
        assert "spec file not found" in capsys.readouterr().err

    def test_run_invalid_spec_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "experiment.toml"
        config.write_text('[experiment]\nepochs = "three"\n')
        assert main(["run", str(config)]) == 2
        assert "experiment.epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("profile_cache = true", "profile_cache"),
        ("warm_pool = false", "warm_pool"),
    ])
    def test_run_retired_runtime_key_is_an_unknown_key(
        self, tmp_path, capsys, line, key
    ):
        # Specs written for the engine's former matching-route and pool-mode
        # knobs fail cleanly through the unknown-key path, naming the key.
        config = tmp_path / "experiment.toml"
        config.write_text(
            '[experiment]\nkind = "companies"\nmodel = "logistic"\n'
            f"[pipeline.runtime]\n{line}\n"
        )
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"pipeline.runtime.{key}: unknown key" in err
        assert err.count("\n") == 1

    def test_run_unknown_model_names_the_key(self, tmp_path, capsys):
        config = tmp_path / "experiment.toml"
        config.write_text('[experiment]\nmodel = "distilbert"\n')
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert "experiment.model" in err and "available" in err

    def test_match_unknown_model_exits_cleanly(self, tmp_path, capsys):
        benchmark = generate_benchmark(GenerationConfig(num_entities=10, num_sources=3, seed=1))
        path = write_dataset_csv(benchmark.companies, tmp_path / "companies.csv")
        assert main(["match", str(path), "--model", "distilbert"]) == 2
        err = capsys.readouterr().err
        assert "experiment.model" in err and "unknown model" in err

    def test_run_without_any_dataset(self, tmp_path, capsys):
        config = tmp_path / "experiment.toml"
        config.write_text('[experiment]\nkind = "companies"\nmodel = "logistic"\n')
        assert main(["run", str(config)]) == 2
        assert "no experiment.dataset" in capsys.readouterr().err

    def test_run_missing_dataset_file(self, tmp_path, capsys):
        config = tmp_path / "experiment.toml"
        config.write_text(
            '[experiment]\ndataset = "does/not/exist.csv"\n'
            'kind = "companies"\nmodel = "logistic"\n'
        )
        assert main(["run", str(config)]) == 2
        assert "dataset file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["match", "run", "ingest"])
    def test_dataset_without_training_pairs_exits_cleanly(
        self, tmp_path, capsys, command
    ):
        # A one-record dataset yields no training pairs; the fit error is a
        # usage error (one line, exit 2), not a traceback — the same line
        # from every command that trains.
        benchmark = generate_benchmark(GenerationConfig(num_entities=5, num_sources=2, seed=1))
        full = write_dataset_csv(benchmark.companies, tmp_path / "companies.csv")
        one = tmp_path / "one.csv"
        one.write_text("".join(full.read_text().splitlines(keepends=True)[:2]))
        config = tmp_path / "experiment.toml"
        config.write_text(
            f'[experiment]\ndataset = "{one}"\n'
            'kind = "companies"\nmodel = "logistic"\nepochs = 1\n'
        )
        if command == "match":
            argv = ["match", str(one), "--model", "logistic", "--epochs", "1"]
        elif command == "run":
            argv = ["run", str(config)]
        else:
            argv = ["ingest", str(one), "--state", str(tmp_path / "state"),
                    "--config", str(config)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: cannot fit on an empty training set\n"

    @pytest.mark.parametrize("command", ["match", "run"])
    def test_internal_value_error_keeps_its_traceback(
        self, tmp_path, monkeypatch, command
    ):
        # Only input errors become one-line exits; a ValueError from a bug
        # inside the run must propagate.
        import repro.api

        def broken_run(spec, dataset=None):
            raise ValueError("internal bug")

        monkeypatch.setattr(repro.api, "run_experiment", broken_run)
        path = self._write_dataset(tmp_path)
        config = tmp_path / "experiment.toml"
        config.write_text(
            f'[experiment]\ndataset = "{path}"\n'
            'kind = "companies"\nmodel = "logistic"\n'
        )
        argv = ["match", str(path)] if command == "match" else ["run", str(config)]
        with pytest.raises(ValueError, match="internal bug"):
            main(argv)


class TestRunRuntimeOverrides:
    SPEC = (
        '[experiment]\nkind = "companies"\nmodel = "logistic"\nepochs = 1\n'
        "[pipeline.runtime]\nworkers = 2\nbatch_size = 32\nexecutor = \"thread\"\n"
    )

    def _overridden_runtime(self, tmp_path, extra_argv):
        from repro.api import load_spec
        from repro.cli import _apply_runtime_overrides

        config = tmp_path / "experiment.toml"
        config.write_text(self.SPEC)
        args = build_parser().parse_args(["run", str(config)] + extra_argv)
        return _apply_runtime_overrides(load_spec(config), args).pipeline.runtime

    def test_no_flags_keep_spec_values(self, tmp_path):
        runtime = self._overridden_runtime(tmp_path, [])
        assert runtime.workers == 2
        assert runtime.batch_size == 32
        assert runtime.executor == "thread"
        assert runtime.blocking_shards == 1

    def test_cli_flags_beat_spec_values(self, tmp_path):
        runtime = self._overridden_runtime(
            tmp_path, ["--workers", "1", "--blocking-shards", "4"]
        )
        # Overridden by the CLI:
        assert runtime.workers == 1
        assert runtime.blocking_shards == 4
        # Untouched flags keep the spec file's values, not the defaults:
        assert runtime.batch_size == 32
        assert runtime.executor == "thread"

    def test_sharded_run_reproduces_plain_run(self, tmp_path, capsys):
        benchmark = generate_benchmark(
            GenerationConfig(num_entities=30, num_sources=3, seed=6)
        )
        dataset = write_dataset_csv(benchmark.companies, tmp_path / "companies.csv")
        config = tmp_path / "experiment.toml"
        config.write_text(
            "[experiment]\n"
            f'dataset = "{dataset}"\n'
            'kind = "companies"\nmodel = "logistic"\nepochs = 1\nseed = 0\n'
        )
        assert main(["run", str(config)]) == 0
        plain_output = capsys.readouterr().out
        assert main([
            "run", str(config), "--workers", "2", "--executor", "thread",
            "--blocking-shards", "3",
        ]) == 0
        sharded_output = capsys.readouterr().out
        assert _score_cells(sharded_output) == _score_cells(plain_output)
