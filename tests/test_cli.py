"""Tests for the ``trajpattern`` command-line interface."""

import pytest

import repro.cli as cli


class TestArgumentHandling:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["table1", "--scale", "huge"])

    def test_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "TrajPattern" in capsys.readouterr().out


class TestDispatch:
    def test_experiment_registry_complete(self):
        assert set(cli._EXPERIMENTS) == {"table1", "fig3", "fig4", "ablations"}

    def test_runs_stubbed_experiment(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._EXPERIMENTS, "table1", lambda scale: f"T1@{scale}")
        assert cli.main(["table1", "--scale", "small"]) == 0
        assert "T1@small" in capsys.readouterr().out

    def test_all_runs_everything(self, capsys, monkeypatch):
        for name in list(cli._EXPERIMENTS):
            monkeypatch.setitem(
                cli._EXPERIMENTS, name, lambda scale, name=name: f"{name}@{scale}"
            )
        assert cli.main(["all"]) == 0
        out = capsys.readouterr().out
        for name in cli._EXPERIMENTS:
            assert f"{name}@small" in out


class TestConfigErrors:
    """Values the engine rejects fail like argparse errors: message, exit 2."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        from repro.testkit.datasets import seeded_dataset
        from repro.trajectory.io import save_dataset_jsonl

        tmp = tmp_path_factory.mktemp("cli-config")
        dataset = tmp / "data.jsonl"
        save_dataset_jsonl(seeded_dataset(3, n_trajectories=6, n_ticks=12), dataset)
        patterns = tmp / "patterns.json"
        argv = ["mine", str(dataset), "-k", "2", "--cell-size", "0.1"]
        assert cli.main(argv + ["--output", str(patterns)]) == 0
        return str(dataset), str(patterns)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--min-prob", "2"], "min_prob must be in (0, 1)"),
            (["--jobs", "0"], "jobs must be at least 1"),
        ],
    )
    def test_mine_rejects_bad_config(self, files, capsys, flags, message):
        dataset, _ = files
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mine", dataset, "--cell-size", "0.1", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"mine: error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--min-prob", "2"], "min_prob must be in (0, 1)"),
            (["--chunk-size", "0"], "chunk_size must be positive"),
        ],
    )
    def test_score_rejects_bad_config(self, files, capsys, flags, message):
        dataset, patterns = files
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["score", patterns, dataset, "--delta", "0.1", *flags])
        assert excinfo.value.code == 2
        assert f"score: error: {message}" in capsys.readouterr().err
