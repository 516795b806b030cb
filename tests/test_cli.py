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
            (["-k", "0"], "k must be positive"),
            (["--min-length", "0"], "min_length must be at least 1"),
            (["--min-length", "3", "--max-length", "2"], "max_length must be >= min_length"),
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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ingest-k", "0"], "k must be positive"),
            (["--ingest-every", "0"], "remine_every must be positive"),
            (["--ingest-window", "0"], "window must be positive"),
            (["--ingest-min-length", "0"], "min_length must be at least 1"),
        ],
    )
    def test_serve_rejects_bad_ingest_config(self, files, capsys, flags, message):
        dataset, _ = files
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", dataset, "--port", "0", "--ingest", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"serve: error: {message}" in err
        assert "Traceback" not in err

    def test_mine_has_no_dtype_flag(self, files, capsys):
        dataset, _ = files
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["mine", dataset, "--cell-size", "0.1", "--dtype", "float32"])
        assert excinfo.value.code == 2
        assert "--dtype" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["selfcheck", "--quick", "--jobs-grid", "0"],
                "--jobs-grid expects comma-separated integers >= 1, got '0'",
            ),
            (
                ["selfcheck", "--quick", "--jobs-grid", "1,x"],
                "--jobs-grid expects comma-separated integers >= 1, got 'x'",
            ),
            (
                ["selfcheck", "--quick", "--seeds", "a"],
                "--seeds expects comma-separated integers >= 0, got 'a'",
            ),
            (
                ["bench", "--suite", "kernels", "--output-dir", "{tmp}",
                 "--rounds", "0"],
                "--rounds must be at least 1",
            ),
        ],
        ids=["jobs-grid-zero", "jobs-grid-text", "seeds-text", "rounds-zero"],
    )
    def test_selfcheck_and_bench_reject_bad_arguments(
        self, capsys, tmp_path, argv, message
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([arg.format(tmp=tmp_path) for arg in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"trajpattern {argv[0]}: error: {message}" in err
        assert "Traceback" not in err

    @pytest.fixture(scope="class")
    def bad_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli-bad-files")
        header = tmp / "bad-header.jsonl"
        header.write_text('{"format": "something-else"}\n', encoding="utf-8")
        listing = tmp / "list.json"
        listing.write_text("[1, 2, 3]\n", encoding="utf-8")
        garbage = tmp / "garbage.tjc"
        garbage.write_bytes(bytes(range(256)) * 4)
        footer = tmp / "bad-footer.tjc"
        footer.write_bytes(b"TJC1\r\n\x1a\n" + b"\0" * 64)
        return {
            "header": str(header),
            "list": str(listing),
            "garbage": str(garbage),
            "footer": str(footer),
        }

    def _exits_with_file_error(self, capsys, argv, path) -> str:
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[0]}: error: {path}: " in err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("which", ["dataset", "list"])
    def test_score_rejects_foreign_patterns_file(self, files, bad_files, capsys, which):
        dataset, _ = files
        foreign = dataset if which == "dataset" else bad_files["list"]
        err = self._exits_with_file_error(
            capsys, ["score", foreign, dataset, "--delta", "0.1"], foreign
        )
        assert "JSON document" in err or "mining-result" in err

    def test_score_rejects_bad_jsonl_header(self, files, bad_files, capsys):
        _, patterns = files
        path = bad_files["header"]
        err = self._exits_with_file_error(
            capsys, ["score", patterns, path, "--delta", "0.1"], path
        )
        assert "not a repro trajectory file" in err

    def test_mine_rejects_bad_jsonl_header(self, bad_files, capsys):
        path = bad_files["header"]
        err = self._exits_with_file_error(
            capsys, ["mine", path, "--cell-size", "0.1"], path
        )
        assert "not a repro trajectory file" in err

    @pytest.mark.parametrize("which", ["garbage", "footer"])
    def test_mine_rejects_corrupt_store(self, bad_files, capsys, which):
        path = bad_files[which]
        self._exits_with_file_error(capsys, ["mine", path, "--cell-size", "0.1"], path)


class TestDatasetFingerprint:
    def test_mine_and_score_record_the_same_fingerprint(self, tmp_path):
        import json

        from repro.core import index_cache
        from repro.testkit.datasets import seeded_dataset
        from repro.trajectory.io import save_dataset_jsonl

        data = seeded_dataset(3, n_trajectories=6, n_ticks=12)
        dataset = tmp_path / "data.jsonl"
        save_dataset_jsonl(data, dataset)
        patterns = tmp_path / "patterns.json"
        mine_manifest = tmp_path / "mine.manifest.json"
        score_manifest = tmp_path / "score.manifest.json"
        assert (
            cli.main(
                [
                    "mine", str(dataset), "-k", "2", "--cell-size", "0.1",
                    "--output", str(patterns),
                    "--manifest-out", str(mine_manifest),
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "score", str(patterns), str(dataset), "--delta", "0.1",
                    "--manifest-out", str(score_manifest),
                ]
            )
            == 0
        )
        mined = json.loads(mine_manifest.read_text())["dataset_fingerprint"]
        scored = json.loads(score_manifest.read_text())["dataset_fingerprint"]
        assert mined == scored == index_cache.dataset_fingerprint(data)
