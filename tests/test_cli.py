import argparse
import hashlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tinyhar import benchlab, cli, mcu, modelfile
from tinyhar.cli import main
from tinyhar.datapipe import (ChannelGroup, DatasetStats, make_windows,
                              normalize, sidecar_path, split_by_session)
from tinyhar.model_ir import (ModelGraph, build_deep_conv_lstm, build_mc_cnn,
                              dense, init_params, softmax)
from tinyhar.quantizer import QuantizedModel


def run(*argv):
    return main(list(argv))


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _dataset_files(data):
    """A dataset's manifest and CSVs, without the sidecars beside them."""
    return [data / "manifest.json", *sorted(data.glob("*.csv"))]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run("synth", "--seed", "7", "--subjects", "1", "--sessions", "2",
               "--duration-s", "40", "--out", str(out))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = run("train", "--data", str(dataset), "--group", "17",
               "--filters", "8", "--epochs", "1", "--window-len", "12",
               "--stride", "12", "--held-out-session", "2",
               "--seed", "1", "--out", str(out))
    assert code == 0
    return out / "model_float.thar"


@pytest.fixture
def unread(monkeypatch):
    """A command that reads its dataset fails with a runtime failure."""
    def load(data_dir):
        raise AssertionError("dataset read")

    monkeypatch.setattr(cli, "_load_dataset", load)


class TestSynth:
    def test_outputs(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert len(manifest["sessions"]) == 2
        for entry in manifest["sessions"]:
            assert (dataset / entry["path"]).is_file()
        assert (dataset / "config.json").is_file()

    def test_same_seed_byte_identical(self, dataset, tmp_path):
        again = tmp_path / "again"
        assert run("synth", "--seed", "7", "--subjects", "1", "--sessions",
                   "2", "--duration-s", "40", "--out", str(again)) == 0
        for entry in json.loads((dataset / "manifest.json").read_text())["sessions"]:
            assert (again / entry["path"]).read_bytes() == \
                (dataset / entry["path"]).read_bytes()

    @pytest.mark.parametrize("flag, value", [
        ("--subjects", "0"), ("--sessions", "0"), ("--subjects", "-2"),
        ("--duration-s", "-5"), ("--duration-s", "0"),
        ("--duration-s", "0.1"), ("--duration-s", "nan"),
        ("--duration-s", "inf")])
    def test_empty_dataset_flag_exits_one_naming_it(self, tmp_path, capsys,
                                                    flag, value):
        assert run("synth", flag, value, "--out", str(tmp_path)) == 1
        assert f"error: argument {flag}: must " in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()


class TestTrain:
    def test_writes_model_and_history(self, trained):
        assert trained.is_file()
        assert isinstance(modelfile.load(trained), ModelGraph)
        history = (trained.parent / "history.csv").read_text()
        assert history.splitlines()[0].startswith("epoch")

    def test_missing_dataset_is_validation_error(self, tmp_path):
        assert run("train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")) == 1

    def test_no_training_windows_exits_one(self, tmp_path, capsys):
        data = tmp_path / "one_session"
        assert run("synth", "--subjects", "1", "--sessions", "1",
                   "--duration-s", "20", "--out", str(data)) == 0
        assert run("train", "--data", str(data), "--group", "17",
                   "--window-len", "12", "--held-out-session", "1",
                   "--out", str(tmp_path / "out")) == 1
        assert ("no training windows left after holding out session 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("batch_size", ["0", "-4"])
    def test_batch_size_below_one_exits_one(self, dataset, tmp_path, capsys,
                                            unread, batch_size):
        assert run("train", "--data", str(dataset), "--group", "17",
                   "--filters", "8", "--epochs", "1", "--window-len", "12",
                   "--held-out-session", "2", "--batch-size", batch_size,
                   "--out", str(tmp_path)) == 1
        assert f"argument --batch-size: must be at least 1, got {batch_size}" \
            in capsys.readouterr().err
        assert not (tmp_path / "model_float.thar").exists()

    @pytest.mark.parametrize("filters", ["6", "0", "-4"])
    def test_filters_not_a_positive_multiple_of_4_exits_one_unread(
            self, dataset, tmp_path, capsys, ingested, filters):
        assert run("train", "--data", str(dataset), "--group", "17",
                   "--filters", filters, "--epochs", "1", "--window-len",
                   "12", "--held-out-session", "2",
                   "--out", str(tmp_path)) == 1
        assert f"argument --filters: must be a positive multiple of 4, got " \
            f"{filters}" in capsys.readouterr().err
        assert ingested == []

    def test_held_out_session_without_windows_exits_one_untrained(
            self, dataset, tmp_path, capsys, monkeypatch):
        def trainer(*args):
            raise AssertionError("trained")

        monkeypatch.setattr(cli.training, "train", trainer)
        assert run("train", "--data", str(dataset), "--group", "17",
                   "--filters", "8", "--epochs", "1", "--window-len", "12",
                   "--held-out-session", "9", "--out", str(tmp_path)) == 1
        assert "--held-out-session 9 produced no windows" \
            in capsys.readouterr().err
        assert not (tmp_path / "model_float.thar").exists()
        assert not (tmp_path / "history.csv").exists()


_ENTRY = {"subject": 1, "session": 1, "path": "subject01_session1.csv"}


class TestManifest:
    """A malformed manifest.json is a validation error naming the file and
    the key."""

    @pytest.mark.parametrize("manifest, named", [
        ([], "holds no JSON object"),
        ({"session": []}, "key 'sessions' must be a list"),
        ({"sessions": {}}, "key 'sessions' must be a list"),
        ({"sessions": [1]}, "sessions[0] is not an object"),
        *[({"sessions": [_ENTRY, {k: v for k, v in _ENTRY.items()
                                  if k != key}]},
           f"sessions[1]: key {key!r} must be") for key in _ENTRY],
        ({"sessions": [{**_ENTRY, "subject": "1"}]},
         "sessions[0]: key 'subject' must be an integer"),
        ({"sessions": [{**_ENTRY, "session": True}]},
         "sessions[0]: key 'session' must be an integer"),
        ({"sessions": [{**_ENTRY, "path": 3}]},
         "sessions[0]: key 'path' must be a string")])
    def test_malformed_manifest_exits_one(self, dataset, tmp_path, capsys,
                                          manifest, named):
        data = tmp_path / "data"
        data.mkdir()
        for path in _dataset_files(dataset):
            (data / path.name).write_bytes(path.read_bytes())
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert run("train", "--data", str(data), "--group", "17",
                   "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert str(data / "manifest.json") in err and named in err


class TestQuantize:
    def test_produces_int8_model(self, dataset, trained, tmp_path):
        out = tmp_path / "q"
        code = run("quantize", "--model", str(trained), "--data",
                   str(dataset), "--stride", "12",
                   "--held-out-session", "2", "--rep-windows", "8",
                   "--out", str(out))
        assert code == 0
        qm = modelfile.load(out / "model_int8.thar")
        assert isinstance(qm, QuantizedModel)
        float_size = len(modelfile.serialize(modelfile.load(trained)))
        int8_size = (out / "model_int8.thar").stat().st_size
        assert int8_size < float_size

    def test_rejects_already_quantized(self, dataset, trained, tmp_path):
        out = tmp_path / "q1"
        assert run("quantize", "--model", str(trained), "--data",
                   str(dataset), "--stride", "12",
                   "--held-out-session", "2", "--out", str(out)) == 0
        assert run("quantize", "--model", str(out / "model_int8.thar"),
                   "--data", str(dataset),
                   "--out", str(tmp_path / "q2")) == 1


    @pytest.mark.parametrize("rep", [0, -1])
    def test_rep_windows_below_one_exits_one(self, dataset, trained,
                                             tmp_path, capsys, rep):
        assert run("quantize", "--model", str(trained), "--data",
                   str(dataset), "--held-out-session", "2",
                   "--rep-windows", str(rep), "--out", str(tmp_path)) == 1
        assert f"argument --rep-windows: must be at least 1, got {rep}" \
            in capsys.readouterr().err
        assert not (tmp_path / "model_int8.thar").exists()


class TestEval:
    def test_report_files(self, dataset, trained, tmp_path):
        out = tmp_path / "eval"
        code = run("eval", "--model", str(trained), "--data", str(dataset),
                   "--stride", "12", "--held-out-session", "2",
                   "--out", str(out))
        assert code == 0
        assert (out / "report.csv").is_file()
        assert (out / "report.md").is_file()

    def test_missing_model_exits_one(self, dataset, tmp_path):
        assert run("eval", "--model", str(tmp_path / "absent.thar"),
                   "--data", str(dataset), "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("quantized", [False, True])
    def test_non_finite_input_exits_one(self, dataset, trained, tmp_path,
                                        quantized):
        model = trained
        if quantized:
            assert run("quantize", "--model", str(trained), "--data",
                       str(dataset), "--held-out-session", "2",
                       "--out", str(tmp_path / "q")) == 0
            model = tmp_path / "q" / "model_int8.thar"
        bad = tmp_path / "bad_data"
        bad.mkdir()
        for path in _dataset_files(dataset):
            lines = path.read_text().splitlines(keepends=True)
            if "session2" in path.name:  # the held-out session
                row = lines[5].split(",")
                row[10] = "nan"  # barometer, a channel of the 17-wide group
                lines[5] = ",".join(row)
            (bad / path.name).write_text("".join(lines))
        assert run("eval", "--model", str(model), "--data", str(bad),
                   "--stride", "12", "--held-out-session", "2",
                   "--out", str(tmp_path / "o")) == 1

    def test_corrupt_model_exits_one(self, dataset, tmp_path):
        bad = tmp_path / "bad.thar"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        assert run("eval", "--model", str(bad), "--data", str(dataset),
                   "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("arch", ["dense only", "deep_conv_lstm"])
    def test_model_other_than_mc_cnn_exits_one_naming_it(
            self, dataset, tmp_path, capsys, ingested, arch):
        """A valid model with statistics that has no conv layer, or an
        LSTM, is refused before any CSV is read."""
        if arch == "dense only":
            layers = (dense(17, 15), softmax())
            graph = ModelGraph(layers, init_params(layers, 0), (12, 17), 15)
        else:
            graph = build_deep_conv_lstm(17, 12, 4, hidden=5)
        stats = DatasetStats(mean=np.zeros(17), std=np.ones(17))
        path = tmp_path / "model.thar"
        modelfile.save(ModelGraph(graph.layers, graph.params, (12, 17), 15,
                                  stats), path)
        assert run("eval", "--model", str(path), "--data", str(dataset),
                   "--held-out-session", "2",
                   "--out", str(tmp_path / "o")) == 1
        assert f"{path}: eval supports MC-CNN models only" in \
            capsys.readouterr().err
        assert ingested == []


class TestUnreadCells:
    """train, eval and quantize check every cell of every row of each CSV
    they read, whatever their model's channels."""

    @pytest.fixture(scope="class", params=["nan", "x"])
    def bad_data(self, request, dataset, tmp_path_factory):
        bad = tmp_path_factory.mktemp("unread")
        for path in _dataset_files(dataset):
            lines = path.read_text().splitlines(keepends=True)
            # a thermal pixel in each session, and the barometer in a row
            # of training session 1 past the rows that quantize's 8
            # representative windows cover
            for row, column in ((5, 24), (200, 10)):
                if path.suffix == ".csv" and (
                        row == 5 or path.name.endswith("session1.csv")):
                    cells = lines[row].split(",")
                    cells[column] = request.param
                    lines[row] = ",".join(cells)
            (bad / path.name).write_text("".join(lines))
        return bad

    def _quantize(self, model, data, out):
        return run("quantize", "--model", str(model), "--data", str(data),
                   "--held-out-session", "2", "--rep-windows", "8",
                   "--stride", "12", "--out", str(out))

    def test_eval_and_quantize_exit_one(self, dataset, trained, bad_data,
                                        tmp_path, capsys):
        assert self._quantize(trained, dataset, tmp_path) == 0
        assert self._quantize(trained, bad_data, tmp_path / "bad") == 1
        assert "session1.csv:6: " in capsys.readouterr().err
        for precision, model in (("float", trained),
                                 ("int8", tmp_path / "model_int8.thar")):
            assert run("eval", "--model", str(model), "--data",
                       str(bad_data), "--held-out-session", "2",
                       "--out", str(tmp_path / precision)) == 1
            assert "session2.csv:6: " in capsys.readouterr().err

    def test_a_row_past_the_representative_windows_is_checked(
            self, dataset, trained, bad_data, tmp_path, capsys):
        """The bad data with row 5 of each session restored: only the
        barometer past the rows of quantize's windows is bad, in a session
        eval does not read."""
        data = tmp_path / "data"
        data.mkdir()
        for path in _dataset_files(bad_data):
            lines = path.read_text().splitlines(keepends=True)
            if path.suffix == ".csv":
                lines[5] = (dataset / path.name).read_text().splitlines(
                    keepends=True)[5]
            (data / path.name).write_text("".join(lines))
        assert self._quantize(trained, data, tmp_path / "bad") == 1
        assert "session1.csv:201: " in capsys.readouterr().err
        assert self._quantize(trained, dataset, tmp_path) == 0
        for precision, model in (("float", trained),
                                 ("int8", tmp_path / "model_int8.thar")):
            assert run("eval", "--model", str(model), "--data", str(data),
                       "--held-out-session", "2",
                       "--out", str(tmp_path / precision)) == 0

    def test_train_exits_one(self, bad_data, tmp_path, capsys):
        assert run("train", "--data", str(bad_data), "--group", "17",
                   "--filters", "8", "--epochs", "1", "--window-len", "12",
                   "--held-out-session", "2", "--out", str(tmp_path)) == 1
        assert "session1.csv:6: " in capsys.readouterr().err


class TestWindowFlags:
    @pytest.mark.parametrize("command, flag", [
        ("train", "--stride"), ("train", "--window-len"),
        ("quantize", "--stride"), ("eval", "--stride")])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_window_flag_below_one_exits_one_unread(
            self, dataset, trained, tmp_path, capsys, ingested, command,
            flag, value):
        model = [] if command == "train" else ["--model", str(trained)]
        assert run(command, *model, "--data", str(dataset), flag, value,
                   "--held-out-session", "2", "--out", str(tmp_path)) == 1
        assert f"argument {flag}: must be at least 1, got {value}" \
            in capsys.readouterr().err
        assert ingested == []


@pytest.fixture(scope="module")
def long_dataset(tmp_path_factory):
    """Three 150 s sessions: each holds 75 windows of 12 steps at stride
    12, more than quantize's default of 64 representative windows."""
    out = tmp_path_factory.mktemp("long")
    assert run("synth", "--seed", "8", "--subjects", "1", "--sessions", "3",
               "--duration-s", "150", "--out", str(out)) == 0
    return out


def session_csv(data, session):
    return data / f"subject01_session{session}.csv"


@pytest.fixture
def ingested(monkeypatch):
    """The CLI's ``ingest_csv`` calls, in order, as (path, group) with the
    default filled in."""
    calls = []
    ingest = cli.ingest_csv
    signature = inspect.signature(ingest)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        path, group = bound.arguments.values()
        calls.append((Path(path), group))
        return ingest(*args, **kwargs)

    monkeypatch.setattr(cli, "ingest_csv", recording)
    return calls


def captured(monkeypatch, module, name, arg):
    """Calls of ``module.name`` go through; their argument ``arg`` is kept."""
    seen = []
    fn = getattr(module, name)

    def keep(*args):
        seen.append(args[arg])
        return fn(*args)

    monkeypatch.setattr(module, name, keep)
    return seen


class TestStoredStats:
    """eval and quantize z-score with the statistics the model file carries
    and read only the sessions they need."""

    @pytest.fixture(scope="class")
    def prepared(self, dataset, trained):
        # the split cmd_train made for the trained fixture
        return benchlab.prepared_windows(
            cli._load_dataset(str(dataset)), ChannelGroup.G17, 12, 12, 2)

    def test_eval_reads_only_the_held_out_csv(self, long_dataset, trained,
                                              tmp_path, ingested):
        assert run("eval", "--model", str(trained), "--data",
                   str(long_dataset), "--held-out-session", "2",
                   "--out", str(tmp_path / "e")) == 0
        # the model's 17 channels
        assert ingested == [(session_csv(long_dataset, 2), ChannelGroup.G17)]

    def test_quantize_at_defaults_reads_only_the_first_training_csv(
            self, long_dataset, trained, tmp_path, ingested):
        assert run("quantize", "--model", str(trained), "--data",
                   str(long_dataset), "--out", str(tmp_path / "q")) == 0
        # its 75 windows of 12 steps at stride 12 hold the 64
        assert ingested == [(session_csv(long_dataset, 1), ChannelGroup.G17)]

    def test_quantize_reads_what_the_remaining_windows_cover(
            self, long_dataset, trained, tmp_path, ingested):
        assert run("quantize", "--model", str(trained), "--data",
                   str(long_dataset), "--held-out-session", "3",
                   "--rep-windows", "100", "--out", str(tmp_path / "q")) == 0
        # session 1 holds 75 windows, and session 2 the 25 more
        assert ingested == [(session_csv(long_dataset, s), ChannelGroup.G17)
                            for s in (1, 2)]

    def test_train_reads_every_cell(self, long_dataset, tmp_path, ingested):
        assert run("train", "--data", str(long_dataset), "--group", "17",
                   "--filters", "8", "--epochs", "1", "--window-len", "12",
                   "--held-out-session", "3", "--out", str(tmp_path)) == 0
        assert ingested == [(session_csv(long_dataset, s), ChannelGroup.G17)
                            for s in (1, 2, 3)]

    def test_train_reads_its_channel_group(self, long_dataset, tmp_path,
                                           ingested):
        assert run("train", "--data", str(long_dataset), "--group", "23",
                   "--filters", "8", "--epochs", "1", "--window-len", "12",
                   "--held-out-session", "3", "--out", str(tmp_path)) == 0
        assert ingested == [(session_csv(long_dataset, s), ChannelGroup.G23)
                            for s in (1, 2, 3)]

    def test_stats_round_trip_through_float_and_int8_files(
            self, dataset, trained, prepared, tmp_path):
        assert run("quantize", "--model", str(trained), "--data",
                   str(dataset), "--held-out-session", "2",
                   "--out", str(tmp_path)) == 0
        for path in (trained, tmp_path / "model_int8.thar"):
            stats = modelfile.load(path).stats
            assert stats.mean.tobytes() == prepared.stats.mean.tobytes()
            assert stats.std.tobytes() == prepared.stats.std.tobytes()

    @pytest.mark.parametrize("stride", [12, 5, 1])
    def test_eval_normalizes_as_training_did(self, dataset, trained, prepared,
                                             tmp_path, monkeypatch, stride):
        samples = captured(monkeypatch, benchlab, "evaluate", 6)
        assert run("eval", "--model", str(trained), "--data", str(dataset),
                   "--stride", str(stride), "--held-out-session", "2",
                   "--out", str(tmp_path)) == 0
        held_out = [s for s in cli._load_dataset(str(dataset))
                    if s.session == 2]
        expected = normalize(make_windows(held_out, 12, stride,
                                          ChannelGroup.G17), prepared.stats)
        if stride == 12:  # the training stride: the very windows it held out
            assert expected.x.tobytes() == prepared.test.x.tobytes()
        assert samples[0].x.tobytes() == expected.x.tobytes()
        assert np.array_equal(samples[0].y, expected.y)

    @pytest.mark.parametrize("rep, stride", [(64, 12), (100, 12), (500, 12),
                                             (8, 5)])
    def test_quantize_keeps_the_representative_windows(
            self, long_dataset, trained, tmp_path, monkeypatch, rep, stride):
        """The first --rep-windows training windows, as when every session
        was windowed and split, z-scored with the model's statistics."""
        rep_sets = captured(monkeypatch, cli, "quantize_model", 1)
        assert run("quantize", "--model", str(trained), "--data",
                   str(long_dataset), "--held-out-session", "3",
                   "--rep-windows", str(rep), "--stride", str(stride),
                   "--out", str(tmp_path)) == 0
        windows = make_windows(cli._load_dataset(str(long_dataset)), 12,
                               stride, ChannelGroup.G17)
        train = split_by_session(windows, 3)[0][:rep]
        expected = normalize(train, modelfile.load(trained).stats)
        got = rep_sets[0]
        for field in ("y", "subject", "session"):
            assert np.array_equal(getattr(got, field),
                                  getattr(expected, field))
        assert got.x.tobytes() == expected.x.tobytes()

    @pytest.mark.parametrize("command", ["eval", "quantize"])
    def test_model_without_stats_exits_one(self, dataset, tmp_path, capsys,
                                           command):
        path = tmp_path / "untrained.thar"
        modelfile.save(build_mc_cnn(17, 12, 8, seed=0), path)
        assert run(command, "--model", str(path), "--data", str(dataset),
                   "--held-out-session", "2", "--out", str(tmp_path)) == 1
        assert "tinyhar train" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "quantize"])
    def test_version_1_file_exits_one(self, dataset, trained, tmp_path,
                                      capsys, command):
        data = bytearray(trained.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        path = tmp_path / "v1.thar"
        path.write_bytes(bytes(data))
        assert run(command, "--model", str(path), "--data", str(dataset),
                   "--held-out-session", "2", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "file version 1" in err and "tinyhar train" in err


class TestSidecars:
    """train, quantize and eval write the same bytes whether the CSVs'
    sidecars are there or not."""

    OUTPUTS = ["train/model_float.thar", "train/history.csv",
               "q/model_int8.thar", "int8/report.csv", "int8/report.md",
               "float/report.csv", "float/report.md"]

    @pytest.mark.parametrize("group", ["17", "768"])
    def test_outputs_are_byte_identical(self, tmp_path, monkeypatch, group):
        data = tmp_path / "data"
        assert run("synth", "--seed", "3", "--subjects", "1", "--sessions",
                   "2", "--duration-s", "40", "--out", str(data)) == 0
        parses = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1)
                            or loadtxt(*a, **k))

        def chain(out, delete):
            split = ["--data", data, "--stride", "12",
                     "--held-out-session", "2"]
            steps = [
                ["train", "--group", group, "--filters", "8", "--epochs",
                 "1", "--window-len", "12", "--out", out / "train"],
                ["quantize", "--model", out / "train" / "model_float.thar",
                 "--rep-windows", "8", "--out", out / "q"],
                ["eval", "--model", out / "q" / "model_int8.thar",
                 "--out", out / "int8"],
                ["eval", "--model", out / "train" / "model_float.thar",
                 "--out", out / "float"]]
            for step in steps:
                if delete:
                    for sidecar in data.glob(".*.rows.npy"):
                        sidecar.unlink()
                parses.clear()
                assert run(*map(str, step + split)) == 0
                # train parses every cell and keeps it; the others hit
                assert bool(parses) == (delete or step[0] == "train")
                if step[0] == "train":
                    assert len(list(data.glob(".*.rows.npy"))) == 2
            return {name: (out / name).read_bytes() for name in self.OUTPUTS}

        assert chain(tmp_path / "kept", False) == chain(tmp_path / "deleted",
                                                        True)

    def test_quantize_keeps_a_sidecar_of_each_csv_it_reads(
            self, long_dataset, trained, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        for path in _dataset_files(long_dataset):
            (data / path.name).write_bytes(path.read_bytes())
        parses = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **k: parses.append(1)
                            or loadtxt(*a, **k))
        # sessions 1 and 2 hold the 100 windows; session 3 is not read
        kept = sorted(sidecar_path(path, hashlib.sha256(
            path.read_bytes()).hexdigest()) for path in (
                session_csv(data, 1), session_csv(data, 2)))

        def quantize(out):
            parses.clear()
            assert run("quantize", "--model", str(trained), "--data",
                       str(data), "--held-out-session", "3",
                       "--rep-windows", "100", "--out", str(out)) == 0
            assert sorted(data.glob(".*.rows.npy")) == kept
            return (out / "model_int8.thar").read_bytes()

        first = quantize(tmp_path / "q1")
        assert parses
        assert quantize(tmp_path / "q2") == first
        assert not parses


class TestBench:
    def test_latency_csv(self, trained, tmp_path):
        out = tmp_path / "bench"
        assert run("bench", "--model", str(trained), "--reps", "3",
                   "--out", str(out)) == 0
        lines = (out / "latency.csv").read_text().splitlines()
        assert lines[0] == "mean_us,p50_us,p95_us"
        assert float(lines[1].split(",")[0]) > 0

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exits_one_naming_it(self, trained, tmp_path,
                                                capsys, reps):
        assert run("bench", "--model", str(trained), "--reps", reps,
                   "--out", str(tmp_path)) == 1
        assert f"argument --reps: must be at least 1, got {reps}" \
            in capsys.readouterr().err
        assert not (tmp_path / "latency.csv").exists()


class TestMcuCheck:
    def test_exit_zero_even_when_infeasible(self, tmp_path, capsys):
        big = build_mc_cnn(23, 24, 400, seed=0)
        path = tmp_path / "big.thar"
        modelfile.save(big, path)
        assert run("mcu-check", "--model", str(path),
                   "--out", str(tmp_path / "o")) == 0
        text = (tmp_path / "o" / "feasibility.csv").read_text()
        assert "nrf52840,0," in text  # float model does not fit in flash

    def test_unknown_profile_exits_one(self, trained, tmp_path):
        assert run("mcu-check", "--model", str(trained), "--profile",
                   "esp32", "--out", str(tmp_path / "o")) == 1

    HUGE = {"clock_hz": 1e9, "flash_bytes": 64 * 2**20,
            "sram_bytes": 16 * 2**20, "power_float_w": 1.0,
            "power_int8_w": 1.0, "core_factor": 1.0}

    def test_custom_profile_registry(self, trained, tmp_path):
        registry = tmp_path / "profiles.json"
        registry.write_text(json.dumps({"huge": self.HUGE}))
        out = tmp_path / "o"
        assert run("mcu-check", "--model", str(trained), "--profiles",
                   str(registry), "--profile", "huge", "--out", str(out)) == 0
        assert "huge,1,1" in (out / "feasibility.csv").read_text()

    @pytest.mark.parametrize("edit, named", [
        ("a list", None), ("not an object", "'huge'"),
        ("unknown key", "'oops'"), ("missing key", "'sram_bytes'"),
        ("a string", "'clock_hz'"), ("nan", "'clock_hz'"),
        ("a bool", "'clock_hz'")])
    def test_malformed_registry_exits_one(self, trained, tmp_path, capsys,
                                          edit, named):
        huge = dict(self.HUGE)
        if edit == "unknown key":
            huge["oops"] = 1.0
        elif edit == "missing key":
            del huge["sram_bytes"]
        else:
            huge["clock_hz"] = {"a string": "fast", "nan": float("nan"),
                                "a bool": True}.get(edit)
        registry = {"a list": [huge], "not an object": {"huge": 5}}.get(
            edit, {"huge": huge})
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(registry))
        assert run("mcu-check", "--model", str(trained), "--profiles",
                   str(path), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert f"error: {path}" in err
        if named is not None:
            assert "profile 'huge'" in err and named in err

    @pytest.mark.parametrize("kind", ["missing", "a directory", "not JSON",
                                      "not UTF-8"])
    def test_unreadable_registry_exits_one(self, trained, tmp_path, capsys,
                                           kind):
        path = tmp_path / "profiles.json"
        if kind == "a directory":
            path.mkdir()
        elif kind != "missing":
            path.write_bytes({"not JSON": b'{"huge": ',
                              "not UTF-8": b'{"\xff": {}}'}[kind])
        assert run("mcu-check", "--model", str(trained), "--profiles",
                   str(path), "--out", str(tmp_path / "o")) == 1
        assert f"error: {path}: " in capsys.readouterr().err


class TestLoadedModelSize:
    """eval and mcu-check take a loaded model's size from its file."""

    @pytest.fixture
    def no_serialize(self, monkeypatch):
        def refuse(model):
            raise RuntimeError("a loaded model was serialized again")

        monkeypatch.setattr(modelfile, "serialize", refuse)

    def test_eval(self, dataset, trained, tmp_path, no_serialize):
        out = tmp_path / "e"
        assert run("eval", "--model", str(trained), "--data", str(dataset),
                   "--held-out-session", "2", "--out", str(out)) == 0
        rows = benchlab.parse_report_csv((out / "report.csv").read_text())
        assert int(rows[0]["model_size_bytes"]) == trained.stat().st_size

    def test_mcu_check(self, trained, tmp_path, no_serialize):
        out = tmp_path / "m"
        assert run("mcu-check", "--model", str(trained),
                   "--out", str(out)) == 0
        rows = (out / "feasibility.csv").read_text().splitlines()[1:]
        assert {int(row.split(",")[3]) for row in rows} == {
            trained.stat().st_size + mcu.DEFAULT_FLASH_OVERHEAD}


class TestSweepCommand:
    def test_small_sweep_deterministic(self, dataset, tmp_path):
        args = ("sweep", "--data", str(dataset), "--window-len", "12",
                "--stride", "12", "--held-out-session", "2", "--epochs", "0",
                "--max-eval-windows", "5", "--seed", "3")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        assert (out1 / "report.csv").read_bytes() == \
            (out2 / "report.csv").read_bytes()
        rows = (out1 / "report.csv").read_text().splitlines()
        assert len(rows) == 1 + 48  # header + 2 arch x 4 groups x 3 x 2

    @pytest.mark.parametrize("windows", ["0", "-5"])
    def test_max_eval_windows_below_one_exits_one(
            self, dataset, tmp_path, capsys, unread, windows):
        assert run("sweep", "--data", str(dataset), "--max-eval-windows",
                   windows, "--out", str(tmp_path)) == 1
        assert f"argument --max-eval-windows: must be at least 1, got " \
            f"{windows}" \
            in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("flag, field", [("--stride", "stride"),
                                             ("--window-len", "window_len")])
    def test_window_geometry_below_one_exits_one(
            self, dataset, tmp_path, capsys, unread, flag, field):
        assert run("sweep", "--data", str(dataset), flag, "0",
                   "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err  # names the flag, not the config field
        assert f"argument {flag}: must be at least 1, got 0" in err
        assert f"{field} must be >= 1" not in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("flag, value, rule", [
        ("--batch-size", "0", "at least 1"),
        ("--batch-size", "-4", "at least 1"), ("--jobs", "0", "at least 1"),
        ("--epochs", "-2", "at least 0"),
        ("--learning-rate", "7", "in (0, 1)"),
        ("--learning-rate", "0", "in (0, 1)"),
        ("--learning-rate", "1", "in (0, 1)"),
        ("--learning-rate", "nan", "in (0, 1)")])
    def test_bad_training_flag_exits_one_unread(
            self, dataset, tmp_path, capsys, ingested, flag, value, rule):
        assert run("sweep", "--data", str(dataset), flag, value,
                   "--out", str(tmp_path)) == 1
        assert f"argument {flag}: must be {rule}, got " \
            in capsys.readouterr().err
        assert ingested == []
        assert not (tmp_path / "report.csv").exists()


class TestFlags:
    def test_bad_flag_exits_one(self, tmp_path, capsys):
        assert run("synth", "--bogus") == 1

    def test_config_file_merges_but_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subjects": 3, "duration_s": 10.0,
                                   "seed": 99}))
        out = tmp_path / "o"
        assert run("synth", "--config", str(cfg), "--subjects", "1",
                   "--sessions", "1", "--out", str(out)) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["subjects"] == 1       # explicit flag wins
        assert echo["duration_s"] == 10.0  # config value applied
        assert echo["seed"] == 99

    @pytest.mark.parametrize("command, config, named", [
        ("synth", {"func": 1}, "'func'"),
        ("synth", {"config": "other.json"}, "'config'"),
        ("synth", {"command": "train"}, "'command'"),
        ("synth", {"subject": 2}, "'subject'"),  # misspelt
        ("synth", {"seed": "x"}, "'seed'"),
        ("synth", {"duration_s": None}, "'duration_s'"),
        ("synth", [1, 2], "cfg.json holds no JSON object"),
        ("train", {"epochs": True}, "'epochs'"),
        ("train", {"epochs": 1.5}, "'epochs'"),
        ("train", {"epochs": "five"}, "'epochs'"),
        ("train", {"epoch": 5}, "'epoch'"),
        ("train", {"group": 42}, "'group'"),
        ("sweep", {"measure_host_latency": 1}, "'measure_host_latency'"),
    ])
    def test_bad_config_file_exits_one_naming_the_key(
            self, tmp_path, capsys, command, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        data = ["--data", str(tmp_path)] if command != "synth" else []
        assert run(command, *data, "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # rejected before any work

    @pytest.mark.parametrize("command, config, rule", [
        ("train", {"stride": 0}, "--stride: must be at least 1, got 0"),
        ("train", {"epochs": 0}, "--epochs: must be at least 1, got 0"),
        ("train", {"learning_rate": 7},
         "--learning-rate: must be in (0, 1), got 7"),
        ("sweep", {"learning_rate": 7},
         "--learning-rate: must be in (0, 1), got 7")])
    def test_out_of_range_config_value_exits_one_unread(
            self, dataset, tmp_path, capsys, ingested, command, config, rule):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(command, "--data", str(dataset), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 1
        assert f"error: {cfg}: key {next(iter(config))!r}: argument {rule}" \
            in capsys.readouterr().err
        assert ingested == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_negative_seed_exits_one_unread_unwritten(
            self, dataset, tmp_path, capsys, ingested, command):
        data = ["--data", str(dataset)] if command == "train" else []
        assert run(command, *data, "--seed", "-1",
                   "--out", str(tmp_path / "o")) == 1
        assert "argument --seed: must be at least 0, got -1" \
            in capsys.readouterr().err
        assert ingested == []
        assert not (tmp_path / "o").exists()

    def test_every_numeric_flag_has_a_checked_type(self):
        """No option but --group, whose choices are its rule, and
        --held-out-session, which may name any session, takes a bare int or
        float: a flag added later gets its range checked by its type."""
        commands = next(a.choices for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        bare = [(command, action.option_strings[0])
                for command, parser in commands.items()
                for action in parser._actions
                if action.type in (int, float) and action.option_strings[0]
                not in ("--group", "--held-out-session")]
        assert len(commands) == 7 and bare == []

    def test_config_file_equals_its_flags(self, tmp_path):
        config = {"subjects": 1, "sessions": 1, "duration_s": 12.0,
                  "seed": 4}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        by_file, by_flags = tmp_path / "file", tmp_path / "flags"
        assert run("synth", "--config", str(cfg), "--out", str(by_file)) == 0
        assert run("synth", "--subjects", "1", "--sessions", "1",
                   "--duration-s", "12.0", "--seed", "4",
                   "--out", str(by_flags)) == 0
        for path in sorted(by_file.iterdir()):
            text = path.read_text().replace(str(by_file), str(by_flags))
            assert text == (by_flags / path.name).read_text(), path.name

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=st.dictionaries(
        st.sampled_from(["seed", "epochs", "batch_size", "filters",
                         "window_len", "stride", "held_out_session",
                         "group"]),
        st.one_of(st.booleans(), st.none(), st.floats(),
                  st.text().filter(lambda t: not _is_int(t)),
                  st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=1)),
        min_size=1))
    def test_wrong_typed_config_values_exit_one(self, tmp_path, capsys,
                                                config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run("train", "--data", str(tmp_path), "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == 1
        assert repr(next(iter(config))) in capsys.readouterr().err

    def test_config_switches_take_true_or_false(self, tmp_path):
        for value in (True, False):
            cfg = tmp_path / f"{value}.json"
            cfg.write_text(json.dumps({"measure_host_latency": value}))
            out = tmp_path / f"o{value}"
            # no dataset: the run stops after the config echo
            assert run("sweep", "--data", str(tmp_path), "--config",
                       str(cfg), "--out", str(out)) == 1
            echo = json.loads((out / "config.json").read_text())
            assert echo["measure_host_latency"] is value

    @pytest.mark.parametrize("command, window_len", [("eval", "99"),
                                                     ("quantize", "5")])
    def test_window_len_is_the_models_own(self, dataset, trained, tmp_path,
                                          command, window_len):
        assert run(command, "--model", str(trained), "--data", str(dataset),
                   "--window-len", window_len, "--held-out-session", "2",
                   "--out", str(tmp_path / "o")) == 1

    def test_missing_config_file_exits_one(self, tmp_path):
        assert run("synth", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")) == 1
