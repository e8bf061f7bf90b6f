import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fxcast import TrainConfig, cli, load_model, load_report, parse_series, synthesize_series
from fxcast.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_TRAINING,
    EXIT_USAGE,
    build_parser,
    main,
)
from fxcast.experiment import _SYNTH, _VIEWS

from conftest import subprocess_env


def write_series(path, n=120, seed=3, kind="noisy_ar1", **params):
    series = synthesize_series(kind, n, seed=seed, **params)
    with open(path, "w") as handle:
        handle.write("date,value\n")
        for day, value in zip(series.dates, series.values):
            handle.write(f"{day.isoformat()},{float(value)!r}\n")
    return series


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "series.csv"
    write_series(path, n=150, seed=3, y0=5.0)
    return str(path)


FAST = ["--restarts", "2", "--max-epochs", "25", "--learning-rate", "1e-3",
        "--test-len", "52"]


class TestIngest:
    def test_valid_file_summary(self, data_file, capsys):
        assert main(["ingest", data_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("150 observations, 2000-01-07..")

    def test_decreasing_date_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        rows = [f"2020-01-{d:02d},1.{d}" for d in range(1, 7)]
        rows.append("2019-12-31,9.9")  # row 7 breaks ordering
        path.write_text("\n".join(rows) + "\n")
        assert main(["ingest", str(path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "row 7" in err and "decreasing" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.csv")]) == EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_custom_delimiter(self, tmp_path, capsys):
        path = tmp_path / "semi.csv"
        path.write_text("2020-01-01;1.0\n2020-01-02;2.0\n")
        assert main(["ingest", str(path), "--delimiter", ";"]) == EXIT_OK

    def test_byte_order_mark_before_the_first_row(self, tmp_path, capsys):
        # a headerless file saved with a UTF-8 byte-order mark keeps its
        # first row: the mark does not make that row's date a header's
        text = "2000-01-07,1.0\n2000-01-14,2.0\n2000-01-21,3.0\n"
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["ingest", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("3 observations, 2000-01-07..")
        for source in ("\ufeff" + text, io.StringIO("\ufeff" + text)):
            assert len(parse_series(source)) == 3

    def test_byte_order_mark_before_a_header(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,value\n2000-01-07,1.0\n2000-01-14,2.0\n")
        assert main(["ingest", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("2 observations, 2000-01-07..")

    @pytest.mark.parametrize("first, second", [
        ("20000107", "20000114"),
        ("2000-W01-5", "2000-W02-5"),
    ])
    def test_only_year_month_day_dates(self, tmp_path, first, second, capsys):
        # date.fromisoformat takes these forms from Python 3.11 on, and not
        # on 3.10; the first row reads as a header, the second is an error
        path = tmp_path / "dates.csv"
        path.write_text(f"{first},1.0\n{second},2.0\n")
        assert main(["ingest", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: row 2: malformed date '{second}'\n"


class TestMalformedSeries:
    @pytest.mark.parametrize("command, flags", [
        ("ingest", []),
        ("train", ["--inputs", "1", "--hidden", "1", *FAST]),
        ("grid", ["--inputs", "1", "--hidden", "1", "--workers", "1", *FAST]),
    ])
    def test_non_utf8_byte(self, tmp_path, command, flags, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"date,value\n2020-01-01,1.0\n2020-01-02,2.5\xe9\n")
        assert main([command, str(path), *flags]) == EXIT_DATA
        assert "UTF-8" in capsys.readouterr().err

    def test_field_over_csv_limit(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("2020-01-01,1.0\n2020-01-02," + "1" * 200_000 + "\n")
        assert main(["ingest", str(path)]) == EXIT_DATA
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--delimiter", ""],
        ["--delimiter", ";;"],
        ["--value-col", "-1"],
    ])
    def test_bad_column_format(self, data_file, flags, capsys):
        assert main(["ingest", data_file, *flags]) == EXIT_DATA
        assert "error" in capsys.readouterr().err


class TestSynth:
    def test_round_trips_through_ingest(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--kind", "sine", "--n", "64", "--out", str(out)]) == EXIT_OK
        assert main(["ingest", str(out)]) == EXIT_OK
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.startswith("64 observations")

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["synth", "--kind", "noisy_ar1", "--n", "40", "--seed", "5",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_params_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["synth", "--kind", "logistic_map", "--n", "10",
                     "--x0", "2.0", "--out", str(out)])
        assert code == EXIT_DATA

    def test_n_must_be_positive(self, tmp_path):
        assert main(["synth", "--kind", "sine", "--n", "0",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("params", [
        ["--kind", "noisy_ar1", "--phi", "10", "--y0", "1e308"],
        ["--kind", "logistic_map", "--r", "1e308"],
        ["--kind", "sine", "--omega", "1e308"],
    ])
    def test_overflow_is_a_data_error(self, tmp_path, params, capsys):
        # pytest's filter makes a numpy RuntimeWarning an error, so a warning
        # before the typed error would end in a traceback here
        out = tmp_path / "x.csv"
        assert main(["synth", *params, "--n", "50", "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == "error: series contains non-finite values\n"
        assert not out.exists()

    def test_parameter_of_another_kind_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--kind", "sine", "--n", "10", "--r", "4",
                     "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == "error: invalid sine parameters: ['r']\n"

    def test_every_kind_and_parameter_has_a_flag(self, tmp_path, capsys):
        # each flag passes its value by name: a kind's parameters, given at
        # their defaults, give the series of the defaults
        for kind, (_, defaults) in _SYNTH.items():
            paths = tmp_path / f"{kind}.csv", tmp_path / f"{kind}-flags.csv"
            flags = [arg for name, (default, _) in defaults.items()
                     for arg in (f"--{name}", repr(default))]
            for path, given in zip(paths, ([], flags)):
                assert main(["synth", "--kind", kind, "--n", "30", "--seed", "2",
                             *given, "--out", str(path)]) == EXIT_OK
            assert paths[0].read_bytes() == paths[1].read_bytes()
        capsys.readouterr()


class TestTrain:
    def test_deterministic_output_and_model(self, data_file, tmp_path, capsys):
        model_a = tmp_path / "a.json"
        model_b = tmp_path / "b.json"
        argv = ["train", data_file, "--inputs", "2", "--hidden", "3",
                "--seed", "7", *FAST]
        assert main(argv + ["--out", str(model_a)]) == EXIT_OK
        out_a = capsys.readouterr().out
        assert main(argv + ["--out", str(model_b)]) == EXIT_OK
        out_b = capsys.readouterr().out
        assert out_a.replace(str(model_a), "") == out_b.replace(str(model_b), "")
        assert model_a.read_bytes() == model_b.read_bytes()
        net = load_model(model_a)
        assert net.arch.input_count == 2 and net.arch.hidden_count == 3

    def test_prints_metric_rows_and_rw(self, data_file, capsys):
        assert main(["train", data_file, "--inputs", "1", "--hidden", "2",
                     *FAST]) == EXIT_OK
        out = capsys.readouterr().out
        assert "in-sample" in out
        assert "RW" in out
        assert "12m" in out

    def test_every_restart_diverging_exits_training(self, data_file, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(["train", data_file, "--inputs", "1", "--hidden", "2", *FAST,
                     "--learning-rate", "1e9", "--out", str(out)])
        assert code == EXIT_TRAINING
        assert capsys.readouterr().err == "error: all 2 restarts diverged\n"
        assert not out.exists()

    def test_failed_run_leaves_existing_model_file(self, data_file, tmp_path, capsys):
        out = tmp_path / "model.json"
        out.write_text("an older model\n")
        code = main(["train", data_file, "--inputs", "1", "--hidden", "2", *FAST,
                     "--learning-rate", "1e9", "--out", str(out)])
        assert code == EXIT_TRAINING
        assert out.read_text() == "an older model\n"
        assert main(["train", data_file, "--inputs", "1", "--hidden", "2", *FAST,
                     "--out", str(out)]) == EXIT_OK
        assert load_model(out).arch.hidden_count == 2

    def test_unwritable_out_fails_before_training(self, data_file, tmp_path, capsys):
        out = tmp_path / "missing" / "model.json"
        code = main(["train", data_file, "--inputs", "1", "--hidden", "2", *FAST,
                     "--out", str(out)])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2]")

    @pytest.mark.parametrize("command, code", [("train", EXIT_DATA), ("grid", EXIT_TRAINING)])
    def test_training_range_past_a_float(self, tmp_path, command, code, capsys):
        # the training span's max - min overflows a float; the last training
        # value and the test span are small, so the random walk scores
        path = tmp_path / "huge.csv"
        values = [-1e308, 1e308, -1e308, 1e308, 0.1, 0.2] + [0.5] * 52
        path.write_text("".join(f"{2000 + i}-01-01,{v!r}\n" for i, v in enumerate(values)))
        argv = [command, str(path), "--inputs", "1", "--hidden", "2", *FAST]
        assert main(argv + (["--workers", "1"] if command == "grid" else [])) == code
        message = "cannot scale the range [-1e+308, 1e+308]: max - min must be positive and finite"
        assert message in capsys.readouterr().err

    def test_zero_inputs_usage_error(self, data_file):
        assert main(["train", data_file, "--inputs", "0", "--hidden", "2"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag, value, message", [
        ("--restarts", "two", "'two' is not an integer"),
        ("--inputs", "1..x", "bad range '1..x'"),
        ("--inputs", "5..3", "empty range '5..3'"),
        ("--inputs", "a", "bad level 'a'"),
        ("--hidden", "3,2", "levels must be positive and strictly increasing"),
    ])
    def test_malformed_number_or_level_usage_error(self, data_file, flag, value, message,
                                                   capsys):
        argv = ["grid", data_file, "--workers", "1", *FAST, flag, value]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")

    def test_train_len_exceeding_data(self, data_file, capsys):
        code = main(["train", data_file, "--inputs", "1", "--hidden", "2",
                     "--train-len", "500", *FAST])
        assert code == EXIT_DATA

    def test_short_test_span_reports_horizon_error(self, data_file, capsys):
        code = main(["train", data_file, "--inputs", "1", "--hidden", "2",
                     "--restarts", "1", "--max-epochs", "5", "--test-len", "10"])
        assert code == EXIT_DATA
        assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["grid", "train"])
def test_every_training_field_has_its_flag(command, monkeypatch):
    # a flag named after each TrainConfig field but master_seed (--seed),
    # with the field's default; a field with no flag fails the parser's build
    args = build_parser().parse_args([command, "x.csv", "--inputs", "1", "--hidden", "1"])
    for field in dataclasses.fields(TrainConfig):
        if field.name != "master_seed":
            assert getattr(args, field.name) == field.default
    monkeypatch.delitem(cli._TRAIN_FLAGS, "restarts")
    with pytest.raises(KeyError, match="restarts"):
        build_parser()


@pytest.mark.parametrize("command", ["grid", "train"])
@pytest.mark.parametrize("flag, value, code", [
    ("--min-sse-delta", "nan", EXIT_USAGE),
    ("--learning-rate", "inf", EXIT_USAGE),
    ("--init-half-width", "inf", EXIT_USAGE),
    ("--init-half-width", "1e308", EXIT_DATA),  # finite, but its draw range 2 * w is not
])
def test_nonfinite_training_flags_rejected(data_file, tmp_path, command, flag, value, code,
                                           capsys):
    argv = ([command, data_file, "--inputs", "1", "--hidden", "2", *FAST, flag, value,
             "--out", str(tmp_path / "out")] + (["--workers", "1"] if command == "grid" else []))
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestGrid:
    def test_two_cell_report(self, data_file, tmp_path, capsys):
        out = tmp_path / "grid.fxr"
        code = main(["grid", data_file, "--inputs", "1..2", "--hidden", "2",
                     "--seed", "1", "--workers", "1", "--out", str(out), *FAST])
        assert code == EXIT_OK
        report = load_report(out)
        assert [(c.p, c.h) for c in report.cells] == [(1, 2), (2, 2)]
        stdout = capsys.readouterr().out
        assert "# in_sample" in stdout and "# out_sample_by_input" in stdout
        assert "RW" in stdout

    def test_worker_counts_byte_identical(self, data_file, tmp_path, capsys):
        paths = []
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}.fxr"
            code = main(["grid", data_file, "--inputs", "1..2", "--hidden", "2,3",
                         "--seed", "1", "--workers", workers, "--out", str(out), *FAST])
            assert code == EXIT_OK
            paths.append(out.read_bytes())
            outs.append(capsys.readouterr().out)
        assert paths[0] == paths[1]
        assert outs[0] == outs[1]

    def test_all_cells_failing_exits_training(self, data_file, capsys):
        code = main(["grid", data_file, "--inputs", "1", "--hidden", "2",
                     "--seed", "1", "--learning-rate", "1e9", "--restarts", "2",
                     "--max-epochs", "20", "--test-len", "52", "--workers", "1"])
        assert code == EXIT_TRAINING
        assert "FAILED" in capsys.readouterr().err

    def test_random_walk_overflow_names_the_random_walk(self, tmp_path, capsys):
        # the last training value is huge against the test span, so the
        # random walk's first forecast overflows the rmse before any cell runs
        path = tmp_path / "huge.csv"
        values = [1e308, -1e308] * 4 + [0.5] * 52
        path.write_text("".join(f"{2000 + i}-01-01,{v!r}\n" for i, v in enumerate(values)))
        assert main(["grid", str(path), "--inputs", "1", "--hidden", "1",
                     "--workers", "1", *FAST]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: random-walk forecasts over 1m overflow the rmse\n"

    def test_runaway_restarts_fail_every_cell(self, tmp_path, capsys):
        # every restart of this grid ends finite, with SSEs up to about 1e30,
        # but above the SSE of its initial network
        path = tmp_path / "sine.csv"
        assert main(["synth", "--kind", "sine", "--n", "160", "--seed", "5",
                     "--out", str(path)]) == EXIT_OK
        code = main(["grid", str(path), "--inputs", "1..4", "--hidden", "2,3,5", "--seed", "3",
                     "--workers", "1", "--restarts", "3", "--max-epochs", "30",
                     "--learning-rate", "0.05"])
        assert code == EXIT_TRAINING
        err = capsys.readouterr().err
        assert err.count("FAILED: all 3 restarts diverged or ran away (3 ended above") == 12

    def test_unscaled_sweep(self, data_file, tmp_path, capsys):
        # --no-scale gives one report and one stdout at any worker count, the
        # header records it, and every view of the report renders
        argv = ["grid", data_file, "--inputs", "1..2", "--hidden", "2,3", "--seed", "1",
                "--no-scale", *FAST]
        files, outs = [], []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.fxr"
            assert main(argv + ["--workers", workers, "--out", str(out)]) == EXIT_OK
            files.append(out.read_bytes())
            outs.append(capsys.readouterr().out)
        assert files[0] == files[1] and outs[0] == outs[1]
        assert json.loads(files[0].splitlines()[0])["config"]["scale"] is False
        report = load_report(tmp_path / "w1.fxr")
        assert report.config.scale is False and len(report.cells) == 4
        for view in _VIEWS:
            assert main(["report", str(tmp_path / "w1.fxr"), "--view", view]) == EXIT_OK
            assert f"# {view}\n{capsys.readouterr().out}" in outs[0]

    def test_progress_on_stderr_only(self, data_file, tmp_path, capsys):
        code = main(["grid", data_file, "--inputs", "1", "--hidden", "2",
                     "--seed", "1", "--workers", "1", *FAST])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "[1/1]" in captured.err
        assert "[1/1]" not in captured.out


class TestReport:
    @pytest.fixture
    def report_file(self, data_file, tmp_path):
        out = tmp_path / "grid.fxr"
        main(["grid", data_file, "--inputs", "1..2", "--hidden", "2",
              "--seed", "1", "--workers", "1", "--out", str(out), *FAST])
        return str(out)

    def test_views_render(self, report_file, capsys):
        for view in ("in_sample", "out_sample", "out_sample_by_input", "hidden_effect"):
            assert main(["report", report_file, "--view", view]) == EXIT_OK
            assert capsys.readouterr().out

    def test_out_sample_ends_with_rw(self, report_file, capsys):
        main(["report", report_file, "--view", "out_sample"])
        lines = capsys.readouterr().out.rstrip("\n").splitlines()
        assert lines[-1].startswith("RW")

    def test_in_sample_row_count(self, report_file, capsys):
        # header + one row per cell + one Avgr row per input level
        main(["report", report_file, "--view", "in_sample"])
        lines = capsys.readouterr().out.rstrip("\n").splitlines()
        assert len(lines) == 1 + 2 + 2
        assert sum(1 for line in lines if line.startswith("Avgr")) == 2

    def test_unknown_view_usage_error(self, report_file):
        assert main(["report", report_file, "--view", "bogus"]) == EXIT_USAGE

    def test_corrupt_report(self, tmp_path, capsys):
        path = tmp_path / "corrupt.fxr"
        path.write_text("not a report\n")
        assert main(["report", str(path)]) == EXIT_DATA

    def test_non_utf8_report(self, report_file, capsys):
        with open(report_file, "ab") as handle:
            handle.write(b"\xff\n")
        assert main(["report", report_file]) == EXIT_DATA
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("record_type, field, value, view", [
        ("cell", "p", 7, "in_sample"),  # a cell off the header's grid
        ("random_walk", "rows", [["1m", {"rmse": 1.0, "mae": 1.0, "mape": 1.0}]],
         "out_sample"),  # random-walk labels that differ from the horizons
        # numbers that int() or float() would coerce into valid-looking ones
        ("cell", "p", 1.5, "in_sample"),
        ("cell", "p", True, "in_sample"),
        ("cell", "p", "1", "in_sample"),
        ("header", "train_len", 60.9, "hidden_effect"),
        ("cell", "best_sse", float("nan"), "in_sample"),
        ("cell", "best_sse", -1.0, "in_sample"),
        # config values that GridConfig, HorizonSpec and TrainConfig reject
        # when built in code too; a dotted field names a nested value
        ("header", "config.input_levels", [1.5, 2], "in_sample"),
        ("header", "config.hidden_levels", [2.0], "in_sample"),
        ("header", "config.horizons.0.1", 4.9, "out_sample"),
        ("header", "config.train_cfg.restarts", 1.5, "in_sample"),
        ("header", "config.train_cfg.max_epochs", True, "in_sample"),
        ("header", "config.scale", "no", "in_sample"),
        ("header", "master_seed", 2, "in_sample"),  # train_cfg's is 1
        # metric values must be JSON numbers that a float can hold
        ("cell", "in_sample.rmse", True, "in_sample"),
        ("cell", "in_sample.mape", "1.0", "in_sample"),
        ("cell", "out_sample.0.1.mae", False, "out_sample"),
        ("random_walk", "rows.0.1.rmse", True, "out_sample"),
        pytest.param("cell", "in_sample.rmse", 10**400, "in_sample", id="rmse-10**400"),
        pytest.param("cell", "best_sse", 10**400, "in_sample", id="best_sse-10**400"),
        # lengths below 1, and a failure text that str() would make "None"
        ("header", "train_len", -5, "hidden_effect"),
        ("header", "test_len", 0, "out_sample"),
        ("failure", "error", None, "in_sample"),
        # training values that TrainConfig rejects, as the CLI flags do
        ("header", "config.train_cfg.min_sse_delta", float("nan"), "in_sample"),
        ("header", "config.train_cfg.learning_rate", float("inf"), "in_sample"),
        pytest.param("header", "config.train_cfg.learning_rate", 10**400, "in_sample",
                     id="learning_rate-10**400"),
    ])
    def test_inconsistent_report(self, report_file, record_type, field, value, view,
                                 capsys):
        with open(report_file) as handle:
            records = [json.loads(line) for line in handle]
        if record_type == "failure":  # the report has none: make its last cell one
            last = records[-1]
            records[-1] = {"type": "failure", "p": last["p"], "h": last["h"], "error": "x"}
        target = next(r for r in records if r.get("type", "header") == record_type)
        *parents, field = (int(key) if key.isdigit() else key for key in field.split("."))
        for key in parents:
            target = target[key]
        target[field] = value
        with open(report_file, "w") as handle:
            handle.writelines(json.dumps(r) + "\n" for r in records)
        assert main(["report", report_file, "--view", view]) == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_integer_past_the_digit_limit(self, report_file, capsys):
        # json.loads refuses integer literals of more than 4300 digits with a
        # ValueError that is not a JSONDecodeError
        with open(report_file) as handle:
            text = handle.read()
        value = json.dumps(json.loads(text.splitlines()[2])["in_sample"]["rmse"])
        with open(report_file, "w") as handle:
            handle.write(text.replace(value, "1" * 5000, 1))
        assert main(["report", report_file]) == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_version_true_rejected(self, report_file, capsys):
        # a JSON true equals 1 but is not version 1
        with open(report_file) as handle:
            text = handle.read()
        with open(report_file, "w") as handle:
            handle.write(text.replace('"version": 1', '"version": true', 1))
        assert main(["report", report_file]) == EXIT_DATA
        assert "version True" in capsys.readouterr().err

    def test_nesting_past_the_recursion_limit(self, report_file, capsys):
        # the JSON decoder raises RecursionError, not a ValueError
        with open(report_file) as handle:
            lines = handle.readlines()
        depth = 100_000
        lines[2] = '{"type": "cell", "p": ' + "[" * depth + "]" * depth + ', "h": 2}\n'
        with open(report_file, "w") as handle:
            handle.writelines(lines)
        assert main(["report", report_file]) == EXIT_DATA
        assert "corrupt report line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("view", _VIEWS)
    def test_matches_grid_stdout_rendering(self, data_file, report_file, view, capsys):
        # report re-renders exactly what grid printed for the same view
        main(["grid", data_file, "--inputs", "1..2", "--hidden", "2",
              "--seed", "1", "--workers", "1", *FAST])
        grid_out = capsys.readouterr().out
        main(["report", report_file, "--view", view])
        view_out = capsys.readouterr().out
        assert f"# {view}\n{view_out}" in grid_out


# runaway: a report with metrics near 1e30, from `fxcast synth --kind sine
# --n 160 --seed 5`, then `fxcast grid --inputs 1..4 --hidden 2,3,5 --seed 3
# --restarts 3 --max-epochs 30 --learning-rate 0.05`. fxcast no longer
# writes it: runaway restarts leave the restart search, and that grid fails
# every cell (test_runaway_restarts_fail_every_cell). It stays as a
# rendering fixture. overflow: the same report with
# the in-sample MAPE of every p = 2 cell set to 1e308, so that the sum of
# that level's MAPEs overflows a float. Each comes with the exact text of
# each view. Reading and rendering call no BLAS and the averages are
# correctly rounded, so every platform must give these bytes.
GOLDEN = Path(__file__).parent / "data"
# (report, view); the runaway report's cases keep the plain view as their id
GOLDEN_CASES = [pytest.param(name, view, id=view if name == "runaway" else f"{name}-{view}")
                for name in ("runaway", "overflow") for view in _VIEWS]


class TestGoldenReport:
    @pytest.mark.parametrize("name, view", GOLDEN_CASES)
    def test_views_match_golden_text(self, name, view, capsys):
        assert main(["report", str(GOLDEN / f"{name}.fxr"), "--view", view]) == EXIT_OK
        assert capsys.readouterr().out == (GOLDEN / f"{name}.{view}.txt").read_text()

    @pytest.mark.parametrize("name, view", GOLDEN_CASES)
    def test_wide_values_keep_columns_apart(self, name, view, capsys):
        # a metric wider than its column still ends in a space, so every row
        # splits into its heading's fields, less the empty Hidden of an Avgr row
        main(["report", str(GOLDEN / f"{name}.fxr"), "--view", view])
        lines = capsys.readouterr().out.splitlines()
        assert any(len(line) > 120 for line in lines)
        for line in lines:
            fields = line.split()
            if not fields:
                continue
            if fields[0] in ("Input", "Sample"):
                heading = fields
                continue
            blank = fields[0] == "Avgr" and "Hidden" in heading
            assert len(fields) == len(heading) - blank, line


class TestSeedEnvironment:
    def test_env_seed_used(self, data_file, tmp_path, capsys, monkeypatch):
        argv = ["train", data_file, "--inputs", "1", "--hidden", "2", *FAST]
        monkeypatch.setenv("FXCAST_SEED", "99")
        assert main(argv) == EXIT_OK
        via_env = capsys.readouterr().out
        monkeypatch.delenv("FXCAST_SEED")
        assert main(argv + ["--seed", "99"]) == EXIT_OK
        via_flag = capsys.readouterr().out
        assert via_env == via_flag

    def test_flag_overrides_env(self, data_file, capsys, monkeypatch):
        argv = ["train", data_file, "--inputs", "1", "--hidden", "2", *FAST]
        monkeypatch.setenv("FXCAST_SEED", "99")
        assert main(argv + ["--seed", "100"]) == EXIT_OK
        flagged = capsys.readouterr().out
        monkeypatch.setenv("FXCAST_SEED", "100")
        assert main(argv) == EXIT_OK
        assert flagged == capsys.readouterr().out

    def test_bad_env_seed(self, data_file, capsys, monkeypatch):
        monkeypatch.setenv("FXCAST_SEED", "banana")
        code = main(["train", data_file, "--inputs", "1", "--hidden", "2", *FAST])
        assert code == EXIT_DATA

    def test_missing_command_usage(self):
        assert main([]) == EXIT_USAGE


def test_import_leaves_out_multiprocessing():
    # only a sweep with workers > 1 needs the process pool
    code = "import sys, fxcast.cli; print('multiprocessing' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
