"""Seeded mutations of every kind of file fxcast reads.

A malformed report, model or series file must end in a typed FxcastError:
exit 3 from the CLI (or 4 from a command that trains, when no network
survives), or the exception itself from ``load_model``, which no command
calls. Each target runs a fixed number of cases from a fixed seed, so a
failure names its case and reproduces. Each case applies one mutation, and
the mutations of a target take turns, so every kind runs on it. The long
run, marked ``slow``, runs every target again with ten times the cases from
seeds of its own.
"""

import functools
import io
import json
import random
from pathlib import Path

import pytest

from fxcast import (Architecture, FxcastError, Mlp, init_weights, load_model, load_report,
                    render_table, save_model, save_report)
from fxcast.cli import EXIT_DATA, EXIT_OK, EXIT_TRAINING, main
from fxcast.experiment import _VIEWS

GOLDEN = Path(__file__).parent / "data"
CASES = 200  # per target; a few seconds in all
LONG_CASES = 2000  # per target in the long run; about a minute in all

# JSON texts that replace one value; the nesting depth is far past the
# decoder's recursion limit on every supported Python
DEPTH = 100_000
VALUES = ["true", "null", "1.5", "-1", str(10**400), "1" * 5000, "1e999", "1e308", "-1e308",
          '""', "[]", "{}", "[" * DEPTH + "]" * DEPTH]
SENTINEL = json.dumps("fuzz-sentinel")
# byte strings that one mutation inserts at a random byte offset: a UTF-8
# byte-order mark, a NUL, a lone carriage return, bytes that are not UTF-8,
# a quote, and a run of digits longer than Python's integer digit limit
INSERTS = {"BOM": "\ufeff".encode(), "NUL": b"\0", "CR": b"\r", "xff xfe": b"\xff\xfe",
           "quote": b'"', "5000 9s": b"9" * 5000}


def value_paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from value_paths(item, (*path, key))


def replace_json_value(rng, lines, raw):
    """Replace one value of one JSON line with the JSON text ``raw``."""
    index = rng.randrange(len(lines))
    obj = json.loads(lines[index])
    path = rng.choice(list(value_paths(obj)))
    if path:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = "fuzz-sentinel"
        text = json.dumps(obj)
    else:
        text = SENTINEL
    lines[index] = text.replace(SENTINEL, raw) + "\n"


def replace_csv_field(rng, lines, raw):
    """Replace one field of one delimited line with the text ``raw``."""
    index = rng.randrange(len(lines))
    fields = lines[index].rstrip("\n").split(",")
    fields[rng.randrange(len(fields))] = raw
    lines[index] = ",".join(fields) + "\n"


def key_paths(rng, lines):
    """(index of a random line, its JSON object, the paths of its object keys)."""
    index = rng.randrange(len(lines))
    obj = json.loads(lines[index])
    paths = [path for path in value_paths(obj) if path and isinstance(path[-1], str)]
    return index, obj, paths


def edit_key(rng, lines, rename: bool):
    """Delete one key of one JSON line, or rename it."""
    index, obj, paths = key_paths(rng, lines)
    *parents, key = rng.choice(paths)
    parent = obj
    for step in parents:
        parent = parent[step]
    value = parent.pop(key)
    if rename:
        parent[key + "_"] = value
    lines[index] = json.dumps(obj) + "\n"


def cut_line(rng, lines):
    """End the file part way through one of its lines."""
    index = rng.randrange(len(lines))
    lines[index:] = [lines[index][:rng.randrange(len(lines[index]))]]


def drop_line(rng, lines):
    del lines[rng.randrange(len(lines))]


def repeat_line(rng, lines):
    index = rng.randrange(len(lines))
    lines.insert(index, lines[index])


def swap_lines(rng, lines):
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]


def flip_bit(rng, data):
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)


def insert_bytes(rng, data, raw):
    offset = rng.randrange(len(data) + 1)
    data[offset:offset] = raw


def mutations(replace, *extra) -> list:
    """(name, edit, whether the edit is of bytes) of each mutation of one
    target: ``replace`` puts each of VALUES in place of one value, then the
    line edits and ``extra`` edit the list of lines, then each of INSERTS
    and the bit flip edit the bytes of the file."""
    return [*((f"replace with {raw[:12]}", lambda rng, lines, raw=raw: replace(rng, lines, raw),
               False) for raw in VALUES),
            *((name, edit, False) for name, edit in (
                ("drop", drop_line), ("repeat", repeat_line), ("swap", swap_lines),
                ("cut", cut_line), *extra)),
            *((f"insert {name}", lambda rng, data, raw=raw: insert_bytes(rng, data, raw), True)
              for name, raw in INSERTS.items()),
            ("flip", flip_bit, True)]


JSON_MUTATIONS = mutations(replace_json_value,
                           ("delete key", lambda rng, lines: edit_key(rng, lines, False)),
                           ("rename key", lambda rng, lines: edit_key(rng, lines, True)))
CSV_MUTATIONS = mutations(replace_csv_field)


def mutated(rng, case: int, text: str, kinds) -> tuple:
    """(name of the mutation, the bytes of the mutated file) for one case."""
    name, edit, of_bytes = kinds[case % len(kinds)]
    lines = text.splitlines(keepends=True)
    if not of_bytes:
        edit(rng, lines)
    data = bytearray("".join(lines).encode("utf-8"))
    if of_bytes:
        edit(rng, data)
    return name, bytes(data)


def run_cases(seed, cases, text, kinds, path, check):
    """Write ``cases`` mutations of ``text`` to ``path``, running
    ``check(path)`` on each."""
    rng = random.Random(seed)
    for case in range(cases):
        name, data = mutated(rng, case, text, kinds)
        path.write_bytes(data)
        try:
            check(path)
        except Exception as exc:
            raise AssertionError(f"seed {seed}, case {case} ({name}): "
                                 f"{type(exc).__name__}: {str(exc)[:200]}") from exc


def exits_with(argv, capsys, codes=(EXIT_OK, EXIT_DATA)):
    code = main(argv)
    capsys.readouterr()
    assert code in codes, f"exit {code}"


def fuzz_report(name, tmp_path, capsys, seed, cases):
    def check(path):
        for view in _VIEWS:
            exits_with(["report", str(path), "--view", view], capsys)
        try:
            report = load_report(path)
        except FxcastError:
            return
        # a file that loads saves again to one that loads back equal and
        # renders every view
        saved = io.StringIO()
        save_report(report, saved)
        again = load_report(io.StringIO(saved.getvalue()))
        assert again == report
        for view in _VIEWS:
            render_table(again, view)

    text = (GOLDEN / f"{name}.fxr").read_text(encoding="utf-8")
    run_cases(seed, cases, text, JSON_MUTATIONS, tmp_path / "mutated.fxr", check)


def fuzz_model(tmp_path, capsys, seed, cases):
    def check(path):
        try:
            assert isinstance(load_model(path), Mlp)
        except FxcastError:
            pass

    saved = tmp_path / "model.json"
    save_model(init_weights(Architecture(2, 3), 5, 0.5), saved)
    text = saved.read_text(encoding="utf-8")
    run_cases(seed, cases, text, JSON_MUTATIONS, tmp_path / "mutated.json", check)


def synth_text(tmp_path, n) -> str:
    saved = tmp_path / "series.csv"
    assert main(["synth", "--kind", "noisy_ar1", "--n", str(n), "--seed", "4",
                 "--out", str(saved)]) == EXIT_OK
    return saved.read_text(encoding="utf-8")


def fuzz_series(tmp_path, capsys, seed, cases):
    run_cases(seed, cases, synth_text(tmp_path, 40), CSV_MUTATIONS, tmp_path / "mutated.csv",
              lambda path: exits_with(["ingest", str(path)], capsys))


def fuzz_series_trained(argv, tmp_path, capsys, seed, cases):
    """``argv`` on a mutated series, from the working directory ``tmp_path``.
    A series of 70 points leaves 18 before the default 52-point test span,
    so that most cases reach training."""
    command, *flags = argv
    run_cases(seed, cases, synth_text(tmp_path, 70), CSV_MUTATIONS, tmp_path / "mutated.csv",
              lambda path: exits_with([command, str(path), *flags, "--restarts", "1",
                                       "--max-epochs", "3"], capsys,
                                      (EXIT_OK, EXIT_DATA, EXIT_TRAINING)))


# tiny sweeps
TRAIN_ARGV = ["train", "--inputs", "2", "--hidden", "2", "--out", "model.json"]
GRID_ARGV = ["grid", "--inputs", "1..2", "--hidden", "1,2", "--workers", "1", "--out", "grid.fxr"]


@pytest.mark.parametrize("seed, name", [(1, "runaway"), (2, "overflow")])
def test_mutated_reports(tmp_path, capsys, seed, name):
    fuzz_report(name, tmp_path, capsys, seed, CASES)


def test_mutated_models(tmp_path, capsys):
    fuzz_model(tmp_path, capsys, 3, CASES)


def test_mutated_series(tmp_path, capsys):
    fuzz_series(tmp_path, capsys, 4, CASES)


@pytest.mark.parametrize("seed, argv", [(5, TRAIN_ARGV), (6, GRID_ARGV)])
def test_mutated_series_trained(tmp_path, capsys, monkeypatch, seed, argv):
    monkeypatch.chdir(tmp_path)
    fuzz_series_trained(argv, tmp_path, capsys, seed, CASES)


@pytest.mark.slow
@pytest.mark.parametrize("seed, target", [
    pytest.param(11, functools.partial(fuzz_report, "runaway"), id="runaway-report"),
    pytest.param(12, functools.partial(fuzz_report, "overflow"), id="overflow-report"),
    pytest.param(13, fuzz_model, id="model"),
    pytest.param(14, fuzz_series, id="series"),
    pytest.param(15, functools.partial(fuzz_series_trained, TRAIN_ARGV), id="series-train"),
    pytest.param(16, functools.partial(fuzz_series_trained, GRID_ARGV), id="series-grid"),
])
def test_long_fuzz(tmp_path, capsys, monkeypatch, seed, target):
    monkeypatch.chdir(tmp_path)
    target(tmp_path, capsys, seed, LONG_CASES)
