"""Seeded mutations of every kind of file fxcast reads.

A malformed report, model or series file must end in a typed FxcastError:
exit 3 from the CLI (or 4 from a command that trains, when no network
survives), or the exception itself from ``load_model``, which no command
calls. Each target runs a fixed number of cases from a fixed seed, so a
failure names its case and reproduces. Each case applies one mutation, and
the mutations of a target take turns, so every kind runs on it.
"""

import json
import random
from pathlib import Path

import pytest

from fxcast import Architecture, FxcastError, Mlp, init_weights, load_model, save_model
from fxcast.cli import EXIT_DATA, EXIT_OK, EXIT_TRAINING, main
from fxcast.experiment import _VIEWS

GOLDEN = Path(__file__).parent / "data"
CASES = 200  # per target; a few seconds in all

# JSON texts that replace one value; the nesting depth is far past the
# decoder's recursion limit on every supported Python
DEPTH = 100_000
VALUES = ["true", "null", "1.5", "-1", str(10**400), "1" * 5000, "1e999", "1e308", "-1e308",
          '""', "[]", "{}", "[" * DEPTH + "]" * DEPTH]
SENTINEL = json.dumps("fuzz-sentinel")


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


def mutations(replace, *extra) -> list:
    """(name, edit of the list of lines, or None for a bit flip) of each
    mutation of one target: ``replace`` puts each of VALUES in place of one
    value, then the line edits, ``extra`` and the flip."""
    return [*((f"replace with {raw[:12]}", lambda rng, lines, raw=raw: replace(rng, lines, raw))
              for raw in VALUES),
            ("drop", drop_line), ("repeat", repeat_line), ("swap", swap_lines), ("cut", cut_line),
            *extra, ("flip", None)]


JSON_MUTATIONS = mutations(replace_json_value,
                           ("delete key", lambda rng, lines: edit_key(rng, lines, False)),
                           ("rename key", lambda rng, lines: edit_key(rng, lines, True)))
CSV_MUTATIONS = mutations(replace_csv_field)


def mutated(rng, case: int, text: str, kinds) -> tuple:
    """(name of the mutation, the bytes of the mutated file) for one case."""
    name, edit = kinds[case % len(kinds)]
    lines = text.splitlines(keepends=True)
    if edit is not None:
        edit(rng, lines)
    data = bytearray("".join(lines).encode("utf-8"))
    if edit is None:
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return name, bytes(data)


def run_cases(seed, text, kinds, path, check):
    """Write each mutation of ``text`` to ``path`` and run ``check(path)``."""
    rng = random.Random(seed)
    for case in range(CASES):
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


@pytest.mark.parametrize("seed, name", [(1, "runaway"), (2, "overflow")])
def test_mutated_reports(tmp_path, capsys, seed, name):
    def check(path):
        for view in _VIEWS:
            exits_with(["report", str(path), "--view", view], capsys)

    text = (GOLDEN / f"{name}.fxr").read_text(encoding="utf-8")
    run_cases(seed, text, JSON_MUTATIONS, tmp_path / "mutated.fxr", check)


def test_mutated_models(tmp_path):
    def check(path):
        try:
            assert isinstance(load_model(path), Mlp)
        except FxcastError:
            pass

    saved = tmp_path / "model.json"
    save_model(init_weights(Architecture(2, 3), 5, 0.5), saved)
    text = saved.read_text(encoding="utf-8")
    run_cases(3, text, JSON_MUTATIONS, tmp_path / "mutated.json", check)


def synth_text(tmp_path, n) -> str:
    saved = tmp_path / "series.csv"
    assert main(["synth", "--kind", "noisy_ar1", "--n", str(n), "--seed", "4",
                 "--out", str(saved)]) == EXIT_OK
    return saved.read_text(encoding="utf-8")


def test_mutated_series(tmp_path, capsys):
    run_cases(4, synth_text(tmp_path, 40), CSV_MUTATIONS, tmp_path / "mutated.csv",
              lambda path: exits_with(["ingest", str(path)], capsys))


# tiny sweeps; a series of 70 points leaves 18 before the default 52-point
# test span, so that most cases reach training
@pytest.mark.parametrize("seed, argv", [
    (5, ["train", "--inputs", "2", "--hidden", "2", "--out", "model.json"]),
    (6, ["grid", "--inputs", "1..2", "--hidden", "1,2", "--workers", "1", "--out", "grid.fxr"]),
])
def test_mutated_series_trained(tmp_path, capsys, monkeypatch, seed, argv):
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    run_cases(seed, synth_text(tmp_path, 70), CSV_MUTATIONS, tmp_path / "mutated.csv",
              lambda path: exits_with([command, str(path), *flags, "--restarts", "1",
                                       "--max-epochs", "3"], capsys,
                                      (EXIT_OK, EXIT_DATA, EXIT_TRAINING)))
