"""Seeded mutations of every kind of file fxcast reads.

A malformed report, model or series file must end in a typed FxcastError:
exit 3 from the CLI, or the exception itself from ``load_model``, which no
command calls. Each target runs a fixed number of cases from a fixed seed,
so a failure names its case and reproduces. Each case applies one mutation,
and the mutations take turns, so every kind runs on every target.
"""

import json
import random
from pathlib import Path

import pytest

from fxcast import Architecture, FxcastError, Mlp, init_weights, load_model, save_model
from fxcast.cli import EXIT_DATA, EXIT_OK, main
from fxcast.experiment import _VIEWS

GOLDEN = Path(__file__).parent / "data"
CASES = 200  # per target; a few seconds in all

# JSON texts that replace one value; the nesting depth is far past the
# decoder's recursion limit on every supported Python
DEPTH = 100_000
VALUES = ["true", "null", "1.5", "-1", str(10**400), "1" * 5000, "1e999", '""', "[]", "{}",
          "[" * DEPTH + "]" * DEPTH]
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


def drop_line(rng, lines):
    del lines[rng.randrange(len(lines))]


def repeat_line(rng, lines):
    index = rng.randrange(len(lines))
    lines.insert(index, lines[index])


def swap_lines(rng, lines):
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]


MUTATIONS = [*(("replace", raw) for raw in VALUES),
             ("drop", drop_line), ("repeat", repeat_line), ("swap", swap_lines),
             ("flip", None)]


def mutated(rng, case: int, text: str, replace) -> tuple:
    """(name of the mutation, the bytes of the mutated file) for one case."""
    name, how = MUTATIONS[case % len(MUTATIONS)]
    lines = text.splitlines(keepends=True)
    if name == "replace":
        replace(rng, lines, how)
        name = f"replace with {how[:12]}"
    elif name != "flip":
        how(rng, lines)
    data = bytearray("".join(lines).encode("utf-8"))
    if name == "flip":
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return name, bytes(data)


def run_cases(seed, text, replace, path, check):
    """Write each mutation of ``text`` to ``path`` and run ``check(path)``."""
    rng = random.Random(seed)
    for case in range(CASES):
        name, data = mutated(rng, case, text, replace)
        path.write_bytes(data)
        try:
            check(path)
        except Exception as exc:
            raise AssertionError(f"seed {seed}, case {case} ({name}): "
                                 f"{type(exc).__name__}: {str(exc)[:200]}") from exc


def exits_0_or_3(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_DATA), f"exit {code}"


@pytest.mark.parametrize("seed, name", [(1, "runaway"), (2, "overflow")])
def test_mutated_reports(tmp_path, capsys, seed, name):
    def check(path):
        for view in _VIEWS:
            exits_0_or_3(["report", str(path), "--view", view], capsys)

    text = (GOLDEN / f"{name}.fxr").read_text(encoding="utf-8")
    run_cases(seed, text, replace_json_value, tmp_path / "mutated.fxr", check)


def test_mutated_models(tmp_path):
    def check(path):
        try:
            assert isinstance(load_model(path), Mlp)
        except FxcastError:
            pass

    saved = tmp_path / "model.json"
    save_model(init_weights(Architecture(2, 3), 5, 0.5), saved)
    text = saved.read_text(encoding="utf-8")
    run_cases(3, text, replace_json_value, tmp_path / "mutated.json", check)


def test_mutated_series(tmp_path, capsys):
    saved = tmp_path / "series.csv"
    assert main(["synth", "--kind", "noisy_ar1", "--n", "40", "--seed", "4",
                 "--out", str(saved)]) == EXIT_OK
    text = saved.read_text(encoding="utf-8")
    run_cases(4, text, replace_csv_field, tmp_path / "mutated.csv",
              lambda path: exits_0_or_3(["ingest", str(path)], capsys))
