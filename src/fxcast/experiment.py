"""Grid-sweep orchestration: per-cell training and evaluation, report
assembly and persistence, table rendering, and synthetic benchmark series."""

from __future__ import annotations

import datetime
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DivergenceError,
    ReportFormatError,
    ReportVersionError,
)
from .metrics import (
    HorizonSpec,
    MetricRow,
    _horizon_rows,
    _metric_rows,
    evaluate_horizons,
    random_walk,
)
from .mlp import (
    Architecture,
    TrainConfig,
    TrainResult,
    _best_restart,
    _initial_nets,
    _predict_block,
    _train_block,
    train_multi_restart,
)
from .series import TimeSeries, WindowedDataset, fit_scaler, make_windows

_REPORT_FORMAT = "fxcast-grid-report"
_REPORT_VERSION = 1

_SYNTH_EPOCH = datetime.date(2000, 1, 7)

# Most row-space doubles, sum of (h + 1) over the networks times the
# pattern count n, that one training block of run_grid may hold. Blocks
# save numpy calls at a few hundred patterns but lose to cache misses at
# about a thousand: with 2 MB of L2 per core, one block for a whole input
# level of 5 widths x 2 restarts ran 25-35% slower per network-epoch at
# n = 1042, while 24 000 kept nearly all of the gain at n <= 299.
_BLOCK_BUDGET = 24_000


@dataclass(frozen=True)
class GridConfig:
    """Factorial sweep over input lags and hidden widths."""

    input_levels: tuple = tuple(range(1, 11))
    hidden_levels: tuple = (6, 12, 18, 24, 30)
    train_cfg: TrainConfig = TrainConfig()
    horizon_spec: HorizonSpec = HorizonSpec()
    scale: bool = True

    def __post_init__(self):
        object.__setattr__(self, "input_levels", tuple(int(v) for v in self.input_levels))
        object.__setattr__(self, "hidden_levels", tuple(int(v) for v in self.hidden_levels))
        for name in ("input_levels", "hidden_levels"):
            levels = getattr(self, name)
            if not levels:
                raise DataError(f"{name} must be nonempty")
            if levels[0] < 1:
                raise DataError(f"{name} must be positive")
            if any(b <= a for a, b in zip(levels, levels[1:])):
                raise DataError(f"{name} must be strictly increasing")

    @property
    def cell_count(self) -> int:
        return len(self.input_levels) * len(self.hidden_levels)


@dataclass(frozen=True)
class CellResult:
    """Metrics for one (p, h) grid cell.

    ``train_seconds`` is wall-clock bookkeeping: it is excluded from equality
    and never persisted, so report files stay reproducible run to run. From
    ``evaluate_cell`` it is the whole call. From ``run_grid``, whose cells
    train and are scored in shared blocks, it is the cell's share, by
    hidden rows (h + 1) per restart, of its input level's set-up and of its
    blocks' training time, plus an equal share of its input level's scoring
    time, so the cells of a sweep still sum to the work done.
    """

    p: int
    h: int
    in_sample: MetricRow
    out_sample: tuple  # ((label, MetricRow), ...)
    best_sse: float
    train_seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class CellFailure:
    """A grid cell that produced no usable network."""

    p: int
    h: int
    error: str


@dataclass(frozen=True)
class InputAverage:
    """Per-input-level mean of each metric over the hidden levels."""

    p: int
    in_sample: MetricRow
    out_sample: tuple


@dataclass(frozen=True)
class GridReport:
    """Everything a sweep produced, plus the exact configuration that ran it."""

    cells: tuple
    failures: tuple
    per_input_averages: tuple
    random_walk_rows: tuple
    config: GridConfig
    series_name: str
    train_len: int
    test_len: int

    @property
    def master_seed(self) -> int:
        return self.config.train_cfg.master_seed

    @classmethod
    def build(cls, cells, failures, random_walk_rows, config, series_name, train_len, test_len):
        cells = tuple(sorted(cells, key=lambda c: (c.p, c.h)))
        failures = tuple(sorted(failures, key=lambda f: (f.p, f.h)))
        return cls(
            cells=cells,
            failures=failures,
            per_input_averages=_input_averages(cells, config),
            random_walk_rows=tuple(random_walk_rows),
            config=config,
            series_name=series_name,
            train_len=train_len,
            test_len=test_len,
        )


def _mean_row(rows) -> MetricRow:
    n = len(rows)
    return MetricRow(
        rmse=sum(r.rmse for r in rows) / n,
        mae=sum(r.mae for r in rows) / n,
        mape=sum(r.mape for r in rows) / n,
    )


def _input_averages(cells, config: GridConfig) -> tuple:
    averages = []
    for p in config.input_levels:
        group = [c for c in cells if c.p == p]
        if not group:
            continue
        labels = config.horizon_spec.labels
        out_rows = tuple(
            (label, _mean_row([dict(c.out_sample)[label] for c in group]))
            for label in labels
        )
        averages.append(
            InputAverage(
                p=p,
                in_sample=_mean_row([c.in_sample for c in group]),
                out_sample=out_rows,
            )
        )
    return tuple(averages)


def _scaled_windows(train_series: TimeSeries, p: int, scale: bool):
    """(scaler or None, training windows of length p in scaled units)."""
    if len(train_series) <= p:
        raise DataError(f"training series length {len(train_series)} must exceed p={p}")
    scaler = fit_scaler(train_series) if scale else None
    data = make_windows(train_series, p)
    if scaler is not None:
        # elementwise, so the same values as windowing the scaled series
        data = WindowedDataset(p, scaler.apply(data.inputs), scaler.apply(data.targets))
    return scaler, data


def _score_level(train_series: TimeSeries, test_series: TimeSeries, cfg: GridConfig,
                 scaler, data: WindowedDataset, results, seconds) -> list:
    """The items of the cells of one input level, one per item of ``results``:
    each a cell's TrainResult, or the CellFailure of a cell left without a
    network, which passes through.

    The networks are scored as one block: one forward pass over the
    training windows and one over the teacher-forced test windows, one
    inverse scaling of each, and one reduction per measure and horizon. A
    cell whose forecasts fail a check of ``metrics._horizon_rows`` becomes
    a CellFailure with that check's message. A cell's ``train_seconds`` is
    its entry of ``seconds`` plus an equal share of this scoring time.
    """
    started = time.perf_counter()
    p = data.window_len
    live = [j for j, result in enumerate(results) if isinstance(result, TrainResult)]
    items = list(results)
    if not live:
        return items
    nets = [results[j].best_net for j in live]
    combined = np.concatenate((train_series.values[-p:], test_series.values))
    if scaler is not None:
        combined = scaler.apply(combined)
    test_inputs = np.lib.stride_tricks.sliding_window_view(combined, p)[: len(test_series)]
    in_pred = _predict_block(nets, data.inputs)
    out_pred = _predict_block(nets, test_inputs)
    if scaler is not None:
        # a huge but finite output may overflow here; the scoring names it
        with np.errstate(over="ignore"):
            in_pred, out_pred = scaler.invert(in_pred), scaler.invert(out_pred)
    in_rows = _metric_rows(train_series.values[p:], in_pred, "in-sample forecasts")
    out_rows = _horizon_rows(test_series.values, out_pred, cfg.horizon_spec,
                             "out-of-sample forecasts")
    share = (time.perf_counter() - started) / len(results)
    for j, in_row, out_row in zip(live, in_rows, out_rows):
        result = results[j]
        h = result.best_net.arch.hidden_count
        error = next((row for row in (in_row, out_row) if isinstance(row, str)), None)
        items[j] = (CellFailure(p=p, h=h, error=error) if error is not None else
                    CellResult(p=p, h=h, in_sample=in_row, out_sample=out_row,
                               best_sse=result.best_sse, train_seconds=seconds[j] + share))
    return items


def evaluate_cell(train_series: TimeSeries, test_series: TimeSeries, p: int, h: int,
                  cfg: GridConfig):
    """Train one (p, h) cell and score it; returns (CellResult, best network).

    In-sample metrics cover the N - p training patterns. Out-of-sample
    forecasts are one-step-ahead with teacher forcing: the input for test
    position t is always the p most recent actual observations (train tail,
    then preceding test actuals) — never the model's own forecasts. All
    metrics are computed in original units. Raises DivergenceError if every
    restart diverged and DataError if the forecasts cannot be scored.
    """
    started = time.perf_counter()
    scaler, data = _scaled_windows(train_series, p, cfg.scale)
    result = train_multi_restart(Architecture(input_count=p, hidden_count=h), data,
                                 cfg.train_cfg)
    [cell] = _score_level(train_series, test_series, cfg, scaler, data, [result],
                          [time.perf_counter() - started])
    if isinstance(cell, CellFailure):
        raise DataError(cell.error)
    return cell, result.best_net


def random_walk_rows(train_series: TimeSeries, test_series: TimeSeries,
                     spec: HorizonSpec) -> tuple:
    """Per-horizon metric rows for the naive random-walk benchmark."""
    fs = random_walk(float(train_series.values[-1]), test_series.values)
    return evaluate_horizons(fs, spec)


def _blocks(rows, n: int):
    """Consecutive slices of networks with ``rows`` row-space rows each
    (h + 1) whose training blocks hold at most ``_BLOCK_BUDGET`` row-space
    doubles (rows times n patterns); a network over budget trains alone."""
    start = used = 0
    for i, count in enumerate(rows):
        if i > start and (used + count) * n > _BLOCK_BUDGET:
            yield slice(start, i)
            start, used = i, 0
        used += count
    yield slice(start, len(rows))


def _level_cells(train_series: TimeSeries, test_series: TimeSeries, grid: GridConfig,
                 p: int, hidden_levels) -> list:
    """The cells (p, h) for each h of ``hidden_levels``, as ``evaluate_cell``
    scores them; a cell with no usable network becomes a CellFailure.

    The windows are built and scaled once. The restarts of every h train in
    (h, k) order in blocks of ``_train_block``, cut by ``_blocks``. A cell's
    ``train_seconds`` is its restarts' share of the set-up and of their
    blocks' training time, each split by rows (h + 1), plus an equal share
    of the level's scoring in ``_score_level``, so the cells' times still
    sum to the work done.
    """
    started = time.perf_counter()
    try:
        scaler, data = _scaled_windows(train_series, p, grid.scale)
    except DataError as exc:
        return [CellFailure(p=p, h=h, error=str(exc)) for h in hidden_levels]
    cfg = grid.train_cfg
    nets0 = [net for h in hidden_levels for net in _initial_nets(Architecture(p, h), cfg)]
    rows = [net.arch.hidden_count + 1 for net in nets0]
    setup = (time.perf_counter() - started) / sum(rows)
    seconds = [setup * count for count in rows]
    runs = []
    for block in _blocks(rows, len(data.targets)):
        started = time.perf_counter()
        runs += _train_block(nets0[block], data, cfg)
        share = (time.perf_counter() - started) / sum(rows[block])
        for i in range(block.start, block.stop):
            seconds[i] += share * rows[i]
    cells = [slice(j * cfg.restarts, (j + 1) * cfg.restarts) for j in range(len(hidden_levels))]
    results = []
    for h, cell in zip(hidden_levels, cells):
        try:
            results.append(_best_restart(runs[cell]))
        except DivergenceError as exc:
            results.append(CellFailure(p=p, h=h, error=str(exc)))
    return _score_level(train_series, test_series, grid, scaler, data, results,
                        [sum(seconds[cell]) for cell in cells])


def _chunk_task(train_series: TimeSeries, test_series: TimeSeries, grid: GridConfig,
                chunk) -> list:
    """The items of the (p, h) cells of one chunk, in order, one input level
    at a time."""
    items = []
    for p, cells in groupby(chunk, key=itemgetter(0)):
        items += _level_cells(train_series, test_series, grid, p, [h for _, h in cells])
    return items


def _chunk_schedule(order, workers: int) -> list:
    """Split ``order`` into contiguous chunks for a pool of ``workers``.

    Each chunk takes 1/(16 * workers) of the cells not yet scheduled, at
    least one, so chunk sizes shrink towards single cells at the end and the
    workers finish close together. A grid of fewer than 32 * workers cells
    gets one cell per chunk.
    """
    chunks = []
    start = 0
    while start < len(order):
        size = max(1, (len(order) - start) // (16 * workers))
        chunks.append(order[start:start + size])
        start += size
    return chunks


def run_grid(train_series: TimeSeries, test_series: TimeSeries, grid: GridConfig,
             workers: int = 1, sink=None, progress=None) -> GridReport:
    """Evaluate every (p, h) cell of the grid and assemble the report.

    The grid runs in chunks of contiguous cells: serially one chunk per
    input level, or, when ``workers`` > 1, the chunks of ``_chunk_schedule``
    on a process pool of at most one process per chunk. Within a chunk, the
    cells of each input level p share one scaled set of windows, and the
    restarts of all their hidden widths train in (h, restart) order in row
    blocks: runs of networks whose hidden rows, sum of (h + 1), times the
    pattern count stay within ``_BLOCK_BUDGET`` doubles train together in
    one ``_train_block``, and the winners of all widths are scored together
    by ``_score_level``. Blocking only saves numpy calls: every network
    gets the bits that ``train`` gives it alone, every cell the metrics
    that scoring it alone gives, and restart seeds depend
    only on (master_seed, p, h, restart), so the output is identical at any
    worker count and equals ``evaluate_cell`` cell by cell.

    Results are read back in (p, h) order: a cell's record goes to ``sink``
    and ``progress`` once its chunk and every chunk before it are done, so
    a serial sweep reports one input level at a time. With ``sink`` set, an
    interrupted sweep leaves a valid prefix.

    Per-cell failures (e.g. every restart diverged) are recorded in the
    report instead of aborting the remaining cells.
    """
    if workers < 1:
        raise DataError("workers must be at least 1")
    rw_rows = random_walk_rows(train_series, test_series, grid.horizon_spec)

    writer = _ReportWriter(sink) if sink is not None else None
    if writer is not None:
        writer.header(grid, train_series.name, len(train_series), len(test_series))
        writer.random_walk(rw_rows)

    order = [(p, h) for p in grid.input_levels for h in grid.hidden_levels]
    task = partial(_chunk_task, train_series, test_series, grid)
    pool = None
    if workers == 1:
        chunks = map(task, ([(p, h) for h in grid.hidden_levels] for p in grid.input_levels))
    else:
        schedule = _chunk_schedule(order, workers)
        pool = ProcessPoolExecutor(max_workers=min(workers, len(schedule)))
        chunks = pool.map(task, schedule)
    items = []
    try:
        for item in chain.from_iterable(chunks):
            items.append(item)
            if writer is not None:
                writer.record(item)
            if progress is not None:
                progress(len(items), len(order), item)
    finally:
        # a failing sink, callback or worker ends the sweep after the chunks
        # already running, not after every queued chunk
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    cells = [v for v in items if isinstance(v, CellResult)]
    failures = [v for v in items if isinstance(v, CellFailure)]
    return GridReport.build(
        cells, failures, rw_rows, grid,
        train_series.name, len(train_series), len(test_series),
    )


# ---------------------------------------------------------------------------
# report persistence: versioned line-delimited JSON records
# ---------------------------------------------------------------------------


def _row_to_json(row: MetricRow) -> dict:
    return {"rmse": row.rmse, "mae": row.mae, "mape": row.mape}


def _row_from_json(obj) -> MetricRow:
    return MetricRow(*(_number(obj[name], name) for name in ("rmse", "mae", "mape")))


def _labelled_rows_to_json(rows) -> list:
    return [[label, _row_to_json(row)] for label, row in rows]


def _labelled_rows_from_json(obj) -> tuple:
    return tuple((label, _row_from_json(row)) for label, row in obj)


def _config_to_json(config: GridConfig) -> dict:
    cfg = config.train_cfg
    return {
        "input_levels": list(config.input_levels),
        "hidden_levels": list(config.hidden_levels),
        "train_cfg": {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)},
        "horizons": [[label, length] for label, length in config.horizon_spec.windows],
        "scale": config.scale,
    }


def _typed(value, kinds: tuple, what: str):
    """``value`` if its type is one of ``kinds``. GridConfig and HorizonSpec
    run int() on their values, so a 1.5 or a true must be rejected here."""
    if type(value) not in kinds:
        raise ReportFormatError(f"{what} {value!r} is not of type "
                                f"{' or '.join(kind.__name__ for kind in kinds)}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number: a true, which float()
    would take as 1.0, is rejected, and so is an integer beyond the float
    range."""
    try:
        return float(_typed(value, (int, float), what))
    except OverflowError:
        raise ReportFormatError(f"{what} is an integer too large for a float") from None


def _config_from_json(obj) -> GridConfig:
    """The GridConfig of a header, each value of the JSON type that
    ``_config_to_json`` writes for it."""
    def levels(key):
        return tuple(_typed(v, (int,), key) for v in _typed(obj[key], (list,), key))

    train_cfg = _typed(obj["train_cfg"], (dict,), "train_cfg")
    # a float field may hold an int, as a TrainConfig built in code may
    kinds = {f.name: (int, float) if type(f.default) is float else (int,)
             for f in fields(TrainConfig)}
    if set(train_cfg) != set(kinds):
        raise ReportFormatError(f"train_cfg fields {sorted(train_cfg)} are not {sorted(kinds)}")
    for name, value in train_cfg.items():
        if type(_typed(value, kinds[name], name)) is float and not np.isfinite(value):
            raise ReportFormatError(f"{name} {value!r} is not finite")
    horizons = []
    for window in _typed(obj["horizons"], (list,), "horizons"):
        label, length = _typed(window, (list,), "horizon")
        horizons.append((_typed(label, (str,), "horizon label"),
                         _typed(length, (int,), "horizon length")))
    return GridConfig(
        input_levels=levels("input_levels"),
        hidden_levels=levels("hidden_levels"),
        train_cfg=TrainConfig(**train_cfg),
        horizon_spec=HorizonSpec(tuple(horizons)),
        scale=_typed(obj["scale"], (bool,), "scale"),
    )


class _ReportWriter:
    """Streams report records to a text sink, one JSON object per line."""

    def __init__(self, sink):
        self._sink = sink

    def _line(self, obj):
        self._sink.write(json.dumps(obj) + "\n")
        flush = getattr(self._sink, "flush", None)
        if flush is not None:
            flush()

    def header(self, config, series_name, train_len, test_len):
        self._line(
            {
                "format": _REPORT_FORMAT,
                "version": _REPORT_VERSION,
                "series": series_name,
                "train_len": train_len,
                "test_len": test_len,
                "master_seed": config.train_cfg.master_seed,
                "config": _config_to_json(config),
            }
        )

    def random_walk(self, rows):
        self._line({"type": "random_walk", "rows": _labelled_rows_to_json(rows)})

    def record(self, item):
        if isinstance(item, CellResult):
            self._line(
                {
                    "type": "cell",
                    "p": item.p,
                    "h": item.h,
                    "in_sample": _row_to_json(item.in_sample),
                    "out_sample": _labelled_rows_to_json(item.out_sample),
                    "best_sse": item.best_sse,
                }
            )
        else:
            self._line({"type": "failure", "p": item.p, "h": item.h, "error": item.error})


def save_report(report: GridReport, sink):
    """Write a complete report in the streaming line format."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as handle:
            save_report(report, handle)
        return
    writer = _ReportWriter(sink)
    writer.header(report.config, report.series_name, report.train_len, report.test_len)
    writer.random_walk(report.random_walk_rows)
    for item in sorted(
        list(report.cells) + list(report.failures), key=lambda r: (r.p, r.h)
    ):
        writer.record(item)


def load_report(source) -> GridReport:
    """Read a report written by save_report / run_grid.

    Raises ReportVersionError for an unsupported version tag and
    ReportFormatError for corrupt or truncated payloads, including a record
    count short of the grid declared in the header, a cell off that grid, and
    metric rows whose horizon labels differ from the header's.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_report(handle)

    try:
        text = source.read()
    except UnicodeDecodeError as exc:
        raise ReportFormatError(f"report is not UTF-8 text: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ReportFormatError("empty report file")

    def parse_line(index, text):
        try:
            obj = json.loads(text)
        except ValueError as exc:  # also an integer literal past int()'s digit limit
            raise ReportFormatError(f"corrupt report line {index + 1}: {exc}") from None
        if not isinstance(obj, dict):
            raise ReportFormatError(f"corrupt report line {index + 1}: not a record")
        return obj

    header = parse_line(0, lines[0])
    if header.get("format") != _REPORT_FORMAT:
        raise ReportFormatError("not a grid report file")
    if header.get("version") != _REPORT_VERSION:
        raise ReportVersionError(f"unsupported report version {header.get('version')!r}")
    try:
        config = _config_from_json(header["config"])
        if _typed(header["master_seed"], (int,), "master_seed") != config.train_cfg.master_seed:
            raise ReportFormatError(f"master_seed {header['master_seed']} differs from "
                                    f"train_cfg's {config.train_cfg.master_seed}")
        series_name = _typed(header["series"], (str,), "series")
        train_len = header["train_len"]
        test_len = header["test_len"]
        if not all(type(n) is int for n in (train_len, test_len)):
            raise ReportFormatError(f"lengths {train_len!r}, {test_len!r} are not integers")
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise ReportFormatError(f"corrupt report header: {exc}") from None

    grid = {(p, h) for p in config.input_levels for h in config.hidden_levels}
    labels = config.horizon_spec.labels

    def horizon_rows(obj):
        rows = _labelled_rows_from_json(obj)
        if tuple(label for label, _ in rows) != labels:
            raise ReportFormatError(
                f"horizon labels {[label for label, _ in rows]} differ from the "
                f"header's {list(labels)}"
            )
        return rows

    def grid_key(obj):
        key = (obj["p"], obj["h"])
        # a JSON 1.0 or true equals the level 1 but is not one
        if not all(type(v) is int for v in key) or key not in grid:
            raise ReportFormatError(f"cell record {key} is off the header's grid")
        if key in seen:
            raise ReportFormatError(f"duplicate cell record {key}")
        seen.add(key)
        return key

    rw_rows = None
    cells = []
    failures = []
    seen = set()
    for index, text in enumerate(lines[1:], start=1):
        obj = parse_line(index, text)
        kind = obj.get("type")
        try:
            if kind == "random_walk":
                if rw_rows is not None:
                    raise ReportFormatError("duplicate random_walk record")
                rw_rows = horizon_rows(obj["rows"])
            elif kind == "cell":
                p, h = grid_key(obj)
                best_sse = _number(obj["best_sse"], "best_sse")
                if not 0.0 <= best_sse < np.inf:
                    raise ReportFormatError(f"best_sse {best_sse!r} is not finite and >= 0")
                cells.append(
                    CellResult(
                        p=p,
                        h=h,
                        in_sample=_row_from_json(obj["in_sample"]),
                        out_sample=horizon_rows(obj["out_sample"]),
                        best_sse=best_sse,
                    )
                )
            elif kind == "failure":
                p, h = grid_key(obj)
                failures.append(CellFailure(p=p, h=h, error=str(obj["error"])))
            else:
                raise ReportFormatError(f"unknown record type {kind!r} on line {index + 1}")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ReportFormatError):
                raise
            raise ReportFormatError(f"corrupt report line {index + 1}: {exc}") from None

    if rw_rows is None:
        raise ReportFormatError("missing random_walk record (truncated file?)")
    expected = config.cell_count
    if len(seen) != expected:
        raise ReportFormatError(
            f"truncated report: expected {expected} cell records, found {len(seen)}"
        )
    try:
        return GridReport.build(
            cells, failures, rw_rows, config, series_name, train_len, test_len
        )
    except (KeyError, DataError) as exc:
        raise ReportFormatError(f"inconsistent report records: {exc}") from None


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

# view: (lead column headers, widths of all columns, hidden-averaged rows?)
_LAYOUTS = {
    "in_sample": (("Input", "Hidden"), (7, 8, 15, 15, 15), True),
    "out_sample_by_input": (("Input",), (7, 15, 15, 15), True),
    "hidden_effect": (("Sample", "Input", "Hidden"), (10, 7, 8, 15, 15, 15), False),
}
_VIEWS = tuple(_LAYOUTS)


def _fmt(value: float) -> str:
    return f"{value:.8f}"


def _metric_columns(row: MetricRow) -> tuple:
    return _fmt(row.rmse), _fmt(row.mae), _fmt(row.mape)


def _render_row(columns, widths) -> str:
    return "".join(str(c).ljust(w) for c, w in zip(columns, widths)).rstrip()


def render_table(report: GridReport, which: str) -> str:
    """Render one report view as fixed-format text, 8 decimals per metric.

    Views: ``in_sample`` (one row per cell plus an Avgr row per input
    level), ``out_sample_by_input`` (hidden-averaged rows per input level
    and horizon, ending with the RW benchmark row), and ``hidden_effect``
    (per-cell out-of-sample rows per horizon).
    """
    if which not in _LAYOUTS:
        raise DataError(f"unknown view {which!r}; expected one of {_VIEWS}")
    lead, widths, averaged = _LAYOUTS[which]
    per_cell = "Hidden" in lead  # a row per (p, h) cell
    sample = (f"N={report.train_len}",) if "Sample" in lead else ()
    cells = {(c.p, c.h): c for c in report.cells}
    errors = {(f.p, f.h): f.error for f in report.failures}
    averages = {a.p: a for a in report.per_input_averages}
    lines = []

    def row(lead_values, item):
        tail = (f"FAILED: {item}",) if isinstance(item, str) else _metric_columns(item)
        lines.append(_render_row((*lead_values, *tail), widths))

    def pick(item, label):
        return item.in_sample if label is None else dict(item.out_sample)[label]

    for label in (None,) if which == "in_sample" else report.config.horizon_spec.labels:
        suffix = "" if label is None else f"({label})"
        if lines:
            lines.append("")
        lines.append(_render_row((*lead, *(m + suffix for m in ("RMSE", "MAE", "MAPE"))), widths))
        for p in report.config.input_levels:
            for h in report.config.hidden_levels if per_cell else ():
                cell = cells.get((p, h))
                row((*sample, p, h), errors[p, h] if cell is None else pick(cell, label))
            # a per-cell view has already shown why an input level has no average
            if averaged and (p in averages or not per_cell):
                row(("Avgr", "") if per_cell else (p,),
                    pick(averages[p], label) if p in averages else "no surviving cells")
        if averaged and label is not None:
            row(("RW",), dict(report.random_walk_rows)[label])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# synthetic benchmark series
# ---------------------------------------------------------------------------

_SYNTH_KINDS = ("logistic_map", "noisy_ar1", "sine")


def synthesize_series(kind: str, n: int, seed: int = 0, **params) -> TimeSeries:
    """Generate a benchmark series with weekly dates from a fixed epoch.

    Kinds and parameters:
      logistic_map: x[t+1] = r * x[t] * (1 - x[t]); r=4.0, x0=0.3
      noisy_ar1:    y[t+1] = phi * y[t] + e[t], e ~ uniform(-sigma, sigma);
                    phi=0.8, sigma=0.1, y0=0.0 (the only kind that uses seed)
      sine:         y[t] = sin(omega * t); omega=0.1
    """
    if n < 2:
        raise DataError("synthetic series length must be at least 2")
    if kind == "logistic_map":
        values = _logistic_map(n, **params)
    elif kind == "noisy_ar1":
        values = _noisy_ar1(n, seed, **params)
    elif kind == "sine":
        values = _sine(n, **params)
    else:
        raise DataError(f"unknown series kind {kind!r}; expected one of {_SYNTH_KINDS}")
    dates = tuple(_SYNTH_EPOCH + datetime.timedelta(weeks=i) for i in range(n))
    return TimeSeries(dates=dates, values=values, name=kind)


def _reject_unknown(kind, params, allowed):
    unknown = set(params) - set(allowed)
    if unknown:
        raise DataError(f"invalid {kind} parameters: {sorted(unknown)}")


def _logistic_map(n, **params):
    _reject_unknown("logistic_map", params, ("r", "x0"))
    r = float(params.get("r", 4.0))
    x0 = float(params.get("x0", 0.3))
    if r <= 0.0:
        raise DataError("logistic_map requires r > 0")
    if not 0.0 < x0 < 1.0:
        raise DataError("logistic_map requires x0 in (0, 1)")
    values = np.empty(n)
    values[0] = x0
    for t in range(n - 1):
        values[t + 1] = r * values[t] * (1.0 - values[t])
    return values


def _noisy_ar1(n, seed, **params):
    _reject_unknown("noisy_ar1", params, ("phi", "sigma", "y0"))
    phi = float(params.get("phi", 0.8))
    sigma = float(params.get("sigma", 0.1))
    y0 = float(params.get("y0", 0.0))
    if sigma < 0.0:
        raise DataError("noisy_ar1 requires sigma >= 0")
    rng = np.random.default_rng(int(seed) & ((1 << 64) - 1))
    noise = rng.uniform(-sigma, sigma, size=n - 1)
    values = np.empty(n)
    values[0] = y0
    for t in range(n - 1):
        values[t + 1] = phi * values[t] + noise[t]
    return values


def _sine(n, **params):
    _reject_unknown("sine", params, ("omega",))
    omega = float(params.get("omega", 0.1))
    return np.sin(omega * np.arange(n, dtype=float))
