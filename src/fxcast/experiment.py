"""Grid-sweep orchestration: per-cell training and evaluation, report
assembly and persistence, table rendering, and synthetic benchmark series."""

from __future__ import annotations

import datetime
import json
import math
import time
from dataclasses import dataclass, field, fields
from itertools import chain, product
from operator import attrgetter

import numpy as np

from .errors import (
    _BUILD_ERRORS,
    DataError,
    ReportFormatError,
    _check_tag,
    _corrupt,
    _integer,
    _integers,
    _json_object,
    _nonnegative,
    _opened,
    _read_text,
    _typed,
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
    _check_train_fields,
    _predict_block,
    _restart_searches,
    train_multi_restart,
)
from .series import Scaler, TimeSeries, WindowedDataset, fit_scaler

_REPORT_FORMAT = "fxcast-grid-report"

_SYNTH_EPOCH = datetime.date(2000, 1, 7)
_SYNTH_MAX_N = (datetime.date.max - _SYNTH_EPOCH).days // 7 + 1  # weekly dates to date.max


@dataclass(frozen=True)
class GdTrainConfig:
    """The training settings that a version 1 report's header names: those
    of full-batch gradient descent, params <- params - learning_rate *
    gradient, which fxcast no longer runs.

    A version 1 report loads with one as its ``train_cfg``, renders as it
    did, and ``save_report`` writes it back as version 1, so it is never
    saved under a header that names settings it was not trained with. The
    trainer rejects it. It checks its fields as ``TrainConfig`` does, its
    learning rate positive and finite.
    """

    learning_rate: float = 1e-4
    max_epochs: int = 2000
    min_sse_delta: float = 1e-10
    restarts: int = 50
    init_half_width: float = 0.5
    master_seed: int = 0

    def __post_init__(self):
        _check_train_fields(self)
        if not 0.0 < self.learning_rate < math.inf:  # a comparison, so that nan fails it
            raise DataError(f"learning_rate {self.learning_rate!r} is not positive and finite")


# report version: the training config class its header holds
_REPORT_VERSIONS = {1: GdTrainConfig, 2: TrainConfig}


@dataclass(frozen=True)
class GridConfig:
    """Factorial sweep over input lags and hidden widths. ``train_cfg`` is a
    TrainConfig, or the GdTrainConfig of a version 1 report, which renders
    and saves but does not train."""

    input_levels: tuple = tuple(range(1, 11))
    hidden_levels: tuple = (6, 12, 18, 24, 30)
    train_cfg: TrainConfig = TrainConfig()
    horizon_spec: HorizonSpec = HorizonSpec()
    scale: bool = True

    def __post_init__(self):
        if type(self.scale) is not bool:
            raise DataError(f"scale {self.scale!r} is not a bool")
        if type(self.train_cfg) not in _REPORT_VERSIONS.values():
            raise DataError(f"train_cfg {self.train_cfg!r} is not a TrainConfig or a "
                            "GdTrainConfig")
        for name in ("input_levels", "hidden_levels"):
            try:
                levels = tuple(_integer(v, name) for v in getattr(self, name))
            except TypeError:  # not iterable
                raise DataError(f"{name} {getattr(self, name)!r} is not a sequence of "
                                "integers") from None
            object.__setattr__(self, name, levels)
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
    and never persisted, so report files stay reproducible run to run. It
    is the cell's share, by hidden rows (h + 1), of the wall time of the
    piece it was scored in, from windowing to scoring (``_cell_records``):
    a piece of ``_chunk_schedule`` at any worker count, or the whole
    ``evaluate_cell`` call.
    """

    p: int
    h: int
    in_sample: MetricRow
    out_sample: tuple  # ((label, MetricRow), ...)
    best_sse: float
    train_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self):
        _integers(self, ("p", "h"))
        _nonnegative(self, ("best_sse",))
        if type(self.in_sample) is not MetricRow:
            raise DataError(f"in_sample {self.in_sample!r} is not a MetricRow")


@dataclass(frozen=True)
class CellFailure:
    """A grid cell that produced no usable network."""

    p: int
    h: int
    error: str

    def __post_init__(self):
        _integers(self, ("p", "h"))
        if type(self.error) is not str:
            raise DataError(f"error {self.error!r} is not of type str")


@dataclass(frozen=True)
class GridReport:
    """Everything a sweep produced, plus the exact configuration that ran it:
    the records of its report file, and nothing derived from them.

    The cells (CellResults) and the failures (CellFailures) are stored as
    tuples sorted by (p, h), and the random-walk rows, empty or a
    (label, MetricRow) pair under each of the config's horizon labels in
    order, as a tuple; each cell's out-of-sample rows must be such a tuple
    too. Anything else is a DataError. A report may be partial, a prefix of
    a sweep with no random-walk rows or not every cell; ``save_report`` and
    ``render_table`` take a whole one (``_cell_map``).
    """

    cells: tuple
    failures: tuple
    random_walk_rows: tuple
    config: GridConfig
    series_name: str
    train_len: int
    test_len: int

    def __post_init__(self):
        if type(self.series_name) is not str:
            raise DataError(f"series_name {self.series_name!r} is not of type str")
        _integers(self, ("train_len", "test_len"))
        if min(self.train_len, self.test_len) < 1:
            raise DataError(f"lengths {self.train_len}, {self.test_len} are not both positive")
        if not isinstance(self.config, GridConfig):
            raise DataError(f"config {self.config!r} is not a GridConfig")
        for name, kind in (("cells", CellResult), ("failures", CellFailure)):
            records = tuple(getattr(self, name))
            stray = next((record for record in records if not isinstance(record, kind)), None)
            if stray is not None:
                raise DataError(f"{name} holds {stray!r}, which is not a {kind.__name__}")
            object.__setattr__(self, name, tuple(sorted(records, key=attrgetter("p", "h"))))
        object.__setattr__(self, "random_walk_rows", tuple(self.random_walk_rows))
        labels = self.config.horizon_spec.labels
        if self.random_walk_rows:
            _check_rows(self.random_walk_rows, labels)
        for cell in self.cells:
            _check_rows(cell.out_sample, labels)


def _check_rows(rows: tuple, labels: tuple):
    """DataError unless ``rows`` is a tuple of a (label, MetricRow) pair
    under each of ``labels``, in order."""
    found = [pair[0] if type(pair) is tuple and len(pair) == 2 and type(pair[1]) is MetricRow
             else None for pair in rows] if type(rows) is tuple else [None]
    if None in found:
        raise DataError(f"rows {rows!r} are not a tuple of (label, MetricRow) pairs")
    if found != list(labels):
        raise DataError(f"horizon labels {found} differ from the header's {list(labels)}")


def _mean(values) -> float:
    """The mean of finite values, correctly rounded (fsum), so it does not
    depend on the Python version or the order of the values; if their sum
    overflows, the mean of their halves, doubled, capped at the largest."""
    n = len(values)
    try:
        return math.fsum(values) / n
    except OverflowError:
        return min(2.0 * math.fsum([v / (2 * n) for v in values]), max(values))


def _mean_row(rows) -> MetricRow:
    return MetricRow(
        rmse=_mean([r.rmse for r in rows]),
        mae=_mean([r.mae for r in rows]),
        mape=_mean([r.mape for r in rows]),
    )


def _cell_windows(train_series: TimeSeries, test_series: TimeSeries, p: int, scale: bool):
    """(scaler, training windows, teacher-forced test inputs) of lag p, in
    units of the scaler fitted on the training span, or of the identity with
    ``scale`` off. Scaling is elementwise, so scaling the series once gives
    the bits of scaling each window."""
    n = len(train_series)
    if n <= p:
        raise DataError(f"training series length {n} must exceed p={p}")
    scaler = fit_scaler(train_series) if scale else Scaler(0.0, 1.0)
    # a test value far outside the training range may overflow; the scoring
    # names the forecasts it spoils
    with np.errstate(over="ignore"):
        values = scaler.apply(np.concatenate((train_series.values, test_series.values)))
    rows = np.lib.stride_tricks.sliding_window_view(values, p)
    return scaler, WindowedDataset(p, rows[:n - p], values[p:n]), rows[n - p:-1]


def _cell_records(train_series: TimeSeries, test_series: TimeSeries, cfg: GridConfig,
                  windows, widths, outcomes, started: float) -> list:
    """The records of the cells (p, h) for each h of ``widths``, from the
    ``_cell_windows`` they trained on and one search outcome per width: a
    TrainResult, or the unraised DivergenceError of a search that left no
    network, which becomes the cell's CellFailure.

    The winners are scored as one block: one forward pass over the training
    windows and one over the test inputs, one inverse scaling of each, and
    one reduction per measure and horizon. A cell whose forecasts fail a
    check of ``metrics._horizon_rows`` becomes a CellFailure with that
    check's message. A CellResult's ``train_seconds`` is its share, by
    hidden rows (h + 1), of the wall time since ``started``.
    """
    scaler, data, test_inputs = windows
    p = data.window_len
    nets = [outcome.best_net for outcome in outcomes if isinstance(outcome, TrainResult)]
    scored = iter(())
    if nets:
        # a huge but finite output may overflow the inverse scaling
        with np.errstate(over="ignore"):
            in_pred = scaler.invert(_predict_block(nets, data.inputs))
            out_pred = scaler.invert(_predict_block(nets, test_inputs))
        scored = zip(_metric_rows(train_series.values[p:], in_pred, "in-sample forecasts"),
                     _horizon_rows(test_series.values, out_pred, cfg.horizon_spec,
                                   "out-of-sample forecasts"))
    share = (time.perf_counter() - started) / sum(h + 1 for h in widths)
    records = []
    for h, outcome in zip(widths, outcomes):
        if not isinstance(outcome, TrainResult):
            records.append(CellFailure(p=p, h=h, error=str(outcome)))
            continue
        in_row, out_row = next(scored)
        error = next((row for row in (in_row, out_row) if isinstance(row, str)), None)
        records.append(CellFailure(p=p, h=h, error=error) if error is not None else
                       CellResult(p=p, h=h, in_sample=in_row, out_sample=out_row,
                                  best_sse=outcome.best_sse, train_seconds=share * (h + 1)))
    return records


def evaluate_cell(train_series: TimeSeries, test_series: TimeSeries, p: int, h: int,
                  cfg: GridConfig):
    """Train one (p, h) cell and score it; returns (CellResult, best network).

    In-sample metrics cover the N - p training patterns. Out-of-sample
    forecasts are one-step-ahead with teacher forcing: the input for test
    position t is always the p most recent actual observations (train tail,
    then preceding test actuals) — never the model's own forecasts. All
    metrics are computed in original units. The cell takes the path of a
    sweep piece of one width (``_level_cells``), trained by
    ``train_multi_restart``, so its ``train_seconds`` is the whole call.
    Raises DivergenceError if every restart diverged and DataError if the
    forecasts cannot be scored.
    """
    started = time.perf_counter()
    windows = _cell_windows(train_series, test_series, p, cfg.scale)
    result = train_multi_restart(Architecture(input_count=p, hidden_count=h), windows[1],
                                 cfg.train_cfg)
    [cell] = _cell_records(train_series, test_series, cfg, windows, (h,), [result], started)
    if isinstance(cell, CellFailure):
        raise DataError(cell.error)
    return cell, result.best_net


def random_walk_rows(train_series: TimeSeries, test_series: TimeSeries,
                     spec: HorizonSpec) -> tuple:
    """Per-horizon metric rows for the naive random-walk benchmark."""
    fs = random_walk(float(train_series.values[-1]), test_series.values)
    return evaluate_horizons(fs, spec, "random-walk forecasts")


def _level_cells(train_series: TimeSeries, test_series: TimeSeries, grid: GridConfig,
                 p: int, widths) -> list:
    """The records of the cells (p, h) for each h of ``widths``, one task
    of ``_chunk_schedule``, run in the sweeping process or a pool worker,
    on ``evaluate_cell``'s path: the widths share one ``_cell_windows``,
    ``mlp._restart_searches`` trains all their restarts in one call, and
    ``_cell_records`` scores the winners together."""
    started = time.perf_counter()
    try:
        windows = _cell_windows(train_series, test_series, p, grid.scale)
    except DataError as exc:
        return [CellFailure(p=p, h=h, error=str(exc)) for h in widths]
    outcomes = _restart_searches([Architecture(p, h) for h in widths], windows[1],
                                 grid.train_cfg)
    return _cell_records(train_series, test_series, grid, windows, widths, outcomes, started)


# the sweep of the pool this worker process serves, set once at its start
_worker_sweep = None


def _start_worker(sweep):
    global _worker_sweep
    _worker_sweep = sweep


def _worker_task(task) -> list:
    return _level_cells(*_worker_sweep, *task)


def _chunk_schedule(grid: GridConfig, workers: int) -> list:
    """The tasks of a sweep on ``workers`` processes, serial at 1, in
    (p, h) order: each a (p, widths) piece of one input level.

    A piece takes 1/workers of the cells scheduled before it or of the
    cells left, whichever is fewer, at least one, but ends at the end of
    its level. So the first pieces are single cells that double in size
    (a failing sink, callback or worker stops the sweep after a few cells),
    the middle of a large grid runs as whole input levels, whose cells
    share their windows and scoring in one task, and on a pool the last
    pieces shrink back to single cells, so the workers finish close
    together. At one worker, from the second level on, both counts are at
    least a level, so every level after the first runs whole.
    """
    tasks, done = [], 0
    for p in grid.input_levels:
        widths = grid.hidden_levels
        while widths:
            size = min(len(widths), max(1, min(done, grid.cell_count - done) // workers))
            tasks.append((p, widths[:size]))
            widths, done = widths[size:], done + size
    return tasks


def run_grid(train_series: TimeSeries, test_series: TimeSeries, grid: GridConfig,
             workers: int = 1, sink=None, progress=None) -> GridReport:
    """Evaluate every (p, h) cell of the grid and assemble the report.

    The grid runs as the tasks of ``_chunk_schedule(grid, workers)``, each
    a (p, widths) piece of one input level that ``_level_cells`` runs:
    single cells that grow to whole levels (and, on a pool, shrink back to
    single cells at the end of the grid). At one worker the tasks run in
    this process; otherwise on a process pool of at most one process per
    task, to each of which the sweep inputs (both series and the grid) go
    once, when it starts, so each task carries only its (p, widths) pair.
    Within a task the cells share their windows, training and scoring, on
    the path that ``evaluate_cell`` takes for one cell; a cell's
    ``train_seconds`` is its share, by hidden rows (h + 1), of the task's
    wall time. Blocking only saves numpy calls: every network gets the bits
    that ``train`` gives it alone, every cell the metrics that scoring it
    alone gives, and restart seeds depend only on (master_seed, p, h,
    restart), so the output is identical at any worker count and equals
    ``evaluate_cell`` cell by cell.

    Results are read back in (p, h) order: a cell's record goes to ``sink``
    and ``progress`` once its task and every task before it are done, so
    the first record of any sweep comes after one cell. With ``sink`` set,
    an interrupted sweep leaves a valid prefix.

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

    sweep = (train_series, test_series, grid)
    tasks = _chunk_schedule(grid, workers)
    pool = None
    if workers == 1:
        pieces = (_level_cells(*sweep, *task) for task in tasks)
    else:
        # imported here, so that a serial sweep or a CLI command without a
        # pool does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                   initializer=_start_worker, initargs=(sweep,))
        pieces = pool.map(_worker_task, tasks)
    items = []
    try:
        for item in chain.from_iterable(pieces):
            items.append(item)
            if writer is not None:
                writer.record(item)
            if progress is not None:
                progress(len(items), grid.cell_count, item)
    finally:
        # a failing sink, callback or worker ends the sweep after the tasks
        # already running, not after every queued task
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    cells = [v for v in items if isinstance(v, CellResult)]
    failures = [v for v in items if isinstance(v, CellFailure)]
    return GridReport(cells, failures, rw_rows, grid,
                      train_series.name, len(train_series), len(test_series))


# ---------------------------------------------------------------------------
# report persistence: versioned line-delimited JSON records
# ---------------------------------------------------------------------------


def _row_to_json(row: MetricRow) -> dict:
    return {"rmse": row.rmse, "mae": row.mae, "mape": row.mape}


def _row_from_json(obj) -> MetricRow:
    return MetricRow(obj["rmse"], obj["mae"], obj["mape"])


def _labelled_rows_to_json(rows) -> list:
    return [[label, _row_to_json(row)] for label, row in rows]


def _config_to_json(config: GridConfig) -> dict:
    cfg = config.train_cfg
    return {
        "input_levels": list(config.input_levels),
        "hidden_levels": list(config.hidden_levels),
        "train_cfg": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
        "horizons": [[label, length] for label, length in config.horizon_spec.windows],
        "scale": config.scale,
    }


def _config_from_json(obj, version: int) -> GridConfig:
    """The GridConfig of a header of ``version``; the config classes check
    each value."""
    train_cfg = _typed(obj["train_cfg"], (dict,), "train_cfg")
    kind = _REPORT_VERSIONS[version]
    names = sorted(f.name for f in fields(kind))
    if sorted(train_cfg) != names:  # a field left out would take its default
        raise ReportFormatError(f"train_cfg fields {sorted(train_cfg)} are not {names}")
    return GridConfig(
        input_levels=obj["input_levels"],
        hidden_levels=obj["hidden_levels"],
        train_cfg=kind(**train_cfg),
        horizon_spec=HorizonSpec(obj["horizons"]),
        scale=obj["scale"],
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
        version = {kind: v for v, kind in _REPORT_VERSIONS.items()}[type(config.train_cfg)]
        self._line(
            {
                "format": _REPORT_FORMAT,
                "version": version,
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
    """Write a whole report (``_cell_map``) in the streaming line format, to
    a path or a text stream, in (p, h) order, under the version whose header
    holds its ``train_cfg``: 2, or 1 for a GdTrainConfig. Raises the
    DataError of a report that is not whole before it opens ``sink``."""
    records = _cell_map(report).values()
    with _opened(sink, "w") as handle:
        writer = _ReportWriter(handle)
        writer.header(report.config, report.series_name, report.train_len, report.test_len)
        writer.random_walk(report.random_walk_rows)
        for item in records:
            writer.record(item)


def _place(placed: dict, record):
    """Put a cell record at its (p, h) in ``placed``, whose keys are the
    cells of a grid and whose values are None until a record is placed:
    DataError if the cell is off the grid or already has a record."""
    key = record.p, record.h
    if key not in placed:
        raise DataError(f"cell record {key} is off the header's grid")
    if placed[key] is not None:
        raise DataError(f"duplicate cell record {key}")
    placed[key] = record


def _cell_map(report: GridReport) -> dict:
    """{(p, h): CellResult or CellFailure} over the report's whole grid, in
    (p, h) order, which ``save_report`` and ``render_table`` need. Raises
    DataError naming the first off-grid or repeated record (in the order of
    the cells, then the failures), or what ``_whole`` raises."""
    placed = dict.fromkeys(product(report.config.input_levels, report.config.hidden_levels))
    for record in chain(report.cells, report.failures):
        _place(placed, record)
    return _whole(report, placed)


def _whole(report: GridReport, placed: dict) -> dict:
    """``placed``, the map of ``report``'s records that ``_place`` built, if
    the report is whole: the one rule of a whole report, which
    ``save_report``, ``load_report`` and ``render_table`` apply. Raises
    DataError naming the missing random-walk rows or the first cell without
    a record."""
    if not report.random_walk_rows:
        raise DataError("missing random_walk record")
    missing = next((key for key, record in placed.items() if record is None), None)
    if missing is not None:
        raise DataError(f"truncated report: no record of cell {missing}")
    return placed


def _read_report(source) -> tuple:
    """(report, map) of a file as save_report / run_grid write it, or of a
    prefix of one: the partial report, whose random-walk rows are empty if
    the file has none and which holds the cell records the file holds, and
    its {(p, h): record or None} map over the header's grid (``_place``).

    Raises ReportVersionError for an unsupported version tag and
    ReportFormatError, naming the header or the line, for a corrupt payload:
    a line that is not a record, a value its record rejects, a master seed
    unlike train_cfg's, a cell off the header's grid or repeated
    (``_place``), and metric rows whose horizon labels differ from the
    header's. It does not check that the records cover the grid.
    """
    text = _read_text(source, "report file")
    lines = [(number, line) for number, line in enumerate(text.split("\n"), start=1)
             if line and not line.isspace()]  # numbered as in the file, blank lines too
    if not lines:
        raise ReportFormatError("empty report file")
    header = _json_object(lines[0][1], "report header")
    version = _check_tag(header, _REPORT_FORMAT, _REPORT_VERSIONS, "grid report")
    try:
        config = _config_from_json(header["config"], version)
        if _typed(header["master_seed"], (int,), "master_seed") != config.train_cfg.master_seed:
            raise ReportFormatError(f"master_seed {header['master_seed']} differs from "
                                    f"train_cfg's {config.train_cfg.master_seed}")
        report = GridReport((), (), (), config, header["series"], header["train_len"],
                            header["test_len"])
    except _BUILD_ERRORS as exc:
        raise _corrupt("report header", exc) from None

    def horizon_rows(obj):
        rows = tuple([(label, _row_from_json(row)) for label, row in obj])
        _check_rows(rows, config.horizon_spec.labels)
        return rows

    rw_rows = ()
    placed = dict.fromkeys(product(config.input_levels, config.hidden_levels))
    for line, text in lines[1:]:
        obj = _json_object(text, line)
        kind = obj.get("type")
        try:
            if kind == "random_walk":
                if rw_rows:
                    raise ReportFormatError("duplicate random_walk record")
                rw_rows = horizon_rows(obj["rows"])
            elif kind == "cell":
                _place(placed, CellResult(obj["p"], obj["h"], _row_from_json(obj["in_sample"]),
                                          horizon_rows(obj["out_sample"]), obj["best_sse"]))
            elif kind == "failure":
                _place(placed, CellFailure(obj["p"], obj["h"], obj["error"]))
            else:
                raise ReportFormatError(f"unknown record type {kind!r}")
        except _BUILD_ERRORS as exc:
            raise _corrupt(line, exc) from None
    # each record passed GridReport's checks on its line, and the map holds
    # them in (p, h) order: hand them to the header's report once, not
    # through a second pass of those checks
    for name, kind in (("cells", CellResult), ("failures", CellFailure)):
        object.__setattr__(report, name, tuple(r for r in placed.values() if isinstance(r, kind)))
    object.__setattr__(report, "random_walk_rows", rw_rows)
    return report, placed


def load_report(source) -> GridReport:
    """Read a whole report (``_whole``) written by save_report / run_grid,
    from a path or a text stream, of any version that fxcast wrote: a
    version 1 report's ``train_cfg`` is a GdTrainConfig. Raises what
    ``_read_report`` raises, and ReportFormatError for a report that lacks
    its random-walk record or a cell of its grid."""
    report, placed = _read_report(source)
    try:
        _whole(report, placed)
    except DataError as exc:
        raise ReportFormatError(str(exc)) from None
    return report


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


def _lead_format(widths) -> str:
    """The %-format of text columns, each left-justified to its width."""
    return "".join(f"%-{w}s" for w in widths)


def _metric_format(widths) -> str:
    """The %-format of RMSE, MAE and MAPE at 8 decimals in columns of
    ``widths``, each left-justified to its width but the last, which ends
    the line. A column ends in a space even when its value overflows it, so
    a too-wide value pushes the next one right instead of running into it."""
    return "".join(f"%-{w - 1}.8f " for w in widths[:-1]) + "%.8f"


def render_table(report: GridReport, which: str) -> str:
    """Render one view of a whole report (``_cell_map``) as fixed-format
    text, 8 decimals per metric.

    Views: ``in_sample`` (one row per cell plus an Avgr row per input
    level), ``out_sample_by_input`` (hidden-averaged rows per input level
    and horizon, ending with the RW benchmark row), and ``hidden_effect``
    (per-cell out-of-sample rows per horizon). The averages are computed
    here, from the cells a view prints them for; a report holds none.
    Raises DataError for an unknown view or a report that is not whole.
    """
    if which not in _LAYOUTS:
        raise DataError(f"unknown view {which!r}; expected one of {_VIEWS}")
    records = list(_cell_map(report).values())
    lead, widths, averaged = _LAYOUTS[which]
    per_cell = "Hidden" in lead  # a row per (p, h) cell
    labels = (None,) if which == "in_sample" else report.config.horizon_spec.labels
    lead_format = _lead_format(widths[:len(lead)])
    metric_format = _metric_format(widths[len(lead):])
    width = len(report.config.hidden_levels)
    # the records of each input level, a run of the (p, h)-ordered map
    levels = [(p, records[start:start + width])
              for p, start in zip(report.config.input_levels, range(0, len(records), width))]
    input_columns, hidden_columns = {}, []
    if per_cell:
        # a cell row leads with its input level's columns, then its Hidden
        # column, each formatted once for all blocks
        sample = (f"N={report.train_len}",) if "Sample" in lead else ()
        input_format = _lead_format(widths[:len(lead) - 1])
        input_columns = {p: input_format % (*sample, p) for p in report.config.input_levels}
        hidden_columns = [_lead_format(widths[len(lead) - 1:len(lead)]) % h
                          for h in report.config.hidden_levels]
    lines = []

    def row(lead_text, item):
        lines.append((lead_text + f"FAILED: {item}").rstrip() if isinstance(item, str)
                     else lead_text + metric_format % (item.rmse, item.mae, item.mape))

    for index, label in enumerate(labels):
        suffix = "" if label is None else f"({label})"
        if lines:
            lines.append("")
        headings = (*lead, *(m + suffix for m in ("RMSE", "MAE", "MAPE")))
        lines.append((_lead_format(widths) % headings).rstrip())
        for p, level in levels:
            # each cell's row under label, by the label's position, or its error
            items = [r.error if isinstance(r, CellFailure) else
                     r.in_sample if label is None else r.out_sample[index][1] for r in level]
            for hidden_column, item in zip(hidden_columns, items):
                row(input_columns[p] + hidden_column, item)
            if not averaged:
                continue
            level_rows = [item for item in items if not isinstance(item, str)]
            # a per-cell view has already shown why an input level has no average
            if level_rows or not per_cell:
                row(lead_format % (("Avgr", "") if per_cell else (p,)),
                    _mean_row(level_rows) if level_rows else "no surviving cells")
        if averaged and label is not None:
            row(lead_format % ("RW",), report.random_walk_rows[index][1])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# synthetic benchmark series
# ---------------------------------------------------------------------------

def _logistic_map(n, seed, *, r, x0):
    """x[t+1] = r * x[t] * (1 - x[t]), from x[0] = x0."""
    if r <= 0.0:
        raise DataError("logistic_map requires r > 0")
    if not 0.0 < x0 < 1.0:
        raise DataError("logistic_map requires x0 in (0, 1)")
    values = np.empty(n)
    values[0] = x0
    for t in range(n - 1):
        values[t + 1] = r * values[t] * (1.0 - values[t])
    return values


def _noisy_ar1(n, seed, *, phi, sigma, y0):
    """y[t+1] = phi * y[t] + e[t], e ~ uniform(-sigma, sigma), from y[0] = y0."""
    # the noise is drawn from a range 2 * sigma wide
    if not 0.0 <= 2.0 * sigma < np.inf:
        raise DataError("noisy_ar1 requires 0 <= 2 * sigma < inf")
    rng = np.random.default_rng(int(seed) & ((1 << 64) - 1))
    noise = rng.uniform(-sigma, sigma, size=n - 1)
    values = np.empty(n)
    values[0] = y0
    for t in range(n - 1):
        values[t + 1] = phi * values[t] + noise[t]
    return values


def _sine(n, seed, *, omega):
    """y[t] = sin(omega * t)."""
    return np.sin(omega * np.arange(n, dtype=float))


# kind: (generator, {parameter: (default, description)}); the one place
# where a kind and its parameters are declared
_SYNTH = {
    "logistic_map": (_logistic_map, {"r": (4.0, "growth rate"), "x0": (0.3, "start value")}),
    "noisy_ar1": (_noisy_ar1, {"phi": (0.8, "AR(1) coefficient"),
                               "sigma": (0.1, "noise half-width"),
                               "y0": (0.0, "start value")}),
    "sine": (_sine, {"omega": (0.1, "angular step")}),
}
_SYNTH_KINDS = tuple(_SYNTH)


def synthesize_series(kind: str, n: int, seed: int = 0, **params) -> TimeSeries:
    """A benchmark series of ``kind`` with weekly dates from a fixed epoch.
    ``_SYNTH`` gives each kind's parameters and defaults; given values go
    through ``float()``. Only ``noisy_ar1`` uses ``seed``. Values that
    overflow are a DataError, with no numpy warning."""
    if not 2 <= n <= _SYNTH_MAX_N:
        raise DataError(f"synthetic series length must be 2 to {_SYNTH_MAX_N}, the weekly "
                        f"dates from {_SYNTH_EPOCH} to {datetime.date.max}")
    if kind not in _SYNTH:
        raise DataError(f"unknown series kind {kind!r}; expected one of {_SYNTH_KINDS}")
    generate, defaults = _SYNTH[kind]
    unknown = set(params) - set(defaults)
    if unknown:
        raise DataError(f"invalid {kind} parameters: {sorted(unknown)}")
    params = {name: float(params.get(name, default)) for name, (default, _) in defaults.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        values = generate(n, seed, **params)
    dates = tuple(_SYNTH_EPOCH + datetime.timedelta(weeks=i) for i in range(n))
    return TimeSeries(dates=dates, values=values, name=kind)
