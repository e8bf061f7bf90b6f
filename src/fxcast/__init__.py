"""Sliding-window MLP forecasting of univariate series.

The package trains three-layer perceptrons on lagged observations by
multi-restart full-batch iRprop− on the SSE, evaluates them in and out of sample
under RMSE/MAE/MAPE across horizon windows, and benchmarks every sweep
against the naive random walk.
"""

from .errors import (
    DataError,
    DivergenceError,
    FxcastError,
    ParseError,
    ReportFormatError,
    ReportVersionError,
)
from .experiment import (
    CellFailure,
    CellResult,
    GdTrainConfig,
    GridConfig,
    GridReport,
    evaluate_cell,
    load_report,
    random_walk_rows,
    render_table,
    run_grid,
    save_report,
    synthesize_series,
)
from .metrics import (
    ForecastSet,
    HorizonSpec,
    MetricRow,
    evaluate_horizons,
    mae,
    mape,
    random_walk,
    rmse,
)
from .mlp import (
    Architecture,
    Gradient,
    Mlp,
    TrainConfig,
    TrainResult,
    TrainRun,
    gradient,
    init_weights,
    load_model,
    predict,
    restart_seed,
    save_model,
    sse,
    train,
    train_multi_restart,
)
from .series import (
    ColumnFormat,
    Scaler,
    TimeSeries,
    WindowedDataset,
    fit_scaler,
    make_windows,
    parse_series,
    split_by_count,
)

__version__ = "0.1.0"
