"""Three-layer perceptron: forward pass, SSE objective, analytic gradient,
full-batch gradient-descent training, and best-of-K restart search."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DivergenceError,
    ReportFormatError,
    ReportVersionError,
)
from .series import WindowedDataset, _frozen_array

_SEED_MASK = (1 << 64) - 1


def _sigmoid_inplace(z: np.ndarray) -> np.ndarray:
    """Apply the logistic function to the float array ``z``, overwriting it.

    The exp overflows for very negative z, and 1/(1+inf) -> 0 is exactly the
    right limit; callers run this under ``np.errstate(over="ignore")``, which
    costs too much to enter per epoch.
    """
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


@dataclass(frozen=True)
class Architecture:
    """Shape of the network: p inputs, h sigmoid hidden units, one linear output."""

    input_count: int
    hidden_count: int

    def __post_init__(self):
        if self.input_count < 1:
            raise DataError("input_count must be at least 1")
        if self.hidden_count < 1:
            raise DataError("hidden_count must be at least 1")


@dataclass(frozen=True, eq=False)
class Mlp:
    """Fully connected three-layer network: weights and biases per layer."""

    arch: Architecture
    hidden_weights: np.ndarray  # (h, p)
    hidden_biases: np.ndarray  # (h,)
    output_weights: np.ndarray  # (h,)
    output_bias: float

    def __post_init__(self):
        object.__setattr__(self, "hidden_weights", _frozen_array(self.hidden_weights))
        object.__setattr__(self, "hidden_biases", _frozen_array(self.hidden_biases))
        object.__setattr__(self, "output_weights", _frozen_array(self.output_weights))
        object.__setattr__(self, "output_bias", float(self.output_bias))
        p, h = self.arch.input_count, self.arch.hidden_count
        if self.hidden_weights.shape != (h, p):
            raise DataError(f"hidden_weights must have shape {(h, p)}")
        if self.hidden_biases.shape != (h,):
            raise DataError(f"hidden_biases must have shape {(h,)}")
        if self.output_weights.shape != (h,):
            raise DataError(f"output_weights must have shape {(h,)}")
        for arr in (self.hidden_weights, self.hidden_biases, self.output_weights):
            if not np.all(np.isfinite(arr)):
                raise DataError("network parameters must be finite")
        if not np.isfinite(self.output_bias):
            raise DataError("network parameters must be finite")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mlp):
            return NotImplemented
        return (
            self.arch == other.arch
            and np.array_equal(self.hidden_weights, other.hidden_weights)
            and np.array_equal(self.hidden_biases, other.hidden_biases)
            and np.array_equal(self.output_weights, other.output_weights)
            and self.output_bias == other.output_bias
        )


@dataclass(frozen=True, eq=False)
class Gradient:
    """Partial derivatives of the SSE, shaped like the network parameters."""

    hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    output_bias: float


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for gradient-descent training and the restart search.

    The learning rate multiplies the gradient of the summed (not averaged)
    SSE, so stable values shrink with pattern count; the default is sized
    for a few hundred to ~1000 patterns of [0, 1]-scaled data.
    """

    learning_rate: float = 1e-4
    max_epochs: int = 2000
    min_sse_delta: float = 1e-10
    restarts: int = 50
    init_half_width: float = 0.5
    master_seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise DataError("learning_rate must be positive")
        if self.max_epochs < 1:
            raise DataError("max_epochs must be at least 1")
        if self.min_sse_delta < 0.0:
            raise DataError("min_sse_delta must be nonnegative")
        if self.restarts < 1:
            raise DataError("restarts must be at least 1")
        if not self.init_half_width > 0.0:
            raise DataError("init_half_width must be positive")


@dataclass(frozen=True, eq=False)
class TrainRun:
    """Outcome of a single gradient-descent run."""

    net: Mlp
    sse: float
    sse_trace: np.ndarray  # SSE after each completed epoch
    diverged: bool

    def __post_init__(self):
        object.__setattr__(self, "sse_trace", _frozen_array(self.sse_trace))

    @property
    def epochs_run(self) -> int:
        return len(self.sse_trace)


@dataclass(frozen=True, eq=False)
class TrainResult:
    """Best restart of a multi-restart search."""

    best_net: Mlp
    best_sse: float
    best_restart_index: int
    epochs_run: int
    sse_trace: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sse_trace", _frozen_array(self.sse_trace))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrainResult):
            return NotImplemented
        return (
            self.best_net == other.best_net
            and self.best_sse == other.best_sse
            and self.best_restart_index == other.best_restart_index
            and self.epochs_run == other.epochs_run
            and np.array_equal(self.sse_trace, other.sse_trace)
        )


def restart_seed(master_seed: int, p: int, h: int, restart_index: int) -> int:
    """64-bit seed for one restart, mixed from the run coordinates.

    Depends only on (master_seed, p, h, restart_index), so results cannot
    change with grid scheduling or worker count.
    """
    seq = np.random.SeedSequence(
        entropy=int(master_seed) & _SEED_MASK, spawn_key=(p, h, restart_index)
    )
    return int(seq.generate_state(1, np.uint64)[0])


def init_weights(arch: Architecture, seed: int, half_width: float) -> Mlp:
    """Draw every parameter independently from uniform(-half_width, +half_width).

    Draw order is fixed: hidden_weights (row-major), hidden_biases,
    output_weights, output_bias. The same seed reproduces the network bit
    for bit.
    """
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    p, h = arch.input_count, arch.hidden_count
    return Mlp(
        arch=arch,
        hidden_weights=rng.uniform(-half_width, half_width, size=(h, p)),
        hidden_biases=rng.uniform(-half_width, half_width, size=h),
        output_weights=rng.uniform(-half_width, half_width, size=h),
        output_bias=float(rng.uniform(-half_width, half_width)),
    )


def _check_window(net: Mlp, data: WindowedDataset):
    if data.window_len != net.arch.input_count:
        raise DataError(
            f"dataset window length {data.window_len} does not match "
            f"network input count {net.arch.input_count}"
        )


def _with_ones_row(rows: int, n: int) -> np.ndarray:
    """An uninitialised (rows + 1, n) array whose last row is ones.

    The ones row is the constant input that a layer's bias weight multiplies,
    so each layer's affine map is one matrix product.
    """
    buf = np.empty((rows + 1, n))
    buf[rows] = 1.0
    return buf


def _forward(w1, w2, inputs_t, hidden, out):
    """Network outputs for the (p + 1, n) transposed, ones-extended inputs.

    ``w1`` is (h, p + 1) with the hidden biases in its last column and ``w2``
    is (h + 1,) with the output bias last. Writes the hidden activations into
    the first h rows of the (h + 1, n) ``hidden``, whose last row is ones, and
    the n outputs into ``out``, which it returns. Training and prediction
    share this one routine, so a trained network's SSE and the SSE
    recomputed from its predictions round identically.
    """
    units = hidden[:-1]
    np.dot(w1, inputs_t, out=units)
    _sigmoid_inplace(units)
    return np.dot(w2, hidden, out=out)


def predict(net: Mlp, inputs) -> np.ndarray:
    """Network outputs for a matrix of input patterns, one row per pattern."""
    x = np.asarray(inputs, dtype=float)
    p, h = net.arch.input_count, net.arch.hidden_count
    if x.ndim != 2 or x.shape[1] != p:
        raise DataError(f"input matrix shape {x.shape} does not match (n, {p})")
    n = x.shape[0]
    inputs_t = _with_ones_row(p, n)
    inputs_t[:p] = x.T
    params = _Params.of(net)
    with np.errstate(over="ignore"):
        return _forward(params.w1, params.w2, inputs_t, _with_ones_row(h, n), np.empty(n))


def forward(net: Mlp, input) -> float:
    """Network output for a single input pattern of length p."""
    x = np.asarray(input, dtype=float)
    if x.shape != (net.arch.input_count,):
        raise DataError(
            f"input shape {x.shape} does not match ({net.arch.input_count},)"
        )
    return float(predict(net, x[None, :])[0])


def sse(net: Mlp, data: WindowedDataset) -> float:
    """Sum of squared errors of the network over all patterns."""
    _check_window(net, data)
    resid = data.targets - predict(net, data.inputs)
    return float(resid @ resid)


class _Params:
    """Views of one flat parameter vector.

    The layout is w1 as an (h, p + 1) row-major matrix, each hidden unit's p
    weights followed by its bias, then the h output weights and the output
    bias. Training updates the whole vector with one elementwise expression,
    and the kernel reads and writes the layers through these fixed views.
    """

    __slots__ = ("flat", "w1", "w2", "w2_col")

    def __init__(self, flat: np.ndarray, p: int, h: int):
        split = h * (p + 1)
        self.flat = flat
        self.w1 = flat[:split].reshape(h, p + 1)
        self.w2 = flat[split:]
        self.w2_col = self.w2[:h, None]

    @classmethod
    def of(cls, net: Mlp) -> "_Params":
        p, h = net.arch.input_count, net.arch.hidden_count
        params = cls(np.empty(h * (p + 1) + h + 1), p, h)
        params.w1[:, :p] = net.hidden_weights
        params.w1[:, p] = net.hidden_biases
        params.w2[:h] = net.output_weights
        params.w2[h] = net.output_bias
        return params

    def layers(self):
        """Copies of (hidden weights, hidden biases, output weights, output bias)."""
        return (self.w1[:, :-1].copy(), self.w1[:, -1].copy(), self.w2[:-1].copy(),
                float(self.w2[-1]))


class _Workspace:
    """The transposed training inputs plus preallocated intermediates.

    Reallocating the (h, n) temporaries every epoch costs ~3x the arithmetic
    itself (large blocks come straight from mmap and fault in each time), so
    the training loop owns one workspace and every evaluation writes into it.
    """

    def __init__(self, data: WindowedDataset, h: int):
        n, p = data.inputs.shape
        self.inputs_t = _with_ones_row(p, n)
        self.inputs_t[:p] = data.inputs.T
        self.targets = data.targets
        self.hidden = _with_ones_row(h, n)
        self.units = self.hidden[:h]
        self.out = np.empty(n)
        self.delta = np.empty(n)
        self.scaled_t = np.empty((p + 1, n))
        self.slope = np.empty((h, n))
        self.grad = _Params(np.empty(h * (p + 1) + h + 1), p, h)


def _sse_and_gradient(params: _Params, work: _Workspace) -> float:
    """Fused objective and gradient at ``params``.

    Returns the SSE and leaves the gradient in ``work.grad``; the caller must
    consume it before the next evaluation against the same workspace.

    With d the output deltas and S the hidden slopes, the hidden-layer
    gradient is w2_j * sum_n S[j, n] * d[n] * x[n]: d scales the (p + 1, n)
    inputs rather than the (h, n) slopes, and w2 scales the (h, p + 1)
    product, so no (h, n) outer product is formed.
    """
    out = _forward(params.w1, params.w2, work.inputs_t, work.hidden, work.out)
    delta = np.subtract(out, work.targets, out=work.delta)
    total = float(delta @ delta)
    delta *= 2.0  # the linear output's slope is 1
    grad = work.grad
    np.dot(work.hidden, delta, out=grad.w2)
    np.multiply(work.inputs_t, delta, out=work.scaled_t)
    # the sigmoid's slope a(1 - a), from the hidden activations a
    slope = np.multiply(work.units, work.units, out=work.slope)
    np.subtract(work.units, slope, out=slope)
    np.dot(slope, work.scaled_t.T, out=grad.w1)
    grad.w1 *= params.w2_col
    return total


def gradient(net: Mlp, data: WindowedDataset) -> Gradient:
    """Exact partial derivatives of sse(net, data), summed over patterns."""
    _check_window(net, data)
    work = _Workspace(data, net.arch.hidden_count)
    with np.errstate(over="ignore"):
        _sse_and_gradient(_Params.of(net), work)
    return Gradient(*work.grad.layers())


def train(net0: Mlp, data: WindowedDataset, cfg: TrainConfig) -> TrainRun:
    """Full-batch gradient descent from ``net0``.

    Each epoch applies params <- params - learning_rate * gradient, stopping
    early once an epoch's SSE improvement is nonnegative and below
    ``min_sse_delta``. A worsening epoch never stops the run: brief
    overshoot oscillations are normal at workable learning rates, and only
    a vanishing improvement signals convergence. If any parameter or the
    SSE turns non-finite, the run aborts and returns the last finite state
    with ``diverged`` set; the caller decides whether to discard it.
    """
    _check_window(net0, data)
    p, h = net0.arch.input_count, net0.arch.hidden_count
    lr = cfg.learning_rate
    min_delta = cfg.min_sse_delta

    work = _Workspace(data, h)
    params = _Params.of(net0)
    trial = _Params(np.empty_like(params.flat), p, h)
    step = np.empty_like(params.flat)
    finite = np.empty(params.flat.shape, dtype=bool)
    trace: list[float] = []
    diverged = False
    # blow-ups surface as non-finite values and are handled explicitly below,
    # so the numpy overflow warnings on a diverging run are pure noise
    with np.errstate(over="ignore", invalid="ignore"):
        sse_prev = _sse_and_gradient(params, work)
        for _ in range(cfg.max_epochs):
            np.multiply(work.grad.flat, lr, out=step)
            np.subtract(params.flat, step, out=trial.flat)
            if not np.isfinite(trial.flat, out=finite).all():
                diverged = True
                break
            sse_new = _sse_and_gradient(trial, work)
            if not math.isfinite(sse_new):
                diverged = True
                break
            params, trial = trial, params
            trace.append(sse_new)
            improvement = sse_prev - sse_new
            sse_prev = sse_new
            if 0.0 <= improvement < min_delta:
                break

    return TrainRun(
        net=Mlp(net0.arch, *params.layers()), sse=sse_prev, sse_trace=np.array(trace),
        diverged=diverged,
    )


def train_multi_restart(
    arch: Architecture, data: WindowedDataset, cfg: TrainConfig
) -> TrainResult:
    """Best of ``cfg.restarts`` independent trainings from seeded random inits.

    Restart k starts from init_weights seeded by
    restart_seed(master_seed, p, h, k). Diverged restarts are discarded; the
    winner is the minimum final SSE, ties broken by lowest restart index.
    """
    best: TrainRun | None = None
    best_index = -1
    for index in range(cfg.restarts):
        seed = restart_seed(
            cfg.master_seed, arch.input_count, arch.hidden_count, index
        )
        net0 = init_weights(arch, seed, cfg.init_half_width)
        run = train(net0, data, cfg)
        if run.diverged:
            continue
        if best is None or run.sse < best.sse:
            best = run
            best_index = index
    if best is None:
        raise DivergenceError(f"all {cfg.restarts} restarts diverged")
    return TrainResult(
        best_net=best.net,
        best_sse=best.sse,
        best_restart_index=best_index,
        epochs_run=best.epochs_run,
        sse_trace=best.sse_trace,
    )


_MODEL_FORMAT = "fxcast-mlp"
_MODEL_VERSION = 1
# the one network shape, recorded so that a model file says what it holds
_MODEL_ACTIVATIONS = {"hidden_activation": "sigmoid", "output_activation": "pure_linear"}


def save_model(net: Mlp, sink):
    """Serialize a network as one JSON record, full decimal precision.

    Field order: architecture (p, h, activation kinds), then parameters as
    hidden_weights rows, hidden_biases, output_weights, output_bias.
    """
    record = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "p": net.arch.input_count,
        "h": net.arch.hidden_count,
        **_MODEL_ACTIVATIONS,
        "hidden_weights": net.hidden_weights.tolist(),
        "hidden_biases": net.hidden_biases.tolist(),
        "output_weights": net.output_weights.tolist(),
        "output_bias": net.output_bias,
    }
    text = json.dumps(record) + "\n"
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    else:
        sink.write(text)


def load_model(source) -> Mlp:
    """Load a network saved by save_model."""
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source.read()
        record = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReportFormatError(f"corrupt model file: {exc}") from None
    if not isinstance(record, dict) or record.get("format") != _MODEL_FORMAT:
        raise ReportFormatError("not a model file")
    if record.get("version") != _MODEL_VERSION:
        raise ReportVersionError(
            f"unsupported model version {record.get('version')!r}"
        )
    for key, kind in _MODEL_ACTIVATIONS.items():
        if record.get(key) != kind:
            raise ReportFormatError(
                f"unsupported {key} {record.get(key)!r}, expected {kind!r}"
            )
    try:
        return Mlp(
            arch=Architecture(input_count=record["p"], hidden_count=record["h"]),
            hidden_weights=np.array(record["hidden_weights"], dtype=float),
            hidden_biases=np.array(record["hidden_biases"], dtype=float),
            output_weights=np.array(record["output_weights"], dtype=float),
            output_bias=record["output_bias"],
        )
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise ReportFormatError(f"corrupt model file: {exc}") from None
