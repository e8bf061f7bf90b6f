"""Three-layer perceptron: forward pass, SSE objective, analytic gradient,
full-batch gradient-descent training, and best-of-K restart search."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    _BUILD_ERRORS,
    DataError,
    DivergenceError,
    _check_tag,
    _corrupt,
    _integer,
    _json_object,
    _opened,
    _read_text,
    _real,
    _typed,
)
from .series import WindowedDataset, _Record

_SEED_MASK = (1 << 64) - 1


def _sigmoid(neg_z: np.ndarray) -> np.ndarray:
    """Overwrite ``neg_z``, the negated pre-activations -z, with the logistic
    function of z, 1/(1 + exp(-z)), in place.

    The block's inputs are stored negated (``_Block``), so the hidden
    products give -z and no pass negates them; negation rounds exactly, so
    these are the bits of the logistic of z. The exp overflows for very
    negative z, and 1/(1+inf) -> 0 is exactly the right limit; callers run
    this under ``np.errstate(over="ignore")``, which costs too much to enter
    per epoch.
    """
    np.exp(neg_z, out=neg_z)
    neg_z += 1.0
    return np.reciprocal(neg_z, out=neg_z)


@dataclass(frozen=True)
class Architecture:
    """Shape of the network: p inputs, h sigmoid hidden units, one linear output."""

    input_count: int
    hidden_count: int

    def __post_init__(self):
        for name in ("input_count", "hidden_count"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be at least 1")


@dataclass(frozen=True, eq=False)
class Mlp(_Record):
    """Fully connected three-layer network: weights and biases per layer."""

    arch: Architecture
    hidden_weights: np.ndarray  # (h, p)
    hidden_biases: np.ndarray  # (h,)
    output_weights: np.ndarray  # (h,)
    output_bias: float
    _arrays = ("hidden_weights", "hidden_biases", "output_weights")

    def __post_init__(self):
        super().__post_init__()
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


@dataclass(frozen=True, eq=False)
class Gradient(_Record):
    """Partial derivatives of the SSE, shaped like the network parameters."""

    hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    output_bias: float
    _arrays = ("hidden_weights", "hidden_biases", "output_weights")


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
        # stored as Python ints and floats, so numpy scalars serialize
        for f in fields(self):
            check = _integer if type(f.default) is int else _real
            object.__setattr__(self, f.name, check(getattr(self, f.name), f.name))
        # written as comparisons, so that nan fails them
        if not 0.0 < self.learning_rate < math.inf:
            raise DataError(f"learning_rate {self.learning_rate!r} is not positive and finite")
        if self.max_epochs < 1:
            raise DataError("max_epochs must be at least 1")
        if not 0.0 <= self.min_sse_delta < math.inf:
            raise DataError(f"min_sse_delta {self.min_sse_delta!r} is not nonnegative and finite")
        if self.restarts < 1:
            raise DataError("restarts must be at least 1")
        # the weights are drawn from a range 2 * init_half_width wide
        if not 0.0 < 2.0 * self.init_half_width < math.inf:
            raise DataError(f"init_half_width {self.init_half_width!r} is not positive "
                            "with a finite draw range 2 * init_half_width")


@dataclass(frozen=True, eq=False)
class TrainRun(_Record):
    """Outcome of a single gradient-descent run."""

    net: Mlp
    sse: float
    sse_trace: np.ndarray  # SSE after each completed epoch
    diverged: bool
    ran_away: bool = False  # finite, but ended above the SSE it started from
    _arrays = ("sse_trace",)

    @property
    def epochs_run(self) -> int:
        return len(self.sse_trace)


@dataclass(frozen=True, eq=False)
class TrainResult(_Record):
    """Best restart of a multi-restart search."""

    best_net: Mlp
    best_sse: float
    best_restart_index: int
    epochs_run: int
    sse_trace: np.ndarray
    _arrays = ("sse_trace",)


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


def _empty(*shape) -> np.ndarray:
    """An uninitialised float array whose data starts on a 64-byte boundary.

    numpy's own allocations land at any 16-byte offset, and the elementwise
    passes of an epoch run slower on data that straddles cache lines.
    Aligned, a lone network trained 5-8% faster per epoch at n = 1042 on
    a 2-vCPU AVX-512 VM, and the benchmark's 1043-point sweep ran about 6%
    faster end to end there.
    """
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // raw.itemsize
    return raw[start:start + size].reshape(shape)


class _Block:
    """Buffers for the networks of one block, which share one input matrix.

    Network k owns the rows [a_k, b_k] of one row space: its h_k hidden
    units, then at b_k the ones row that its output bias multiplies. The
    hidden units of every network sit in one (rows, n) buffer, in which the
    forward pass turns pre-activations into activations in place, so each
    pass of the sigmoid and of its slope is one numpy call per block. The
    products that mix a network's rows run network by network at the
    network's own (h_k, .) shape: one product over several networks, or
    over a unit block that includes its ones row, rounds differently, and a
    network must give in a block the bits it gives alone.

    ``inputs_t`` holds the inputs transposed and negated, -x, over a row of
    -1.0 that the hidden biases multiply, so the hidden products are the
    negated pre-activations -z that ``_sigmoid`` takes. Rounding is
    symmetric in sign, so -z has the bits of z negated.

    With ``targets`` the block also holds the training intermediates and a
    copy of the targets per network. Reallocating them every epoch costs ~3x
    the arithmetic itself (large blocks come straight from mmap and fault in
    each time), so one training call owns one block and every evaluation
    writes into it. A network that leaves training keeps its rows, frozen as
    the zero network on zero targets.
    """

    def __init__(self, inputs: np.ndarray, hidden_counts, targets=None):
        n, p = inputs.shape
        self.spans, start = [], 0
        for h in hidden_counts:
            self.spans.append((start, start + h))
            start += h + 1
        self.rows, self.input_count = start, p
        self.inputs_t = _empty(p + 1, n)
        np.negative(inputs.T, out=self.inputs_t[:p])
        self.inputs_t[p] = -1.0
        self.hidden = _empty(self.rows, n)
        self.hidden.fill(1.0)  # the ones rows; no sigmoid reads uninitialised memory
        self.active = self.hidden[:-1]
        # the ones rows that the sigmoid over ``active`` overwrites
        self.ones = [self.hidden[b] for _, b in self.spans[:-1]]
        self.units = [self.hidden[a:b] for a, b in self.spans]
        self.extended = [self.hidden[a:b + 1] for a, b in self.spans]
        self.out = _empty(len(self.spans), n)
        if targets is None:
            return
        # one copy per network keeps the subtraction free of broadcasting
        self.targets = np.tile(targets, (len(self.spans), 1))
        self.delta_rows = self.out[:, None, :]
        self.delta_cols = self.out[:, :, None]
        self.sse = np.empty(len(self.spans))
        self.sse_cells = self.sse[:, None, None]
        self.scaled = _empty(len(self.spans), p + 1, n)
        self.slope = _empty(*self.active.shape)
        self.grad = _Params(self)
        self.neg_w2_col = np.empty((self.rows, 1))
        # the backward pass's per-network operands and outputs
        self.grad_products = list(zip(
            self.extended, self.out, self.grad.w2s,
            [self.slope[a:b] for a, b in self.spans], [x.T for x in self.scaled],
            self.grad.w1s))

    def params(self, nets=()) -> "_Params":
        """A parameter vector for the block, holding ``nets`` if given."""
        params = _Params(self)
        for net, w1, w2 in zip(nets, params.w1s, params.w2s):
            w1[:, :-1] = net.hidden_weights
            w1[:, -1] = net.hidden_biases
            w2[:-1] = net.output_weights
            w2[-1] = net.output_bias
        return params


class _Params:
    """Views of the flat parameter vector of a block.

    The layout is w1 as a (rows, p + 1) row-major matrix over the block's
    row space, each hidden unit's p weights followed by its bias, then w2
    as one weight per row, each network's h output weights followed by its
    output bias. The w1 row of a ones row is zero and stays zero, since no
    product writes its gradient row. So the update, the finiteness check
    and the w2 scaling of the w1 gradient each cover the whole block in one
    call, and the kernel reads and writes each network through fixed views.
    """

    __slots__ = ("flat", "w1", "w2", "w2_col", "w1s", "w2s", "hidden_products",
                 "output_products")

    def __init__(self, block: _Block):
        split = block.rows * (block.input_count + 1)
        self.flat = np.zeros(split + block.rows)
        self.w1 = self.flat[:split].reshape(block.rows, -1)
        self.w2 = self.flat[split:]
        self.w2_col = self.w2[:, None]
        self.w1s = [self.w1[a:b] for a, b in block.spans]
        self.w2s = [self.w2[a:b + 1] for a, b in block.spans]
        # the forward pass's per-network (operand, output) pairs
        self.hidden_products = list(zip(self.w1s, block.units))
        self.output_products = list(zip(self.w2s, block.extended, block.out))

    def layers(self, k: int):
        """Network k's (hidden weights, hidden biases, output weights,
        output bias): views of the vector but the bias, which the record
        built from them copies."""
        w1, w2 = self.w1s[k], self.w2s[k]
        return w1[:, :-1], w1[:, -1], w2[:-1], float(w2[-1])


def _forward(params: _Params, block: _Block) -> np.ndarray:
    """Outputs of every network of the block, one row per network.

    The sigmoid runs in place over the negated hidden pre-activations that
    the products with the negated inputs give (``_Block``), and over the
    ones rows of all networks but the last, which are then set back to 1.0.
    Training and prediction share this one routine, so a trained network's
    SSE and the SSE recomputed from its predictions round identically.
    """
    for w1, units in params.hidden_products:
        np.dot(w1, block.inputs_t, out=units)
    _sigmoid(block.active)
    for row in block.ones:
        row.fill(1.0)
    for w2, hidden, out in params.output_products:
        np.dot(w2, hidden, out=out)
    return block.out


def _predict_block(nets, inputs) -> np.ndarray:
    """Outputs of the networks ``nets``, which share one input count, for a
    matrix of input patterns: a (K, n) array with one row per network, each
    row the bits that ``predict`` gives for that network alone."""
    x = np.asarray(inputs, dtype=float)
    p = nets[0].arch.input_count
    if x.ndim != 2 or x.shape[1] != p:
        raise DataError(f"input matrix shape {x.shape} does not match (n, {p})")
    block = _Block(x, [net.arch.hidden_count for net in nets])
    with np.errstate(over="ignore"):
        return _forward(block.params(nets), block)


def predict(net: Mlp, inputs) -> np.ndarray:
    """Network outputs for a matrix of input patterns, one row per pattern."""
    return _predict_block([net], inputs)[0]


def sse(net: Mlp, data: WindowedDataset) -> float:
    """Sum of squared errors of the network over all patterns."""
    _check_window(net, data)
    resid = data.targets - predict(net, data.inputs)
    return float(resid @ resid)


def _sse_and_gradient(params: _Params, block: _Block) -> list:
    """Fused objective and gradient of every network of the block.

    Returns the SSEs as floats and leaves the gradients in ``block.grad``;
    the caller must consume them before the next evaluation in the block.
    The SSEs are one stacked (1, n) @ (n, 1) matmul, which rounds each as
    the dot product of a delta row with itself.

    With d the output deltas, written over the outputs in ``block.out``, and
    S the hidden slopes, the hidden-layer gradient is
    w2_j * sum_n S[j, n] * d[n] * x[n]: d scales the (p + 1, n) inputs
    rather than the (h, n) slopes, and w2 scales the (h, p + 1) product, so
    no (h, n) outer product is formed. The block's inputs are -x
    (``_Block``), so the product is the negated sum, and -w2 scales it: one
    negation of a rows-long vector per evaluation, and no pass over an
    (., n) array. Negation rounds exactly, so the bits are the formula's.
    """
    delta = _forward(params, block)
    np.subtract(delta, block.targets, out=delta)
    np.matmul(block.delta_rows, block.delta_cols, out=block.sse_cells)
    delta *= 2.0  # the linear output's slope is 1
    np.multiply(block.inputs_t, block.delta_rows, out=block.scaled)
    # the sigmoid's slope a(1 - a), from the hidden activations a
    slope = np.multiply(block.active, block.active, out=block.slope)
    np.subtract(block.active, slope, out=slope)
    for hidden, d, g2, s, x_t, g1 in block.grad_products:
        np.dot(hidden, d, out=g2)
        np.dot(s, x_t, out=g1)
    block.grad.w1 *= np.negative(params.w2_col, out=block.neg_w2_col)
    return block.sse.tolist()


def gradient(net: Mlp, data: WindowedDataset) -> Gradient:
    """Exact partial derivatives of sse(net, data), summed over patterns."""
    _check_window(net, data)
    block = _Block(data.inputs, (net.arch.hidden_count,), data.targets)
    with np.errstate(over="ignore"):
        _sse_and_gradient(block.params([net]), block)
    return Gradient(*block.grad.layers(0))


# Most row-space doubles, sum of (h + 1) over the networks times the
# pattern count n, that one training block may hold. Blocks save numpy
# calls at a few hundred patterns but lose to cache misses at about a
# thousand: with 2 MB of L2 per core, one block for a whole input level of
# 5 widths x 2 restarts ran 25-35% slower per network-epoch at n = 1042,
# while 24 000 kept nearly all of the gain at n <= 299.
_BLOCK_BUDGET = 24_000


def _train_block(nets0, data: WindowedDataset, cfg: TrainConfig) -> list:
    """Train every network of ``nets0`` on ``data``, in blocks.

    Returns one TrainRun per network, bit for bit what ``train`` returns for
    that network alone. Consecutive networks share a block while its row
    space times the pattern count stays within ``_BLOCK_BUDGET`` doubles; a
    network over budget trains alone.
    """
    for net in nets0:
        _check_window(net, data)
    runs, start, used = [], 0, 0
    for i, net in enumerate(nets0):
        used += net.arch.hidden_count + 1
        if i > start and used * len(data.targets) > _BLOCK_BUDGET:
            runs += _train_together(nets0[start:i], data, cfg)
            start, used = i, net.arch.hidden_count + 1
    return runs + _train_together(nets0[start:], data, cfg)


def _train_together(nets0, data: WindowedDataset, cfg: TrainConfig) -> list:
    """``_train_block`` for networks that share one block, and so each
    epoch's elementwise numpy calls, which at a few hundred patterns cost
    more than the arithmetic. The block is built once: a network that
    diverges or meets the stop rule gets its TrainRun from the state it
    leaves with, and its rows become the zero network on zero targets, whose
    gradient and step are exactly 0. No network reads another's rows, so the
    others go on with the bits they have alone. The networks still in the
    block at the epoch cap get theirs from the last state and are not
    frozen, since the block is dropped."""
    lr, min_delta = cfg.learning_rate, cfg.min_sse_delta
    block = _Block(data.inputs, [net.arch.hidden_count for net in nets0], data.targets)
    params, trial = block.params(nets0), block.params()
    finite = np.empty(params.flat.shape, dtype=bool)
    runs = [None] * len(nets0)
    traces = [[] for _ in nets0]
    live = len(nets0)

    def run_of(k, state, value, diverged):
        return TrainRun(net=Mlp(nets0[k].arch, *state.layers(k)), sse=value,
                        sse_trace=traces[k], diverged=diverged,
                        ran_away=not diverged and value > initial[k])

    def leave(k, state, value, diverged):
        nonlocal live
        runs[k] = run_of(k, state, value, diverged)
        for rows in (params.w1s, params.w2s, trial.w1s, trial.w2s, block.grad.w1s,
                     block.grad.w2s, block.targets):
            rows[k].fill(0.0)
        live -= 1

    # blow-ups surface as non-finite values and are handled explicitly below,
    # so the numpy overflow warnings on a diverging run are pure noise
    with np.errstate(over="ignore", invalid="ignore"):
        sse_prev = initial = _sse_and_gradient(params, block)
        for _ in range(cfg.max_epochs):
            if not live:
                break
            np.multiply(block.grad.flat, lr, out=trial.flat)  # the step
            np.subtract(params.flat, trial.flat, out=trial.flat)
            if not np.isfinite(trial.flat, out=finite).all():
                for k, (w1, w2) in enumerate(zip(trial.w1s, trial.w2s)):
                    if not (np.isfinite(w1).all() and np.isfinite(w2).all()):
                        leave(k, params, sse_prev[k], True)
            sse_new = _sse_and_gradient(trial, block)
            for k, value in enumerate(sse_new):
                if runs[k] is not None:
                    continue
                if not math.isfinite(value):
                    leave(k, params, sse_prev[k], True)
                    continue
                traces[k].append(value)
                if 0.0 <= sse_prev[k] - value < min_delta:
                    leave(k, trial, value, False)
            params, trial = trial, params
            sse_prev = sse_new
    return [run if run is not None else run_of(k, params, sse_prev[k], False)
            for k, run in enumerate(runs)]


def train(net0: Mlp, data: WindowedDataset, cfg: TrainConfig) -> TrainRun:
    """Full-batch gradient descent from ``net0``.

    Each epoch applies params <- params - learning_rate * gradient, stopping
    early once an epoch's SSE improvement is nonnegative and below
    ``min_sse_delta``. A worsening epoch never stops the run: brief
    overshoot oscillations are normal at workable learning rates, and only
    a vanishing improvement signals convergence. If any parameter or the
    SSE turns non-finite, the run aborts and returns the last finite state
    with ``diverged`` set. A run that stays finite but ends with a higher
    SSE than its initial network had is returned with ``ran_away`` set.
    The caller decides whether to discard either. This is ``_train_block``
    of one network; a network trained in a block with others gets these
    same bits, and a run that ends before theirs stays in the block as the
    zero network.
    """
    return _train_block([net0], data, cfg)[0]


def _best_restart(runs):
    """The winner of a restart search over ``runs``, listed by restart index.

    Diverged and runaway runs are discarded; the winner is the minimum
    final SSE, ties broken by lowest restart index. Returns a
    DivergenceError, unraised, if no run is left.
    """
    kept = [(run.sse, index) for index, run in enumerate(runs)
            if not (run.diverged or run.ran_away)]
    if not kept:
        away = sum(run.ran_away for run in runs)
        reason = (f"diverged or ran away ({away} ended above their initial SSE)" if away
                  else "diverged")
        return DivergenceError(f"all {len(runs)} restarts {reason}")
    _, index = min(kept)
    best = runs[index]
    return TrainResult(best_net=best.net, best_sse=best.sse, best_restart_index=index,
                       epochs_run=best.epochs_run, sse_trace=best.sse_trace)


def _restart_searches(archs, data: WindowedDataset, cfg: TrainConfig) -> list:
    """The ``_best_restart`` of each architecture of ``archs`` on ``data``.

    Restart k of (p, h) starts from init_weights seeded by
    restart_seed(master_seed, p, h, k). The restarts of all architectures
    train in (architecture, k) order in one call of ``_train_block``, which
    cuts them into blocks; each gets the bits ``train`` gives it alone.
    """
    k = cfg.restarts
    nets0 = [init_weights(arch, restart_seed(cfg.master_seed, arch.input_count,
                                             arch.hidden_count, i), cfg.init_half_width)
             for arch in archs for i in range(k)]
    runs = _train_block(nets0, data, cfg)
    return [_best_restart(runs[j:j + k]) for j in range(0, len(runs), k)]


def train_multi_restart(
    arch: Architecture, data: WindowedDataset, cfg: TrainConfig
) -> TrainResult:
    """Best of ``cfg.restarts`` independent trainings from seeded random
    inits, the restart search of ``_restart_searches`` for one architecture.
    Raises DivergenceError if every restart diverged or ran away."""
    [result] = _restart_searches([arch], data, cfg)
    if isinstance(result, DivergenceError):
        raise result
    return result


_MODEL_FORMAT = "fxcast-mlp"
_MODEL_VERSION = 1
# the one network shape, recorded so that a model file says what it holds
_MODEL_ACTIVATIONS = {"hidden_activation": "sigmoid", "output_activation": "pure_linear"}


def save_model(net: Mlp, sink):
    """Serialize a network as one JSON record, full decimal precision, to a
    path or a text stream.

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
    with _opened(sink, "w") as handle:
        handle.write(json.dumps(record) + "\n")


def load_model(source) -> Mlp:
    """Load a network saved by save_model, from a path or a text stream."""
    record = _json_object(_read_text(source, "model file"), "model file")
    _check_tag(record, _MODEL_FORMAT, _MODEL_VERSION, "model", **_MODEL_ACTIVATIONS)

    def floats(values, what):
        return [_real(v, what) for v in _typed(values, (list,), what)]

    try:
        rows = _typed(record["hidden_weights"], (list,), "hidden_weights")
        return Mlp(
            arch=Architecture(input_count=record["p"], hidden_count=record["h"]),
            hidden_weights=[floats(row, "hidden_weights") for row in rows],
            hidden_biases=floats(record["hidden_biases"], "hidden_biases"),
            output_weights=floats(record["output_weights"], "output_weights"),
            output_bias=_real(record["output_bias"], "output_bias"),
        )
    except _BUILD_ERRORS as exc:
        raise _corrupt("model file", exc) from None
