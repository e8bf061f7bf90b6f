import dataclasses
import io
import json
import math

import numpy as np
import pytest

import fxcast.mlp
from fxcast import (
    Architecture,
    DataError,
    DivergenceError,
    GdTrainConfig,
    Mlp,
    ReportFormatError,
    ReportVersionError,
    TrainConfig,
    WindowedDataset,
    gradient,
    init_weights,
    load_model,
    make_windows,
    predict,
    restart_seed,
    save_model,
    sse,
    train,
    train_multi_restart,
)

from conftest import series_of


def naive_sse(net, data):
    """Loop-based SSE, independent of the vectorized forward pass."""
    p, h = net.arch.input_count, net.arch.hidden_count
    total = 0.0
    for row, target in zip(data.inputs, data.targets):
        out = net.output_bias
        for j in range(h):
            z = net.hidden_biases[j]
            for i in range(p):
                z += net.hidden_weights[j, i] * row[i]
            out += net.output_weights[j] / (1.0 + math.exp(-z))
        diff = out - target
        total += diff * diff
    return total


def flatten_params(net):
    return np.concatenate(
        [
            net.hidden_weights.ravel(),
            net.hidden_biases,
            net.output_weights,
            [net.output_bias],
        ]
    )


def rebuild(arch, theta):
    p, h = arch.input_count, arch.hidden_count
    i = 0
    w1 = theta[i : i + h * p].reshape(h, p)
    i += h * p
    b1 = theta[i : i + h]
    i += h
    w2 = theta[i : i + h]
    i += h
    return Mlp(arch, w1, b1, w2, float(theta[i]))


def finite_difference_gradient(net, data, step=1e-4):
    """Central differences of the loop-based SSE; the independent oracle."""
    theta = flatten_params(net)
    grad = np.empty_like(theta)
    for k in range(len(theta)):
        plus, minus = theta.copy(), theta.copy()
        plus[k] += step
        minus[k] -= step
        grad[k] = (
            naive_sse(rebuild(net.arch, plus), data)
            - naive_sse(rebuild(net.arch, minus), data)
        ) / (2.0 * step)
    return grad


class TestInitWeights:
    def test_same_seed_identical(self):
        arch = Architecture(3, 4)
        a = init_weights(arch, seed=42, half_width=0.5)
        b = init_weights(arch, seed=42, half_width=0.5)
        assert a == b

    def test_different_seed_differs(self):
        arch = Architecture(3, 4)
        assert init_weights(arch, 1, 0.5) != init_weights(arch, 2, 0.5)

    def test_bounds(self):
        net = init_weights(Architecture(10, 30), seed=3, half_width=0.25)
        for arr in (net.hidden_weights, net.hidden_biases, net.output_weights):
            assert np.all(np.abs(arr) <= 0.25)
        assert abs(net.output_bias) <= 0.25

    def test_uniform_mean(self):
        # 10,000 draws with half_width 0.5: the mean of uniform(-0.5, 0.5)
        # has standard error ~0.0029, so +/-0.02 is a 7-sigma gate
        arch = Architecture(199, 50)  # 199*50 + 50 + 50 + 1 = 10,051 parameters
        net = init_weights(arch, seed=1234, half_width=0.5)
        draws = flatten_params(net)[:10000]
        assert len(draws) == 10000
        assert abs(draws.mean()) < 0.02

    def test_half_width_zero_rejected_by_config(self):
        with pytest.raises(DataError):
            TrainConfig(init_half_width=0.0)

    # learning_rate is a field of the version 1 reports' GdTrainConfig,
    # which checks it as TrainConfig checks its fields
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("inf")),
        ("learning_rate", float("nan")),
        ("initial_step", float("inf")),
        ("initial_step", float("nan")),
        ("initial_step", 1e-9),  # below the step floor
        ("initial_step", 2.0),  # above the default max_step
        ("max_step", float("inf")),
        ("max_step", float("nan")),
        ("max_step", 1e-3),  # below the default initial_step
        ("max_step", 1e306),  # 2000 epochs of it overflow
        ("min_sse_delta", float("inf")),
        ("min_sse_delta", float("nan")),
        ("init_half_width", float("inf")),
        ("init_half_width", float("nan")),
        ("init_half_width", 1e308),  # its draw range 2 * 1e308 overflows
        # ints that compare below inf: one whose double does the same, and
        # ones that have no float
        pytest.param("init_half_width", 10**308, id="init_half_width-10**308"),
        pytest.param("learning_rate", 10**400, id="learning_rate-10**400"),
        pytest.param("initial_step", 10**400, id="initial_step-10**400"),
        pytest.param("min_sse_delta", 10**400, id="min_sse_delta-10**400"),
        pytest.param("init_half_width", 10**400, id="init_half_width-10**400"),
    ])
    def test_nonfinite_values_rejected_by_config(self, field, value):
        config = GdTrainConfig if field == "learning_rate" else TrainConfig
        with pytest.raises(DataError, match=field):
            config(**{field: value})

    def test_steps_must_stay_finite_over_every_epoch(self):
        # no parameter can leave the floats: each moves by at most max_step
        # per epoch from its draw in [-init_half_width, init_half_width]
        TrainConfig(initial_step=1.0, max_step=1e300, max_epochs=2000, init_half_width=1e300)
        with pytest.raises(DataError, match="max_epochs \\* max_step"):
            TrainConfig(initial_step=1.0, max_step=1e305, max_epochs=2000, init_half_width=1e300)


class TestForward:
    def test_zero_network(self):
        arch = Architecture(1, 1)
        net = Mlp(arch, np.zeros((1, 1)), np.zeros(1), np.zeros(1), 0.0)
        assert predict(net, [[0.7]]).tolist() == [0.0]

    def test_hand_arithmetic(self):
        arch = Architecture(1, 1)
        net = Mlp(arch, np.zeros((1, 1)), np.zeros(1), np.array([2.0]), 1.0)
        # hidden sigmoid(0) = 0.5; output = 2*0.5 + 1
        assert predict(net, [[0.7], [-3.0]]).tolist() == [2.0, 2.0]

    def test_dimension_mismatch(self):
        # a matrix p + 1 columns wide
        net = init_weights(Architecture(2, 3), 0, 0.5)
        with pytest.raises(DataError, match=r"shape \(1, 3\) does not match \(n, 2\)"):
            predict(net, [[1.0, 2.0, 3.0]])

    def test_random_net_finite(self):
        rng = np.random.default_rng(1)
        net = init_weights(Architecture(4, 5), 9, 0.5)
        assert np.all(np.isfinite(predict(net, rng.uniform(-10, 10, (20, 4)))))

    def test_saturated_hidden_units_stay_finite_and_bounded(self):
        # pre-activations of about +-1000 overflow the sigmoid's exp; the
        # hidden units saturate at 0 or 1 with no RuntimeWarning, so every
        # output lies in the range a [0, 1] hidden layer allows
        w1 = np.array([[1000.0, 0.0], [-1000.0, 0.0], [0.0, 1000.0], [0.0, -1000.0]])
        w2 = np.array([0.5, -0.25, 1.0, -2.0])
        b2 = 0.125
        net = Mlp(Architecture(2, 4), w1, np.array([0.0, 1.0, -1.0, 0.5]), w2, b2)
        inputs = np.array([[1.0, -1.0], [-1.0, 1.0], [0.999, 0.5], [-2.0, -0.7]])
        out = predict(net, inputs)
        assert np.all(np.isfinite(out))
        assert np.all(out >= b2 + np.minimum(w2, 0.0).sum())
        assert np.all(out <= b2 + np.maximum(w2, 0.0).sum())

    def test_hidden_unit_permutation_invariance(self):
        rng = np.random.default_rng(3)
        net = init_weights(Architecture(3, 6), 11, 0.5)
        perm = rng.permutation(6)
        permuted = Mlp(
            net.arch,
            net.hidden_weights[perm],
            net.hidden_biases[perm],
            net.output_weights[perm],
            net.output_bias,
        )
        x = rng.uniform(-1, 1, (20, 3))
        np.testing.assert_allclose(predict(permuted, x), predict(net, x), rtol=0, atol=1e-12)


class TestMlpInvariants:
    def test_shape_validation(self):
        arch = Architecture(2, 3)
        with pytest.raises(DataError):
            Mlp(arch, np.zeros((3, 3)), np.zeros(3), np.zeros(3), 0.0)

    def test_finite_validation(self):
        arch = Architecture(1, 1)
        with pytest.raises(DataError):
            Mlp(arch, np.array([[np.inf]]), np.zeros(1), np.zeros(1), 0.0)

    @pytest.mark.parametrize("field, value, message", [
        ("hidden_biases", np.zeros(2), r"hidden_biases must have shape \(3,\)"),
        ("output_weights", np.zeros((3, 1)), r"output_weights must have shape \(3,\)"),
        ("output_bias", math.nan, "network parameters must be finite"),
        ("output_bias", -math.inf, "network parameters must be finite"),
    ])
    def test_each_field_checked(self, field, value, message):
        layers = dict(hidden_weights=np.zeros((3, 2)), hidden_biases=np.zeros(3),
                      output_weights=np.zeros(3), output_bias=0.0)
        Mlp(Architecture(2, 3), **layers)
        with pytest.raises(DataError, match=message):
            Mlp(Architecture(2, 3), **{**layers, field: value})


class TestSse:
    def test_zero_network_hand_value(self):
        net = Mlp(Architecture(1, 1), np.zeros((1, 1)), np.zeros(1), np.zeros(1), 0.0)
        data = make_windows(series_of([0.0, 1.0, 2.0]), 1)
        # outputs are 0, targets are [1, 2] -> 1 + 4
        assert sse(net, data) == 5.0

    def test_perfect_fit_zero(self):
        net = Mlp(Architecture(1, 2), np.zeros((2, 1)), np.zeros(2), np.zeros(2), 0.5)
        data = make_windows(series_of([0.5, 0.5, 0.5]), 1)
        assert sse(net, data) == 0.0

    def test_nonnegative_and_matches_naive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            h = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            net = init_weights(Architecture(p, h), int(rng.integers(1 << 30)), 0.8)
            data = make_windows(series_of(rng.uniform(0, 1, n + p)), p)
            value = sse(net, data)
            assert value >= 0.0
            assert value == pytest.approx(naive_sse(net, data), rel=1e-12)

    def test_dimension_mismatch(self):
        net = init_weights(Architecture(2, 2), 0, 0.5)
        data = make_windows(series_of([1.0, 2.0, 3.0]), 1)
        with pytest.raises(DataError):
            sse(net, data)


class TestGradient:
    def test_zero_at_perfect_fit(self):
        net = Mlp(Architecture(1, 2), np.zeros((2, 1)), np.zeros(2), np.zeros(2), 0.5)
        data = make_windows(series_of([0.5, 0.5, 0.5]), 1)
        g = gradient(net, data)
        assert np.all(g.hidden_weights == 0.0)
        assert np.all(g.hidden_biases == 0.0)
        assert np.all(g.output_weights == 0.0)
        assert g.output_bias == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2025)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            h = int(rng.integers(1, 5))
            n = int(rng.integers(1, 11))
            net = init_weights(Architecture(p, h), int(rng.integers(1 << 30)), 1.0)
            data = make_windows(series_of(rng.uniform(0, 1, n + p)), p)
            g = gradient(net, data)
            analytic = np.concatenate(
                [g.hidden_weights.ravel(), g.hidden_biases, g.output_weights, [g.output_bias]]
            )
            numeric = finite_difference_gradient(net, data)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5

    @pytest.mark.parametrize("p, h", [(5, 18), (10, 30)])
    def test_matches_finite_differences_at_paper_corners(self, p, h):
        rng = np.random.default_rng(p * 100 + h)
        net = init_weights(Architecture(p, h), int(rng.integers(1 << 30)), 0.8)
        data = make_windows(series_of(rng.uniform(0, 1, 8 + p)), p)
        g = gradient(net, data)
        analytic = np.concatenate(
            [g.hidden_weights.ravel(), g.hidden_biases, g.output_weights, [g.output_bias]]
        )
        numeric = finite_difference_gradient(net, data)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) <= 1e-5


def reference_irprop(net0, data, epochs, initial_step=0.01, max_step=1.0):
    """iRprop− written out parameter by parameter over the textbook
    backpropagation of one (n, h) row per pattern: (the SSE after each
    epoch, the lowest SSE, its layers), the initial network included."""
    x, t = data.inputs, data.targets
    layers = [net0.hidden_weights.copy(), net0.hidden_biases.copy(),
              net0.output_weights.copy(), np.array([net0.output_bias])]
    steps = [np.full(layer.shape, initial_step) for layer in layers]
    last = [np.zeros(layer.shape) for layer in layers]  # the sign of the last move

    def forward():
        w1, b1, w2, b2 = layers
        hidden = 1.0 / (1.0 + np.exp(-(x @ w1.T + b1)))  # (n, h)
        return hidden, hidden @ w2 + b2[0] - t

    hidden, resid = forward()
    trace, best = [], (float(resid @ resid), [layer.copy() for layer in layers])
    for _ in range(epochs):
        delta_out = 2.0 * resid
        delta_hidden = np.outer(delta_out, layers[2]) * hidden * (1.0 - hidden)
        grads = [delta_hidden.T @ x, delta_hidden.sum(axis=0), hidden.T @ delta_out,
                 np.array([delta_out.sum()])]
        for layer, grad, step, sign_before in zip(layers, grads, steps, last):
            for i in np.ndindex(layer.shape):
                sign = float(np.sign(grad[i]))
                if sign * sign_before[i] > 0.0:
                    step[i] = min(step[i] * 1.2, max_step)
                elif sign * sign_before[i] < 0.0:
                    step[i] = max(step[i] * 0.5, 1e-8)
                    sign = 0.0  # a flip skips the parameter this epoch
                layer[i] -= sign * step[i]
                sign_before[i] = sign
        hidden, resid = forward()
        trace.append(float(resid @ resid))
        if trace[-1] < best[0]:
            best = (trace[-1], [layer.copy() for layer in layers])
    return trace, best[0], best[1]


class TestTrain:
    def test_perfect_fit_stops_at_epoch_one(self):
        net = Mlp(Architecture(1, 2), np.zeros((2, 1)), np.zeros(2), np.zeros(2), 0.5)
        data = make_windows(series_of([0.5, 0.5, 0.5]), 1)
        run = train(net, data, TrainConfig())
        assert run.epochs_run == 1
        assert run.sse == 0.0
        assert not run.diverged
        assert run.net == net

    def test_descent_on_single_pattern(self):
        data = make_windows(series_of([0.5, 0.7]), 1)
        net0 = init_weights(Architecture(1, 2), 7, 0.5)
        before = sse(net0, data)
        run = train(net0, data, TrainConfig(max_epochs=200))
        assert not run.diverged
        assert run.sse < before

    def test_huge_step_diverges(self):
        # a first step of 1e300 overflows the SSE; the run returns its best
        # state, the initial network
        data = make_windows(series_of([0.5, 0.7]), 1)
        net0 = init_weights(Architecture(1, 2), 7, 0.5)
        run = train(net0, data, TrainConfig(initial_step=1e300, max_step=1e300))
        assert run.diverged and run.epochs_run == 0
        assert run.net == net0
        assert run.sse == sse(net0, data)

    def test_overflowing_initial_sse_diverges_at_epoch_zero(self):
        # an init drawn from +-1e300 overflows the SSE before any epoch
        data = make_windows(series_of([0.5, 0.7, 0.2]), 1)
        net0 = init_weights(Architecture(1, 2), 7, 1e300)
        run = train(net0, data, TrainConfig(init_half_width=1e300))
        assert run.diverged and run.epochs_run == 0
        assert run.net == net0 and run.sse == math.inf

    def test_trace_matches_sse_of_final_net(self):
        # the network a run returns is its best state
        data = make_windows(series_of(np.linspace(0.1, 0.9, 12)), 2)
        net0 = init_weights(Architecture(2, 3), 13, 0.5)
        run = train(net0, data, TrainConfig(max_epochs=50, min_sse_delta=0.0))
        assert run.sse == pytest.approx(sse(run.net, data), rel=1e-12)
        assert run.sse == min(run.sse_trace) <= sse(net0, data)
        assert run.epochs_run == len(run.sse_trace) == 50

    def test_matches_reference_loop_at_largest_corner(self):
        # at the default steps, and at steps that reach the cap within the
        # 20 epochs
        rng = np.random.default_rng(1030)
        p, h, epochs = 10, 30, 20
        data = make_windows(series_of(rng.uniform(0, 1, 300 + p)), p)
        net0 = init_weights(Architecture(p, h), 17, 0.5)
        for initial_step, max_step in ((0.01, 1.0), (0.05, 0.2)):
            run = train(net0, data, TrainConfig(initial_step=initial_step, max_step=max_step,
                                                 max_epochs=epochs, min_sse_delta=0.0))
            trace, lowest, layers = reference_irprop(net0, data, epochs, initial_step, max_step)
            assert not run.diverged and run.epochs_run == epochs
            np.testing.assert_allclose(run.sse_trace, trace, rtol=1e-9, atol=0)
            assert run.sse == pytest.approx(lowest, rel=1e-9)
            for got, want in zip((run.net.hidden_weights, run.net.hidden_biases,
                                  run.net.output_weights, run.net.output_bias), layers):
                np.testing.assert_allclose(got, np.reshape(want, np.shape(got)), rtol=1e-9,
                                           atol=0)

    def test_descent_property_statistical(self):
        # the first epoch moves every parameter by 0.01 against its
        # gradient, which lowers the SSE of [0, 1]-scaled data of <= 50
        # patterns in 95%+ of 100 trials; and no run ends above its start
        rng = np.random.default_rng(31337)
        failures = []
        for trial in range(100):
            seed = int(rng.integers(1 << 30))
            local = np.random.default_rng(seed)
            p = int(local.integers(1, 4))
            h = int(local.integers(1, 5))
            n = int(local.integers(5, 51))
            data = make_windows(series_of(local.uniform(0, 1, n + p)), p)
            net0 = init_weights(Architecture(p, h), seed, 0.5)
            run = train(net0, data, TrainConfig(max_epochs=10, min_sse_delta=0.0))
            assert run.sse <= sse(net0, data)
            if not run.sse_trace[0] < sse(net0, data):
                failures.append(seed)
        if failures:
            print(f"descent-property failures (seeds): {failures}")
        assert len(failures) <= 5

    def test_skip_epoch_never_stops_a_run(self):
        # the hidden unit is saturated, its slope exactly 0, so only the
        # output weight and bias move, by equal steps: once the output
        # overshoots the mean target both flip, the epoch moves nothing and
        # the SSE repeats bit for bit, which the stop rule must not take for
        # convergence. Trained in a block, the network has the same bits
        net0 = Mlp(Architecture(1, 1), np.zeros((1, 1)), np.array([100.0]), np.array([0.2]),
                   0.3)
        data = make_windows(series_of([0.5, 0.6, 0.7, 0.8]), 1)
        cfg = TrainConfig(max_epochs=30, min_sse_delta=1e-300)
        run = train(net0, data, cfg)
        trace = run.sse_trace.tolist()
        skips = [i for i in range(1, len(trace)) if trace[i] == trace[i - 1]]
        assert skips and skips[0] < 10
        assert run.epochs_run == cfg.max_epochs
        other = init_weights(Architecture(1, 2), 5, 0.5)
        assert fxcast.mlp._train_block([other, net0], data, cfg)[1] == run


class TestTrainBlock:
    def test_each_network_trains_as_alone(self):
        # networks leave a block by diverging, by the stop rule or at the
        # epoch cap, at different epochs; each run must be the bits of
        # train() on that network alone. A network drawn from +-1e200
        # overflows its SSE and diverges
        rng = np.random.default_rng(8080)
        outcomes = {"diverged": 0, "stopped early": 0, "ran to the cap": 0}
        for _ in range(40):
            p = int(rng.integers(1, 6))
            n = int(rng.integers(3, 120))
            hs = [int(h) for h in rng.integers(1, 13, size=int(rng.integers(2, 7)))]
            data = make_windows(series_of(rng.uniform(0, 1, n + p)), p)
            initial_step = float(10 ** rng.uniform(-3, 0))
            cfg = TrainConfig(
                initial_step=initial_step,
                max_step=initial_step * float(10 ** rng.uniform(0, 3)),
                max_epochs=int(rng.integers(1, 150)),
                min_sse_delta=float(rng.choice([0.0, 1e-6, 1e-4, 1e-2])),
            )
            nets0 = [init_weights(Architecture(p, h), int(rng.integers(1 << 30)),
                                  float(rng.choice([rng.uniform(0.1, 4.0), 1e200], p=[0.9, 0.1])))
                     for h in hs]
            # the block forward pass gives each network the bits it gives alone
            block_out = fxcast.mlp._predict_block(nets0, data.inputs)
            for row, net0 in zip(block_out, nets0, strict=True):
                assert row.tobytes() == predict(net0, data.inputs).tobytes()
            for net0, run in zip(nets0, fxcast.mlp._train_block(nets0, data, cfg)):
                alone = train(net0, data, cfg)
                assert run.diverged == alone.diverged
                assert run.sse == alone.sse
                assert run.sse_trace.tobytes() == alone.sse_trace.tobytes()
                for got, want in ((run.net.hidden_weights, alone.net.hidden_weights),
                                  (run.net.hidden_biases, alone.net.hidden_biases),
                                  (run.net.output_weights, alone.net.output_weights)):
                    assert got.tobytes() == want.tobytes()
                assert run.net.output_bias == alone.net.output_bias
                # a run ends at its best state, diverged or not
                if run.diverged:
                    assert run.sse_trace.size == 0 and run.sse == math.inf
                else:
                    assert sse(run.net, data) == run.sse
                    assert run.sse == min(sse(net0, data), *run.sse_trace)
                outcomes["diverged" if run.diverged else "stopped early"
                         if run.epochs_run < cfg.max_epochs else "ran to the cap"] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_overflowing_step_leaves_only_its_network(self):
        # A fits its targets exactly, so its gradient is 0 and it does not
        # move; B's first step of 1e300 overflows its SSE. B must leave the
        # block diverged with no epoch run, and A converge at epoch 1, each
        # as train() gives it alone
        rng = np.random.default_rng(77)
        a = init_weights(Architecture(2, 3), 1, 0.5)
        b = Mlp(a.arch, a.hidden_weights, a.hidden_biases, a.output_weights,
                a.output_bias + 100.0)
        inputs = rng.uniform(0, 1, (20, 2))
        data = WindowedDataset(2, inputs, predict(a, inputs))
        cfg = TrainConfig(initial_step=1e300, max_step=1e300)
        runs = fxcast.mlp._train_block([a, b], data, cfg)  # one block of two
        assert [run.diverged for run in runs] == [False, True]
        assert [run.epochs_run for run in runs] == [1, 0]
        assert runs[0].sse == 0.0
        for net0, run in zip((a, b), runs):
            alone = train(net0, data, cfg)
            assert run.diverged == alone.diverged
            assert run.sse == alone.sse
            assert run.sse_trace.tobytes() == alone.sse_trace.tobytes()
            assert flatten_params(run.net).tobytes() == flatten_params(alone.net).tobytes()

    def test_best_state_kept_per_network(self):
        # A fits its targets exactly and meets the stop rule at epoch 1,
        # while B trains on. B's SSE falls in epoch 1 and rises in epoch 2:
        # B returns its state after epoch 1, kept while A left
        x = np.random.default_rng(183).uniform(0, 1, (5, 1))
        a = init_weights(Architecture(1, 2), 183, 2.0)
        b = init_weights(Architecture(1, 1), 184, 2.0)
        data = WindowedDataset(1, x, predict(a, x))
        cfg = TrainConfig(initial_step=0.5, max_epochs=2, min_sse_delta=1e-300)
        runs = fxcast.mlp._train_block([a, b], data, cfg)  # one block of two
        assert runs == [train(a, data, cfg), train(b, data, cfg)]
        assert runs[0].epochs_run == 1
        first, last = runs[1].sse_trace
        assert first < sse(b, data) and first < last
        assert runs[1].sse == first
        assert runs[1].net == train(b, data, dataclasses.replace(cfg, max_epochs=1)).net

    def test_one_block_however_its_networks_leave(self, monkeypatch):
        # C's initial SSE overflows, A meets the stop rule at epoch 1 and B
        # runs to the cap at epoch 2: the call builds one block, in which
        # each network leaves as train() gives it alone
        x = np.random.default_rng(183).uniform(0, 1, (5, 1))
        a = init_weights(Architecture(1, 2), 183, 2.0)
        b = init_weights(Architecture(1, 1), 184, 2.0)
        c = Mlp(b.arch, b.hidden_weights, b.hidden_biases, b.output_weights, 1e308)
        data = WindowedDataset(1, x, predict(a, x))
        cfg = TrainConfig(initial_step=0.5, max_epochs=2, min_sse_delta=1e-300)
        blocks = []

        class Recorded(fxcast.mlp._Block):
            def __init__(self, *args):
                super().__init__(*args)
                blocks.append(self)

        monkeypatch.setattr(fxcast.mlp, "_Block", Recorded)
        runs = fxcast.mlp._train_block([a, b, c], data, cfg)
        monkeypatch.undo()
        assert len(blocks) == 1
        assert [(run.epochs_run, run.diverged) for run in runs] == [(1, False), (2, False),
                                                                    (0, True)]
        assert runs == [train(net0, data, cfg) for net0 in (a, b, c)]

    def test_window_mismatch(self):
        data = make_windows(series_of(np.linspace(0.1, 0.9, 12)), 2)
        nets0 = [init_weights(Architecture(2, 3), 1, 0.5), init_weights(Architecture(3, 3), 2, 0.5)]
        with pytest.raises(DataError):
            fxcast.mlp._train_block(nets0, data, TrainConfig())

    def test_blocks_cut_to_budget(self, monkeypatch):
        # at n = 1000 the budget holds 24 rows (h + 1): 2 and 3 share a
        # block, 30 is over budget and trains alone, then 5 and 8, then 10
        # and 1
        rng = np.random.default_rng(4242)
        p, n = 2, 1000
        data = make_windows(series_of(rng.uniform(0, 1, n + p)), p)
        cfg = TrainConfig(max_epochs=20, min_sse_delta=1e-3)
        nets0 = [init_weights(Architecture(p, h), seed, 0.5)
                 for seed, h in enumerate((2, 3, 30, 5, 8, 10, 1))]
        blocks = []

        class Recorded(fxcast.mlp._Block):
            def __init__(self, inputs, hidden_counts, targets=None):
                super().__init__(inputs, hidden_counts, targets)
                blocks.append((tuple(hidden_counts), self.rows * len(inputs)))

        monkeypatch.setattr(fxcast.mlp, "_Block", Recorded)
        runs = fxcast.mlp._train_block(nets0, data, cfg)
        monkeypatch.undo()
        assert all(size <= fxcast.mlp._BLOCK_BUDGET or len(hs) == 1 for hs, size in blocks)
        assert [hs for hs, _ in blocks] == [(2, 3), (30,), (5, 8), (10, 1)]
        assert blocks[1][1] > fxcast.mlp._BLOCK_BUDGET
        for net0, run in zip(nets0, runs, strict=True):
            alone = train(net0, data, cfg)
            assert run.diverged == alone.diverged
            assert run.sse_trace.tobytes() == alone.sse_trace.tobytes()
            for got, want in ((run.net.hidden_weights, alone.net.hidden_weights),
                              (run.net.hidden_biases, alone.net.hidden_biases),
                              (run.net.output_weights, alone.net.output_weights)):
                assert got.tobytes() == want.tobytes()
            assert run.net.output_bias == alone.net.output_bias


class TestMultiRestart:
    def make_data(self):
        rng = np.random.default_rng(55)
        return make_windows(series_of(rng.uniform(0, 1, 20)), 2)

    def test_single_restart_equals_train(self):
        data = self.make_data()
        arch = Architecture(2, 3)
        cfg = TrainConfig(max_epochs=40, restarts=1, master_seed=9)
        result = train_multi_restart(arch, data, cfg)
        net0 = init_weights(arch, restart_seed(9, 2, 3, 0), cfg.init_half_width)
        run = train(net0, data, cfg)
        assert result.best_net == run.net
        assert result.best_sse == run.sse
        assert result.best_restart_index == 0

    def test_bit_identical_repeat(self):
        data = self.make_data()
        arch = Architecture(2, 3)
        cfg = TrainConfig(max_epochs=40, restarts=5, master_seed=4)
        a = train_multi_restart(arch, data, cfg)
        b = train_multi_restart(arch, data, cfg)
        assert a == b

    def test_best_not_worse_than_any_restart(self):
        # recompute every restart independently and compare
        data = self.make_data()
        arch = Architecture(2, 3)
        cfg = TrainConfig(max_epochs=30, restarts=6, master_seed=21)
        result = train_multi_restart(arch, data, cfg)
        finals = []
        for index in range(cfg.restarts):
            net0 = init_weights(
                arch, restart_seed(21, 2, 3, index), cfg.init_half_width
            )
            run = train(net0, data, cfg)
            if not run.diverged:
                finals.append((index, run.sse))
        assert all(result.best_sse <= final for _, final in finals)
        winner = min(finals, key=lambda item: (item[1], item[0]))
        assert result.best_restart_index == winner[0]
        # best_sse really is the SSE of the returned network
        assert result.best_sse == sse(result.best_net, data)

    def test_tie_broken_by_lowest_index(self, monkeypatch):
        # exact SSE ties are unconstructible through real float training,
        # so pin the selection rule with a stubbed trainer
        data = self.make_data()
        arch = Architecture(2, 3)
        nets = []

        def fake_train_block(nets0, _data, _cfg):
            nets.extend(nets0)
            return [fxcast.mlp.TrainRun(net=net0, sse=1.25, sse_trace=np.array([1.25]),
                                        diverged=False) for net0 in nets0]

        monkeypatch.setattr(fxcast.mlp, "_train_block", fake_train_block)
        cfg = TrainConfig(restarts=4, master_seed=0)
        result = train_multi_restart(arch, data, cfg)
        assert result.best_restart_index == 0
        assert result.best_net == nets[0]

    def test_diverged_restarts_excluded(self, monkeypatch):
        data = self.make_data()
        arch = Architecture(2, 3)

        def fake_train_block(nets0, _data, _cfg):
            # the first restart diverges with the best sse
            return [fxcast.mlp.TrainRun(net=net0, sse=0.1 if k == 0 else 1.0 + k,
                                        sse_trace=np.array([]), diverged=k == 0)
                    for k, net0 in enumerate(nets0)]

        monkeypatch.setattr(fxcast.mlp, "_train_block", fake_train_block)
        result = train_multi_restart(arch, data, TrainConfig(restarts=3, master_seed=0))
        assert result.best_restart_index == 1

    def test_all_diverged_raises(self):
        data = self.make_data()
        cfg = TrainConfig(init_half_width=1e300, max_epochs=50, restarts=3, master_seed=2)
        with pytest.raises(DivergenceError, match="all 3 restarts diverged"):
            train_multi_restart(Architecture(2, 3), data, cfg)


class TestRestartSeed:
    def test_deterministic(self):
        assert restart_seed(1, 2, 3, 4) == restart_seed(1, 2, 3, 4)

    def test_coordinates_matter(self):
        base = restart_seed(1, 2, 3, 4)
        assert restart_seed(2, 2, 3, 4) != base
        assert restart_seed(1, 3, 3, 4) != base
        assert restart_seed(1, 2, 4, 4) != base
        assert restart_seed(1, 2, 3, 5) != base

    def test_negative_master_seed_accepted(self):
        assert restart_seed(-7, 1, 1, 0) == restart_seed(-7, 1, 1, 0)


class TestModelSerialization:
    def test_round_trip_exact(self):
        net = init_weights(Architecture(3, 5), 77, 0.5)
        buffer = io.StringIO()
        save_model(net, buffer)
        buffer.seek(0)
        assert load_model(buffer) == net

    def test_round_trip_file(self, tmp_path):
        net = init_weights(Architecture(2, 2), 5, 0.3)
        path = tmp_path / "model.json"
        save_model(net, path)
        assert load_model(path) == net

    def test_field_order(self):
        net = init_weights(Architecture(1, 1), 0, 0.5)
        buffer = io.StringIO()
        save_model(net, buffer)
        text = buffer.getvalue()
        order = [
            text.index(key)
            for key in (
                '"p"',
                '"h"',
                '"hidden_activation"',
                '"output_activation"',
                '"hidden_weights"',
                '"hidden_biases"',
                '"output_weights"',
                '"output_bias"',
            )
        ]
        assert order == sorted(order)

    def test_corrupt_rejected(self):
        with pytest.raises(ReportFormatError):
            load_model(io.StringIO("{not json"))
        with pytest.raises(ReportFormatError):
            load_model(io.StringIO('{"format": "something-else"}'))

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(init_weights(Architecture(1, 1), 0, 0.5), path)
        path.write_bytes(path.read_bytes().replace(b'"sigmoid"', b'"sigm\xf6id"'))
        with pytest.raises(ReportFormatError):
            load_model(path)

    @pytest.mark.parametrize("key, value", [
        ("p", True),
        ("output_bias", True),
        ("hidden_weights", [[True], [False]]),
    ])
    def test_json_boolean_rejected(self, key, value):
        # float() and int() would take a true as 1 and a false as 0
        record = json.loads(self.saved(init_weights(Architecture(1, 2), 0, 0.5)))
        record[key] = value
        with pytest.raises(ReportFormatError, match=key):
            load_model(io.StringIO(json.dumps(record)))

    def saved(self, net):
        buffer = io.StringIO()
        save_model(net, buffer)
        return buffer.getvalue()

    def test_version_mismatch(self):
        net = init_weights(Architecture(1, 1), 0, 0.5)
        buffer = io.StringIO()
        save_model(net, buffer)
        text = buffer.getvalue().replace('"version": 1', '"version": 99')
        with pytest.raises(ReportVersionError):
            load_model(io.StringIO(text))

    def test_version_true_rejected(self):
        # a JSON true equals 1 but is not version 1
        text = self.saved(init_weights(Architecture(1, 1), 0, 0.5))
        with pytest.raises(ReportVersionError, match="version True"):
            load_model(io.StringIO(text.replace('"version": 1', '"version": true')))

    def test_nesting_past_the_recursion_limit(self):
        # the JSON decoder raises RecursionError, not a JSONDecodeError
        record = json.loads(self.saved(init_weights(Architecture(1, 1), 0, 0.5)))
        record["p"] = "NESTED"
        depth = 100_000
        text = json.dumps(record).replace('"NESTED"', "[" * depth + "]" * depth)
        with pytest.raises(ReportFormatError, match="corrupt model file"):
            load_model(io.StringIO(text))

    def test_integer_past_the_digit_limit(self):
        # json.loads refuses integer literals of more than 4300 digits with a
        # ValueError that is not a JSONDecodeError
        text = self.saved(init_weights(Architecture(1, 1), 0, 0.5))
        with pytest.raises(ReportFormatError, match="corrupt model file"):
            load_model(io.StringIO(text.replace('"p": 1', '"p": ' + "1" * 5000)))

    def test_other_activation_rejected(self):
        net = init_weights(Architecture(1, 1), 0, 0.5)
        buffer = io.StringIO()
        save_model(net, buffer)
        text = buffer.getvalue().replace('"sigmoid"', '"tansigmoid"')
        with pytest.raises(ReportFormatError, match="tansigmoid"):
            load_model(io.StringIO(text))
