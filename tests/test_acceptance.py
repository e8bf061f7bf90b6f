"""Acceptance gate: every criterion runs at its pinned tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s -v``).

The two empirical thresholds (sine-fit RMSE < 0.02 scaled, network beating
the random walk by a factor of 2 on logistic-map data) were confirmed with
an independent loop-coded gradient-descent oracle before being pinned here.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fxcast.mlp
from fxcast import (
    Architecture,
    DivergenceError,
    ForecastSet,
    GridConfig,
    TimeSeries,
    TrainConfig,
    evaluate_cell,
    fit_scaler,
    init_weights,
    mae,
    make_windows,
    mape,
    random_walk_rows,
    render_table,
    restart_seed,
    rmse,
    run_grid,
    split_by_count,
    synthesize_series,
    train,
    train_multi_restart,
)

from conftest import series_of
from test_metrics import brute_force_metrics
from test_mlp import finite_difference_gradient


def verdict(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_c1_gradient_correctness():
    """Analytic backprop matches central finite differences (<=1e-5 rel)."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 4))
        h = int(rng.integers(1, 5))
        n = int(rng.integers(1, 11))
        net = init_weights(Architecture(p, h), int(rng.integers(1 << 30)), 0.8)
        data = make_windows(series_of(rng.uniform(0.0, 1.0, n + p)), p)
        g = fxcast.mlp.gradient(net, data)
        analytic = np.concatenate(
            [g.hidden_weights.ravel(), g.hidden_biases, g.output_weights,
             [g.output_bias]]
        )
        numeric = finite_difference_gradient(net, data, step=1e-4)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    elapsed = time.perf_counter() - started
    verdict(
        "C1 gradient-vs-finite-differences",
        worst <= 1e-5 and elapsed < 5.0,
        f"(worst rel err {worst:.2e}, {elapsed:.2f}s)",
    )


def test_c2_metric_oracles():
    """Hand-computed worked examples to 1e-12 plus 1000 brute-force cases."""
    fs = ForecastSet([2.0, 4.0], [1.0, 5.0])
    exact = (
        abs(rmse(fs) - 1.0) <= 1e-12
        and abs(mae(fs) - 1.0) <= 1e-12
        and abs(mape(fs) - 37.5) <= 1e-12
    )
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(1, 80))
        actual = rng.uniform(0.5, 80.0, t)
        predicted = actual + rng.normal(0.0, 6.0, t)
        fs = ForecastSet(actual, predicted)
        want = brute_force_metrics(actual, predicted)
        got = (rmse(fs), mae(fs), mape(fs))
        worst = max(
            worst,
            max(abs(a - b) / max(abs(b), 1e-12) for a, b in zip(got, want)),
        )
    verdict(
        "C2 metric-oracles",
        exact and worst <= 1e-12,
        f"(worked examples exact, worst rel dev {worst:.2e} over 1000 cases)",
    )


def test_c3_worker_determinism(tmp_path):
    """cmd_grid --workers 1 vs --workers 8: byte-identical report files."""
    started = time.perf_counter()
    data = tmp_path / "series.csv"
    synth = subprocess.run(
        [sys.executable, "-m", "fxcast", "synth", "--kind", "noisy_ar1",
         "--n", "300", "--seed", "3", "--out", str(data)],
        capture_output=True,
    )
    assert synth.returncode == 0, synth.stderr
    outputs = {}
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}.fxr"
        proc = subprocess.run(
            [sys.executable, "-m", "fxcast", "grid", str(data),
             "--inputs", "1..2", "--hidden", "6,12", "--restarts", "3",
             "--seed", "9", "--workers", workers, "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = (out.read_bytes(), proc.stdout)
    elapsed = time.perf_counter() - started
    files_equal = outputs["1"][0] == outputs["8"][0]
    stdout_equal = outputs["1"][1] == outputs["8"][1]
    verdict(
        "C3 worker-determinism",
        files_equal and stdout_equal and elapsed < 60.0,
        f"(report files {'identical' if files_equal else 'DIFFER'}, "
        f"stdout {'identical' if stdout_equal else 'DIFFER'}, {elapsed:.1f}s)",
    )


def test_c4_fit_capacity_sine():
    """p=4, h=8 reaches in-sample RMSE < 0.02 on noise-free sine (scaled).

    Oracle run (independent GD implementation): best scaled RMSE 0.0038 at
    lr 5e-4 and 0.0025 at lr 1e-3 within 5000 epochs, so 0.02 is attainable
    and kept as stated.
    """
    series = synthesize_series("sine", 300, omega=0.1)
    scaler = fit_scaler(series)
    scaled = TimeSeries(series.dates, scaler.apply(series.values), series.name)
    data = make_windows(scaled, 4)
    cfg = TrainConfig(
        learning_rate=1e-3, max_epochs=5000, restarts=5, master_seed=4
    )
    result = train_multi_restart(Architecture(4, 8), data, cfg)
    scaled_rmse = math.sqrt(result.best_sse / len(data))
    verdict(
        "C4 sine-fit-capacity",
        scaled_rmse < 0.02,
        f"(scaled in-sample RMSE {scaled_rmse:.6f} < 0.02)",
    )


def test_c5_beats_random_walk():
    """Best of p=1, h in {6,12} halves the RW RMSE on logistic-map data.

    Oracle run (independent GD implementation): net/RW RMSE ratio 0.072 at
    lr 1e-3, so the 0.5 factor is attainable; this configuration reproduces
    a ratio well under 0.5 with every h=12 restart escaping the
    predict-the-mean plateau.
    """
    series = synthesize_series("logistic_map", 452, r=4.0, x0=0.3)
    train_series, test_series = split_by_count(series, 400, 52)
    grid = GridConfig(
        input_levels=(1,),
        hidden_levels=(6, 12),
        train_cfg=TrainConfig(
            learning_rate=1e-3, max_epochs=4000, restarts=15, master_seed=5
        ),
    )
    best = min(
        dict(evaluate_cell(train_series, test_series, 1, h, grid)[0].out_sample)["12m"].rmse
        for h in (6, 12)
    )
    rw = dict(random_walk_rows(train_series, test_series, grid.horizon_spec))["12m"]
    verdict(
        "C5 beats-random-walk",
        best < 0.5 * rw.rmse,
        f"(net RMSE {best:.4f} vs RW {rw.rmse:.4f}, ratio {best / rw.rmse:.3f} < 0.5)",
    )


def test_c6_table_shape_fidelity():
    """Default grid: 50 data + 10 Avgr rows, 8 decimals; RW terminal row."""
    series = synthesize_series("noisy_ar1", 552, seed=6, y0=5.0)
    train_series, test_series = split_by_count(series, 500, 52)
    grid = GridConfig(
        train_cfg=TrainConfig(
            learning_rate=1e-4, max_epochs=3, restarts=1, master_seed=6
        )
    )
    report = run_grid(train_series, test_series, grid)
    table = render_table(report, "in_sample")
    lines = table.rstrip("\n").splitlines()
    header_ok = lines[0].split() == ["Input", "Hidden", "RMSE", "MAE", "MAPE"]
    data_rows = [l for l in lines[1:] if not l.startswith("Avgr")]
    avgr_rows = [l for l in lines[1:] if l.startswith("Avgr")]
    import re

    eight_decimals = all(
        re.fullmatch(r"\d+\s+\d+\s+\d+\.\d{8}\s+\d+\.\d{8}\s+\d+\.\d{8}", row)
        for row in data_rows
    )
    out_table = render_table(report, "out_sample_by_input")
    rw_terminal = out_table.rstrip("\n").splitlines()[-1].startswith("RW")
    verdict(
        "C6 table-shape-fidelity",
        header_ok
        and len(data_rows) == 50
        and len(avgr_rows) == 10
        and eight_decimals
        and rw_terminal,
        f"({len(data_rows)} data rows + {len(avgr_rows)} Avgr rows, "
        f"8-decimal columns {'ok' if eight_decimals else 'BAD'}, "
        f"out-of-sample view ends in RW)",
    )


def test_c7_multi_restart_contract(monkeypatch):
    """best_sse <= every restart's final SSE; ties break to lowest index."""
    rng = np.random.default_rng(707)
    checked = 0
    for _ in range(50):
        p = int(rng.integers(1, 4))
        h = int(rng.integers(1, 5))
        n = int(rng.integers(2, 11))
        cfg = TrainConfig(
            learning_rate=float(10 ** rng.uniform(-4, -2)),
            max_epochs=int(rng.integers(5, 41)),
            restarts=int(rng.integers(2, 7)),
            master_seed=int(rng.integers(1 << 30)),
        )
        arch = Architecture(p, h)
        data = make_windows(series_of(rng.uniform(0.0, 1.0, n + p)), p)
        finals = []
        for index in range(cfg.restarts):
            net0 = init_weights(
                arch,
                restart_seed(cfg.master_seed, p, h, index),
                cfg.init_half_width,
            )
            single = train(net0, data, cfg)
            if not single.diverged:
                finals.append((index, single.sse))
        try:
            result = train_multi_restart(arch, data, cfg)
        except DivergenceError:
            assert not finals
            continue
        assert all(result.best_sse <= final for _, final in finals)
        winner = min(finals, key=lambda item: (item[1], item[0]))
        assert (result.best_restart_index, result.best_sse) == winner
        checked += 1

    # exact float ties cannot arise from real training, so pin the
    # tie-breaking rule against a stubbed trainer
    sses = [2.0, 1.0, 1.0, 3.0]

    def fake_train_block(nets0, _data, _cfg):
        return [fxcast.mlp.TrainRun(net=net0, sse=value, sse_trace=np.array([]),
                                    diverged=False) for net0, value in zip(nets0, sses)]

    monkeypatch.setattr(fxcast.mlp, "_train_block", fake_train_block)
    tied = train_multi_restart(
        Architecture(1, 1),
        make_windows(series_of([0.1, 0.2, 0.3]), 1),
        TrainConfig(restarts=4, master_seed=0),
    )
    monkeypatch.undo()
    verdict(
        "C7 multi-restart-contract",
        checked >= 45 and tied.best_restart_index == 1,
        f"({checked}/50 randomized instances verified, tie resolved to index "
        f"{tied.best_restart_index})",
    )


def _full_scale_series():
    return synthesize_series("noisy_ar1", 1095, seed=11, y0=5.0)


@pytest.mark.slow
def test_c8a_reduced_sweep_under_three_minutes():
    """50 cells x 5 restarts on the 1043/52 split in under 180 s."""
    series = _full_scale_series()
    train_series, test_series = split_by_count(series, 1043, 52)
    grid = GridConfig(
        train_cfg=TrainConfig(restarts=5, master_seed=8)
    )
    started = time.perf_counter()
    report = run_grid(
        train_series, test_series, grid, workers=os.cpu_count() or 1
    )
    elapsed = time.perf_counter() - started
    complete = len(report.cells) + len(report.failures) == 50
    verdict(
        "C8a reduced-sweep-time",
        complete and len(report.cells) == 50 and elapsed < 180.0,
        f"(50 cells x 5 restarts in {elapsed:.1f}s < 180s, "
        f"{len(report.cells)} cells trained)",
    )


@pytest.mark.slow
def test_c8b_full_scale_sweep_under_thirty_minutes():
    """50 cells x 50 restarts on the 1043/52 split in under 1800 s."""
    series = _full_scale_series()
    train_series, test_series = split_by_count(series, 1043, 52)
    grid = GridConfig(train_cfg=TrainConfig(restarts=50, master_seed=8))
    started = time.perf_counter()
    report = run_grid(
        train_series, test_series, grid, workers=os.cpu_count() or 1
    )
    elapsed = time.perf_counter() - started
    complete = len(report.cells) + len(report.failures) == 50
    verdict(
        "C8b full-scale-sweep-time",
        complete and len(report.cells) == 50 and elapsed < 1800.0,
        f"(50 cells x 50 restarts in {elapsed:.1f}s < 1800s, "
        f"{len(report.cells)} cells trained)",
    )
