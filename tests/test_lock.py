"""Stabilization loop: fringe monitor, PID behavior, closed-loop metrics."""

import math

import numpy as np
import pytest

from oracles import run_lock_loop
from tbsim.lock import (CSV_CHUNK_ROWS, FRINGE_SCALE, LOCK_OFFSET_RAD, DriftModel,
                        LockResult, PidGains, PidState, hene_signal,
                        monitor_intensity, pid_step, run_lock, transmission_at_lock)

GOLDEN_SEED = 2024
GOLDEN_RMS = 0.0027260455435108755  # frozen from the committed defaults


def test_monitor_fringe_scale_and_period():
    assert FRINGE_SCALE == pytest.approx(808.0 / 633.0)
    assert hene_signal(0.0) == pytest.approx(1.0)
    period = 2 * math.pi / FRINGE_SCALE
    x = np.linspace(0, period, 13)
    assert np.allclose(hene_signal(x), hene_signal(x + period))


def test_lock_point_sits_at_half_fringe():
    assert LOCK_OFFSET_RAD == pytest.approx(0.5 * math.pi * 633.0 / 808.0)
    assert float(monitor_intensity(0.0)) == pytest.approx(0.5)
    # maximum slope there: small residuals move the monitor linearly
    eps = 1e-6
    slope = (float(monitor_intensity(eps)) - float(monitor_intensity(-eps))) / (2 * eps)
    assert slope == pytest.approx(-0.5 * FRINGE_SCALE, rel=1e-6)


def test_pid_step_integrates_and_differentiates():
    gains = PidGains(kp=2.0, ki=10.0, kd=0.5, sample_period_s=0.1,
                     output_limit_rad=100.0)
    out1, st1 = pid_step(gains, PidState(), 1.0)
    # first step: no derivative, integral = 0.1
    assert out1 == pytest.approx(2.0 * 1.0 + 10.0 * 0.1)
    out2, st2 = pid_step(gains, st1, 2.0)
    assert st2.integral == pytest.approx(0.3)
    assert out2 == pytest.approx(2.0 * 2.0 + 10.0 * 0.3 + 0.5 * (2.0 - 1.0) / 0.1)


def test_pid_output_saturates():
    gains = PidGains(kp=1000.0, ki=0.0, kd=0.0, output_limit_rad=5.0)
    out, _ = pid_step(gains, PidState(), 1.0)
    assert out == 5.0
    out, _ = pid_step(gains, PidState(), -1.0)
    assert out == -5.0


def test_pid_integrator_anti_windup():
    gains = PidGains(kp=0.0, ki=10.0, kd=0.0, sample_period_s=1.0,
                     output_limit_rad=5.0)
    state = PidState()
    for _ in range(100):
        _, state = pid_step(gains, state, 1.0)
    # clamped: the integral contribution alone never exceeds the limit
    assert state.integral == pytest.approx(0.5)
    # so recovery after a sign flip is immediate rather than delayed
    out, state = pid_step(gains, state, -1.0)
    assert out < 5.0


def test_drift_model_validation_and_shapes():
    with pytest.raises(ValueError):
        DriftModel(kind="brownian")
    rng = np.random.default_rng(0)
    n, dt = 2000, 1e-4
    walk = DriftModel(kind="random_walk", rms_rad_per_sqrt_s=0.5)
    path = walk.sample_path(n, dt, rng)
    assert path[0] == 0.0
    sine = DriftModel(kind="sinusoidal", amplitude_rad=0.2, frequency_hz=10.0)
    s = sine.sample_path(n, dt, rng)
    assert np.max(np.abs(s)) <= 0.2 + 1e-12
    assert s[0] == 0.0
    step = DriftModel(kind="step", step_rad=0.4, step_time_s=0.05)
    st = step.sample_path(n, dt, rng)
    assert st[0] == 0.0 and st[-1] == 0.4


def test_random_walk_variance_grows_linearly():
    sigma = 0.5
    dt = 1e-5
    n = 1000
    walk = DriftModel(kind="random_walk", rms_rad_per_sqrt_s=sigma)
    ends = np.empty((300, 3))
    ks = [300, 600, 999]
    for trial in range(300):
        path = walk.sample_path(n, dt, np.random.default_rng(trial))
        ends[trial] = [path[k] for k in ks]
    for j, k in enumerate(ks):
        expect = sigma ** 2 * dt * k
        assert np.var(ends[:, j]) == pytest.approx(expect, rel=0.25)


def test_closed_loop_beats_open_loop():
    drift = DriftModel(kind="random_walk", rms_rad_per_sqrt_s=0.5)
    gains = PidGains()
    closed = run_lock(drift, gains, 0.05, seed=31)
    open_ = run_lock(drift, gains, 0.05, seed=31, control_enabled=False)
    assert closed.rms_residual_rad < open_.rms_residual_rad / 5
    assert closed.lock_fraction > 0.99
    assert closed.saturated_fraction == 0.0


def test_open_loop_residual_is_exactly_the_drift():
    drift = DriftModel(kind="random_walk", rms_rad_per_sqrt_s=0.5)
    gains = PidGains()
    res = run_lock(drift, gains, 0.01, seed=8, control_enabled=False)
    expect = drift.sample_path(res.residual_rad.size, gains.sample_period_s,
                               np.random.default_rng(8))
    assert np.array_equal(res.residual_rad, expect)
    assert np.all(res.actuator_rad == 0.0)


def test_step_disturbance_is_rejected():
    step = DriftModel(kind="step", step_rad=0.5, step_time_s=0.01)
    res = run_lock(step, PidGains(), 0.05, seed=0)
    settle = res.residual_rad[res.time_s > 0.012]
    assert np.max(np.abs(settle)) < 0.02


def test_sinusoidal_disturbance_is_suppressed():
    sine = DriftModel(kind="sinusoidal", amplitude_rad=0.3, frequency_hz=50.0)
    closed = run_lock(sine, PidGains(), 0.05, seed=0)
    open_ = run_lock(sine, PidGains(), 0.05, seed=0, control_enabled=False)
    assert closed.rms_residual_rad < open_.rms_residual_rad / 10


def test_golden_run_rms_is_reproduced_exactly():
    drift = DriftModel(kind="random_walk", rms_rad_per_sqrt_s=0.5)
    res = run_lock(drift, PidGains(), 0.05, seed=GOLDEN_SEED)
    assert res.rms_residual_rad == GOLDEN_RMS


def test_lock_point_gives_full_transmission():
    assert transmission_at_lock(0.0) == 1.0
    drift = DriftModel(kind="random_walk", rms_rad_per_sqrt_s=0.5)
    res = run_lock(drift, PidGains(), 0.05, seed=5)
    tail = res.residual_rad[res.residual_rad.size // 2:]
    mean_t = float(np.mean(np.cos(tail / 2) ** 2))
    assert mean_t > 0.999


def test_lock_trace_csv():
    drift = DriftModel(kind="sinusoidal", amplitude_rad=0.1, frequency_hz=100.0)
    res = run_lock(drift, PidGains(), 0.001, seed=3)
    lines = res.to_csv().splitlines()
    assert lines[0] == "time_s,phi_true_rad,monitor_intensity,actuator_rad"
    assert len(lines) == res.time_s.size + 1
    cells = lines[1].split(",")
    assert float(cells[0]) == res.time_s[0]
    assert float(cells[2]) == res.monitor[0]


def test_run_lock_duration_validation():
    with pytest.raises(ValueError):
        run_lock(DriftModel(), PidGains(), 0.0, seed=0)


def test_long_run_stays_locked():
    # ten seconds of random walk at 0.5 rad/sqrt(s): free drift would reach
    # rms ~ 1.6 rad, the loop has to hold well under 0.05 rad and keep the
    # fringe-contrast cosine factor above 0.998
    res = run_lock(DriftModel(), PidGains(), 10.0, seed=11)
    assert res.rms_residual_rad < 0.05
    assert res.saturated_fraction == 0.0
    cos_factor = float(np.mean(np.cos(res.residual_rad / 2.0) ** 2))
    assert cos_factor > 0.998


WALK = DriftModel(kind="random_walk", rms_rad_per_sqrt_s=0.5)
# (drift, gains, duration in control steps, control enabled)
LOOP_CASES = {
    "random-walk": (WALK, PidGains(), 3001, True),
    "sinusoidal": (DriftModel(kind="sinusoidal", amplitude_rad=0.3, frequency_hz=50.0),
                   PidGains(), 3000, True),
    # a step at t = 0 gives the first step a large error, so a derivative
    # taken there would show
    "step-kd": (DriftModel(kind="step", step_rad=0.5, step_time_s=0.0),
                PidGains(kd=2.0e-5), 2000, True),
    "step-late": (DriftModel(kind="step", step_rad=0.5, step_time_s=0.01),
                  PidGains(), 2000, True),
    "ki-zero": (WALK, PidGains(ki=0.0, kp=3.0), 2000, True),
    "saturating": (DriftModel(kind="random_walk", rms_rad_per_sqrt_s=20.0),
                   PidGains(output_limit_rad=0.05), 2000, True),
    "open-loop": (WALK, PidGains(), 1999, False),
    "two-steps": (WALK, PidGains(), 2, True),
    "chunk-boundary": (WALK, PidGains(), 2 * CSV_CHUNK_ROWS + 1, True),
}


@pytest.mark.parametrize("case", LOOP_CASES)
def test_scalar_loop_reproduces_the_reference_loop(case):
    drift, gains, steps, control = LOOP_CASES[case]
    duration = steps * gains.sample_period_s
    for seed in (1, 7, 1234):
        res = run_lock(drift, gains, duration, seed, control_enabled=control)
        ref = run_lock_loop(drift, gains, duration, seed, control_enabled=control)
        assert res.time_s.size == steps
        for name in ("time_s", "residual_rad", "monitor", "actuator_rad"):
            assert getattr(res, name).tobytes() == getattr(ref, name).tobytes(), name
        assert res.to_csv().encode() == ref.to_csv().encode()
        if case == "saturating":
            assert res.saturated_fraction > 0.0
