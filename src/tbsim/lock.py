"""Interferometer phase stabilization with a counter-propagating reference laser.

A 633 nm reference beam shares the interferometer with the 808 nm photons, so
a path-length change that shifts the signal phase by ``phi`` shifts the
monitor fringe by ``phi * 808 / 633``.  The loop holds the monitor photodiode
at half fringe (intensity 0.5, maximum slope), which pins the signal-band
interferometer phase; residual phase is measured relative to that operating
point, so a perfectly locked interferometer leaves the switch fully
transmitting when the modulators are off.

All controller code is discrete-time with a fixed sample period; the PID step
is a pure function so it can be unit tested without a plant.  ``run_lock``
reads the monitor inline with ``math.cos`` on Python floats, bit-identical
to ``monitor_intensity``, because a numpy call per step costs more than the
step itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import CSV_CHUNK_ROWS, bounded, check_bounds

SIGNAL_WAVELENGTH_NM = 808.0
REFERENCE_WAVELENGTH_NM = 633.0
# monitor fringe moves faster than the signal phase by this factor
FRINGE_SCALE = SIGNAL_WAVELENGTH_NM / REFERENCE_WAVELENGTH_NM
# signal-phase offset between the half-fringe lock point and a fringe peak
LOCK_OFFSET_RAD = (math.pi / 2.0) / FRINGE_SCALE
HALF_FRINGE_SETPOINT = 0.5


def hene_signal(phi_rad):
    """Monitor photodiode intensity for a signal-band phase ``phi_rad``.

    Normalized to [0, 1]; unit intensity at zero phase.
    """
    return 0.5 * (1.0 + np.cos(FRINGE_SCALE * np.asarray(phi_rad, dtype=float)))


def monitor_intensity(residual_rad):
    """Photodiode reading as a function of residual phase around the lock
    point; 0.5 exactly when the residual is zero."""
    return hene_signal(np.asarray(residual_rad, dtype=float) + LOCK_OFFSET_RAD)


DRIFT_KINDS = ("random_walk", "sinusoidal", "step")


@dataclass(frozen=True)
class DriftModel:
    """Open-loop phase disturbance.  ``kind`` selects the shape:

    random_walk   increments N(0, rms_rad_per_sqrt_s^2 * dt) per step
    sinusoidal    amplitude_rad * sin(2 pi frequency_hz t)
    step          0 before step_time_s, step_rad after
    """

    kind: str = bounded("random_walk", choices=DRIFT_KINDS)
    rms_rad_per_sqrt_s: float = bounded(0.5, minimum=0.0)
    amplitude_rad: float = bounded(0.0, minimum=0.0)
    frequency_hz: float = bounded(0.0, minimum=0.0)
    step_rad: float = 0.0
    step_time_s: float = bounded(0.0, minimum=0.0)

    __post_init__ = check_bounds

    def sample_path(self, n_steps: int, dt_s: float,
                    rng: np.random.Generator) -> np.ndarray:
        """Drift phase at sample times i*dt, i = 0..n_steps-1; starts at 0."""
        t = np.arange(n_steps) * dt_s
        if self.kind == "random_walk":
            steps = rng.normal(0.0, self.rms_rad_per_sqrt_s * math.sqrt(dt_s),
                               size=n_steps)
            steps[0] = 0.0
            return np.cumsum(steps)
        if self.kind == "sinusoidal":
            return self.amplitude_rad * np.sin(2.0 * np.pi * self.frequency_hz * t)
        return np.where(t >= self.step_time_s, self.step_rad, 0.0)


@dataclass(frozen=True)
class PidGains:
    kp: float = 1.2
    ki: float = 2.0e4
    kd: float = 0.0
    sample_period_s: float = bounded(1.0e-5, above=0.0)
    output_limit_rad: float = bounded(20.0, above=0.0)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class PidState:
    integral: float = 0.0
    prev_error: float | None = None


def pid_step(gains: PidGains, state: PidState, error: float) -> tuple[float, PidState]:
    """One discrete PID update.  Returns (saturated output, next state).

    The integrator is clamped so its own contribution never exceeds the
    output limit (anti-windup), and the total output saturates at
    +-output_limit_rad.
    """
    dt, ki, limit = gains.sample_period_s, gains.ki, gains.output_limit_rad
    integral = state.integral + error * dt
    if ki != 0.0:
        bound = limit / abs(ki)
        integral = min(max(integral, -bound), bound)
    prev_error = state.prev_error
    derivative = 0.0 if prev_error is None else (error - prev_error) / dt
    raw = gains.kp * error + ki * integral + gains.kd * derivative
    return min(max(raw, -limit), limit), PidState(integral, error)


@dataclass(frozen=True)
class LockResult:
    time_s: np.ndarray
    residual_rad: np.ndarray
    monitor: np.ndarray
    actuator_rad: np.ndarray
    rms_residual_rad: float
    lock_fraction: float
    saturated_fraction: float

    def csv_chunks(self):
        """``lock_trace.csv`` as the header, then CSV_CHUNK_ROWS rows at a time."""
        yield "time_s,phi_true_rad,monitor_intensity,actuator_rad\n"
        for start in range(0, self.time_s.size, CSV_CHUNK_ROWS):
            yield self.csv_chunk(start, start + CSV_CHUNK_ROWS)

    def csv_chunk(self, start: int, stop: int) -> str:
        """Rows ``start`` to ``stop`` (exclusive), each float as its shortest
        ``repr``, read from memoryviews without a per-row numpy scalar."""
        columns = (self.time_s, self.residual_rad, self.monitor, self.actuator_rad)
        return "".join(f"{t!r},{p!r},{m!r},{a!r}\n"
                       for t, p, m, a in zip(*(memoryview(c[start:stop]) for c in columns)))

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())


LOCKED_BAND_RAD = 0.15  # residual phase counted as "in lock"


def run_lock(drift: DriftModel, gains: PidGains, duration_s: float, seed: int,
             control_enabled: bool = True) -> LockResult:
    """Closed-loop simulation of the stabilization at the PID sample rate.

    Per step: the residual phase is the drift plus the actuator from the
    previous step, the monitor is read, and the PID turns the half-fringe
    error into the next actuator value.  With control disabled the residual
    is the bare drift, which is how drift statistics are calibrated.
    Summary metrics are computed over the second half of the run so the
    lock-acquisition transient is excluded.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    dt = gains.sample_period_s
    n = max(2, int(round(duration_s / dt)))
    rng = np.random.default_rng(seed)
    drift_path = drift.sample_path(n, dt, rng)
    time_s = np.arange(n) * dt

    if not control_enabled:
        residual = drift_path
        monitor = monitor_intensity(residual)
        actuator = np.zeros(n)
    else:
        residual = np.empty(n)
        monitor = np.empty(n)
        actuator = np.empty(n)
        # monitor_intensity inlined on Python floats, with the same operations
        # in the same order, so the trajectory is bit-identical; a memoryview
        # yields the drift as Python floats without building a list
        cos = math.cos
        state = PidState()
        u = 0.0
        for i, drift_i in enumerate(memoryview(drift_path)):
            phi = drift_i + u
            m = 0.5 * (1.0 + cos(FRINGE_SCALE * (phi + LOCK_OFFSET_RAD)))
            u, state = pid_step(gains, state, m - HALF_FRINGE_SETPOINT)
            residual[i] = phi
            monitor[i] = m
            actuator[i] = u

    tail = slice(n // 2, None)
    rms = float(np.sqrt(np.mean(residual[tail] ** 2)))
    lock_fraction = float(np.mean(np.abs(residual[tail]) < LOCKED_BAND_RAD))
    saturated = float(np.mean(
        np.abs(actuator) >= gains.output_limit_rad * (1.0 - 1e-12)))
    return LockResult(time_s=time_s, residual_rad=residual, monitor=monitor,
                      actuator_rad=actuator, rms_residual_rad=rms,
                      lock_fraction=lock_fraction, saturated_fraction=saturated)


def transmission_at_lock(residual_rad):
    """Switch transmission with modulators off, as a function of the locked
    residual phase; unity exactly at the lock point.  A float for a scalar
    residual, an array of the same shape for an array."""
    t = np.cos(np.asarray(residual_rad, dtype=float) / 2.0) ** 2
    return float(t) if t.ndim == 0 else t
