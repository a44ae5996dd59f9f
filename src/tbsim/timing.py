"""Feed-forward timing: pulse train, heralding chain, gate windows, waveforms.

All times are real-valued nanoseconds on one logical clock that starts at the
first pump pulse.  The heralding chain for a pair born at pulse time ``t``::

    trigger click   t + detector_latency + cable_delays
    gate open       click + fpga_delay
    gate close      open + on_time
    photon 2 at TBS t + fiber_delay

The drive envelope inside a gate rises from 0 to the target phase with a
configured 10-90 time, holds an exact-target plateau, and falls back
symmetrically, the whole envelope contained in the on-window.  The ramp is a
linear 10-90 core with sub-sample cosine feet (0 -> 10% and 90% -> 100%), so
the 10-90 duration equals the configured value exactly and the plateau keeps
its nominal ``on_time - rise - fall`` width to within a fraction of a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .detection import _greedy_keep
from .tbs import reflectivity, transmissivity

SPEED_OF_LIGHT_M_PER_NS = 0.299792458
DEFAULT_SAMPLE_NS = 0.1  # trace sampling step
DEFAULT_MIN_GATE_SPACING_NS = 400.0  # 2.5 MHz drive-rate ceiling
PLATEAU_ATOL = 1e-9  # phase tolerance for "exactly at target"


class EventKind(str, Enum):
    PUMP_PULSE = "pump_pulse"
    PAIR_CREATED = "pair_created"
    TRIGGER_CLICK = "trigger_click"
    GATE_OPEN = "gate_open"
    GATE_CLOSE = "gate_close"
    PHOTON2_AT_TBS = "photon2_at_tbs"
    DETECTOR_CLICK = "detector_click"


@dataclass(frozen=True)
class TimelineEvent:
    time_ns: float
    kind: EventKind
    payload: dict = field(default_factory=dict)


@dataclass
class EventTimeline:
    """Time-ordered event record of one simulated run."""

    events: list[TimelineEvent] = field(default_factory=list)

    def of_kind(self, kind: EventKind) -> list[TimelineEvent]:
        return [e for e in self.events if e.kind == kind]

    def sort(self) -> None:
        self.events.sort(key=lambda e: (e.time_ns, e.kind.value))

    def to_csv(self) -> str:
        lines = ["time_ns,kind,payload"]
        for e in self.events:
            payload = ";".join(f"{k}={v}" for k, v in sorted(e.payload.items()))
            lines.append(f"{e.time_ns!r},{e.kind.value},{payload}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EomDrive:
    """Gate-pulse shape parameters of the modulator pair."""

    on_time_ns: float = 20.0
    rise_time_10_90_ns: float = 5.6
    fall_time_10_90_ns: float = 5.6
    target_phase_rad: float = math.pi
    edge_tail_ns: float = 0.01  # sub-sample 0-10% and 90-100% feet
    polarity_pairing: tuple[int, int] = (+1, -1)  # equal voltages, opposite signs

    def __post_init__(self) -> None:
        if min(self.on_time_ns, self.rise_time_10_90_ns,
               self.fall_time_10_90_ns, self.edge_tail_ns) <= 0:
            raise ValueError("drive durations must be positive")
        if self.on_time_ns < self.rise_time_10_90_ns + self.fall_time_10_90_ns:
            raise ValueError(
                f"on_time ({self.on_time_ns} ns) shorter than rise + fall "
                f"({self.rise_time_10_90_ns + self.fall_time_10_90_ns} ns)")
        if tuple(sorted(self.polarity_pairing)) != (-1, 1):
            raise ValueError("the two crystals must be driven with opposite polarities")

    @property
    def rise_span_ns(self) -> float:
        return self.rise_time_10_90_ns + 2.0 * self.edge_tail_ns

    @property
    def fall_span_ns(self) -> float:
        return self.fall_time_10_90_ns + 2.0 * self.edge_tail_ns

    @property
    def plateau_ns(self) -> float:
        """Width of the exact-target flat top."""
        return self.on_time_ns - self.rise_span_ns - self.fall_span_ns


@dataclass(frozen=True)
class ChainDelays:
    """Fixed delays of the heralding chain."""

    fiber_length_m: float = 100.0
    fiber_group_index: float = 1.468
    detector_latency_ns: float = 110.4  # trigger detector + driver electronics
    cable_delays_ns: float = 0.0
    fpga_delay_ns: float | None = None  # None: choose so the photon hits mid-gate

    def __post_init__(self) -> None:
        if self.fiber_length_m < 0 or self.fiber_group_index < 1.0:
            raise ValueError("invalid fiber parameters")
        if self.detector_latency_ns < 0 or self.cable_delays_ns < 0:
            raise ValueError("delays must be non-negative")
        if self.fpga_delay_ns is not None and self.fpga_delay_ns < 0:
            raise ValueError("fpga_delay_ns must be non-negative")

    @property
    def fiber_delay_ns(self) -> float:
        return self.fiber_length_m * self.fiber_group_index / SPEED_OF_LIGHT_M_PER_NS

    def resolved_fpga_delay_ns(self, drive: EomDrive) -> float:
        """Programmed FPGA delay; defaults to centering the photon in the gate."""
        if self.fpga_delay_ns is not None:
            return self.fpga_delay_ns
        return (self.fiber_delay_ns - self.detector_latency_ns
                - self.cable_delays_ns - drive.on_time_ns / 2.0)


@dataclass(frozen=True)
class TimelineConfig:
    pulse_period_ns: float = 12.5  # 80 MHz pump
    p_pair: float = 0.02
    trigger_efficiency: float = 1.0
    drive: EomDrive = field(default_factory=EomDrive)
    delays: ChainDelays = field(default_factory=ChainDelays)
    enforce_rate_limit: bool = False
    min_gate_spacing_ns: float = DEFAULT_MIN_GATE_SPACING_NS

    def __post_init__(self) -> None:
        if self.pulse_period_ns <= 0:
            raise ValueError("pulse_period_ns must be positive")
        if not 0.0 <= self.p_pair <= 1.0:
            raise ValueError(f"p_pair must be in [0, 1], got {self.p_pair}")
        if not 0.0 <= self.trigger_efficiency <= 1.0:
            raise ValueError("trigger_efficiency must be in [0, 1]")


def run_timeline(config: TimelineConfig, duration_ns: float,
                 seed: int | np.random.SeedSequence) -> EventTimeline:
    """Simulate the pulsed source and heralding chain for one run.

    Every pump pulse creates a pair with probability ``p_pair``; a detected
    trigger schedules one gate.  Photon 2 always travels the delay fiber.
    Deterministic for a given (config, duration, seed).
    """
    rng = np.random.default_rng(seed)
    tl = EventTimeline()
    fpga = config.delays.resolved_fpga_delay_ns(config.drive)
    n_pulses = int(math.floor(duration_ns / config.pulse_period_ns)) + 1
    pair_id = 0
    click_times: list[float] = []
    click_pairs: list[int] = []
    for k in range(n_pulses):
        t = k * config.pulse_period_ns
        if t > duration_ns:
            break
        tl.events.append(TimelineEvent(t, EventKind.PUMP_PULSE, {"pulse": k}))
        if rng.random() >= config.p_pair:
            continue
        tl.events.append(TimelineEvent(
            t, EventKind.PAIR_CREATED, {"pulse": k, "pair": pair_id}))
        tl.events.append(TimelineEvent(
            t + config.delays.fiber_delay_ns, EventKind.PHOTON2_AT_TBS,
            {"pulse": k, "pair": pair_id}))
        if rng.random() < config.trigger_efficiency:
            t_click = t + config.delays.detector_latency_ns + config.delays.cable_delays_ns
            tl.events.append(TimelineEvent(
                t_click, EventKind.TRIGGER_CLICK, {"pulse": k, "pair": pair_id}))
            click_times.append(t_click)
            click_pairs.append(pair_id)
        pair_id += 1

    if config.enforce_rate_limit and click_times:
        result = rate_limit(np.array(click_times), config.min_gate_spacing_ns)
        accepted = set(np.flatnonzero(result.accepted_mask).tolist())
    else:
        accepted = set(range(len(click_times)))
    for i, (t_click, pid) in enumerate(zip(click_times, click_pairs)):
        if i not in accepted:
            continue
        t_open = t_click + fpga
        tl.events.append(TimelineEvent(
            t_open, EventKind.GATE_OPEN, {"pair": pid}))
        tl.events.append(TimelineEvent(
            t_open + config.drive.on_time_ns, EventKind.GATE_CLOSE, {"pair": pid}))
    tl.sort()
    return tl


def _ramp_fraction(u: np.ndarray, rise_10_90: float, tail: float) -> np.ndarray:
    """Monotone 0 -> 1 shape: cosine foot, linear 10-90 core, cosine head."""
    span = rise_10_90 + 2.0 * tail
    out = np.zeros_like(u)
    m = (u > 0.0) & (u < tail)
    out[m] = 0.05 * (1.0 - np.cos(np.pi * u[m] / tail))
    m = (u >= tail) & (u <= tail + rise_10_90)
    out[m] = 0.1 + 0.8 * (u[m] - tail) / rise_10_90
    m = (u > tail + rise_10_90) & (u < span)
    out[m] = 1.0 - 0.05 * (1.0 - np.cos(np.pi * (span - u[m]) / tail))
    out[u >= span] = 1.0
    return out


def phase_at(drive: EomDrive, gate_open_ns: float,
             t_ns: float | np.ndarray) -> float | np.ndarray:
    """Modulator phase experienced at time ``t_ns`` for a gate opened at
    ``gate_open_ns``; zero outside the on-window, exactly the target on the
    plateau."""
    scalar = np.isscalar(t_ns)
    u = np.atleast_1d(np.asarray(t_ns, dtype=float)) - gate_open_ns
    inside = (u > 0.0) & (u < drive.on_time_ns)
    uu = np.where(inside, u, 0.0)
    rising = _ramp_fraction(uu, drive.rise_time_10_90_ns, drive.edge_tail_ns)
    falling = _ramp_fraction(drive.on_time_ns - uu, drive.fall_time_10_90_ns,
                             drive.edge_tail_ns)
    phase = np.where(inside, drive.target_phase_rad * np.minimum(rising, falling), 0.0)
    if scalar:
        return float(phase[0])
    return phase


def sample_drive(drive: EomDrive, gate_open_ns: float,
                 t_start_ns: float, t_stop_ns: float,
                 dt_ns: float = DEFAULT_SAMPLE_NS) -> tuple[np.ndarray, np.ndarray]:
    """Sample the gate envelope on a regular grid (for traces and plots)."""
    if dt_ns <= 0 or t_stop_ns <= t_start_ns:
        raise ValueError("need dt > 0 and t_stop > t_start")
    times = np.arange(t_start_ns, t_stop_ns, dt_ns)
    return times, phase_at(drive, gate_open_ns, times)


@dataclass(frozen=True)
class PhotonGateReport:
    pair_id: int
    arrival_ns: float
    gate_open_ns: float | None
    experienced_phase_rad: float
    on_plateau: bool
    own_gate: bool


@dataclass(frozen=True)
class AlignmentSummary:
    n_photons: int
    n_heralded: int
    n_gated: int
    fraction_on_plateau: float
    cross_pulse_fraction: float
    reports: tuple[PhotonGateReport, ...]


def gate_alignment(timeline: EventTimeline, drive: EomDrive) -> AlignmentSummary:
    """Match photon arrivals against gate windows and grade the alignment.

    For each photon-2 arrival the experienced phase is taken from the gate
    window covering it (the strongest one if several overlap).  A photon is
    "on plateau" when that phase equals the drive target exactly.  The
    cross-pulse fraction counts gated photons switched by a gate that was
    triggered by a different pair.
    """
    gates = [(e.time_ns, e.payload.get("pair")) for e in timeline.of_kind(EventKind.GATE_OPEN)]
    heralded_pairs = {e.payload.get("pair") for e in timeline.of_kind(EventKind.TRIGGER_CLICK)}
    reports = []
    n_gated = 0
    n_cross = 0
    photons = timeline.of_kind(EventKind.PHOTON2_AT_TBS)
    for ev in photons:
        arrival = ev.time_ns
        pid = ev.payload.get("pair")
        best_phase = 0.0
        best_gate: tuple[float, int] | None = None
        for t_open, gate_pair in gates:
            if not (t_open < arrival < t_open + drive.on_time_ns):
                continue
            ph = phase_at(drive, t_open, arrival)
            if best_gate is None or ph > best_phase:
                best_phase = ph
                best_gate = (t_open, gate_pair)
        on_plateau = bool(abs(best_phase - drive.target_phase_rad)
                          <= PLATEAU_ATOL * max(1.0, abs(drive.target_phase_rad)))
        own = best_gate is not None and best_gate[1] == pid
        if best_gate is not None:
            n_gated += 1
            if not own:
                n_cross += 1
        reports.append(PhotonGateReport(
            pair_id=pid, arrival_ns=arrival,
            gate_open_ns=None if best_gate is None else best_gate[0],
            experienced_phase_rad=float(best_phase),
            on_plateau=on_plateau, own_gate=own))
    heralded = [r for r in reports if r.pair_id in heralded_pairs]
    frac_plateau = (sum(r.on_plateau for r in heralded) / len(heralded)) if heralded else 0.0
    cross = (n_cross / n_gated) if n_gated else 0.0
    return AlignmentSummary(
        n_photons=len(photons), n_heralded=len(heralded), n_gated=n_gated,
        fraction_on_plateau=frac_plateau, cross_pulse_fraction=cross,
        reports=tuple(reports))


@dataclass(frozen=True)
class RateLimitResult:
    accepted_mask: np.ndarray
    accepted_times: np.ndarray
    rejected_times: np.ndarray


def rate_limit(request_times_ns: np.ndarray,
               min_spacing_ns: float = DEFAULT_MIN_GATE_SPACING_NS) -> RateLimitResult:
    """Greedy drive-rate limiter: accept a request only if the previously
    accepted one is at least ``min_spacing_ns`` earlier."""
    times = np.asarray(request_times_ns, dtype=float)
    if times.size > 1 and np.any(np.diff(times) < 0):
        raise ValueError("request times must be sorted")
    mask = _greedy_keep(times, min_spacing_ns)
    return RateLimitResult(accepted_mask=mask,
                           accepted_times=times[mask],
                           rejected_times=times[~mask])


def _crossing_up(times: np.ndarray, values: np.ndarray, level: float,
                 i_from: int, i_to: int) -> float:
    for j in range(i_from + 1, i_to + 1):
        if values[j] >= level:
            t0, t1 = times[j - 1], times[j]
            v0, v1 = values[j - 1], values[j]
            if v1 == v0:
                return float(t1)
            return float(t0 + (level - v0) / (v1 - v0) * (t1 - t0))
    raise ValueError("level never crossed")  # pragma: no cover - guarded by caller


def _transition_up(values: np.ndarray) -> tuple[int, int]:
    """Indices bracketing the first 10%-to-90% upward transition."""
    vmax = float(values.max())
    if vmax <= 0.0 or float(values.min()) == vmax:
        raise ValueError("flat trace; no transition to measure")
    above = np.flatnonzero(values >= 0.9 * vmax)
    i90 = int(above[0])
    below = np.flatnonzero(values[:i90 + 1] <= 0.1 * vmax)
    if below.size == 0:
        raise ValueError("trace starts above 10% of its maximum")
    i10 = int(below[-1])
    seg = values[i10:i90 + 1]
    if np.any(np.diff(seg) < -1e-9 * vmax):
        raise ValueError("transition is not monotone")
    if i90 - i10 < 10:
        raise ValueError(f"only {i90 - i10} samples across the transition; need >= 10")
    return i10, i90


def measure_rise_time(times_ns: np.ndarray, values: np.ndarray) -> float:
    """10-90 rise time from linear-interpolated level crossings."""
    times = np.asarray(times_ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    i10, i90 = _transition_up(vals)
    vmax = float(vals.max())
    t10 = _crossing_up(times, vals, 0.1 * vmax, i10 - 1 if i10 > 0 else 0, i90)
    t90 = _crossing_up(times, vals, 0.9 * vmax, i10 - 1 if i10 > 0 else 0, i90)
    return t90 - t10


def measure_fall_time(times_ns: np.ndarray, values: np.ndarray) -> float:
    """90-10 fall time; measured as the rise time of the time-reversed trace."""
    times = np.asarray(times_ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    return measure_rise_time(times[-1] - times[::-1], vals[::-1])


def measure_plateau_width(times_ns: np.ndarray, values: np.ndarray,
                          level: float, dt_ns: float | None = None) -> float:
    """Total sampled duration at which the trace sits exactly at ``level``."""
    times = np.asarray(times_ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if dt_ns is None:
        if times.size < 2:
            raise ValueError("need at least two samples")
        dt_ns = float(times[1] - times[0])
    n = int(np.sum(np.isclose(vals, level, rtol=0.0, atol=PLATEAU_ATOL)))
    return n * dt_ns


def simulate_switching(timeline: EventTimeline, alignment: AlignmentSummary,
                       seed: int | np.random.SeedSequence,
                       survival: float = 1.0,
                       efficiency: float = 1.0) -> tuple[EventTimeline, dict]:
    """Route gated photons through the switch and record detector clicks.

    ``alignment`` is :func:`gate_alignment` of ``timeline``.  Each photon-2
    arrival is transmitted to detector d1 (path f) with probability
    ``cos^2(phi/2)`` of its experienced phase, or reflected to d2, then
    thinned by survival and detector efficiency.  Returns a new timeline
    including detector_click events plus a count summary.
    """
    if not 0.0 <= survival <= 1.0 or not 0.0 <= efficiency <= 1.0:
        raise ValueError("survival and efficiency must be in [0, 1]")
    rng = np.random.default_rng(seed)
    out = EventTimeline(list(timeline.events))
    counts = {"d1": 0, "d2": 0, "lost": 0}
    for rep in alignment.reports:
        phi = rep.experienced_phase_rad
        p1 = transmissivity(phi) * survival * efficiency
        p2 = reflectivity(phi) * survival * efficiency
        u = rng.random()
        if u < p1:
            det = "d1"
        elif u < p1 + p2:
            det = "d2"
        else:
            counts["lost"] += 1
            continue
        counts[det] += 1
        out.events.append(TimelineEvent(
            rep.arrival_ns, EventKind.DETECTOR_CLICK,
            {"detector": det, "pair": rep.pair_id}))
    out.sort()
    return out, counts


def waveform_to_csv(times_ns: np.ndarray, phases_rad: np.ndarray) -> str:
    lines = ["time_ns,phase_rad"]
    for t, p in zip(times_ns, phases_rad):
        lines.append(f"{float(t)!r},{float(p)!r}")
    return "\n".join(lines) + "\n"
