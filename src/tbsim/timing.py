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
the envelope's 10-90 duration equals the configured value exactly and the
plateau keeps its nominal ``on_time - rise - fall`` width to within a fraction
of a sample.  The 10-90 time measured from a sampled trace does not: it
interpolates between samples across the feet, so it can read short by up to
about one sample (5.51 ns for a 5.6 ns edge at the default 0.1 ns step).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import CSV_CHUNK_ROWS
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


# Kind codes are positions in the sort order of EventKind.value, so rows
# ordered by (time_ns, kind code) are ordered by (time_ns, kind.value).
KINDS = tuple(sorted(EventKind, key=lambda kind: kind.value))
_CODE = {kind: code for code, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class TimelineEvent:
    time_ns: float
    kind: EventKind
    payload: dict = field(default_factory=dict)


class EventTimeline:
    """Time-ordered event record of one simulated run, one array per column.

    Columns: ``time_ns`` (float64); ``kind`` (int8), the event's position in
    ``KINDS``: detector_click 0, gate_close 1, gate_open 2, pair_created 3,
    photon2_at_tbs 4, pump_pulse 5, trigger_click 6; ``pulse`` and ``pair``
    (int64) and ``detector`` (int8, 1 for d1 and 2 for d2), each -1 where
    the event has no such field.  Pump pulses carry ``pulse``; pairs, photon-2
    arrivals and trigger clicks carry ``pulse`` and ``pair``; gate edges carry
    ``pair``; detector clicks carry ``detector`` and ``pair``.
    """

    def __init__(self, time_ns, kind, pulse, pair, detector):
        self.time_ns = np.asarray(time_ns, dtype=np.float64)
        self.kind = np.asarray(kind, dtype=np.int8)
        self.pulse = np.asarray(pulse, dtype=np.int64)
        self.pair = np.asarray(pair, dtype=np.int64)
        self.detector = np.asarray(detector, dtype=np.int8)

    @classmethod
    def from_events(cls, events) -> EventTimeline:
        """Timeline of ``TimelineEvent`` rows, in the order given."""
        events = list(events)
        return cls([e.time_ns for e in events], [_CODE[e.kind] for e in events],
                   [e.payload.get("pulse", -1) for e in events],
                   [e.payload.get("pair", -1) for e in events],
                   [int(e.payload["detector"][1:]) if "detector" in e.payload else -1
                    for e in events])

    @classmethod
    def _concat(cls, *blocks) -> EventTimeline:
        """Rows of each (time_ns, kind code, pulse, pair, detector) block in
        turn; a scalar field applies to every row of its block."""
        return cls(*(np.concatenate([np.broadcast_to(block[c], len(block[0])) for block in blocks])
                     for c in range(5)))

    @property
    def events(self) -> Sequence[TimelineEvent]:
        """The rows as ``TimelineEvent`` objects, each built when it is read."""
        return _EventRows(self)

    def _event(self, i: int) -> TimelineEvent:
        payload = {}
        if self.pulse[i] >= 0:
            payload["pulse"] = int(self.pulse[i])
        if self.pair[i] >= 0:
            payload["pair"] = int(self.pair[i])
        if self.detector[i] >= 0:
            payload["detector"] = f"d{self.detector[i]}"
        return TimelineEvent(float(self.time_ns[i]), KINDS[self.kind[i]], payload)

    def of_kind(self, kind: EventKind) -> list[TimelineEvent]:
        return [self._event(i) for i in np.flatnonzero(self.kind == _CODE[kind])]

    def sort(self) -> None:
        """Order the rows by (time_ns, kind); the sort is stable, so rows
        that tie keep their order."""
        order = np.lexsort((self.kind, self.time_ns))
        for name in ("time_ns", "kind", "pulse", "pair", "detector"):
            setattr(self, name, getattr(self, name)[order])

    def csv_chunks(self):
        """``timeline.csv`` as the header, then CSV_CHUNK_ROWS rows at a time."""
        yield "time_ns,kind,payload\n"
        for start in range(0, self.time_ns.size, CSV_CHUNK_ROWS):
            yield self.csv_chunk(start, start + CSV_CHUNK_ROWS)

    def csv_chunk(self, start: int, stop: int) -> str:
        """One ``time_ns,kind,payload`` line per row from ``start`` to ``stop``
        (exclusive); the payload lists the kind's fields as ``key=value`` in
        key order, separated by ``;``."""
        code = self.kind[start:stop]
        rows = np.empty(code.size, dtype=object)
        for kind in EventKind:
            at = np.flatnonzero(code == _CODE[kind]) + start
            t, pulse, pair = (c[at].tolist() for c in (self.time_ns, self.pulse, self.pair))
            name = kind.value
            if kind is EventKind.PUMP_PULSE:
                text = [f"{x!r},{name},pulse={k}\n" for x, k in zip(t, pulse)]
            elif kind in (EventKind.GATE_OPEN, EventKind.GATE_CLOSE):
                text = [f"{x!r},{name},pair={p}\n" for x, p in zip(t, pair)]
            elif kind is EventKind.DETECTOR_CLICK:
                text = [f"{x!r},{name},detector=d{d};pair={p}\n"
                        for x, d, p in zip(t, self.detector[at].tolist(), pair)]
            else:
                text = [f"{x!r},{name},pair={p};pulse={k}\n" for x, p, k in zip(t, pair, pulse)]
            rows[at - start] = text
        return "".join(rows.tolist())

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())


class _EventRows(Sequence):
    """Read-only view of a timeline's rows as ``TimelineEvent`` objects."""

    def __init__(self, timeline: EventTimeline):
        self._timeline = timeline

    def __len__(self) -> int:
        return self._timeline.time_ns.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._timeline._event(i)


@dataclass(frozen=True)
class EomDrive:
    """Gate-pulse shape parameters of the modulator pair."""

    on_time_ns: float = 20.0
    rise_time_10_90_ns: float = 5.6
    fall_time_10_90_ns: float = 5.6
    target_phase_rad: float = math.pi
    edge_tail_ns: float = 0.01  # sub-sample 0-10% and 90-100% feet

    def __post_init__(self) -> None:
        if min(self.on_time_ns, self.rise_time_10_90_ns,
               self.fall_time_10_90_ns, self.edge_tail_ns) <= 0:
            raise ValueError("drive durations must be positive")
        if self.on_time_ns < self.rise_time_10_90_ns + self.fall_time_10_90_ns:
            raise ValueError(
                f"on_time ({self.on_time_ns} ns) shorter than rise + fall "
                f"({self.rise_time_10_90_ns + self.fall_time_10_90_ns} ns)")

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


def _pair_slots(stream: np.ndarray, p_pair: float, n_pulses: int) -> np.ndarray:
    """Positions in ``stream`` of the pair decisions of the first ``n_pulses``
    pulses (see :func:`run_timeline`)."""
    below = np.flatnonzero(stream < p_pair)
    index = np.arange(below.size)
    run_start = np.maximum.accumulate(np.where(np.diff(below, prepend=-2) != 1, index, 0))
    slots = below[(index - run_start) % 2 == 0]
    return slots[slots - np.arange(slots.size) < n_pulses]


def run_timeline(config: TimelineConfig, duration_ns: float,
                 seed: int | np.random.SeedSequence) -> EventTimeline:
    """Simulate the pulsed source and heralding chain for one run.

    Every pump pulse creates a pair with probability ``p_pair``; a detected
    trigger schedules one gate.  Photon 2 always travels the delay fiber.
    Deterministic for a given (config, duration, seed).

    The random stream is that of a pulse-by-pulse loop: pulse ``k`` at time
    ``k * pulse_period_ns`` (up to ``duration_ns``) reads one double and has
    a pair if it is below ``p_pair``; a pair reads one more double, its
    trigger draw, which fires below ``trigger_efficiency`` (it is read even
    at efficiency 1).  So a double is a pair decision exactly when it is
    below ``p_pair`` and the double before it is not a pair decision: in each
    run of consecutive doubles below ``p_pair`` the 1st, 3rd, 5th, ... are
    pairs, and each one's successor is its trigger draw.  A pair at stream
    position ``j`` belongs to pulse ``j`` minus the number of earlier pairs.
    """
    rng = np.random.default_rng(seed)
    fpga = config.delays.resolved_fpga_delay_ns(config.drive)
    n_pulses = int(math.floor(duration_ns / config.pulse_period_ns)) + 1
    pulse_t = np.arange(max(n_pulses, 0)) * config.pulse_period_ns
    # k * period can round past duration_ns for the last k
    pulse_t = pulse_t[:np.searchsorted(pulse_t, duration_ns, side="right")]
    # one double per pulse and one more per pair: 2 per pulse at most
    stream = rng.random(2 * pulse_t.size)
    slots = _pair_slots(stream, config.p_pair, pulse_t.size)
    pair_pulse = slots - np.arange(slots.size)
    pair_id = np.arange(slots.size)
    t = pulse_t[pair_pulse]
    fired = stream[slots + 1] < config.trigger_efficiency
    t_click = (t[fired] + config.delays.detector_latency_ns) + config.delays.cable_delays_ns
    click_pair = pair_id[fired]
    if config.enforce_rate_limit and t_click.size:
        accepted = rate_limit(t_click, config.min_gate_spacing_ns).accepted_mask
    else:
        accepted = slice(None)
    t_open = t_click[accepted] + fpga
    gate_pair = click_pair[accepted]
    tl = EventTimeline._concat(
        (pulse_t, _CODE[EventKind.PUMP_PULSE], np.arange(pulse_t.size), -1, -1),
        (t, _CODE[EventKind.PAIR_CREATED], pair_pulse, pair_id, -1),
        (t + config.delays.fiber_delay_ns, _CODE[EventKind.PHOTON2_AT_TBS],
         pair_pulse, pair_id, -1),
        (t_click, _CODE[EventKind.TRIGGER_CLICK], pair_pulse[fired], click_pair, -1),
        (t_open, _CODE[EventKind.GATE_OPEN], -1, gate_pair, -1),
        (t_open + config.drive.on_time_ns, _CODE[EventKind.GATE_CLOSE], -1, gate_pair, -1))
    # rows of each kind are in pulse order, and the stable sort keeps rows
    # of one kind and one time in that order
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


def phase_at(drive: EomDrive, gate_open_ns: float | np.ndarray,
             t_ns: float | np.ndarray) -> float | np.ndarray:
    """Modulator phase experienced at time ``t_ns`` for a gate opened at
    ``gate_open_ns`` (one gate, or one per time); zero outside the
    on-window, exactly the target on the plateau."""
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
class AlignmentSummary:
    """Gate alignment of a run; the arrays hold one entry per photon-2
    arrival, in time order."""

    n_photons: int
    n_heralded: int
    n_gated: int
    fraction_on_plateau: float
    cross_pulse_fraction: float
    pair_id: np.ndarray
    arrival_ns: np.ndarray
    gate_open_ns: np.ndarray  # NaN where no gate covers the photon
    experienced_phase_rad: np.ndarray
    on_plateau: np.ndarray
    own_gate: np.ndarray


def gate_alignment(timeline: EventTimeline, drive: EomDrive) -> AlignmentSummary:
    """Match photon arrivals against gate windows and grade the alignment.

    For each photon-2 arrival the experienced phase is taken from the gate
    window covering it (the strongest one if several overlap; of equals, the
    first opened).  A photon is "on plateau" when that phase equals the drive
    target exactly.  The cross-pulse fraction counts gated photons switched
    by a gate that was triggered by a different pair.  ``timeline`` must be
    time-ordered, as :func:`run_timeline` returns it.
    """
    photon = timeline.kind == _CODE[EventKind.PHOTON2_AT_TBS]
    arrival, pair_id = timeline.time_ns[photon], timeline.pair[photon]
    gate = timeline.kind == _CODE[EventKind.GATE_OPEN]
    opens, gate_pair = timeline.time_ns[gate], timeline.pair[gate]
    # the gates with t_open < arrival < t_open + on_time are those from
    # index lo up to hi: both bounds are sorted along with the open times
    lo = np.searchsorted(opens + drive.on_time_ns, arrival, side="right")
    hi = np.searchsorted(opens, arrival, side="left")
    depth = np.maximum(hi - lo, 0)
    first = np.cumsum(depth) - depth  # where each photon's candidates start below
    photon_of = np.repeat(np.arange(arrival.size), depth)
    gate_of = lo[photon_of] + np.arange(photon_of.size) - first[photon_of]
    phases = phase_at(drive, opens[gate_of], arrival[photon_of])

    chosen = np.full(arrival.size, -1)
    phase = np.zeros(arrival.size)
    for d in range(int(depth.max(initial=0))):
        at = np.flatnonzero(depth > d)
        ph = phases[first[at] + d]
        take = (chosen[at] < 0) | (ph > phase[at])
        chosen[at[take]] = gate_of[first[at[take]] + d]
        phase[at[take]] = ph[take]

    gated = chosen >= 0
    gate_open = np.full(arrival.size, np.nan)
    gate_open[gated] = opens[chosen[gated]]
    own = np.zeros(arrival.size, dtype=bool)
    own[gated] = gate_pair[chosen[gated]] == pair_id[gated]
    target = drive.target_phase_rad
    on_plateau = np.abs(phase - target) <= PLATEAU_ATOL * max(1.0, abs(target))
    heralded = np.isin(pair_id, timeline.pair[timeline.kind == _CODE[EventKind.TRIGGER_CLICK]])
    n_heralded = int(np.count_nonzero(heralded))
    n_gated = int(np.count_nonzero(gated))
    n_cross = n_gated - int(np.count_nonzero(own))
    return AlignmentSummary(
        n_photons=int(arrival.size), n_heralded=n_heralded, n_gated=n_gated,
        fraction_on_plateau=(int(np.count_nonzero(on_plateau & heralded)) / n_heralded
                             if n_heralded else 0.0),
        cross_pulse_fraction=(n_cross / n_gated) if n_gated else 0.0,
        pair_id=pair_id, arrival_ns=arrival, gate_open_ns=gate_open,
        experienced_phase_rad=phase, on_plateau=on_plateau, own_gate=own)


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


def edge_problem(drive: EomDrive, t_start_ns: float, t_stop_ns: float,
                 dt_ns: float) -> str | None:
    """Why ``measure_rise_time`` or ``measure_fall_time`` would reject
    ``sample_drive(drive, 0, t_start_ns, t_stop_ns, dt_ns)`` for a start at or
    before the gate opens, or None; found from the grid without sampling it.
    The envelope rises and then falls, so the trace maximum and the 10% and
    90% crossings of each edge follow from the ramp shape, and the phase is
    read only at the few grid points around each."""
    times = np.arange(t_start_ns, t_stop_ns, dt_ns)  # sample_drive's grid
    top = drive.rise_span_ns
    lo, hi = np.searchsorted(times, [min(top, drive.on_time_ns - drive.fall_span_ns), top])
    vmax = float(phase_at(drive, 0.0, times[max(lo - 1, 0):hi + 1]).max(initial=0.0))
    if vmax <= 0.0:
        return "flat trace; no transition to measure"
    g, tail, on = vmax / drive.target_phase_rad, drive.edge_tail_ns, drive.on_time_ns

    def reach(level, edge_ns):  # time after a gate edge at which the ramp reaches level <= 0.9
        if level <= 0.1:
            return tail * math.acos(1.0 - 20.0 * level) / math.pi
        return tail + (level - 0.1) / 0.8 * edge_ns

    def first(t, start, passes):  # the first grid index from start, within 3 of time t, that passes
        i = max(int(np.searchsorted(times, t)) - 3, start)
        hits = np.flatnonzero(passes(phase_at(drive, 0.0, times[i:i + 7])))
        return i + int(hits[0]) if hits.size else times.size

    r10 = first(reach(0.1 * g, drive.rise_time_10_90_ns), 0, lambda v: v > 0.1 * vmax)
    r90 = first(reach(0.9 * g, drive.rise_time_10_90_ns), r10, lambda v: v >= 0.9 * vmax)
    f90 = first(on - reach(0.9 * g, drive.fall_time_10_90_ns), r90, lambda v: v < 0.9 * vmax)
    f10 = first(on - reach(0.1 * g, drive.fall_time_10_90_ns), f90, lambda v: v <= 0.1 * vmax)
    for i10, i90 in ((r10 - 1, r90), (f90 - 1, f10)):  # the fall is measured time-reversed
        if i90 == times.size:
            return "trace starts above 10% of its maximum"
        if i90 - i10 < 10:
            return f"only {i90 - i10} samples across the transition; need >= 10"
    return None


def measure_plateau_width(times_ns: np.ndarray, values: np.ndarray, level: float) -> float:
    """Sampled duration (steps of the first two samples) spent exactly at ``level``."""
    times = np.asarray(times_ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if times.size < 2:
        raise ValueError("need at least two samples")
    n = int(np.sum(np.isclose(vals, level, rtol=0.0, atol=PLATEAU_ATOL)))
    return n * float(times[1] - times[0])


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
    # the scalar math.cos and math.sin of tbs, not numpy's, whose last bit
    # may differ and move a click
    phases = alignment.experienced_phase_rad.tolist()
    p1 = np.array([transmissivity(phi) for phi in phases]) * survival * efficiency
    p2 = np.array([reflectivity(phi) for phi in phases]) * survival * efficiency
    u = rng.random(len(phases))
    to_d1 = u < p1
    to_d2 = ~to_d1 & (u < p1 + p2)
    click = np.flatnonzero(to_d1 | to_d2)
    counts = {"d1": int(np.count_nonzero(to_d1)), "d2": int(np.count_nonzero(to_d2)),
              "lost": len(phases) - click.size}
    out = EventTimeline._concat(
        (timeline.time_ns, timeline.kind, timeline.pulse, timeline.pair, timeline.detector),
        (alignment.arrival_ns[click], _CODE[EventKind.DETECTOR_CLICK], -1,
         alignment.pair_id[click], np.where(to_d1[click], 1, 2)))
    out.sort()
    return out, counts


def waveform_to_csv(times_ns: np.ndarray, phases_rad: np.ndarray):
    """``switch_trace.csv`` as the header, then CSV_CHUNK_ROWS samples at a time."""
    yield "time_ns,phase_rad\n"
    for start in range(0, len(times_ns), CSV_CHUNK_ROWS):
        rows = slice(start, start + CSV_CHUNK_ROWS)
        yield "".join(f"{t!r},{p!r}\n"
                      for t, p in zip(times_ns[rows].tolist(), phases_rad[rows].tolist()))
