"""Independent oracles used by the tests.

Everything here is derived from first principles with plain numpy/scipy so
the package under test never supplies its own expected values.  The one
exceptions are two earlier versions of package code, kept as they were as the
references their replacements are compared against.
``scan_point_shot_level`` is the fringe sampler the package used before it
drew counts, built on the package's own shot-level ``sample_clicks``; the
count-level sampler is compared against it in distribution.  The loop event
engine (``LoopTimeline``, ``run_timeline_loop``, ``gate_alignment_loop`` and
``simulate_switching_loop``) is the feed-forward chain as it was before it ran
on arrays, one ``TimelineEvent`` per row and one random call per draw; the
array engine must reproduce its CSV bytes and summaries exactly.
``run_lock_loop`` is the lock loop as it was before it ran on Python floats,
one numpy ``monitor_intensity`` read and one call of that time's ``pid_step``
(``pid_step_loop``) per step, with the per-row ``to_csv`` of that time;
``run_lock`` must reproduce its trajectory bit for bit and its CSV byte for
byte.  ``check_switch_trace_edges_sampled`` is the ``switch-trace`` config
check as it was before it counted grid points: it samples the whole drive and
measures both edges.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.optimize import curve_fit

from tbsim import detection
from tbsim.config import Diagnostic, ResolvedConfig, build
from tbsim.lock import (HALF_FRINGE_SETPOINT, DriftModel, PidGains, PidState,
                        monitor_intensity)
from tbsim.tbs import (FringePoint, InterferenceQuality, fringe_probability, reflectivity,
                       transmissivity)
from tbsim.timing import (PLATEAU_ATOL, EomDrive, EventKind, TimelineConfig, TimelineEvent,
                          measure_fall_time, measure_rise_time, phase_at, rate_limit,
                          sample_drive)


def interferometer_2x2(phi: float) -> np.ndarray:
    """Single-photon map (rows e, f; columns a, b) built step by step.

    Chain: symmetric 50:50 splitter, +phi/2 on one arm, -phi/2 on the other,
    symmetric 50:50 splitter.  Written out with literal 2x2 matrices.
    """
    t = 1.0 / np.sqrt(2.0)
    bs = np.array([[t, 1j * t], [1j * t, t]])
    arms = np.diag([np.exp(1j * phi / 2.0), np.exp(-1j * phi / 2.0)])
    return bs @ arms @ bs


def two_photon_coincidence(phi: float, gamma: float) -> float:
    """Coincidence probability for one photon in each input port.

    Enumerates the two amplitude paths that leave one photon per output.
    With overlap gamma the outcomes interpolate between the distinguishable
    sum of squared magnitudes and the fully interfering squared sum.
    """
    u = interferometer_2x2(phi)
    amp_keep = u[0, 0] * u[1, 1]  # a -> e together with b -> f
    amp_swap = u[0, 1] * u[1, 0]  # a -> f together with b -> e
    p_dist = abs(amp_keep) ** 2 + abs(amp_swap) ** 2
    p_indist = abs(amp_keep + amp_swap) ** 2
    return float((1.0 - gamma ** 2) * p_dist + gamma ** 2 * p_indist)


def gaussian_overlap_quadrature(sigma_1: float, sigma_2: float,
                                delta_nu: float, tau: float) -> float:
    """|integral f1*(nu) f2(nu) exp(2 pi i nu tau) dnu| for two normalized
    Gaussian amplitude spectra, evaluated numerically."""

    def spectrum(nu, center, sigma):
        return (2.0 * np.pi * sigma ** 2) ** -0.25 * np.exp(
            -(nu - center) ** 2 / (4.0 * sigma ** 2))

    span = 8.0 * max(sigma_1, sigma_2) + abs(delta_nu)

    def integrand_re(nu):
        z = spectrum(nu, 0.0, sigma_1) * spectrum(nu, delta_nu, sigma_2)
        return z * np.cos(2.0 * np.pi * nu * tau)

    def integrand_im(nu):
        z = spectrum(nu, 0.0, sigma_1) * spectrum(nu, delta_nu, sigma_2)
        return z * np.sin(2.0 * np.pi * nu * tau)

    re, _ = quad(integrand_re, -span, span + abs(delta_nu), limit=400)
    im, _ = quad(integrand_im, -span, span + abs(delta_nu), limit=400)
    return float(np.hypot(re, im))


def fit_fringe_curve_fit(phis, r_values, sigmas=None) -> tuple[float, float, float]:
    """Iterative reference fit of R = c0 + c1*cos(phi - phi0).

    Returns (visibility, its 1-sigma uncertainty, phi0 in [0, 2*pi)).  This is
    the nonlinear fit the package used before its closed form: scipy's
    ``curve_fit`` from a data-driven start, the sign of ``c1`` folded into
    ``phi0``, and the (c0, c1) covariance block propagated to V = c1/c0.
    """
    phis = np.asarray(phis, dtype=float)
    r_values = np.asarray(r_values, dtype=float)

    def model(phi, c0, c1, phi0):
        return c0 + c1 * np.cos(phi - phi0)

    p0 = (float(np.mean(r_values)),
          float(np.ptp(r_values) / 2.0),
          float(phis[int(np.argmax(r_values))]))
    popt, pcov = curve_fit(
        model, phis, r_values, p0=p0,
        sigma=None if sigmas is None else np.asarray(sigmas, dtype=float),
        absolute_sigma=sigmas is not None, maxfev=10000)
    c0, c1, phi0 = popt
    if c1 < 0:
        c1, phi0 = -c1, phi0 + np.pi
    g = np.array([-c1 / c0 ** 2, 1.0 / c0, 0.0])
    var_v = float(g @ pcov @ g)
    return float(c1 / c0), float(np.sqrt(max(var_v, 0.0))), float(phi0 % (2.0 * np.pi))


def align_global_phase(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest max-amplitude deviation between x and c*y over unit phases c.

    The optimal unit phase for the max-norm is approximated by the phase
    that matches the dominant component, which is exact whenever the states
    actually are equal up to a global phase.
    """
    k = int(np.argmax(np.abs(x) + np.abs(y)))
    if abs(y[k]) == 0.0:
        return float(np.max(np.abs(x - y)))
    c = x[k] / y[k]
    if abs(c) != 0.0:
        c = c / abs(c)
    else:
        c = 1.0
    return float(np.max(np.abs(x - c * y)))


def scan_point_shot_level(phi: float, point_index: int, quality: InterferenceQuality,
                          shots: int, seed: int, survival: float,
                          detector_model: detection.DetectorModel,
                          trigger_model: detection.DetectorModel,
                          phase_jitter_rms: float, window_ns: float) -> FringePoint:
    """One fringe-scan point drawn shot by shot: per-shot jitter, clicks of
    d1, d2 and the trigger d3, then the d1-d3 and d2-d3 coincidences."""
    # seed derivation keyed by (run seed, point index): results do not depend
    # on how points are distributed over workers
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, point_index)))
    if phase_jitter_rms > 0.0:
        phi_shot = phi + rng.normal(0.0, phase_jitter_rms, size=shots)
    else:
        phi_shot = phi
    r_prob = fringe_probability(phi_shot, quality) * survival
    t_prob = (1.0 - fringe_probability(phi_shot, quality)) * survival
    clicks = detection.sample_clicks(
        {"d1": t_prob, "d2": r_prob},
        {"d1": detector_model, "d2": detector_model},
        shots, rng, window_ns)
    trigger = detection.sample_clicks({"d3": 1.0}, {"d3": trigger_model}, shots, rng, window_ns)
    cc_13 = int(np.sum(clicks["d1"] & trigger["d3"]))
    cc_23 = int(np.sum(clicks["d2"] & trigger["d3"]))
    t_est, r_est, sigma = detection.estimate_T_R(cc_13, cc_23)
    return FringePoint(phi_rad=float(phi), t_est=t_est, r_est=r_est,
                       sigma=sigma, shots=shots, coincidences=cc_13 + cc_23)


def shot_pattern_probabilities(r: float, survival: float, efficiency: float, dark: float,
                               trigger_efficiency: float, trigger_dark: float) -> tuple:
    """Probabilities of the (d1, d2, d3) click patterns 111, 101 and 011 in
    one shot at a fixed phase, by enumerating every outcome.

    The photon reaches d2 with probability ``survival*r``, d1 with
    ``survival*(1 - r)``, or is lost.  Each detector then passes or fails
    its own efficiency trial and its own dark-count trial; it clicks when
    the photon arrived and the efficiency trial passed, or when the dark
    trial fired.  The trigger d3 always receives its photon.
    """
    def bernoulli(p, fired):
        return p if fired else 1.0 - p

    destinations = {"d1": survival * (1.0 - r), "d2": survival * r, "lost": 1.0 - survival}
    totals = {(1, 1, 1): 0.0, (1, 0, 1): 0.0, (0, 1, 1): 0.0}
    for dest, p_dest in destinations.items():
        for e1, e2, e3, k1, k2, k3 in itertools.product((False, True), repeat=6):
            pattern = (int(dest == "d1" and e1 or k1), int(dest == "d2" and e2 or k2),
                       int(e3 or k3))
            if pattern in totals:
                totals[pattern] += (p_dest
                                    * bernoulli(efficiency, e1) * bernoulli(efficiency, e2)
                                    * bernoulli(trigger_efficiency, e3)
                                    * bernoulli(dark, k1) * bernoulli(dark, k2)
                                    * bernoulli(trigger_dark, k3))
    return totals[(1, 1, 1)], totals[(1, 0, 1)], totals[(0, 1, 1)]


@dataclass
class LoopTimeline:
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


def run_timeline_loop(config: TimelineConfig, duration_ns: float,
                      seed: int | np.random.SeedSequence) -> LoopTimeline:
    """Simulate the pulsed source and heralding chain for one run.

    Every pump pulse creates a pair with probability ``p_pair``; a detected
    trigger schedules one gate.  Photon 2 always travels the delay fiber.
    Deterministic for a given (config, duration, seed).
    """
    rng = np.random.default_rng(seed)
    tl = LoopTimeline()
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


@dataclass(frozen=True)
class PhotonGateReport:
    pair_id: int
    arrival_ns: float
    gate_open_ns: float | None
    experienced_phase_rad: float
    on_plateau: bool
    own_gate: bool


@dataclass(frozen=True)
class LoopAlignmentSummary:
    n_photons: int
    n_heralded: int
    n_gated: int
    fraction_on_plateau: float
    cross_pulse_fraction: float
    reports: tuple[PhotonGateReport, ...]


def gate_alignment_loop(timeline: LoopTimeline, drive: EomDrive) -> LoopAlignmentSummary:
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
    return LoopAlignmentSummary(
        n_photons=len(photons), n_heralded=len(heralded), n_gated=n_gated,
        fraction_on_plateau=frac_plateau, cross_pulse_fraction=cross,
        reports=tuple(reports))


def simulate_switching_loop(timeline: LoopTimeline, alignment: LoopAlignmentSummary,
                            seed: int | np.random.SeedSequence,
                            survival: float = 1.0,
                            efficiency: float = 1.0) -> tuple[LoopTimeline, dict]:
    """Route gated photons through the switch and record detector clicks.

    ``alignment`` is :func:`gate_alignment_loop` of ``timeline``.  Each photon-2
    arrival is transmitted to detector d1 (path f) with probability
    ``cos^2(phi/2)`` of its experienced phase, or reflected to d2, then
    thinned by survival and detector efficiency.  Returns a new timeline
    including detector_click events plus a count summary.
    """
    if not 0.0 <= survival <= 1.0 or not 0.0 <= efficiency <= 1.0:
        raise ValueError("survival and efficiency must be in [0, 1]")
    rng = np.random.default_rng(seed)
    out = LoopTimeline(list(timeline.events))
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


@dataclass(frozen=True)
class LoopLockTrace:
    """Per-step record of one lock run, as ``LockResult`` held it."""

    time_s: np.ndarray
    residual_rad: np.ndarray
    monitor: np.ndarray
    actuator_rad: np.ndarray

    def to_csv(self) -> str:
        lines = ["time_s,phi_true_rad,monitor_intensity,actuator_rad"]
        for t, p, m, a in zip(self.time_s, self.residual_rad,
                              self.monitor, self.actuator_rad):
            lines.append(f"{float(t)!r},{float(p)!r},{float(m)!r},{float(a)!r}")
        return "\n".join(lines) + "\n"


def pid_step_loop(gains: PidGains, state: PidState, error: float) -> tuple[float, PidState]:
    """One discrete PID update.  Returns (saturated output, next state).

    The integrator is clamped so its own contribution never exceeds the
    output limit (anti-windup), and the total output saturates at
    +-output_limit_rad.
    """
    dt = gains.sample_period_s
    integral = state.integral + error * dt
    if gains.ki != 0.0:
        bound = gains.output_limit_rad / abs(gains.ki)
        integral = min(max(integral, -bound), bound)
    if state.prev_error is None:
        derivative = 0.0
    else:
        derivative = (error - state.prev_error) / dt
    raw = gains.kp * error + gains.ki * integral + gains.kd * derivative
    out = min(max(raw, -gains.output_limit_rad), gains.output_limit_rad)
    return out, PidState(integral=integral, prev_error=error)


def run_lock_loop(drift: DriftModel, gains: PidGains, duration_s: float, seed: int,
                  control_enabled: bool = True) -> LoopLockTrace:
    """The stabilization loop with one numpy monitor read and one
    ``pid_step_loop`` per step."""
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
        state = PidState()
        u = 0.0
        for i in range(n):
            phi = drift_path[i] + u
            m = float(monitor_intensity(phi))
            error = m - HALF_FRINGE_SETPOINT
            u, state = pid_step_loop(gains, state, error)
            residual[i] = phi
            monitor[i] = m
            actuator[i] = u
    return LoopLockTrace(time_s=time_s, residual_rad=residual, monitor=monitor,
                         actuator_rad=actuator)


def check_switch_trace_edges_sampled(cfg: ResolvedConfig) -> None:
    """Add an error diagnostic to a resolved ``switch-trace`` config whose
    sampled trace fails either edge measurement."""
    v = cfg.values
    drive = build(EomDrive, v)
    times, phases = sample_drive(drive, 0.0, -v["trace.pre_ns"],
                                 drive.on_time_ns + v["trace.post_ns"], v["trace.dt_ns"])
    try:  # each edge needs 10 samples across its 10-90% transition
        measure_rise_time(times, phases)
        measure_fall_time(times, phases)
    except ValueError as exc:
        cfg.diagnostics.append(Diagnostic(
            "error", "trace.dt_ns", f"the trace cannot resolve both edges: {exc}"))
