"""Heralding chain timing, gate envelopes, edge metrology, rate limiting."""

import math

import numpy as np
import pytest

from oracles import gate_alignment_loop, run_timeline_loop, simulate_switching_loop
from tbsim.timing import (ChainDelays, EomDrive, EventKind, EventTimeline,
                          TimelineConfig, TimelineEvent, gate_alignment,
                          measure_fall_time, measure_plateau_width,
                          measure_rise_time, phase_at, rate_limit, run_timeline,
                          sample_drive, simulate_switching, waveform_to_csv)

FIBER_DELAY_100M = 489.67209175088726  # 100 m of n=1.468 fiber


def test_fiber_delay_value():
    d = ChainDelays()
    assert d.fiber_delay_ns == pytest.approx(FIBER_DELAY_100M, rel=1e-15)


def test_auto_fpga_delay_centers_the_photon():
    d = ChainDelays()
    drive = EomDrive()
    fpga = d.resolved_fpga_delay_ns(drive)
    assert fpga == pytest.approx(FIBER_DELAY_100M - 110.4 - 10.0, rel=1e-12)
    # photon offset inside the gate = fiber - latency - fpga = half the window
    offset = d.fiber_delay_ns - d.detector_latency_ns - fpga
    assert offset == pytest.approx(drive.on_time_ns / 2)


def test_explicit_fpga_delay_wins():
    d = ChainDelays(fpga_delay_ns=200.0)
    assert d.resolved_fpga_delay_ns(EomDrive()) == 200.0


def test_drive_validation():
    with pytest.raises(ValueError):
        EomDrive(on_time_ns=10.0)  # cannot fit 5.6 + 5.6
    with pytest.raises(ValueError):
        EomDrive(rise_time_10_90_ns=0.0)


def test_phase_is_zero_outside_the_window_and_target_inside():
    drive = EomDrive()
    assert phase_at(drive, 100.0, 99.0) == 0.0
    assert phase_at(drive, 100.0, 121.0) == 0.0
    mid = phase_at(drive, 100.0, 110.0)
    assert mid == drive.target_phase_rad  # dead center of the plateau


def test_phase_envelope_is_symmetric_for_equal_edges():
    drive = EomDrive()
    for u in (0.5, 2.0, 4.0, 5.6, 9.0):
        up = phase_at(drive, 0.0, u)
        down = phase_at(drive, 0.0, drive.on_time_ns - u)
        assert up == pytest.approx(down, abs=1e-12)


def test_phase_envelope_monotone_on_the_rise():
    drive = EomDrive()
    t = np.linspace(0.0, drive.rise_span_ns, 500)
    ph = phase_at(drive, 0.0, t)
    assert np.all(np.diff(ph) >= -1e-12)
    assert ph[0] == 0.0
    assert ph[-1] == pytest.approx(drive.target_phase_rad)


def test_exact_target_only_on_the_nominal_plateau():
    drive = EomDrive()
    t = np.arange(0.0, drive.on_time_ns, 0.001)
    ph = phase_at(drive, 0.0, t)
    at_target = np.isclose(ph, drive.target_phase_rad, rtol=0, atol=1e-12)
    lo, hi = t[at_target][0], t[at_target][-1]
    assert lo == pytest.approx(drive.rise_span_ns, abs=0.002)
    assert hi == pytest.approx(drive.on_time_ns - drive.fall_span_ns, abs=0.002)


def test_measured_rise_time_on_an_ideal_linear_ramp():
    # 0 to 1 over 7 ns: the 10-90 cut is exactly 5.6 ns
    t = np.arange(0.0, 10.0, 0.1)
    v = np.clip(t / 7.0, 0.0, 1.0)
    assert measure_rise_time(t, v) == pytest.approx(5.6, abs=1e-9)


def test_measured_rise_and_fall_of_the_configured_gate():
    drive = EomDrive()
    times, ph = sample_drive(drive, 0.0, -2.0, drive.on_time_ns + 2.0, 0.1)
    rise = measure_rise_time(times, ph)
    fall = measure_fall_time(times, ph)
    assert rise == pytest.approx(5.6, abs=0.1)
    assert fall == pytest.approx(rise, abs=0.1)


def test_edge_metrics_across_grid_alignments():
    drive = EomDrive()
    for k in range(23):
        t0 = -2.0 + k * 0.1 / 23
        times, ph = sample_drive(drive, 0.0, t0, drive.on_time_ns + 2.0, 0.1)
        rise = measure_rise_time(times, ph)
        plateau = measure_plateau_width(times, ph, drive.target_phase_rad)
        assert abs(rise - 5.6) < 0.1
        assert plateau in (pytest.approx(8.7), pytest.approx(8.8))


def test_measure_rise_time_error_cases():
    t = np.arange(0.0, 10.0, 0.1)
    with pytest.raises(ValueError):
        measure_rise_time(t, np.zeros_like(t))  # flat
    with pytest.raises(ValueError):
        measure_rise_time(t, np.ones_like(t))  # starts above 10%
    step = (t >= 5.0).astype(float)
    with pytest.raises(ValueError):
        measure_rise_time(t, step)  # too few samples across the edge
    bumpy = np.clip(t / 7.0, 0, 1) + 0.2 * ((t > 2) & (t < 2.4))
    with pytest.raises(ValueError):
        measure_rise_time(t, bumpy)  # non-monotone transition


def test_run_timeline_is_deterministic():
    cfg = TimelineConfig()
    a = run_timeline(cfg, 20000.0, seed=9)
    b = run_timeline(cfg, 20000.0, seed=9)
    assert list(a.events) == list(b.events)
    c = run_timeline(cfg, 20000.0, seed=10)
    assert list(c.events) != list(a.events)


def test_run_timeline_event_chain_delays():
    cfg = TimelineConfig(p_pair=0.2)
    tl = run_timeline(cfg, 5000.0, seed=1)
    pairs = {e.payload["pair"]: e.time_ns for e in tl.of_kind(EventKind.PAIR_CREATED)}
    fpga = cfg.delays.resolved_fpga_delay_ns(cfg.drive)
    for ev in tl.of_kind(EventKind.TRIGGER_CLICK):
        born = pairs[ev.payload["pair"]]
        assert ev.time_ns == pytest.approx(born + 110.4)
    for ev in tl.of_kind(EventKind.GATE_OPEN):
        born = pairs[ev.payload["pair"]]
        assert ev.time_ns == pytest.approx(born + 110.4 + fpga)
    for ev in tl.of_kind(EventKind.PHOTON2_AT_TBS):
        born = pairs[ev.payload["pair"]]
        assert ev.time_ns == pytest.approx(born + FIBER_DELAY_100M)
    # causality: each gate opens after its own trigger click
    clicks = {e.payload["pair"]: e.time_ns for e in tl.of_kind(EventKind.TRIGGER_CLICK)}
    for ev in tl.of_kind(EventKind.GATE_OPEN):
        assert ev.time_ns > clicks[ev.payload["pair"]]


def test_default_alignment_puts_photons_on_the_plateau():
    tl = run_timeline(TimelineConfig(p_pair=0.1), 20000.0, seed=5)
    summary = gate_alignment(tl, EomDrive())
    assert summary.n_heralded > 0
    assert summary.fraction_on_plateau == 1.0
    assert summary.cross_pulse_fraction == 0.0


def test_misaligned_fpga_delay_misses_the_plateau():
    delays = ChainDelays(fpga_delay_ns=100.0)  # gate opens far too early
    cfg = TimelineConfig(p_pair=0.1, delays=delays)
    tl = run_timeline(cfg, 20000.0, seed=5)
    summary = gate_alignment(tl, EomDrive())
    assert summary.fraction_on_plateau == 0.0


def test_cross_pulse_gating_is_attributed():
    # two pairs 12.5 ns apart; only the first is heralded, and its gate is
    # deliberately delayed so it covers the second photon instead
    drive = EomDrive()
    arrival_1 = 500.0
    arrival_2 = 512.5
    gate_open = arrival_2 - drive.on_time_ns / 2
    tl = EventTimeline.from_events([
        TimelineEvent(0.0, EventKind.PAIR_CREATED, {"pair": 0}),
        TimelineEvent(12.5, EventKind.PAIR_CREATED, {"pair": 1}),
        TimelineEvent(110.4, EventKind.TRIGGER_CLICK, {"pair": 0}),
        TimelineEvent(gate_open, EventKind.GATE_OPEN, {"pair": 0}),
        TimelineEvent(gate_open + drive.on_time_ns, EventKind.GATE_CLOSE, {"pair": 0}),
        TimelineEvent(arrival_1, EventKind.PHOTON2_AT_TBS, {"pair": 0}),
        TimelineEvent(arrival_2, EventKind.PHOTON2_AT_TBS, {"pair": 1}),
    ])
    tl.sort()
    summary = gate_alignment(tl, drive)
    second = summary.pair_id.tolist().index(1)
    assert summary.on_plateau[second] and not summary.own_gate[second]
    assert summary.cross_pulse_fraction > 0.0


def test_rate_limit_greedy_hand_case():
    res = rate_limit(np.array([0.0, 100.0, 399.9, 400.0, 900.0]), 400.0)
    assert res.accepted_times.tolist() == [0.0, 400.0, 900.0]
    assert res.rejected_times.tolist() == [100.0, 399.9]


def test_rate_limit_five_mhz_train_drops_every_second():
    train = np.arange(0.0, 4000.0, 200.0)
    res = rate_limit(train, 400.0)
    assert np.array_equal(res.accepted_mask, np.arange(train.size) % 2 == 0)


def test_rate_limit_requires_sorted_input():
    with pytest.raises(ValueError):
        rate_limit(np.array([10.0, 0.0]))


def test_run_timeline_honors_the_rate_limiter():
    cfg = TimelineConfig(p_pair=1.0, enforce_rate_limit=True)
    tl = run_timeline(cfg, 5000.0, seed=0)
    opens = sorted(e.time_ns for e in tl.of_kind(EventKind.GATE_OPEN))
    assert len(opens) > 1
    assert min(np.diff(opens)) >= 400.0
    # triggers are still recorded even when their gate is dropped
    assert len(tl.of_kind(EventKind.TRIGGER_CLICK)) > len(opens)


def test_simulate_switching_routes_by_the_experienced_phase():
    tl = run_timeline(TimelineConfig(p_pair=0.1), 30000.0, seed=12)
    # target pi: every gated photon reflects
    _, counts_pi = simulate_switching(
        tl, gate_alignment(tl, EomDrive(target_phase_rad=math.pi)), seed=1)
    assert counts_pi["d1"] == 0 and counts_pi["d2"] > 0
    # removing the gates entirely (phase 0 experienced) would transmit; a
    # pi/2 target splits roughly evenly instead
    _, counts_half = simulate_switching(
        tl, gate_alignment(tl, EomDrive(target_phase_rad=math.pi / 2)), seed=1)
    total = counts_half["d1"] + counts_half["d2"]
    assert abs(counts_half["d1"] / total - 0.5) < 5 / math.sqrt(total)


def test_simulate_switching_survival_thins_clicks():
    tl = run_timeline(TimelineConfig(p_pair=0.2), 50000.0, seed=2)
    _, counts = simulate_switching(tl, gate_alignment(tl, EomDrive()), seed=3, survival=0.3)
    total = counts["d1"] + counts["d2"] + counts["lost"]
    frac = (counts["d1"] + counts["d2"]) / total
    assert abs(frac - 0.3) < 5 * math.sqrt(0.3 * 0.7 / total)


def test_timeline_csv_and_waveform_csv():
    tl = run_timeline(TimelineConfig(p_pair=0.5), 100.0, seed=0)
    text = tl.to_csv()
    lines = text.splitlines()
    assert lines[0] == "time_ns,kind,payload"
    assert any("pump_pulse" in ln for ln in lines[1:])
    times, ph = sample_drive(EomDrive(), 0.0, 0.0, 1.0, 0.1)
    wf = "".join(waveform_to_csv(times, ph)).splitlines()
    assert wf[0] == "time_ns,phase_rad"
    assert len(wf) == 11


def test_sample_drive_rejects_bad_grid():
    with pytest.raises(ValueError):
        sample_drive(EomDrive(), 0.0, 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        sample_drive(EomDrive(), 0.0, 0.0, 1.0, 0.0)


# The loop engine in tests/oracles.py is the reference: for every config,
# seed and run length the array engine must give the same bytes and numbers.
ENGINE_CASES = {
    "default": (TimelineConfig(), 1.0, 1.0),
    "limiter-p0.3": (TimelineConfig(p_pair=0.3, enforce_rate_limit=True), 1.0, 1.0),
    "no-pairs": (TimelineConfig(p_pair=0.0), 1.0, 1.0),
    "pair-every-pulse": (TimelineConfig(p_pair=1.0, enforce_rate_limit=True), 1.0, 1.0),
    "lossy-trigger": (TimelineConfig(p_pair=0.5, trigger_efficiency=0.7), 0.8, 0.9),
    # gates overlap; the previous pulse's gate covers most photons at its plateau
    "dense-cross-pulse": (TimelineConfig(p_pair=0.9, delays=ChainDelays(fpga_delay_ns=378.0)),
                          1.0, 1.0),
    "misaligned": (TimelineConfig(p_pair=0.3, delays=ChainDelays(fpga_delay_ns=100.0)), 1.0, 1.0),
    "ramp-edge": (TimelineConfig(p_pair=0.3, delays=ChainDelays(fpga_delay_ns=376.0)), 1.0, 1.0),
    # gates 3.3 ns apart: a photon can sit on two plateaus, a tie the first gate wins
    "half-pi-3.3ns-cable": (
        TimelineConfig(pulse_period_ns=3.3, p_pair=0.2,
                       drive=EomDrive(target_phase_rad=math.pi / 2),
                       delays=ChainDelays(cable_delays_ns=2.5)), 0.9, 1.0),
}


def _photon_rows(alignment):
    return list(zip(alignment.pair_id.tolist(), alignment.arrival_ns.tolist(),
                    [None if math.isnan(g) else g for g in alignment.gate_open_ns.tolist()],
                    alignment.experienced_phase_rad.tolist(), alignment.on_plateau.tolist(),
                    alignment.own_gate.tolist()))


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_array_engine_reproduces_the_loop_engine(name):
    config, survival, efficiency = ENGINE_CASES[name]
    for duration in (0.0, 1001.7, 4000.0, 9000.0):  # 1001.7 is no multiple of a period
        for seed in range(6):
            loop = run_timeline_loop(config, duration, seed)
            tl = run_timeline(config, duration, seed)
            assert tl.to_csv() == loop.to_csv()
            loop_alignment = gate_alignment_loop(loop, config.drive)
            alignment = gate_alignment(tl, config.drive)
            for scalar in ("n_photons", "n_heralded", "n_gated", "fraction_on_plateau",
                           "cross_pulse_fraction"):
                assert getattr(alignment, scalar) == getattr(loop_alignment, scalar)
            assert _photon_rows(alignment) == [
                (r.pair_id, r.arrival_ns, r.gate_open_ns, r.experienced_phase_rad,
                 r.on_plateau, r.own_gate) for r in loop_alignment.reports]
            loop_switched, loop_counts = simulate_switching_loop(
                loop, loop_alignment, seed + 100, survival, efficiency)
            switched, counts = simulate_switching(tl, alignment, seed + 100, survival, efficiency)
            assert counts == loop_counts
            assert switched.to_csv() == loop_switched.to_csv()


def test_stream_walk_reads_the_second_of_two_low_draws_as_a_trigger():
    # seed 2 starts 0.262, 0.298, 0.814: the first two doubles are both below
    # p_pair, but the second is pulse 0's trigger draw and pulse 1 reads the
    # third; read as pulse 1's decision it would make a second pair, and a
    # trigger drawn from the third double would not fire
    assert np.random.default_rng(2).random(3).tolist() == pytest.approx([0.262, 0.298, 0.814],
                                                                        abs=1e-3)
    cfg = TimelineConfig(p_pair=0.5, trigger_efficiency=0.5)
    tl = run_timeline(cfg, 12.5, seed=2)
    assert [e.payload for e in tl.of_kind(EventKind.PAIR_CREATED)] == [{"pulse": 0, "pair": 0}]
    assert [e.payload for e in tl.of_kind(EventKind.TRIGGER_CLICK)] == [{"pulse": 0, "pair": 0}]
    assert tl.to_csv() == run_timeline_loop(cfg, 12.5, seed=2).to_csv()


def test_array_draws_equal_scalar_draws():
    scalar = np.random.default_rng(11)
    assert np.random.default_rng(11).random(1000).tolist() == [scalar.random()
                                                                for _ in range(1000)]


def test_event_rows_round_trip():
    tl = run_timeline(TimelineConfig(p_pair=0.3), 2000.0, seed=4)
    rows = list(tl.events)
    assert len(tl.events) == len(rows) == tl.time_ns.size
    assert tl.events[-1] == rows[-1] and tl.events[1:3] == rows[1:3]
    assert EventTimeline.from_events(rows).to_csv() == tl.to_csv()
