"""Acceptance suite: ten end-to-end checks, one per release criterion.

Each test prints a single ``ACCEPTANCE nn PASS/FAIL`` line before asserting,
so a verbose run doubles as a sign-off report.  All tolerances are pinned in
the assertions below.

Criterion 1 checks both closed forms against the composed interferometer.
tbs_network_form must equal it up to one global phase.  The quoted reference
tbs_closed_form must equal it once its exact port phases are applied:
-exp(-i*phi/2) on both e amplitudes and exp(i*phi/2) on both f amplitudes.
The quoted reference is not globally-phase-equal to the network on its own.
It pins a separate phase on each output arm, and the two pinned phases move
in opposite directions as the drive phase changes.  No lossless two-splitter
network can reproduce both at once, so the two agree port by port in
magnitude but not up to one global phase.  The tbsim.tbs module docstring
walks through the argument; the module tests pin the per-port discrepancy
factor.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from tbsim.hom import (Wavepacket, analyze_delay_scan, hom_coincidence_prob,
                       hom_delay_scan)
from tbsim.lock import (DriftModel, PidGains, monitor_intensity, run_lock,
                        transmission_at_lock)
from tbsim.modes import ModeState, Path, apply
from tbsim.tbs import (InterferenceQuality, fit_visibility, fringe_scan,
                       tbs_closed_form, tbs_composed, tbs_network_form,
                       transmissivity)
from tbsim.timing import (ChainDelays, EomDrive, TimelineConfig,
                          gate_alignment, measure_fall_time,
                          measure_plateau_width, measure_rise_time,
                          rate_limit, run_timeline, sample_drive)

from oracles import align_global_phase, two_photon_coincidence

# value frozen from the pinned closed-loop run (seed 2024, default gains);
# must reproduce bit for bit, see test_lock.py
GOLDEN_RMS = 0.0027260455435108755


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def _random_polarizations(rng: np.random.Generator, count: int) -> list[tuple[complex, complex]]:
    pols = []
    for _ in range(count):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw = raw / np.linalg.norm(raw)
        pols.append((complex(raw[0]), complex(raw[1])))
    return pols


def _port_phases(phi: float, basis) -> np.ndarray:
    """Per-mode factors taking the network state to the quoted reference:
    ``-exp(-i*phi/2)`` on both e amplitudes, ``exp(i*phi/2)`` on both f."""
    on_e = -np.exp(-0.5j * phi)
    on_f = np.exp(0.5j * phi)
    return np.array([on_e if m.path == Path.E else on_f if m.path == Path.F
                     else 1.0 for m in basis])


def test_criterion_01_closed_form_equals_composed_network():
    rng = np.random.default_rng(101)
    worst_network = 0.0
    worst_reference = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        raw = raw / np.linalg.norm(raw)
        alpha, beta = complex(raw[0]), complex(raw[1])
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        state_in = ModeState.from_dict({("a", "+"): alpha, ("a", "-"): beta})
        composed = apply(tbs_composed(phi), state_in)
        network = tbs_network_form(alpha, beta, phi).to_state()
        reference = tbs_closed_form(alpha, beta, phi).to_state()
        worst_network = max(worst_network, align_global_phase(
            network.amplitudes, composed.amplitudes))
        worst_reference = max(worst_reference, align_global_phase(
            reference.amplitudes,
            _port_phases(phi, composed.basis) * composed.amplitudes))
    elapsed = time.perf_counter() - t0
    ok = worst_network < 1e-10 and worst_reference < 1e-10 and elapsed < 1.0
    _report(1, ok,
            f"max deviation after global-phase alignment over 1000 random "
            f"inputs: network form vs composed {worst_network:.3e}, quoted "
            f"reference vs composed with its port phases {worst_reference:.3e} "
            f"(limit 1e-10 each), runtime {elapsed:.2f} s (limit 1 s)")
    assert worst_network < 1e-10, (
        "network closed form is not globally-phase-equal to the composed "
        f"network: max deviation {worst_network:.3e}")
    assert worst_reference < 1e-10, (
        "quoted reference differs from the composed network by more than its "
        "port phases -exp(-i*phi/2) on e and exp(i*phi/2) on f: max deviation "
        f"{worst_reference:.3e}")
    assert elapsed < 1.0, f"runtime {elapsed:.2f} s exceeds 1 s"


def test_criterion_02_splitting_ratio_follows_half_angle_law():
    phis = np.linspace(0.0, 2.0 * math.pi, 1000)
    worst = 0.0
    for phi in phis:
        phi = float(phi)
        out = tbs_closed_form(1.0, 0.0, phi)
        t_expected = math.cos(phi / 2.0) ** 2
        r_expected = math.sin(phi / 2.0) ** 2
        worst = max(worst,
                    abs(out.transmitted_probability() - t_expected),
                    abs(out.reflected_probability() - r_expected))
        state = apply(tbs_composed(phi), ModeState.from_dict({("a", "+"): 1.0}))
        worst = max(worst,
                    abs(state.path_probability("f") - t_expected),
                    abs(state.path_probability("e") - r_expected))
    straight = apply(tbs_composed(0.0), ModeState.from_dict({("a", "+"): 1.0}))
    straight_prob = straight.path_probability("f")
    ok = worst < 1e-12 and abs(straight_prob - 1.0) < 1e-12
    _report(2, ok,
            f"max |probability - half-angle law| {worst:.3e} (limit 1e-12) "
            f"on a 1000 point grid, straight-through probability at zero "
            f"drive {straight_prob:.15f}")
    assert worst < 1e-12
    assert abs(straight_prob - 1.0) < 1e-12


def test_criterion_03_splitting_is_polarization_independent():
    # horizontal and vertical are the balanced sum and difference of the
    # +-45 basis states; the basis states themselves are the other two named
    # polarizations
    inv = 1.0 / math.sqrt(2.0)
    pols = [(inv + 0j, inv + 0j), (inv + 0j, -inv + 0j),
            (1.0 + 0j, 0.0 + 0j), (0.0 + 0j, 1.0 + 0j)]
    pols += _random_polarizations(np.random.default_rng(303), 20)

    worst_spread = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 21):
        u = tbs_composed(float(phi))
        ts = [apply(u, ModeState.from_dict({("a", "+"): a, ("a", "-"): b}))
              .path_probability("f") for a, b in pols]
        worst_spread = max(worst_spread, max(ts) - min(ts))

    phi_mc = 2.0
    shots = 100000
    u = tbs_composed(phi_mc)
    t_true = apply(u, ModeState.from_dict({("a", "+"): 1.0})).path_probability("f")
    sigma = math.sqrt(t_true * (1.0 - t_true) / shots)
    worst_pull = 0.0
    for i, (a, b) in enumerate(pols):
        t_pol = apply(u, ModeState.from_dict({("a", "+"): a, ("a", "-"): b}))\
            .path_probability("f")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(3030, i)))
        t_hat = rng.binomial(shots, t_pol) / shots
        worst_pull = max(worst_pull, abs(t_hat - t_true) / sigma)

    ok = worst_spread < 1e-12 and worst_pull <= 3.0
    _report(3, ok,
            f"analytic transmission spread over {len(pols)} polarizations "
            f"{worst_spread:.3e} (limit 1e-12); worst sampled pull at "
            f"{shots} shots {worst_pull:.2f} sigma (limit 3)")
    assert worst_spread < 1e-12
    assert worst_pull <= 3.0


def test_criterion_04_fringe_visibility_recovered_within_tolerance():
    t0 = time.perf_counter()
    phis = np.linspace(0.0, 2.0 * math.pi, 16)
    results = []
    for target, seed in ((0.959, 404), (0.953, 405)):
        points = fringe_scan(phis, InterferenceQuality(mode_overlap=target),
                             100000, seed)
        fit = fit_visibility(phis, [p.r_est for p in points],
                             [p.sigma for p in points])
        results.append((target, fit.visibility))
    elapsed = time.perf_counter() - t0
    ok = (all(abs(vis - target) <= 0.01 for target, vis in results)
          and elapsed < 30.0)
    detail = ", ".join(f"target {target:.3f} fitted {vis:.4f}"
                       for target, vis in results)
    _report(4, ok, detail + f" (tolerance 0.01); 16 settings x 100000 shots "
                            f"each, runtime {elapsed:.1f} s (limit 30 s)")
    for target, vis in results:
        assert abs(vis - target) <= 0.01
    assert elapsed < 30.0


def test_criterion_05_two_photon_interference_dip():
    gamma_max = math.sqrt(0.887)
    packet = Wavepacket()
    delays = np.linspace(-0.0012, 0.0012, 21)

    dip_points = hom_delay_scan(delays, math.pi / 2.0, packet, packet,
                                100000, seed=505, gamma_max=gamma_max)
    dip = analyze_delay_scan(dip_points)

    flat_points = hom_delay_scan(delays, 0.0, packet, packet, 100000, seed=506)
    flat = analyze_delay_scan(flat_points)
    counts = np.array([p.coincidences for p in flat_points], dtype=float)
    spread = float(counts.max() - counts.min())
    poisson_band = 5.0 * math.sqrt(max(float(counts.mean()), 1.0))

    worst_enum = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 41):
        for gamma in (0.0, 0.3, gamma_max, 1.0):
            worst_enum = max(worst_enum,
                             abs(hom_coincidence_prob(float(phi), gamma)
                                 - two_photon_coincidence(float(phi), gamma)))

    ok = (dip.classification == "dip" and abs(dip.visibility - 0.887) <= 0.02
          and flat.classification == "flat" and spread <= poisson_band
          and worst_enum < 1e-12)
    _report(5, ok,
            f"balanced point: {dip.classification}, visibility "
            f"{dip.visibility:.4f} (target 0.887 +- 0.02); zero drive: "
            f"{flat.classification}, count spread {spread:.0f} within "
            f"Poisson band {poisson_band:.0f}; enumeration oracle gap "
            f"{worst_enum:.3e} (limit 1e-12)")
    assert dip.classification == "dip"
    assert abs(dip.visibility - 0.887) <= 0.02
    assert flat.classification == "flat"
    assert spread <= poisson_band
    assert worst_enum < 1e-12


def test_criterion_06_switching_edge_metrology():
    drive = EomDrive()
    dt = 0.1
    times, phase = sample_drive(drive, 0.0, -2.0, drive.on_time_ns + 2.0, dt)
    rise = measure_rise_time(times, phase)
    fall = measure_fall_time(times, phase)
    plateau = measure_plateau_width(times, phase, drive.target_phase_rad)
    nominal_plateau = (drive.on_time_ns - drive.rise_time_10_90_ns
                       - drive.fall_time_10_90_ns)
    ok = (abs(rise - 5.6) <= 0.1 and abs(fall - rise) <= 0.1
          and abs(plateau - nominal_plateau) <= dt + 1e-9)
    _report(6, ok,
            f"rise {rise:.4f} ns (target 5.6 +- 0.1), fall {fall:.4f} ns "
            f"(match rise within 0.1), plateau {plateau:.4f} ns vs nominal "
            f"{nominal_plateau:.1f} ns (within one {dt} ns sample)")
    assert abs(rise - 5.6) <= 0.1
    assert abs(fall - rise) <= 0.1
    assert abs(plateau - nominal_plateau) <= dt + 1e-9


def test_criterion_07_feed_forward_delay_window_and_rate_limit():
    drive = EomDrive()
    passing = []
    for fpga in range(360, 381):
        delays = ChainDelays(fpga_delay_ns=float(fpga))
        config = TimelineConfig(p_pair=0.02, drive=drive, delays=delays)
        timeline = run_timeline(config, 100000.0, seed=7000 + fpga)
        summary = gate_alignment(timeline, drive)
        assert summary.n_heralded > 0
        if summary.fraction_on_plateau >= 0.999:
            passing.append(fpga)
    contiguous = bool(passing) and passing == list(
        range(passing[0], passing[0] + len(passing)))

    train = np.arange(0.0, 4000.0, 200.0)
    limited = rate_limit(train, 400.0)
    expected_mask = np.arange(train.size) % 2 == 0
    mask_ok = bool(np.array_equal(limited.accepted_mask, expected_mask))

    rerun_a = run_timeline(TimelineConfig(), 50000.0, seed=777)
    rerun_b = run_timeline(TimelineConfig(), 50000.0, seed=777)
    deterministic = rerun_a.to_csv() == rerun_b.to_csv()

    ok = (len(passing) in (8, 9) and contiguous and mask_ok and deterministic)
    _report(7, ok,
            f"{len(passing)} consecutive 1 ns delay settings ({passing[0]}-"
            f"{passing[-1]} ns) keep >= 99.9% of heralded photons on the "
            f"flat top, matching the ~8.8 ns plateau; 200 ns request train "
            f"accepted {int(limited.accepted_times.size)}/{train.size} "
            f"(every second); same-seed rerun identical: {deterministic}")
    assert len(passing) in (8, 9)
    assert contiguous
    assert mask_ok
    assert deterministic


def test_criterion_08_lock_statistics_and_lock_point():
    n_steps, dt_s, trials = 1000, 1e-5, 1000
    drift = DriftModel()
    paths = np.empty((trials, n_steps))
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(808, k)))
        paths[k] = drift.sample_path(n_steps, dt_s, rng)
    variance = paths.var(axis=0)
    t_axis = np.arange(n_steps) * dt_s
    slope = float(np.polyfit(t_axis, variance, 1)[0])
    expected_slope = drift.rms_rad_per_sqrt_s ** 2
    rel_err = abs(slope - expected_slope) / expected_slope

    golden = run_lock(DriftModel(), PidGains(), 0.05, seed=2024)
    golden_exact = golden.rms_residual_rad == GOLDEN_RMS
    mean_transmission = float(np.mean(np.cos(golden.residual_rad / 2.0) ** 2))

    lock_point = (transmission_at_lock(0.0) == 1.0
                  and transmissivity(0.0) == 1.0
                  and abs(monitor_intensity(0.0) - 0.5) < 1e-12)

    ok = (rel_err <= 0.10 and golden_exact and lock_point
          and mean_transmission > 0.999)
    _report(8, ok,
            f"open-loop variance slope {slope:.4f} rad^2/s vs configured "
            f"{expected_slope:.2f} (error {100 * rel_err:.1f}%, limit 10%); "
            f"golden closed-loop rms reproduced exactly: {golden_exact}; "
            f"lock point sits at unit transmission and half-fringe monitor: "
            f"{lock_point}; locked mean transmission {mean_transmission:.6f}")
    assert rel_err <= 0.10
    assert golden.rms_residual_rad == GOLDEN_RMS
    assert transmission_at_lock(0.0) == 1.0
    assert transmissivity(0.0) == 1.0
    assert abs(monitor_intensity(0.0) - 0.5) < 1e-12
    assert mean_transmission > 0.999


def test_criterion_09_insertion_loss_scales_rates_not_physics():
    phis = np.linspace(0.0, 2.0 * math.pi, 16)
    shots = 62500  # 16 settings x 62500 shots = 1e6 heralded inputs per scan
    quality = InterferenceQuality(mode_overlap=0.959)
    full = fringe_scan(phis, quality, shots, seed=909, survival=1.0)
    lossy = fringe_scan(phis, quality, shots, seed=909, survival=0.3)

    total_full = sum(p.coincidences for p in full)
    total_lossy = sum(p.coincidences for p in lossy)
    ratio = total_lossy / total_full

    fit_full = fit_visibility(phis, [p.r_est for p in full],
                              [p.sigma for p in full])
    fit_lossy = fit_visibility(phis, [p.r_est for p in lossy],
                               [p.sigma for p in lossy])
    dv = abs(fit_full.visibility - fit_lossy.visibility)
    v_band = 3.0 * math.hypot(fit_full.uncertainty, fit_lossy.uncertainty)
    worst_t_pull = max(abs(a.t_est - b.t_est) / math.hypot(a.sigma, b.sigma)
                       for a, b in zip(full, lossy))

    ok = abs(ratio - 0.30) <= 0.01 and dv <= v_band and worst_t_pull <= 3.0
    _report(9, ok,
            f"counted coincidences {total_lossy}/{total_full} = {ratio:.4f} "
            f"(target 0.30 +- 0.01); visibility shift {dv:.4f} within 3 sigma "
            f"band {v_band:.4f}; worst per-setting transmission pull "
            f"{worst_t_pull:.2f} sigma (limit 3)")
    assert abs(ratio - 0.30) <= 0.01
    assert dv <= v_band
    assert worst_t_pull <= 3.0


def _cli(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-m", "tbsim.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc


def test_criterion_10_artifacts_reproduce_byte_identically(tmp_path):
    fringe_cfg = tmp_path / "fringe.cfg"
    fringe_cfg.write_text("run.seed = 424242\n"
                          "scan.n_points = 8\n"
                          "scan.shots_per_point = 2000\n")
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    replayed = tmp_path / "replayed"
    _cli("fringe-scan", "--config", str(fringe_cfg), "--out", str(run_a))
    _cli("fringe-scan", "--config", str(fringe_cfg), "--out", str(run_b))
    _cli("replay", "--manifest", str(run_a / "manifest.json"),
         "--out", str(replayed))

    csv_a = (run_a / "fringe.csv").read_bytes()
    manifest_a = (run_a / "manifest.json").read_bytes()
    rerun_same = (csv_a == (run_b / "fringe.csv").read_bytes()
                  and manifest_a == (run_b / "manifest.json").read_bytes())
    replay_same = (csv_a == (replayed / "fringe.csv").read_bytes()
                   and manifest_a == (replayed / "manifest.json").read_bytes())

    ff_cfg = tmp_path / "feedforward.cfg"
    ff_cfg.write_text("run.seed = 99\n"
                      "run.duration_ns = 20000\n")
    ff_a = tmp_path / "ff_a"
    ff_b = tmp_path / "ff_b"
    _cli("feedforward-run", "--config", str(ff_cfg), "--out", str(ff_a))
    _cli("feedforward-run", "--config", str(ff_cfg), "--out", str(ff_b))
    ff_same = ((ff_a / "timeline.csv").read_bytes()
               == (ff_b / "timeline.csv").read_bytes()
               and (ff_a / "manifest.json").read_bytes()
               == (ff_b / "manifest.json").read_bytes())

    # manifests must carry the inputs needed for replay
    manifest = json.loads(manifest_a)
    carries_inputs = "seed" in manifest and "config" in manifest

    ok = rerun_same and replay_same and ff_same and carries_inputs
    _report(10, ok,
            f"fringe artifacts byte-identical on rerun: {rerun_same}, on "
            f"replay from manifest: {replay_same}; feed-forward artifacts "
            f"byte-identical on rerun: {ff_same}")
    assert rerun_same
    assert replay_same
    assert ff_same
    assert carries_inputs
