"""The tunable splitter itself: closed forms, composition, scans, fits."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from oracles import (align_global_phase, fit_fringe_curve_fit, scan_point_shot_level,
                     shot_pattern_probabilities)
from tbsim.detection import DetectorModel
from tbsim.modes import ModeState, Path, apply, global_phase_equal, label
from tbsim.tbs import (FitError, InterferenceQuality, _pattern_probabilities, _scan_point,
                       fit_visibility, fringe_points_to_csv, fringe_probability,
                       fringe_scan, reflectivity, tbs_closed_form, tbs_composed,
                       tbs_network_form, transmissivity)


def random_polarizations(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def output_state(alpha, beta, phi):
    st = ModeState.from_dict({("a", "+"): alpha, ("a", "-"): beta})
    return apply(tbs_composed(phi), st)


def test_composed_network_is_unitary_everywhere():
    for phi in np.linspace(0, 2 * math.pi, 17):
        assert tbs_composed(float(phi)).is_unitary(1e-12)


def test_composed_matches_network_closed_form():
    # the element-by-element product and the worked-out closed form of the
    # same network must be one and the same state, not merely one ray
    rng = np.random.default_rng(3)
    for (alpha, beta) in random_polarizations(50, seed=3):
        phi = float(rng.uniform(0, 2 * math.pi))
        out = output_state(alpha, beta, phi)
        ref = tbs_network_form(alpha, beta, phi).to_state()
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-12


def test_closed_form_magnitudes_match_network_form():
    for i, (alpha, beta) in enumerate(random_polarizations(50, seed=11)):
        phi = 2 * math.pi * (i + 0.5) / 50
        a = tbs_closed_form(alpha, beta, phi)
        b = tbs_network_form(alpha, beta, phi)
        for name in ("e_plus", "e_minus", "f_plus", "f_minus"):
            assert abs(abs(getattr(a, name)) - abs(getattr(b, name))) < 1e-12


def test_closed_form_ports_differ_from_network_by_port_local_phases():
    # each output port of the reference closed form matches the composed
    # network up to a phase of that port alone; the two port phases differ
    # by exp(-i*phi) (up to sign), so no single global phase joins them
    alpha, beta = 0.8, 0.6j
    for phi in (0.4, 1.3, 2.2, 4.0, 5.5):
        a = tbs_closed_form(alpha, beta, phi)
        b = tbs_network_form(alpha, beta, phi)
        ratio_e = a.e_plus / b.e_plus
        ratio_f = a.f_plus / b.f_plus
        assert abs(abs(ratio_e) - 1.0) < 1e-12
        assert abs(abs(ratio_f) - 1.0) < 1e-12
        # within a port both polarization components share the phase
        assert abs(a.e_minus - ratio_e * b.e_minus) < 1e-12
        assert abs(a.f_minus - ratio_f * b.f_minus) < 1e-12
        # and across ports the phases disagree by the documented factor
        assert abs(ratio_e / ratio_f - (-np.exp(-1j * phi))) < 1e-12


def test_closed_form_is_not_globally_phase_equal_to_the_network():
    # the documented inconsistency: the branch phases of the reference
    # expression cannot be produced by this (or any) element network
    alpha, beta = 2 ** -0.5, 2 ** -0.5
    for phi in (0.7, 1.9, 3.3):
        x = tbs_closed_form(alpha, beta, phi).to_state()
        y = tbs_network_form(alpha, beta, phi).to_state()
        assert not global_phase_equal(x, y, tol=1e-6)


def test_splitting_law_from_amplitudes():
    phis = np.linspace(0, 2 * math.pi, 101)
    for phi in phis:
        out = tbs_closed_form(1.0, 0.0, float(phi))
        assert abs(out.transmitted_probability() - math.cos(phi / 2) ** 2) < 1e-13
        assert abs(out.reflected_probability() - math.sin(phi / 2) ** 2) < 1e-13


def test_zero_phase_sends_everything_to_port_f():
    out = output_state(0.6, 0.8j, 0.0)
    assert out.path_probability(Path.F) == pytest.approx(1.0, abs=1e-12)
    assert out.path_probability(Path.E) == pytest.approx(0.0, abs=1e-12)


def test_pi_phase_sends_everything_to_port_e():
    out = output_state(1.0, 0.0, math.pi)
    assert out.path_probability(Path.E) == pytest.approx(1.0, abs=1e-12)


def test_internal_paths_are_empty_after_the_interferometer():
    out = output_state(0.6, 0.8, 1.234)
    for p in (Path.A, Path.B, Path.C, Path.D):
        assert out.path_probability(p) < 1e-24


def test_routing_is_polarization_independent():
    phis = np.linspace(0.0, 2 * math.pi, 25)
    pols = [(1.0, 0.0), (0.0, 1.0), (2 ** -0.5, 2 ** -0.5), (2 ** -0.5, -(2 ** -0.5))]
    pols += [tuple(p) for p in random_polarizations(20, seed=99)]
    for phi in phis:
        probs = [output_state(a, b, float(phi)).path_probability(Path.F)
                 for (a, b) in pols]
        assert max(probs) - min(probs) < 1e-12


def test_polarization_rotation_on_the_reflected_port():
    # the reflected branch flips the sign of the "-" component: diagonal
    # input comes out anti-diagonal
    out = tbs_network_form(2 ** -0.5, 2 ** -0.5, math.pi)
    assert abs(out.e_plus - 1j * 2 ** -0.5) < 1e-12
    assert abs(out.e_minus + 1j * 2 ** -0.5) < 1e-12


def test_closed_form_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        tbs_closed_form(1.0, 0.5, 1.0)


def test_fringe_probability_limits():
    perfect = InterferenceQuality(1.0)
    phis = np.linspace(0, 2 * math.pi, 50)
    assert np.allclose(fringe_probability(phis, perfect), np.sin(phis / 2) ** 2)
    v = InterferenceQuality(0.9)
    r = fringe_probability(phis, v)
    assert np.min(r) >= 0.05 - 1e-12 and np.max(r) <= 0.95 + 1e-12


def test_fringe_scan_is_deterministic_and_keyed_by_point_index():
    phis = np.linspace(0, 2 * math.pi, 9)
    q = InterferenceQuality(0.95)
    a = fringe_scan(phis, q, 2000, seed=5)
    b = fringe_scan(phis, q, 2000, seed=5)
    assert a == b
    # a point's stream depends on the run seed and its index only
    assert fringe_scan(phis[:4], q, 2000, seed=5) == a[:4]
    d = fringe_scan(phis, q, 2000, seed=6)
    assert d != a


def test_fringe_scan_rejects_detector_dead_time():
    phis = np.linspace(0, 2 * math.pi, 9)
    with pytest.raises(ValueError, match="dead"):
        fringe_scan(phis, InterferenceQuality(0.95), 2000, seed=5,
                    detector_model=DetectorModel(dead_time_ns=5.0))


@pytest.mark.parametrize("kwargs", [{"survival": 1.2}, {"survival": -0.1},
                                    {"phase_jitter_rms": -0.1}])
def test_fringe_scan_rejects_out_of_range_channel(kwargs):
    with pytest.raises(ValueError):
        fringe_scan([0.0, 2.0, 4.0, 6.0], InterferenceQuality(0.95), 100, seed=1, **kwargs)


# jitter, loss, efficiency < 1 and dark counts on both output detectors; the
# window makes their dark probability 0.06.  The trigger is ideal.
SAMPLER_MODEL = dict(quality=InterferenceQuality(0.9), survival=0.85,
                     detector_model=DetectorModel(efficiency=0.75, dark_count_rate_hz=2.0e7),
                     phase_jitter_rms=0.7, window_ns=3.0)


def test_pattern_probabilities_are_the_jitter_average_of_per_shot_probabilities():
    # probabilists' Gauss-Hermite nodes: E[f(phi + s*X)] for X ~ N(0, 1)
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    weights = weights / math.sqrt(2.0 * math.pi)
    m = SAMPLER_MODEL
    det = m["detector_model"]
    for jitter in (0.0, 0.1, 0.7, 1.5):
        for phi in np.linspace(-1.0, 2.0 * math.pi + 1.0, 23):
            per_shot = np.array([
                shot_pattern_probabilities(
                    0.5 * (1.0 - m["quality"].mode_overlap * math.cos(phi + jitter * x)),
                    m["survival"], det.efficiency, 0.06, 1.0, 0.0)
                for x in nodes])
            expected = weights @ per_shot
            got = _pattern_probabilities(float(phi), m["quality"], m["survival"], det,
                                         jitter, m["window_ns"])
            assert np.max(np.abs(np.array(got) - expected)) <= 1e-12, (jitter, phi)


def _coincidences(point):
    cc_13 = round(point.t_est * point.coincidences)
    return cc_13, point.coincidences - cc_13


def test_count_sampler_matches_the_shot_level_sampler_in_distribution():
    # two-sample chi^2 on the joint (cc_13, cc_23) counts of 2000 seeds at
    # each of three phases; cells with fewer than 10 pooled draws are merged
    shots, seeds = 24, range(2000)
    for index, phi in enumerate((0.5, 1.9, 3.1)):
        draws = []
        for sampler, trigger in ((_scan_point, {}),
                                 (scan_point_shot_level, {"trigger_model": DetectorModel()})):
            draws.append([_coincidences(sampler(phi, index, shots=shots, seed=seed,
                                                **trigger, **SAMPLER_MODEL))
                          for seed in seeds])
        cells = sorted(set(draws[0]) | set(draws[1]))
        table = np.array([[d.count(c) for c in cells] for d in draws], dtype=float)
        rare = table.sum(axis=0) < 10
        table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
        table = table[:, table.sum(axis=0) > 0]
        stat = float(np.sum((table[0] - table[1]) ** 2 / table.sum(axis=0)))
        p_value = chi2.sf(stat, table.shape[1] - 1)
        assert table.shape[1] >= 8, table.shape
        assert p_value > 1e-3, (phi, stat, table.shape[1], p_value)


def test_fringe_scan_recovers_the_splitting_law():
    phis = np.linspace(0, 2 * math.pi, 9)
    points = fringe_scan(phis, InterferenceQuality(1.0), 20000, seed=8)
    for p in points:
        expected = float(fringe_probability(p.phi_rad, InterferenceQuality(1.0)))
        assert abs(p.r_est - expected) < 5 * max(p.sigma, 1e-4)


def test_fit_visibility_recovers_noiseless_contrast():
    phis = np.linspace(0, 2 * math.pi, 40)
    for v in (0.3, 0.9, 0.959):
        r = 0.5 * (1 - v * np.cos(phis))
        fit = fit_visibility(phis, r)
        assert abs(fit.visibility - v) < 1e-9
        assert abs(fit.phase_offset_rad - math.pi) < 1e-6


def test_fit_visibility_weighted_uncertainty_is_sane():
    rng = np.random.default_rng(123)
    phis = np.linspace(0, 2 * math.pi, 24)
    sigma = 0.004
    r = 0.5 * (1 - 0.9 * np.cos(phis)) + rng.normal(0, sigma, phis.size)
    fit = fit_visibility(phis, r, np.full(phis.size, sigma))
    assert abs(fit.visibility - 0.9) < 5 * fit.uncertainty
    assert 0.0 < fit.uncertainty < 0.05


def test_fit_visibility_error_cases():
    with pytest.raises(FitError):
        fit_visibility([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])  # too few points
    phis = np.linspace(0, 2.0, 10)  # span below pi
    with pytest.raises(FitError):
        fit_visibility(phis, 0.5 * (1 - np.cos(phis)))
    phis = np.linspace(0, 2 * math.pi, 10)
    with pytest.raises(FitError):
        fit_visibility(phis, np.full(10, 0.25))  # constant data
    with pytest.raises(FitError):
        fit_visibility([0.0, 0.0, 0.0, 4.0], [0.1, 0.12, 0.11, 0.8])  # 2 distinct phases
    r = 0.5 * (1 - np.cos(phis))
    with pytest.raises(FitError):
        fit_visibility(phis, np.where(np.arange(10) == 2, np.nan, r))
    with pytest.raises(FitError):
        fit_visibility(phis, r, np.where(np.arange(10) == 2, 0.0, 0.01))  # singular weights


def test_fit_visibility_matches_the_curve_fit_oracle():
    # 200 seeded fringes at the package's contrasts (V in [0.3, 1]), 4-130
    # points with per-point noise, alternately weighted and unweighted; the
    # limits sit above curve_fit's own stopping tolerance
    rng = np.random.default_rng(4040)
    checked = {True: 0, False: 0}
    for k in range(200):
        n = int(rng.integers(4, 131))
        phis = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        if np.ptp(phis) <= math.pi:
            continue
        v = rng.uniform(0.3, 1.0)
        sig = rng.uniform(0.002, 0.02, n)
        r = 0.5 * (1.0 + v * np.cos(phis - rng.uniform(0.0, 2.0 * math.pi))) + rng.normal(0.0, sig)
        weighted = bool(k % 2)
        s = sig if weighted else None
        fit = fit_visibility(phis, r, s)
        v_ref, sigma_ref, phi0_ref = fit_fringe_curve_fit(phis, r, s)
        assert abs(fit.visibility - v_ref) <= 1e-8, (k, fit, v_ref)
        assert abs(fit.uncertainty - sigma_ref) <= 1e-5 * sigma_ref, (k, fit, sigma_ref)
        d_phi0 = (fit.phase_offset_rad - phi0_ref + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(d_phi0) <= 1e-7, (k, fit, phi0_ref)
        checked[weighted] += 1
    assert min(checked.values()) >= 50


def test_fringe_csv_format():
    points = fringe_scan(np.array([0.0, math.pi]), InterferenceQuality(1.0), 100, seed=1)
    text = "".join(fringe_points_to_csv(points))
    lines = text.splitlines()
    assert lines[0] == "phi_rad,T_est,R_est,sigma"
    assert len(lines) == 3
    assert text.endswith("\n")
    # repr round trip keeps every digit
    first = lines[1].split(",")
    assert float(first[0]) == points[0].phi_rad
    assert float(first[1]) == points[0].t_est


def test_transmissivity_reflectivity_sum_to_one():
    for phi in np.linspace(-7, 7, 100):
        assert transmissivity(float(phi)) + reflectivity(float(phi)) == pytest.approx(1.0)


def test_global_phase_alignment_helper_consistency():
    # sanity-check the oracle helper itself on a known global-phase pair
    x = tbs_network_form(0.6, 0.8, 1.0).to_state().amplitudes
    y = (np.exp(0.83j) * x)
    assert align_global_phase(x, y) < 1e-12
