"""Detector sampling, dead time and ratio estimates."""

import math

import numpy as np
import pytest

from tbsim.detection import DetectorModel, estimate_T_R, sample_clicks


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.5)
    with pytest.raises(ValueError):
        DetectorModel(dark_count_rate_hz=-1)
    with pytest.raises(ValueError):
        DetectorModel(dead_time_ns=-0.1)


def test_sample_clicks_outcomes_are_exclusive_and_rates_match():
    n = 200000
    models = {"d1": DetectorModel(), "d2": DetectorModel()}
    clicks = sample_clicks({"d1": 0.6, "d2": 0.4}, models, n, seed=10)
    both = clicks["d1"] & clicks["d2"]
    assert not both.any()  # one photon cannot click two detectors
    rate1 = clicks["d1"].mean()
    assert abs(rate1 - 0.6) < 5 * math.sqrt(0.6 * 0.4 / n)
    assert abs(clicks["d1"].mean() + clicks["d2"].mean() - 1.0) < 1e-12


def test_sample_clicks_efficiency_thins_the_rate():
    n = 200000
    models = {"d": DetectorModel(efficiency=0.25)}
    clicks = sample_clicks({"d": 0.8}, models, n, seed=3)
    expect = 0.8 * 0.25
    assert abs(clicks["d"].mean() - expect) < 5 * math.sqrt(expect / n)


def test_sample_clicks_dark_counts_add_in():
    n = 500000
    rate_hz = 1.0e6
    window = 3.0
    models = {"d": DetectorModel(dark_count_rate_hz=rate_hz)}
    clicks = sample_clicks({"d": 0.0}, models, n, seed=4, window_ns=window)
    p_dark = rate_hz * window * 1e-9
    assert abs(clicks["d"].mean() - p_dark) < 5 * math.sqrt(p_dark / n)


def test_sample_clicks_per_shot_probability_arrays():
    n = 6
    p = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    clicks = sample_clicks({"d": p}, {"d": DetectorModel()}, n, seed=0)
    assert np.array_equal(clicks["d"], p.astype(bool))


def test_sample_clicks_rejects_excess_probability():
    with pytest.raises(ValueError):
        sample_clicks({"d1": 0.7, "d2": 0.5}, {"d1": DetectorModel(),
                                               "d2": DetectorModel()}, 10, seed=0)


def test_sample_clicks_dead_time_requires_period():
    models = {"d": DetectorModel(dead_time_ns=50.0)}
    with pytest.raises(ValueError):
        sample_clicks({"d": 1.0}, models, 10, seed=0)
    clicks = sample_clicks({"d": 1.0}, models, 10, seed=0, shot_period_ns=20.0)
    # dead for 50 ns after each kept click at 20 ns spacing: keep every third
    assert np.array_equal(np.flatnonzero(clicks["d"]), np.array([0, 3, 6, 9]))


def test_estimate_t_r_values_and_uncertainty():
    t, r, sigma = estimate_T_R(75, 25)
    assert t == pytest.approx(0.75)
    assert r == pytest.approx(0.25)
    assert sigma == pytest.approx(math.sqrt(0.75 * 0.25 / 100))
    with pytest.raises(ValueError):
        estimate_T_R(0, 0)


def test_estimate_t_r_vectorized():
    t, r, sigma = estimate_T_R(np.array([10, 50]), np.array([90, 50]))
    assert np.allclose(t, [0.1, 0.5])
    assert np.allclose(t + r, 1.0)
    assert sigma.shape == (2,)


def test_estimate_t_r_is_loss_neutral():
    # scaling both coincidence arms by a common survival leaves T unchanged
    t_full, _, _ = estimate_T_R(700, 300)
    t_lossy, _, _ = estimate_T_R(210, 90)
    assert t_full == pytest.approx(t_lossy)


def test_sample_clicks_accepts_generator_for_streamed_use():
    rng = np.random.default_rng(77)
    a = sample_clicks({"d": 0.5}, {"d": DetectorModel()}, 100, rng)
    rng2 = np.random.default_rng(77)
    b = sample_clicks({"d": 0.5}, {"d": DetectorModel()}, 100, rng2)
    assert np.array_equal(a["d"], b["d"])


def test_asymmetric_arm_efficiency_biases_the_ratio_estimate():
    # unequal arm efficiencies do not cancel: at T = 0.5 the estimate drifts
    # to eta1 / (eta1 + eta2)
    rng = np.random.default_rng(911)
    shots = 200000
    clicks = sample_clicks({"d1": 0.5, "d2": 0.5},
                           {"d1": DetectorModel(efficiency=0.9),
                            "d2": DetectorModel(efficiency=0.6)},
                           shots, rng)
    c1 = int(clicks["d1"].sum())
    c2 = int(clicks["d2"].sum())
    t_est, _, sigma = estimate_T_R(c1, c2)
    expected = 0.9 / (0.9 + 0.6)
    assert abs(t_est - expected) <= 3.0 * sigma
    assert abs(t_est - 0.5) > 10.0 * sigma


def test_two_attenuation_stages_match_one_combined_stage():
    # thinning a click stream by eta2 after an eta1 detector is statistically
    # the same as one eta1*eta2 detector
    shots = 1000000
    rng = np.random.default_rng(912)
    staged = sample_clicks({"d": 0.5}, {"d": DetectorModel(efficiency=0.8)},
                           shots, rng)["d"]
    staged = staged & (rng.random(shots) < 0.5)
    combined = sample_clicks({"d": 0.5}, {"d": DetectorModel(efficiency=0.4)},
                             shots, np.random.default_rng(913))["d"]
    n1, n2 = int(staged.sum()), int(combined.sum())
    p = 0.5 * 0.4
    sigma_diff = math.sqrt(2.0 * shots * p * (1.0 - p))
    assert abs(n1 - n2) <= 3.0 * sigma_diff
