"""Independent oracles used by the tests.

Everything here is derived from first principles with plain numpy/scipy so
the package under test never supplies its own expected values.  The one
exception is ``scan_point_shot_level``, the fringe sampler the package used
before it drew counts: it is kept as it was, built on the package's own
shot-level ``sample_clicks``, as the reference the count-level sampler is
compared against in distribution.
"""

import itertools

import numpy as np
from scipy.integrate import quad
from scipy.optimize import curve_fit

from tbsim import detection
from tbsim.tbs import FringePoint, InterferenceQuality, fringe_probability


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
