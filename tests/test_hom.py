"""Two-photon interference: packet overlap, coincidence law, delay scans."""

import math

import numpy as np
import pytest

from oracles import gaussian_overlap_quadrature, two_photon_coincidence
from tbsim.hom import (UndefinedVisibilityError, Wavepacket, analyze_delay_scan,
                       hom_coincidence_prob, hom_delay_scan, hom_dip_visibility,
                       hom_points_to_csv, overlap)

# 808 nm center with a 3 nm FWHM filter
SIGMA_NU_808_3NM = 585.007605277662  # 1/ns
COHERENCE_SIGMA_NS = 0.00027205619492135603


def test_wavepacket_spectral_width():
    w = Wavepacket()
    assert w.center_wavelength_nm == 808.0
    assert w.sigma_nu == pytest.approx(SIGMA_NU_808_3NM, rel=1e-12)
    assert w.coherence_sigma_ns == pytest.approx(COHERENCE_SIGMA_NS, rel=1e-12)


def test_wavepacket_validation():
    with pytest.raises(ValueError):
        Wavepacket(center_wavelength_nm=0.0)
    with pytest.raises(ValueError):
        Wavepacket(bandwidth_fwhm_nm=-1.0)


def test_overlap_of_identical_packets_is_gaussian_in_delay():
    w = Wavepacket()
    s = w.coherence_sigma_ns
    assert overlap(w, w, 0.0) == pytest.approx(1.0)
    assert overlap(w, w, s) == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert overlap(w, w, 3 * s) == pytest.approx(math.exp(-4.5), rel=1e-12)
    assert overlap(w, w, -s) == overlap(w, w, s)


def test_overlap_against_quadrature_oracle():
    cases = [
        (500.0, 500.0, 0.0, 0.0),
        (500.0, 500.0, 0.0, 0.0004),
        (585.0, 585.0, 200.0, 0.0002),
        (400.0, 700.0, 0.0, 0.0),
        (400.0, 700.0, 150.0, 0.0003),
    ]
    for s1, s2, dnu, tau in cases:
        lam = 808.0
        c = 2.99792458e8
        # build packets whose sigma_nu land exactly on s1/s2 by scaling bandwidth
        w1 = Wavepacket(center_wavelength_nm=lam,
                        bandwidth_fwhm_nm=s1 * (2 * math.sqrt(2 * math.log(2))) * lam ** 2 / c)
        w2 = Wavepacket(center_wavelength_nm=lam / (1 + dnu * lam / c),
                        bandwidth_fwhm_nm=s2 * (2 * math.sqrt(2 * math.log(2)))
                        * (lam / (1 + dnu * lam / c)) ** 2 / c)
        got = overlap(w1, w2, tau)
        want = gaussian_overlap_quadrature(w1.sigma_nu, w2.sigma_nu,
                                           w2.center_frequency - w1.center_frequency,
                                           tau)
        assert got == pytest.approx(want, abs=1e-9)


def test_coincidence_prob_enumeration_oracle():
    for phi in np.linspace(0, 2 * math.pi, 41):
        for gamma in (0.0, 0.3, math.sqrt(0.887), 1.0):
            want = two_photon_coincidence(float(phi), gamma)
            got = hom_coincidence_prob(float(phi), gamma)
            assert abs(got - want) < 1e-12


def test_coincidence_prob_known_points():
    # balanced splitter, perfect overlap: complete suppression
    assert hom_coincidence_prob(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-15)
    # balanced splitter, distinguishable photons: 1/2
    assert hom_coincidence_prob(math.pi / 2, 0.0) == pytest.approx(0.5)
    # no splitting: photons always separate, coincidence certain
    assert hom_coincidence_prob(0.0, 1.0) == pytest.approx(1.0)
    assert hom_coincidence_prob(math.pi, 0.7) == pytest.approx(1.0)


def test_dip_visibility_values_and_undefined_cases():
    assert hom_dip_visibility(math.pi / 2, 1.0) == pytest.approx(1.0)
    gamma = math.sqrt(0.887)
    assert hom_dip_visibility(math.pi / 2, gamma) == pytest.approx(0.887, rel=1e-12)
    with pytest.raises(UndefinedVisibilityError):
        hom_dip_visibility(0.0, 0.9)
    with pytest.raises(UndefinedVisibilityError):
        hom_dip_visibility(math.pi, 0.9)
    with pytest.raises(ValueError):
        hom_dip_visibility(math.pi / 2, 1.5)


def test_delay_scan_produces_a_centered_dip():
    w = Wavepacket()
    delays = np.linspace(-0.0012, 0.0012, 21)
    points = hom_delay_scan(delays, math.pi / 2, w, w, 50000, seed=21)
    counts = np.array([p.coincidences for p in points])
    assert np.argmin(counts) == 10  # the zero-delay point
    # far wings sit at the distinguishable level, half of the shots
    assert counts[0] == pytest.approx(25000, abs=5 * math.sqrt(25000))
    assert counts[-1] == pytest.approx(25000, abs=5 * math.sqrt(25000))


def test_delay_scan_is_deterministic():
    w = Wavepacket()
    delays = np.linspace(-0.001, 0.001, 7)
    a = hom_delay_scan(delays, 1.0, w, w, 1000, seed=4)
    b = hom_delay_scan(delays, 1.0, w, w, 1000, seed=4)
    assert a == b


def test_analyze_delay_scan_classifies_dip_and_flat():
    w = Wavepacket()
    delays = np.linspace(-0.0012, 0.0012, 21)
    gamma = math.sqrt(0.887)
    dip = analyze_delay_scan(hom_delay_scan(delays, math.pi / 2, w, w, 100000,
                                            seed=9, gamma_max=gamma))
    assert dip.classification == "dip"
    assert dip.visibility == pytest.approx(0.887, abs=0.02)
    flat = analyze_delay_scan(hom_delay_scan(delays, 0.0, w, w, 100000, seed=9))
    assert flat.classification == "flat"
    assert flat.visibility == 0.0


def test_analyze_delay_scan_input_validation():
    w = Wavepacket()
    pts = hom_delay_scan([0.0, 0.001], 1.0, w, w, 10, seed=0)
    with pytest.raises(ValueError):
        analyze_delay_scan(pts)  # fewer than 3 points


def test_gamma_max_scales_the_dip_depth():
    w = Wavepacket()
    full = hom_coincidence_prob(math.pi / 2, 1.0 * overlap(w, w, 0.0))
    damped = hom_coincidence_prob(math.pi / 2, 0.5 * overlap(w, w, 0.0))
    assert damped > full


def test_hom_csv_format():
    w = Wavepacket()
    points = hom_delay_scan([0.0, 0.0005], 1.2, w, w, 500, seed=2)
    lines = "".join(hom_points_to_csv(points)).splitlines()
    assert lines[0] == "delay_ns,coincidences,expected_prob,sigma"
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert float(cells[0]) == points[0].delay_ns
    assert int(cells[1]) == points[0].coincidences


@pytest.mark.parametrize("center_nm,bandwidth_nm", [(808.0, 1e-300), (1e300, 3.0), (808.0, 1e200)])
def test_wavepacket_rejects_a_spectral_width_overlap_cannot_square(center_nm, bandwidth_nm):
    with pytest.raises(ValueError, match="spectral width"):
        Wavepacket(center_wavelength_nm=center_nm, bandwidth_fwhm_nm=bandwidth_nm)
