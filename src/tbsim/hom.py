"""Two-photon interference at the tunable beam splitter.

One photon enters each input port.  The coincidence probability between the
two outputs interpolates between the distinguishable level ``T^2 + R^2`` and
the interfering level ``(T - R)^2`` with the squared wavepacket overlap::

    P_cc(phi, gamma) = T^2 + R^2 - 2*T*R*gamma^2

with ``T = cos^2(phi/2)``, ``R = sin^2(phi/2)``.  Wavepackets are Gaussians
defined by an interference-filter bandwidth; the overlap magnitude against
relative delay is another Gaussian whose width follows from the Fourier
transform of the filtered spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import CSV_CHUNK_ROWS, bounded, check_bounds
from .tbs import reflectivity, transmissivity

C_NM_PER_NS = 2.99792458e8  # vacuum speed of light

# fraction of sigma separating the FWHM points of a Gaussian
FWHM_TO_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))
DIP_SIGNIFICANCE = 5.0  # combined Poisson sigmas a dip's depth must exceed


class UndefinedVisibilityError(ValueError):
    """Raised when the splitter does not split (phi = 0 or pi), so no dip exists."""


@dataclass(frozen=True)
class Wavepacket:
    """Gaussian single-photon packet after an interference filter."""

    center_wavelength_nm: float = bounded(808.0, minimum=1.0)
    bandwidth_fwhm_nm: float = bounded(3.0, above=0.0)

    def __post_init__(self) -> None:
        check_bounds(self)
        # overlap() divides by the sum of two squared spectral widths
        try:
            variance = self.sigma_nu * self.sigma_nu
        except OverflowError:  # from the squared wavelength
            variance = 0.0
        if not 0.0 < variance + variance < math.inf:
            raise ValueError("spectral width c * bandwidth / wavelength^2 underflows "
                             "or overflows when squared")

    @property
    def center_frequency(self) -> float:
        """Optical carrier frequency in 1/ns."""
        return C_NM_PER_NS / self.center_wavelength_nm

    @property
    def sigma_nu(self) -> float:
        """Std of the spectral intensity profile, 1/ns."""
        dnu_fwhm = C_NM_PER_NS * self.bandwidth_fwhm_nm / self.center_wavelength_nm ** 2
        return dnu_fwhm / FWHM_TO_SIGMA

    @property
    def coherence_sigma_ns(self) -> float:
        """Delay at which the self-overlap falls to exp(-1/2)."""
        return 1.0 / (2.0 * math.pi * self.sigma_nu)


@dataclass(frozen=True)
class HomPoint:
    """One delay setting of a two-photon dip scan."""

    delay_ns: float
    coincidences: int
    expected_prob: float
    sigma: float


def overlap(packet_1: Wavepacket, packet_2: Wavepacket, delay_ns: float = 0.0) -> float:
    """Magnitude of the field overlap between two Gaussian packets.

    For identical packets this reduces to ``exp(-delay^2 / (2*sigma_tau^2))``
    with ``sigma_tau`` the coherence width set by the filter bandwidth;
    unequal bandwidths and a center frequency mismatch both reduce the peak
    value below one.
    """
    s1, s2 = packet_1.sigma_nu, packet_2.sigma_nu
    dnu = packet_1.center_frequency - packet_2.center_frequency
    ssum = s1 * s1 + s2 * s2
    peak = math.sqrt(2.0 * s1 * s2 / ssum)
    mismatch = math.exp(-dnu * dnu / (4.0 * ssum))
    decay = math.exp(-math.pi ** 2 * delay_ns * delay_ns * 4.0 * s1 * s1 * s2 * s2 / ssum)
    return peak * mismatch * decay


def hom_coincidence_prob(phi: float, gamma: float) -> float:
    """Output coincidence probability for one photon in each input port."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"overlap gamma must be in [0, 1], got {gamma}")
    t = transmissivity(phi)
    r = reflectivity(phi)
    return t * t + r * r - 2.0 * t * r * gamma * gamma


def hom_dip_visibility(phi: float, gamma: float) -> float:
    """Depth of the coincidence dip relative to the distinguishable level.

    V = 2*T*R*gamma^2 / (T^2 + R^2).  At phi = 0 or pi one output amplitude
    vanishes, there is no dip, and the visibility is undefined.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"overlap gamma must be in [0, 1], got {gamma}")
    t = transmissivity(phi)
    r = reflectivity(phi)
    if 2.0 * t * r < 1e-12:
        raise UndefinedVisibilityError(
            f"splitter does not split at phi = {phi!r}; dip visibility undefined")
    return 2.0 * t * r * gamma * gamma / (t * t + r * r)


def hom_delay_scan(delays_ns: np.ndarray | list[float],
                   phi: float,
                   packet_1: Wavepacket,
                   packet_2: Wavepacket,
                   shots_per_point: int,
                   seed: int,
                   gamma_max: float = 1.0) -> list[HomPoint]:
    """Monte Carlo coincidence scan against relative delay.

    ``gamma_max`` is a single calibration scalar for residual
    distinguishability not captured by the packet model; the effective
    overlap is ``gamma_max * overlap(packet_1, packet_2, delay)``.  Seeding
    is keyed by point index, so results are independent of evaluation order.
    """
    if not 0.0 <= gamma_max <= 1.0:
        raise ValueError(f"gamma_max must be in [0, 1], got {gamma_max}")
    if shots_per_point <= 0:
        raise ValueError("shots_per_point must be positive")
    points = []
    for i, delay in enumerate(delays_ns):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, i)))
        gamma = gamma_max * overlap(packet_1, packet_2, float(delay))
        p_cc = hom_coincidence_prob(phi, gamma)
        counts = int(rng.binomial(shots_per_point, p_cc))
        points.append(HomPoint(delay_ns=float(delay), coincidences=counts,
                               expected_prob=p_cc,
                               sigma=float(math.sqrt(max(counts, 1)))))
    return points


@dataclass(frozen=True)
class DipAnalysis:
    """Classification and visibility estimate extracted from a delay scan."""

    classification: str  # "dip" or "flat"
    visibility: float
    uncertainty: float
    baseline: float
    minimum: float


def analyze_delay_scan(points: list[HomPoint]) -> DipAnalysis:
    """Estimate the dip visibility of a scan, or classify it as flat.

    The coincidence baseline is taken from the two outermost delays (the scan
    must extend well past the coherence width); the dip is the lowest point.
    A dip is claimed only when the depth exceeds ``DIP_SIGNIFICANCE``
    combined Poisson sigmas.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 scan points")
    ordered = sorted(points, key=lambda p: p.delay_ns)
    baseline = 0.5 * (ordered[0].coincidences + ordered[-1].coincidences)
    lowest = min(points, key=lambda p: p.coincidences)
    if baseline <= 0:
        raise ValueError("empty baseline; cannot analyze scan")
    depth = baseline - lowest.coincidences
    sigma_depth = math.sqrt(baseline + lowest.coincidences)
    if depth <= DIP_SIGNIFICANCE * sigma_depth:
        return DipAnalysis("flat", 0.0, sigma_depth / baseline,
                           baseline, float(lowest.coincidences))
    visibility = depth / baseline
    # Poisson propagation of (baseline - min)/baseline
    var = (lowest.coincidences / baseline ** 2
           + (lowest.coincidences ** 2 / baseline ** 3) * 0.5)
    return DipAnalysis("dip", visibility, math.sqrt(var),
                       baseline, float(lowest.coincidences))


def hom_points_to_csv(points: list[HomPoint]):
    """Scan points as CSV text: the header, then CSV_CHUNK_ROWS points at a time."""
    yield "delay_ns,coincidences,expected_prob,sigma\n"
    for start in range(0, len(points), CSV_CHUNK_ROWS):
        yield "".join(f"{p.delay_ns!r},{p.coincidences},{p.expected_prob!r},{p.sigma!r}\n"
                      for p in points[start:start + CSV_CHUNK_ROWS])
