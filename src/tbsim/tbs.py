"""The tunable beam splitter: a Mach-Zehnder with paired phase modulators.

Driving the two modulator crystals with equal and opposite voltages puts a
phase ``+phi/2`` on one arm and ``-phi/2`` on the other (per polarization
component, with opposite signs for ``+`` and ``-``).  The interferometer then
routes an input photon from path ``a`` to output ``f`` with probability
``cos^2(phi/2)`` and to output ``e`` with probability ``sin^2(phi/2)``,
independent of polarization.

Two closed forms are provided:

* :func:`tbs_closed_form` reproduces a conventional reference expression with
  branch phase factors ``exp(i*(3*pi/2 - phi/2))`` on ``e`` and
  ``exp(i*(pi/2 + phi/2))`` on ``f``.  Those two factors differ by a
  phi-dependent amount, which no lossless element network can realize: for
  any beam-splitter convention the e/f amplitude ratio is a Moebius function
  of ``exp(i*phi)``, while this form's ratio is ``-tan(phi/2)*exp(-i*phi)``.
  It is kept verbatim because the magnitudes and polarization structure are
  the physically meaningful content, and every intensity-level prediction
  below uses only those.
* :func:`tbs_network_form` is the state actually produced by composing the
  elements under this package's conventions; it matches
  :func:`tbs_composed` to machine precision.

The two forms differ by exact port phases: :func:`tbs_closed_form` equals
:func:`tbs_network_form` with both ``e`` amplitudes multiplied by
``-exp(-i*phi/2)`` and both ``f`` amplitudes by ``exp(i*phi/2)``.  The ratio
of the two port phases, ``-exp(-i*phi)``, is what keeps them from being one
global phase apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import CSV_CHUNK_ROWS, bounded, check_bounds, detection
from .elements import EomSetting, SplittingRatio, beam_splitter, eom, mirror
from .modes import FULL_BASIS, ModeLabel, ModeState, Path, Pol, TransferMatrix, compose

INPUT_NORM_TOL = 1e-9


class FitError(RuntimeError):
    """Raised when fringe data cannot determine a visibility."""


@dataclass(frozen=True)
class TbsOutput:
    """Output amplitudes of the tunable beam splitter on paths e and f."""

    e_plus: complex
    e_minus: complex
    f_plus: complex
    f_minus: complex

    def to_state(self) -> ModeState:
        return ModeState.from_dict({
            ModeLabel(Path.E, Pol.PLUS): self.e_plus,
            ModeLabel(Path.E, Pol.MINUS): self.e_minus,
            ModeLabel(Path.F, Pol.PLUS): self.f_plus,
            ModeLabel(Path.F, Pol.MINUS): self.f_minus,
        })

    def reflected_probability(self) -> float:
        return float(abs(self.e_plus) ** 2 + abs(self.e_minus) ** 2)

    def transmitted_probability(self) -> float:
        return float(abs(self.f_plus) ** 2 + abs(self.f_minus) ** 2)


@dataclass(frozen=True)
class InterferenceQuality:
    """Mode-overlap factor limiting the fringe contrast (1 = perfect)."""

    mode_overlap: float = bounded(1.0, minimum=0.0, maximum=1.0)

    __post_init__ = check_bounds


@dataclass(frozen=True)
class FringePoint:
    """One phase setting of a fringe scan with its estimated splitting ratio."""

    phi_rad: float
    t_est: float
    r_est: float
    sigma: float
    shots: int = 0
    coincidences: int = 0


@dataclass(frozen=True)
class VisibilityFit:
    """Result of fitting R(phi) = c0 + c1*cos(phi - phi0)."""

    visibility: float
    uncertainty: float
    phase_offset_rad: float


def _check_input(alpha: complex, beta: complex) -> None:
    n2 = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(n2 - 1.0) > INPUT_NORM_TOL:
        raise ValueError(f"input polarization must be normalized, |a|^2+|b|^2 = {n2!r}")


def tbs_closed_form(alpha: complex, beta: complex, phi: float) -> TbsOutput:
    """Reference closed-form output for input ``(alpha|+> + beta|->)`` on path a.

    Port e carries ``sin(phi/2) * exp(i*(3*pi/2 - phi/2)) * (alpha, -beta)``,
    port f carries ``cos(phi/2) * exp(i*(pi/2 + phi/2)) * (alpha, beta)``.
    This is :func:`tbs_network_form` with port phase ``-exp(-i*phi/2)`` on e
    and ``exp(i*phi/2)`` on f; see the module docstring.
    """
    _check_input(alpha, beta)
    e_factor = math.sin(phi / 2.0) * np.exp(1j * (1.5 * math.pi - phi / 2.0))
    f_factor = math.cos(phi / 2.0) * np.exp(1j * (0.5 * math.pi + phi / 2.0))
    return TbsOutput(
        e_plus=complex(e_factor * alpha),
        e_minus=complex(e_factor * -beta),
        f_plus=complex(f_factor * alpha),
        f_minus=complex(f_factor * beta),
    )


def tbs_network_form(alpha: complex, beta: complex, phi: float) -> TbsOutput:
    """Closed form of the composed element network (common branch phase i).

    Port e carries ``i*sin(phi/2) * (alpha, -beta)``, port f carries
    ``i*cos(phi/2) * (alpha, beta)``.
    """
    _check_input(alpha, beta)
    s = 1j * math.sin(phi / 2.0)
    c = 1j * math.cos(phi / 2.0)
    return TbsOutput(
        e_plus=complex(s * alpha),
        e_minus=complex(s * -beta),
        f_plus=complex(c * alpha),
        f_minus=complex(c * beta),
    )


def tbs_composed(phi: float) -> TransferMatrix:
    """Build the full interferometer by composing its elements.

    Chain: 50:50 splitter (a,b)->(c,d), modulators at +phi on c and -phi on d,
    folding mirrors, 50:50 splitter (c,d)->(e,f).
    """
    half = SplittingRatio(0.5)
    chain = [
        beam_splitter(half, (Path.A, Path.B), (Path.C, Path.D)),
        eom(EomSetting(phi, polarity=+1), Path.C),
        eom(EomSetting(phi, polarity=-1), Path.D),
        mirror(Path.C),
        mirror(Path.D),
        beam_splitter(half, (Path.C, Path.D), (Path.E, Path.F)),
    ]
    total = chain[0]
    for element in chain[1:]:
        total = compose(total, element)
    return total


def transmissivity(phi: float) -> float:
    """Probability of an input-a photon exiting through port f."""
    return math.cos(phi / 2.0) ** 2


def reflectivity(phi: float) -> float:
    """Probability of an input-a photon exiting through port e."""
    return math.sin(phi / 2.0) ** 2


def fringe_probability(phi: float | np.ndarray, quality: InterferenceQuality) -> float | np.ndarray:
    """Reflected-port probability of a fringe with imperfect contrast.

    R(phi) = 0.5 * (1 - V*cos(phi)); at V = 1 this equals sin^2(phi/2).
    """
    return 0.5 * (1.0 - quality.mode_overlap * np.cos(phi))


def _pattern_probabilities(phi: float, quality: InterferenceQuality, survival: float,
                           detector_model: detection.DetectorModel,
                           phase_jitter_rms: float, window_ns: float) -> tuple[float, float, float]:
    """Per-shot probabilities of the click patterns (d1, d2, d3) = 111, 101, 011.

    The photon reaches d1 (port f), d2 (port e) or is lost; each detector
    clicks on an arrival with its efficiency and fires dark with probability
    ``rate * window``, independently.  Every pattern probability is affine in
    the reflected-port probability, so Gaussian phase jitter only scales the
    contrast by ``exp(-jitter**2/2)``.  The trigger d3 is ideal: it clicks
    on every shot.
    """
    # fringe_probability at the jittered contrast, without a model per point
    overlap = quality.mode_overlap * math.exp(-phase_jitter_rms ** 2 / 2.0)
    r = float(0.5 * (1.0 - overlap * np.cos(phi))) * survival
    dark = detector_model.dark_probability(window_ns)
    hit = 1.0 - (1.0 - detector_model.efficiency) * (1.0 - dark)
    # (probability of the route, P(d1 clicks), P(d2 clicks))
    routes = ((survival - r, hit, dark), (r, dark, hit), (1.0 - survival, dark, dark))
    return (sum(w * c1 * c2 for w, c1, c2 in routes),
            sum(w * c1 * (1.0 - c2) for w, c1, c2 in routes),
            sum(w * (1.0 - c1) * c2 for w, c1, c2 in routes))


def _scan_point(phi: float, point_index: int, quality: InterferenceQuality,
                shots: int, seed: int, survival: float,
                detector_model: detection.DetectorModel,
                phase_jitter_rms: float, window_ns: float) -> FringePoint:
    """Draw one scan point's trigger coincidences as counts, not shots.

    Shots are i.i.d., so the counts of the 111, 101 and 011 click patterns
    are one multinomial draw over ``shots``; ``cc_13`` and ``cc_23`` follow.
    """
    # seed derivation keyed by (run seed, point index): a point's counts do
    # not depend on which other points the scan holds
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, point_index)))
    probs = _pattern_probabilities(phi, quality, survival, detector_model,
                                   phase_jitter_rms, window_ns)
    n111, n101, n011, _ = rng.multinomial(shots, [*probs, max(0.0, 1.0 - sum(probs))])
    cc_13, cc_23 = int(n111 + n101), int(n111 + n011)
    t_est, r_est, sigma = detection.estimate_T_R(cc_13, cc_23)
    return FringePoint(phi_rad=float(phi), t_est=t_est, r_est=r_est,
                       sigma=sigma, shots=shots, coincidences=cc_13 + cc_23)


def fringe_scan(phis: np.ndarray | list[float],
                quality: InterferenceQuality,
                shots_per_point: int,
                seed: int,
                survival: float = 1.0,
                detector_model: detection.DetectorModel | None = None,
                phase_jitter_rms: float = 0.0,
                window_ns: float = detection.DEFAULT_WINDOW_NS) -> list[FringePoint]:
    """Monte Carlo fringe scan over the given phase settings.

    Each point samples the trigger coincidences of ``shots_per_point``
    heralded photons routed by the contrast-degraded fringe law, with phase
    jitter, loss and the model of the two output detectors (dark counts fire
    within ``window_ns``; the trigger is ideal), and estimates T/R from them.
    It draws counts, not shots, so a point costs the same at any shot count.
    Seeding is keyed by point index.  Detector dead time needs shot timing,
    which this sampler does not have, so a positive dead time is rejected.
    """
    detector_model = detector_model or detection.DetectorModel()
    if shots_per_point <= 0:
        raise ValueError("shots_per_point must be positive")
    if not 0.0 <= survival <= 1.0:
        raise ValueError(f"survival must be in [0, 1], got {survival}")
    if phase_jitter_rms < 0.0:
        raise ValueError("phase_jitter_rms must be >= 0")
    if detector_model.dead_time_ns > 0.0:
        raise ValueError("fringe scans model no detector dead time; dead_time_ns must be 0")
    return [_scan_point(float(p), i, quality, shots_per_point, seed, survival,
                        detector_model, phase_jitter_rms, window_ns)
            for i, p in enumerate(phis)]


def fit_visibility(phis: np.ndarray | list[float],
                   r_values: np.ndarray | list[float],
                   sigmas: np.ndarray | list[float] | None = None) -> VisibilityFit:
    """Fit R = c0 + c1*cos(phi - phi0) and return the visibility V = c1/c0.

    The model is linear in (c0, a, b) as c0 + a*cos(phi) + b*sin(phi), so one
    weighted least-squares solve gives the exact optimum, with
    c1 = hypot(a, b) and phi0 = atan2(b, a).

    Args:
        phis: phase settings in radians: at least 4 points, 3 of them
            distinct, spanning more than pi.
        r_values: measured reflected-port probabilities.
        sigmas: optional per-point uncertainties; when given the fit is
            inverse-variance weighted, otherwise unweighted with its
            covariance scaled by chi^2/(n - 3).

    Returns:
        VisibilityFit with V, its 1-sigma uncertainty propagated from the
        fit covariance (delta method), and phi0 in [0, 2*pi).

    Raises:
        FitError: for too few, too narrowly spread or too few distinct
            phases, constant or non-finite data, a zero uncertainty, or a
            non-positive offset.
    """
    phis = np.asarray(phis, dtype=float)
    r_values = np.asarray(r_values, dtype=float)
    if phis.size < 4:
        raise FitError(f"need at least 4 points, got {phis.size}")
    if np.ptp(phis) <= math.pi:
        raise FitError("phase settings must span more than pi radians")
    if np.ptp(r_values) == 0.0:
        raise FitError("fringe data is constant; no visibility defined")
    sig = np.ones_like(phis) if sigmas is None else np.asarray(sigmas, dtype=float)
    if not np.all(np.isfinite(phis) & np.isfinite(r_values) & np.isfinite(sig) & (sig != 0.0)):
        raise FitError("fringe data must be finite, with non-zero uncertainties")
    w = 1.0 / sig
    x = np.column_stack([w, w * np.cos(phis), w * np.sin(phis)])
    coef, _, rank, _ = np.linalg.lstsq(x, w * r_values, rcond=None)
    if rank < 3:
        raise FitError("fewer than 3 distinct phase settings; the fringe is underdetermined")
    c0, a, b = coef
    if c0 <= 0:
        raise FitError("degenerate fringe fit (non-positive offset)")
    cov = np.linalg.inv(x.T @ x)
    if sigmas is None:  # scale as curve_fit(absolute_sigma=False) does
        cov *= np.sum((r_values - x @ coef) ** 2) / (phis.size - 3)
    c1, phi0 = math.hypot(a, b), math.atan2(b, a)
    # delta method on V = c1/c0, using a/c1 = cos(phi0) and b/c1 = sin(phi0)
    g = np.array([-c1 / c0, math.cos(phi0), math.sin(phi0)]) / c0
    return VisibilityFit(visibility=float(c1 / c0),
                         uncertainty=math.sqrt(max(float(g @ cov @ g), 0.0)),
                         phase_offset_rad=phi0 % (2.0 * math.pi))


def fringe_points_to_csv(points: list[FringePoint]):
    """Scan points as CSV text in the canonical column order: the header,
    then CSV_CHUNK_ROWS points at a time."""
    yield "phi_rad,T_est,R_est,sigma\n"
    for start in range(0, len(points), CSV_CHUNK_ROWS):
        yield "".join(f"{p.phi_rad!r},{p.t_est!r},{p.r_est!r},{p.sigma!r}\n"
                      for p in points[start:start + CSV_CHUNK_ROWS])
