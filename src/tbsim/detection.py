"""Detector model, click-level Monte Carlo and splitting-ratio estimates.

Detectors are modeled by an efficiency, a dark-count rate referred to the
coincidence window, and a dead time.  ``sample_clicks`` samples shot by
shot: it treats the photon's possible destinations as exclusive outcomes,
with dark counts independent per detector and per shot.  The fringe scan
draws counts instead, from the same model's probabilities
(``tbsim.tbs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import bounded, check_bounds

DEFAULT_WINDOW_NS = 3.0


@dataclass(frozen=True)
class DetectorModel:
    """Efficiency / dark-count / dead-time description of one detector."""

    efficiency: float = bounded(1.0, minimum=0.0, maximum=1.0)
    dark_count_rate_hz: float = bounded(0.0, minimum=0.0)
    dead_time_ns: float = bounded(0.0, minimum=0.0)

    __post_init__ = check_bounds

    def dark_probability(self, window_ns: float) -> float:
        """Probability of a dark count within one coincidence window."""
        return min(self.dark_count_rate_hz * window_ns * 1e-9, 1.0)


def sample_clicks(output_probs: Mapping[str, float | np.ndarray],
                  models: Mapping[str, DetectorModel],
                  n_shots: int,
                  seed: int | np.random.Generator,
                  window_ns: float = DEFAULT_WINDOW_NS,
                  shot_period_ns: float | None = None) -> dict[str, np.ndarray]:
    """Draw per-shot clicks for one photon distributed over several detectors.

    ``output_probs`` maps detector name to the probability (scalar or length
    ``n_shots`` array) that the photon arrives there; the outcomes are
    exclusive, so the probabilities must sum to at most one per shot.  Each
    arrival clicks with the detector's efficiency; dark counts fire
    independently with probability ``rate * window``.  A positive dead time
    needs ``shot_period_ns`` to convert shot indices to times.

    Returns a boolean click array per detector.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    names = list(output_probs.keys())
    probs = np.zeros((len(names), n_shots), dtype=float)
    for i, name in enumerate(names):
        p = np.broadcast_to(np.asarray(output_probs[name], dtype=float), (n_shots,))
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise ValueError(f"probability for {name!r} outside [0, 1]")
        probs[i] = np.clip(p, 0.0, 1.0)
    total = probs.sum(axis=0)
    if np.any(total > 1.0 + 1e-9):
        raise ValueError(f"outcome probabilities sum to {total.max()!r} > 1")

    # exclusive destination draw: one uniform per shot against the cumulative bands
    u = rng.random(n_shots)
    edges = np.cumsum(probs, axis=0)
    lower = np.vstack([np.zeros(n_shots), edges[:-1]]) if len(names) > 1 else np.zeros((1, n_shots))
    clicks: dict[str, np.ndarray] = {}
    for i, name in enumerate(names):
        model = models[name]
        arrived = (u >= lower[i]) & (u < edges[i])
        detected = arrived & (rng.random(n_shots) < model.efficiency)
        p_dark = model.dark_probability(window_ns)
        if p_dark > 0.0:
            detected |= rng.random(n_shots) < p_dark
        if model.dead_time_ns > 0.0:
            if shot_period_ns is None:
                raise ValueError("dead_time_ns > 0 requires shot_period_ns")
            idx = np.flatnonzero(detected)
            detected[idx[~_greedy_keep(idx * shot_period_ns, model.dead_time_ns)]] = False
        clicks[name] = detected
    return clicks


def _greedy_keep(times: np.ndarray, spacing: float) -> np.ndarray:
    """Mask of the sorted ``times`` kept by one greedy pass: a time is kept
    when it is at least ``spacing`` after the last kept one."""
    keep = np.zeros(times.size, dtype=bool)
    last = -math.inf
    for i, t in enumerate(times.tolist()):
        if t - last >= spacing:
            keep[i] = True
            last = t
    return keep


def estimate_T_R(cc_13: int | np.ndarray, cc_23: int | np.ndarray) -> tuple:
    """Splitting-ratio estimate from trigger coincidences at the two outputs.

    T_est = cc_13 / (cc_13 + cc_23); R_est is the complement.  The binomial
    1-sigma uncertainty sqrt(T*(1-T)/N) applies to both.  Loss and detector
    efficiency common to both arms cancel in the ratio.
    """
    cc_13 = np.asarray(cc_13)
    cc_23 = np.asarray(cc_23)
    total = cc_13 + cc_23
    if np.any(total <= 0):
        raise ValueError("no coincidences recorded; T/R estimate undefined")
    t_est = cc_13 / total
    sigma = np.sqrt(t_est * (1.0 - t_est) / total)
    if t_est.ndim == 0:
        return float(t_est), float(1.0 - t_est), float(sigma)
    return t_est, 1.0 - t_est, sigma
