"""Output checks, computed apart from tbsim.

Each check reads the artifacts a CLI call wrote and compares them with a
closed form or a property the method must have, using the config values of
``workloads.CONFIGS``.  A deterministic property that fails raises
``CheckError``.  A statistical comparison is returned as a named z-score, so
that the caller can judge all of a run's z-scores against one threshold.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np

# monitor laser and signal wavelengths of the lock, and its "in lock" band
FRINGE_SCALE = 808.0 / 633.0
LOCK_OFFSET_RAD = (math.pi / 2.0) / FRINGE_SCALE
LOCKED_BAND_RAD = 0.15
PLATEAU_ATOL = 1e-9


class CheckError(AssertionError):
    """An artifact contradicts the value the benchmark computed for it."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def z_threshold(n_tests: int, family_alpha: float = 1e-6) -> float:
    """At least 5 sigma, and more when a run makes many z-tests, so that a
    correct program fails a run by chance with probability below
    ``family_alpha`` (two-sided, Bonferroni)."""
    return max(5.0, NormalDist().inv_cdf(1.0 - family_alpha / (2.0 * max(n_tests, 1))))


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def _table(path: Path, columns: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(data.shape[1] == columns, f"{path.name}: {data.shape[1]} columns, expected {columns}")
    return data


def fringe(out: Path, v: dict) -> list[tuple[str, float]]:
    """Every R_est and the fitted visibility against the jitter-averaged
    fringe law R = 0.5*(1 - V*exp(-s^2/2)*cos(phi)), thinned by loss and
    efficiency and raised by dark counts in the 3 ns window."""
    data = _table(out / "fringe.csv", 4)
    phi, t_est, r_est = data[:, 0], data[:, 1], data[:, 2]
    n, shots = v["scan.n_points"], v["scan.shots_per_point"]
    require(phi.size == n, f"fringe.csv has {phi.size} rows, expected {n}")
    require(np.allclose(phi, np.linspace(v["scan.phi_start_rad"], v["scan.phi_stop_rad"], n),
                        rtol=0.0, atol=1e-12), "fringe.csv phases are not the scan grid")
    require(np.all(np.abs(t_est + r_est - 1.0) <= 1e-12), "T_est + R_est != 1")

    contrast = v["scan.mode_overlap"] * math.exp(-v["scan.phase_jitter_rms_rad"] ** 2 / 2.0)
    gain = v["channel.survival"] * v["detector.efficiency"]
    p_dark = min(v["detector.dark_count_rate_hz"] * v["detector.window_ns"] * 1e-9, 1.0)
    r_bar = 0.5 * (1.0 - contrast * np.cos(phi))
    p2 = gain * r_bar + p_dark * (1.0 - gain * r_bar)
    p1 = gain * (1.0 - r_bar) + p_dark * (1.0 - gain * (1.0 - r_bar))
    r_exp = p2 / (p1 + p2)
    sigma = np.sqrt(r_exp * (1.0 - r_exp) / (shots * (p1 + p2)))
    zs = [(f"R_est at phi={p:.4f}", float(z)) for p, z in zip(phi, (r_est - r_exp) / sigma)]

    # R_exp = 0.5 - 0.5*V_exp*cos(phi): the model c0 + a*cos + b*sin is linear,
    # so its weighted least-squares covariance gives sigma(V) at the truth
    v_exp = contrast * gain * (1.0 - p_dark) / (gain * (1.0 - p_dark) + 2.0 * p_dark)
    x = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    cov = np.linalg.inv(x.T @ (x / sigma[:, None] ** 2))
    grad = np.array([-v_exp / 0.5, -1.0 / 0.5, 0.0])
    sigma_v = math.sqrt(float(grad @ cov @ grad))
    summary = _manifest(out)["summary"]
    require(summary["n_points"] == n and summary["shots_per_point"] == shots,
            "manifest scan size differs from the config")
    zs.append(("fringe visibility", (summary["visibility"] - v_exp) / sigma_v))
    return zs


def feedforward(out: Path, v: dict) -> list[tuple[str, float]]:
    """Counts and gate timing from the rows of timeline.csv."""
    kinds: Counter = Counter()
    opens: dict[str, float] = {}
    closes: dict[str, float] = {}
    with open(out / "timeline.csv") as fh:
        require(next(fh).strip() == "time_ns,kind,payload", "timeline.csv header")
        for line in fh:
            t, kind, payload = line.rstrip("\n").split(",", 2)
            if kind in ("gate_open", "gate_close"):
                (opens if kind == "gate_open" else closes)[payload] = float(t)
            elif kind == "detector_click":
                kinds[payload.split(";", 1)[0]] += 1
            kinds[kind] += 1

    n_pulses = math.floor(v["run.duration_ns"] / v["source.pulse_period_ns"]) + 1
    require(kinds["pump_pulse"] == n_pulses,
            f"{kinds['pump_pulse']} pump pulses, expected floor(T/period) + 1 = {n_pulses}")
    pairs = kinds["pair_created"]
    require(kinds["photon2_at_tbs"] == pairs, "photon-2 arrivals differ from pairs created")
    triggers = kinds["trigger_click"]
    if v["source.trigger_efficiency"] == 1.0:
        require(triggers == pairs, "a pair went unheralded at trigger efficiency 1")
    require(opens.keys() == closes.keys() and len(opens) == kinds["gate_open"] == kinds["gate_close"],
            "gate opens and closes do not pair up one to one")
    on = v["drive.on_time_ns"]
    require(all(abs(closes[p] - t - on) <= 1e-6 for p, t in opens.items()),
            f"a gate does not close {on} ns after it opens")
    times = np.sort(np.fromiter(opens.values(), dtype=float, count=len(opens)))
    if v["limiter.enabled"]:
        require(len(opens) <= triggers, "more gates than triggers")
        require(times.size < 2 or np.diff(times).min() >= v["limiter.min_spacing_ns"] - 1e-6,
                "accepted gates closer than the limiter spacing")
    else:
        require(len(opens) == triggers, "the limiter is off but a trigger got no gate")

    s = _manifest(out)["summary"]
    d1, d2 = kinds["detector=d1"], kinds["detector=d2"]
    require(s["n_pairs"] == pairs and s["n_heralded"] == triggers, "manifest pair counts differ from the rows")
    require(s["clicks_d1"] == d1 and s["clicks_d2"] == d2 and s["lost"] == pairs - d1 - d2,
            "manifest click counts differ from the rows")
    p = v["source.p_pair"]
    return [("pairs created", (pairs - n_pulses * p) / math.sqrt(n_pulses * p * (1.0 - p)))]


def lock(out: Path, v: dict) -> list[tuple[str, float]]:
    """Monitor law, sample grid and the locked band over the second half."""
    t, residual, monitor, _ = _table(out / "lock_trace.csv", 4).T
    dt = v["lock.sample_period_s"]
    n = max(2, round(v["lock.duration_s"] / dt))
    require(t.size == n, f"lock_trace.csv has {t.size} rows, expected {n}")
    require(t[0] == 0.0 and np.all(np.abs(np.diff(t) - dt) <= 1e-9 * dt),
            "time steps differ from the sample period")
    law = 0.5 * (1.0 + np.cos(FRINGE_SCALE * (residual + LOCK_OFFSET_RAD)))
    require(np.max(np.abs(monitor - law)) <= 1e-12, "monitor column is off the fringe law")
    tail = residual[n // 2:]
    require(np.all(np.abs(tail) < LOCKED_BAND_RAD), "a residual in the second half is outside the locked band")
    s = _manifest(out)["summary"]
    require(s["lock_fraction"] == 1.0, "manifest lock_fraction is not 1")
    require(math.isclose(s["rms_residual_rad"], math.sqrt(float(np.mean(tail ** 2))), rel_tol=1e-9),
            "manifest rms residual differs from the rows")
    return []


def hom(out: Path, v: dict) -> list[tuple[str, float]]:
    """Dip visibility against 2TR*gamma^2/(T^2 + R^2); the baseline delays
    lie 3.7 coherence widths out, where the overlap adds a bias of ~1e-6."""
    data = _table(out / "hom.csv", 4)
    n, shots = v["scan.n_points"], v["scan.shots_per_point"]
    require(data.shape[0] == n, f"hom.csv has {data.shape[0]} rows, expected {n}")
    counts = data[:, 1]
    require(np.all((counts >= 0) & (counts <= shots)), "coincidences outside [0, shots]")
    t, r = math.cos(v["scan.phi_rad"] / 2.0) ** 2, math.sin(v["scan.phi_rad"] / 2.0) ** 2
    g2 = v["scan.max_overlap"] ** 2
    p_edge = t * t + r * r
    p_min = p_edge - 2.0 * t * r * g2
    v_exp = 2.0 * t * r * g2 / p_edge
    base, low = shots * p_edge, shots * p_min
    var = shots * p_min * (1 - p_min) / base ** 2 + low ** 2 * shots * p_edge * (1 - p_edge) / 2 / base ** 4
    s = _manifest(out)["summary"]
    require(s["classification"] == "dip", "no dip found")
    return [("HOM dip visibility", (s["visibility"] - v_exp) / math.sqrt(var))]


def _rise_10_90(t: np.ndarray, y: np.ndarray) -> float:
    top = y.max()
    i90 = int(np.argmax(y >= 0.9 * top))
    i10 = int(np.flatnonzero(y[:i90] <= 0.1 * top)[-1])

    def cross(i, level):  # linear interpolation between samples i and i + 1
        return t[i] + (level - y[i]) / (y[i + 1] - y[i]) * (t[i + 1] - t[i])
    return cross(i90 - 1, 0.9 * top) - cross(i10, 0.1 * top)


def switch(out: Path, v: dict) -> list[tuple[str, float]]:
    """10-90 edges and plateau within one sample of the configured shape."""
    t, phase = _table(out / "switch_trace.csv", 2).T
    dt = v["trace.dt_ns"]
    require(np.all(np.abs(np.diff(t) - dt) <= 1e-9), "trace is not on the dt grid")
    target = v["drive.target_phase_rad"]
    rise, fall = v["drive.rise_time_10_90_ns"], v["drive.fall_time_10_90_ns"]
    nominal = v["drive.on_time_ns"] - rise - fall - 4.0 * v["drive.edge_tail_ns"]
    measured = {
        "rise": (_rise_10_90(t, phase), rise),
        "fall": (_rise_10_90(t[-1] - t[::-1], phase[::-1]), fall),
        "plateau": (np.sum(np.abs(phase - target) <= PLATEAU_ATOL * max(1.0, abs(target))) * dt, nominal),
    }
    s = _manifest(out)["summary"]
    measured |= {"manifest rise": (s["rise_time_10_90_ns"], rise),
                 "manifest fall": (s["fall_time_90_10_ns"], fall),
                 "manifest plateau": (s["plateau_at_target_ns"], nominal)}
    for name, (got, want) in measured.items():
        require(abs(got - want) <= dt, f"switch-trace {name} {got} ns, expected {want} +- {dt} ns")
    require(math.isclose(s["nominal_plateau_ns"], nominal, rel_tol=1e-12), "manifest nominal plateau")
    return []


def identical(a: Path, b: Path) -> None:
    """Two runs wrote the same files, byte for byte."""
    names = sorted(p.name for p in a.iterdir())
    require(names == sorted(p.name for p in b.iterdir()), f"{a.name} and {b.name} hold different files")
    for name in names:
        require((a / name).read_bytes() == (b / name).read_bytes(),
                f"{b.name}/{name} differs from {a.name}/{name}")


BY_COMMAND = {"fringe-scan": fringe, "feedforward-run": feedforward, "lock-sim": lock,
              "hom-scan": hom, "switch-trace": switch}
