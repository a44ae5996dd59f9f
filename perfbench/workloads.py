"""The CLI calls each benchmark workload makes.

Every config key that an output check depends on is written out here, so a
check compares the program against this file's numbers, never against the
program's own defaults.  The "default" configs spell out the program's
default size, so that a later change of a default does not change the
workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

TWO_PI = 2.0 * math.pi

# The paper's fringe contrast, with phase jitter, loss, detector efficiency
# and dark counts all non-trivial, so that every branch of the shot sampler
# draws.  Dead time stays 0: any positive value makes fringe-scan fail.
FRINGE_PHYSICS = {
    "scan.phi_start_rad": 0.0,
    "scan.phi_stop_rad": TWO_PI,
    "scan.mode_overlap": 0.959,
    "scan.phase_jitter_rms_rad": 0.1,
    "channel.survival": 0.9,
    "detector.efficiency": 0.8,
    "detector.dark_count_rate_hz": 1000.0,
    "detector.window_ns": 3.0,
}

DRIVE = {
    "drive.on_time_ns": 20.0,
    "drive.rise_time_10_90_ns": 5.6,
    "drive.fall_time_10_90_ns": 5.6,
    "drive.target_phase_rad": math.pi,
    "drive.edge_tail_ns": 0.01,
}

FEEDFORWARD = {
    **DRIVE,
    "source.pulse_period_ns": 12.5,
    "source.p_pair": 0.02,
    "source.trigger_efficiency": 1.0,
    "limiter.min_spacing_ns": 400.0,
    "channel.survival": 1.0,
}

LOCK = {"lock.sample_period_s": 1.0e-5, "drift.kind": "random_walk",
        "drift.rms_rad_per_sqrt_s": 0.5}

# label -> (subcommand, config values)
CONFIGS: dict[str, tuple[str, dict]] = {
    "fringe": ("fringe-scan", {**FRINGE_PHYSICS, "scan.n_points": 16,
                               "scan.shots_per_point": 1_000_000}),
    "feedforward": ("feedforward-run", {**FEEDFORWARD, "run.duration_ns": 3.0e6,
                                        "limiter.enabled": True,
                                        "detector.efficiency": 0.9}),
    "lock": ("lock-sim", {**LOCK, "lock.duration_s": 2.0}),
    "feedforward_tenth": ("feedforward-run", {**FEEDFORWARD, "run.duration_ns": 3.0e5,
                                              "limiter.enabled": True,
                                              "detector.efficiency": 0.9}),
    "lock_tenth": ("lock-sim", {**LOCK, "lock.duration_s": 0.2}),
    "fringe_default": ("fringe-scan", {**FRINGE_PHYSICS, "scan.n_points": 16,
                                       "scan.shots_per_point": 100_000}),
    "fringe_fine": ("fringe-scan", {**FRINGE_PHYSICS, "scan.n_points": 128,
                                    "scan.shots_per_point": 4000}),
    "hom_default": ("hom-scan", {
        "scan.delay_start_ns": -0.001, "scan.delay_stop_ns": 0.001,
        "scan.n_points": 21, "scan.shots_per_point": 100_000,
        "scan.phi_rad": math.pi / 2.0, "scan.max_overlap": 0.9418067742376883,
        "packet.center_wavelength_nm": 808.0, "packet.bandwidth_fwhm_nm": 3.0}),
    "switch_default": ("switch-trace", {**DRIVE, "trace.dt_ns": 0.1,
                                        "trace.pre_ns": 2.0, "trace.post_ns": 2.0}),
    "feedforward_default": ("feedforward-run", {**FEEDFORWARD,
                                                "run.duration_ns": 1.0e5,
                                                "limiter.enabled": False,
                                                "detector.efficiency": 1.0}),
    "lock_default": ("lock-sim", {**LOCK, "lock.duration_s": 0.05}),
}

# end-to-end rate metric of each subcommand that has a unit of work
RATE_OF = {"fringe-scan": "shots_per_s", "feedforward-run": "pulses_per_s",
           "lock-sim": "steps_per_s"}

SWEEP = ("fringe_default", "fringe_fine", "hom_default", "switch_default",
         "feedforward_default", "lock_default")

# Every run reports every end-to-end rate.  A dedicated workload gets the
# rates of the two rate-bearing subcommands its own rounds do not run from
# one-tenth-size calls of those subcommands' own workload configs, so a rate
# name means the same config on the three dedicated workloads
# ("fringe_default" is "fringe" at a tenth of its shots).  One set follows
# each timed round.
REFERENCE = {
    "fringe": ("feedforward_tenth", "lock_tenth"),
    "feedforward": ("fringe_default", "lock_tenth"),
    "lock": ("fringe_default", "feedforward_tenth"),
    "sweep": (),
}

WORKLOADS = tuple(REFERENCE)


def work(label: str) -> int:
    """Units of work of one call: shots, pump pulses or controller steps."""
    command, v = CONFIGS[label]
    if command == "fringe-scan":
        return v["scan.n_points"] * v["scan.shots_per_point"]
    if command == "feedforward-run":
        return math.floor(v["run.duration_ns"] / v["source.pulse_period_ns"]) + 1
    if command == "lock-sim":
        return max(2, round(v["lock.duration_s"] / v["lock.sample_period_s"]))
    return 0


def config_text(values: dict) -> str:
    def fmt(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        return repr(x) if isinstance(x, float) else str(x)
    return "".join(f"{k} = {fmt(x)}\n" for k, x in sorted(values.items()))


def write_configs(cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for label, (_, values) in CONFIGS.items():
        (cfg_dir / f"{label}.cfg").write_text(config_text(values))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against."""

    command: str          # subcommand, or "replay"
    label: str            # key of CONFIGS the output is checked against
    argv: tuple[str, ...]
    out: Path
    work: int
    source: Path | None = None  # replay: the run it reproduces


def call(label: str, cfg_dir: Path, out: Path, seed: int) -> Op:
    command = CONFIGS[label][0]
    argv = [command, "--config", str(cfg_dir / f"{label}.cfg"), "--out", str(out)]
    if command != "switch-trace":
        argv += ["--seed", str(seed)]
    return Op(command, label, tuple(argv), out, work(label))


def replay(op: Op, out: Path) -> Op:
    return Op("replay", op.label,
              ("replay", "--manifest", str(op.out / "manifest.json"), "--out", str(out)),
              out, 0, source=op.out)


class Plan:
    """The operations of every round of one workload, derived from the seed."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.cfg_dir = run_dir / "configs"
        self._base = random.Random(seed).randrange(1, 2**31 - 2**20)

    def round(self, k: int, tag: str = "r") -> list[Op]:
        """Round ``k``; sweep rounds come in pairs with the same seeds."""
        d = self.run_dir / f"{tag}{k:04d}"
        if self.workload != "sweep":
            return [call(self.workload, self.cfg_dir, d, self._base + k)]
        ops = []
        for label in SWEEP:
            op = call(label, self.cfg_dir, d / label, self._base + k // 2)
            ops += [op, replay(op, d / f"{label}-replay")]
        return ops

    def reference_round(self, k: int) -> list[Op]:
        d = self.run_dir / f"ref{k:04d}"
        return [call(label, self.cfg_dir, d / label, self._base + 2**19 + k)
                for label in REFERENCE[self.workload]]
