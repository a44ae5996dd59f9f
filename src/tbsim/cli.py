"""Command line front end.

Every data-producing command reads one flat config file, runs a simulation,
and writes its artifacts plus a ``manifest.json`` into the output directory.
Artifacts are streamed chunk by chunk into a temp file that is then renamed,
so no CSV is held whole in memory and none is left half written.  They
contain no timestamps, so a rerun with the same config and seed is
byte-identical and ``replay`` can verify exactly that.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, build, resolve, require_clean, defaults_text
from .detection import DetectorModel
from .hom import Wavepacket, analyze_delay_scan, hom_delay_scan, hom_points_to_csv
from .lock import DriftModel, PidGains, run_lock, transmission_at_lock
from .tbs import (FitError, InterferenceQuality, fit_visibility, fringe_points_to_csv,
                  fringe_scan)
from .timing import (ChainDelays, EomDrive, TimelineConfig, gate_alignment,
                     measure_fall_time, measure_plateau_width, measure_rise_time,
                     run_timeline, sample_drive, simulate_switching,
                     waveform_to_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
ZERO_SIGMA_STAND_IN = 1e-6


def _read_input(option: str, path: str) -> str:
    """The UTF-8 text of an input file; one that cannot be read is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{option} {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{option} {path}: not UTF-8 text") from None


def _write_atomic(path: Path, chunks) -> None:
    """Write the str ``chunks`` one by one into ``<name>.tmp``, then rename it
    to ``path``; if a chunk raises, remove the temp file and re-raise."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w") as fh:
            fh.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_manifest(out_dir: Path, command: str, seed, cfg_values: dict,
                    warnings: list[str], artifacts: dict, summary: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config": cfg_values,
        "warnings": warnings,
        "artifacts": artifacts,
        "summary": summary,
    }
    _write_atomic(out_dir / "manifest.json",
                  [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])


def run_fringe(values: dict, seed: int):
    phis = np.linspace(values["scan.phi_start_rad"], values["scan.phi_stop_rad"],
                       values["scan.n_points"])
    points = fringe_scan(
        phis, build(InterferenceQuality, values), values["scan.shots_per_point"], seed,
        survival=values["channel.survival"], detector_model=build(DetectorModel, values),
        phase_jitter_rms=values["scan.phase_jitter_rms_rad"],
        window_ns=values["detector.window_ns"])
    # an estimate of exactly 0 or 1 has a binomial sigma of 0, which the
    # weighted fit cannot take; only those points get a stand-in
    sigmas = np.array([p.sigma for p in points])
    fit = fit_visibility(np.array([p.phi_rad for p in points]),
                         np.array([p.r_est for p in points]),
                         np.where(sigmas == 0.0, ZERO_SIGMA_STAND_IN, sigmas))
    artifacts = {"fringe": "fringe.csv"}
    summary = {
        "visibility": fit.visibility,
        "visibility_sigma": fit.uncertainty,
        "phase_offset_rad": fit.phase_offset_rad,
        "n_points": len(points),
        "shots_per_point": values["scan.shots_per_point"],
    }
    return artifacts, summary, {"fringe.csv": fringe_points_to_csv(points)}


def run_hom(values: dict, seed: int):
    delays = np.linspace(values["scan.delay_start_ns"], values["scan.delay_stop_ns"],
                         values["scan.n_points"])
    packet = build(Wavepacket, values)
    points = hom_delay_scan(delays, values["scan.phi_rad"], packet, packet,
                            values["scan.shots_per_point"], seed,
                            gamma_max=values["scan.max_overlap"])
    analysis = analyze_delay_scan(points)
    artifacts = {"dip": "hom.csv"}
    summary = {
        "classification": analysis.classification,
        "visibility": analysis.visibility,
        "visibility_sigma": analysis.uncertainty,
        "baseline_counts": analysis.baseline,
        "minimum_counts": analysis.minimum,
    }
    return artifacts, summary, {"hom.csv": hom_points_to_csv(points)}


def run_switch_trace(values: dict):
    drive = build(EomDrive, values)
    t0 = -values["trace.pre_ns"]
    t1 = drive.on_time_ns + values["trace.post_ns"]
    times, phases = sample_drive(drive, 0.0, t0, t1, values["trace.dt_ns"])
    rise = measure_rise_time(times, phases)
    fall = measure_fall_time(times, phases)
    plateau = measure_plateau_width(times, phases, drive.target_phase_rad)
    artifacts = {"trace": "switch_trace.csv"}
    summary = {
        "rise_time_10_90_ns": rise,
        "fall_time_90_10_ns": fall,
        "plateau_at_target_ns": plateau,
        "nominal_plateau_ns": drive.plateau_ns,
        "target_phase_rad": drive.target_phase_rad,
    }
    return artifacts, summary, {"switch_trace.csv": waveform_to_csv(times, phases)}


def run_feedforward(values: dict, seed: int):
    drive = build(EomDrive, values)
    delays = build(ChainDelays, values)
    config = build(TimelineConfig, values, drive=drive, delays=delays)
    # spawned, so no stage of run s shares its stream with a stage of another run
    timeline_seed, switching_seed = np.random.SeedSequence(seed).spawn(2)
    timeline = run_timeline(config, values["run.duration_ns"], timeline_seed)
    alignment = gate_alignment(timeline, drive)
    switched, counts = simulate_switching(
        timeline, alignment, switching_seed,
        survival=values["channel.survival"],
        efficiency=build(DetectorModel, values).efficiency)
    total = counts["d1"] + counts["d2"]
    artifacts = {"timeline": "timeline.csv"}
    summary = {
        "fpga_delay_ns": delays.resolved_fpga_delay_ns(drive),
        "n_pairs": alignment.n_photons,
        "n_heralded": alignment.n_heralded,
        "n_gated": alignment.n_gated,
        "fraction_on_plateau": alignment.fraction_on_plateau,
        "cross_pulse_fraction": alignment.cross_pulse_fraction,
        "clicks_d1": counts["d1"],
        "clicks_d2": counts["d2"],
        "lost": counts["lost"],
        "transmission_estimate": (counts["d1"] / total) if total else None,
    }
    return artifacts, summary, {"timeline.csv": switched.csv_chunks()}


def run_lock_sim(values: dict, seed: int):
    result = run_lock(build(DriftModel, values), build(PidGains, values),
                      values["lock.duration_s"], seed,
                      control_enabled=values["lock.control_enabled"])
    tail = result.residual_rad[result.residual_rad.size // 2:]
    artifacts = {"trace": "lock_trace.csv"}
    summary = {
        "rms_residual_rad": result.rms_residual_rad,
        "lock_fraction": result.lock_fraction,
        "saturated_fraction": result.saturated_fraction,
        "mean_transmission": float(np.mean(transmission_at_lock(tail))),
    }
    return artifacts, summary, {"lock_trace.csv": result.csv_chunks()}


_RUNNERS = {
    "fringe-scan": run_fringe,
    "hom-scan": run_hom,
    "switch-trace": run_switch_trace,
    "feedforward-run": run_feedforward,
    "lock-sim": run_lock_sim,
}

_SEEDLESS = {"switch-trace"}


def _execute(command: str, values: dict, seed, out_dir: Path,
             warnings: list[str]) -> dict:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"--out {out_dir} is not a directory") from exc
    run = _RUNNERS[command]
    artifacts, summary, files = run(values) if command in _SEEDLESS else run(values, seed)
    for name, chunks in files.items():
        _write_atomic(out_dir / name, chunks)
    _write_manifest(out_dir, command, seed, values, warnings, artifacts, summary)
    return summary


def _load_values(args, command: str):
    text = ""
    if args.config is not None:
        text = _read_input("--config", args.config)
    cfg = resolve(text, command)
    require_clean(cfg)
    if command in _SEEDLESS:
        seed = None
    elif args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        seed = args.seed
    else:
        seed = cfg.values["run.seed"]
    return cfg, seed


def _run_command(args) -> int:
    command = args.command
    if args.print_defaults:
        sys.stdout.write(defaults_text(command))
        return EXIT_OK
    if args.out is None:
        sys.stderr.write("error: --out is required\n")
        return EXIT_CONFIG
    cfg, seed = _load_values(args, command)
    warnings = [d.render() for d in cfg.warnings]
    for w in warnings:
        sys.stderr.write(w + "\n")
    summary = _execute(command, cfg.values, seed, Path(args.out), warnings)
    for key in sorted(summary):
        print(f"{key} = {summary[key]}")
    return EXIT_OK


def _run_replay(args) -> int:
    manifest = json.loads(_read_input("--manifest", args.manifest))
    command = manifest["command"]
    if command not in _RUNNERS:
        raise ConfigError(f"manifest names unknown command {command!r}")
    summary = _execute(command, manifest["config"], manifest["seed"],
                       Path(args.out), manifest.get("warnings", []))
    for key in sorted(summary):
        print(f"{key} = {summary[key]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbsim",
        description="Simulate a rapidly switchable beam splitter experiment: "
                    "single-photon fringes, two-photon dips, gate timing, "
                    "feed-forward switching and interferometer locking.")
    parser.add_argument("--version", action="version", version=f"tbsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seedable=True):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory for artifacts")
        p.add_argument("--print-defaults", action="store_true",
                       help="print the default config for this command and exit")
        if seedable:
            p.add_argument("--seed", type=int, help="override run.seed")
        else:
            p.set_defaults(seed=None)

    add_common(sub.add_parser("fringe-scan", help="heralded single-photon fringe versus phase"))
    add_common(sub.add_parser("hom-scan", help="two-photon coincidence dip versus delay"))
    add_common(sub.add_parser("switch-trace", help="gate envelope trace and edge metrics"),
               seedable=False)
    add_common(sub.add_parser("feedforward-run", help="pulsed source, heralding chain and switching"))
    add_common(sub.add_parser("lock-sim", help="interferometer stabilization loop"))

    p = sub.add_parser("replay", help="re-run a manifest and regenerate its artifacts")
    p.add_argument("--manifest", required=True, help="path to a manifest.json")
    p.add_argument("--out", required=True, help="output directory for the replay")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _run_replay(args)
        return _run_command(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        # rendered diagnostics already carry their severity prefix
        msg = str(exc)
        if not msg.startswith(("error:", "warning:")):
            msg = f"error: {msg}"
        sys.stderr.write(msg + "\n")
        return EXIT_CONFIG
    except (FitError, ValueError, RuntimeError) as exc:
        sys.stderr.write(f"runtime failure: {exc}\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
