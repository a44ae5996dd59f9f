"""Run configuration: flat ``key = value`` files with dotted keys.

One schema per CLI command.  Parsing keeps line numbers so every diagnostic
can point at the offending line; unknown keys are rejected rather than
ignored, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

AUTO = "auto"  # sentinel for delays that the chain computes itself


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    key: str
    message: str
    line: int | None = None

    def render(self) -> str:
        where = f" (line {self.line})" if self.line is not None else ""
        return f"{self.severity}: {self.key}{where}: {self.message}"


@dataclass(frozen=True)
class FieldSpec:
    kind: str  # float, int, bool, str, float_or_auto
    default: object
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple[str, ...] | None = None


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {raw!r}")
    return value


def _convert(spec: FieldSpec, raw: str):
    raw = raw.strip()
    if spec.kind == "float":
        return _parse_float(raw)
    if spec.kind == "int":
        value = int(raw, 0)
        return value
    if spec.kind == "bool":
        return _parse_bool(raw)
    if spec.kind == "float_or_auto":
        if raw.lower() == AUTO:
            return AUTO
        return _parse_float(raw)
    if spec.choices is not None and raw not in spec.choices:
        raise ValueError(f"must be one of {', '.join(spec.choices)}")
    return raw


_PI = math.pi
# numpy's binomial and multinomial draws take the shot count as a C long
MAX_SHOTS_PER_POINT = 10 ** 15
# a feedforward run holds every event row and the whole timeline.csv text in
# memory: 2.4e6 pump pulses at the default pair rate peaked at 0.68 GB
MAX_PULSES = 4_000_000
# a lock-sim holds its drift path, four trace arrays and the lock_trace.csv
# text: a 2e6-step run peaked at 0.38 GB, about 175 B per step, so this
# ceiling is about 0.75 GB
MAX_LOCK_STEPS = 4_000_000

_DETECTOR_FIELDS = {
    "detector.efficiency": FieldSpec("float", 1.0, 0.0, 1.0),
    "detector.dark_count_rate_hz": FieldSpec("float", 0.0, 0.0, None),
    "detector.dead_time_ns": FieldSpec("float", 0.0, 0.0, None),
    "detector.window_ns": FieldSpec("float", 3.0, 0.0, None),
}

_DRIVE_FIELDS = {
    "drive.on_time_ns": FieldSpec("float", 20.0, 0.0, None),
    "drive.rise_time_10_90_ns": FieldSpec("float", 5.6, 0.0, None),
    "drive.fall_time_10_90_ns": FieldSpec("float", 5.6, 0.0, None),
    "drive.target_phase_rad": FieldSpec("float", _PI, None, None),
    "drive.edge_tail_ns": FieldSpec("float", 0.01, 0.0, None),
}

SCHEMAS: dict[str, dict[str, FieldSpec]] = {
    "fringe-scan": {
        "run.seed": FieldSpec("int", 1234, 0, None),
        "scan.phi_start_rad": FieldSpec("float", 0.0),
        "scan.phi_stop_rad": FieldSpec("float", 2.0 * _PI),
        "scan.n_points": FieldSpec("int", 16, 2, None),
        "scan.shots_per_point": FieldSpec("int", 100000, 1, MAX_SHOTS_PER_POINT),
        "scan.mode_overlap": FieldSpec("float", 1.0, 0.0, 1.0),
        "scan.phase_jitter_rms_rad": FieldSpec("float", 0.0, 0.0, None),
        "channel.survival": FieldSpec("float", 1.0, 0.0, 1.0),
        **_DETECTOR_FIELDS,
    },
    "hom-scan": {
        "run.seed": FieldSpec("int", 1234, 0, None),
        "scan.delay_start_ns": FieldSpec("float", -0.001),
        "scan.delay_stop_ns": FieldSpec("float", 0.001),
        "scan.n_points": FieldSpec("int", 21, 2, None),
        "scan.shots_per_point": FieldSpec("int", 100000, 1, MAX_SHOTS_PER_POINT),
        "scan.phi_rad": FieldSpec("float", _PI / 2.0),
        "scan.max_overlap": FieldSpec("float", 0.9418067742376883, 0.0, 1.0),
        "packet.center_wavelength_nm": FieldSpec("float", 808.0, 1.0, None),
        "packet.bandwidth_fwhm_nm": FieldSpec("float", 3.0, 0.0, None),
    },
    "switch-trace": {
        **_DRIVE_FIELDS,
        "trace.dt_ns": FieldSpec("float", 0.1, 0.0, None),
        "trace.pre_ns": FieldSpec("float", 2.0, 0.0, None),
        "trace.post_ns": FieldSpec("float", 2.0, 0.0, None),
    },
    "feedforward-run": {
        "run.seed": FieldSpec("int", 1234, 0, None),
        "run.duration_ns": FieldSpec("float", 100000.0, 0.0, None),
        "source.pulse_period_ns": FieldSpec("float", 12.5, 0.0, None),
        "source.p_pair": FieldSpec("float", 0.02, 0.0, 1.0),
        "source.trigger_efficiency": FieldSpec("float", 1.0, 0.0, 1.0),
        "delays.fiber_length_m": FieldSpec("float", 100.0, 0.0, None),
        "delays.fiber_group_index": FieldSpec("float", 1.468, 1.0, None),
        "delays.detector_latency_ns": FieldSpec("float", 110.4, 0.0, None),
        "delays.cable_delays_ns": FieldSpec("float", 0.0, 0.0, None),
        "delays.fpga_delay_ns": FieldSpec("float_or_auto", AUTO, 0.0, None),
        "limiter.enabled": FieldSpec("bool", False),
        "limiter.min_spacing_ns": FieldSpec("float", 400.0, 0.0, None),
        "channel.survival": FieldSpec("float", 1.0, 0.0, 1.0),
        "detector.efficiency": FieldSpec("float", 1.0, 0.0, 1.0),
        **_DRIVE_FIELDS,
    },
    "lock-sim": {
        "run.seed": FieldSpec("int", 1234, 0, None),
        "lock.kp": FieldSpec("float", 1.2),
        "lock.ki": FieldSpec("float", 2.0e4),
        "lock.kd": FieldSpec("float", 0.0),
        "lock.sample_period_s": FieldSpec("float", 1.0e-5, 0.0, None),
        "lock.output_limit_rad": FieldSpec("float", 20.0, 0.0, None),
        "lock.duration_s": FieldSpec("float", 0.05, 0.0, None),
        "lock.control_enabled": FieldSpec("bool", True),
        "drift.kind": FieldSpec("str", "random_walk",
                                choices=("random_walk", "sinusoidal", "step")),
        "drift.rms_rad_per_sqrt_s": FieldSpec("float", 0.5, 0.0, None),
        "drift.amplitude_rad": FieldSpec("float", 0.0, 0.0, None),
        "drift.frequency_hz": FieldSpec("float", 0.0, 0.0, None),
        "drift.step_rad": FieldSpec("float", 0.0),
        "drift.step_time_s": FieldSpec("float", 0.0, 0.0, None),
    },
}


@dataclass
class ResolvedConfig:
    kind: str
    values: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    source_lines: dict = field(default_factory=dict)  # key -> line number

    @property
    def errors(self) -> list:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list:
        return [d for d in self.diagnostics if d.severity == "warning"]


def parse_kv(text: str) -> tuple[dict, dict]:
    """Parse ``key = value`` lines.  Returns (values, line numbers).

    Comments start with '#'; blank lines are skipped.  Duplicate keys and
    lines without '=' raise ConfigError immediately.
    """
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {lines[key]})")
        values[key] = raw.strip()
        lines[key] = lineno
    return values, lines


def resolve(text: str, kind: str) -> ResolvedConfig:
    """Parse and validate a config against the schema for ``kind``.

    Unknown keys, type failures and range violations become error
    diagnostics; consistency checks that merely look suspicious become
    warnings.  Unset keys take their schema defaults.
    """
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown config kind {kind!r}; "
                          f"expected one of {', '.join(sorted(SCHEMAS))}")
    schema = SCHEMAS[kind]
    raw_values, line_map = parse_kv(text)
    out = ResolvedConfig(kind=kind)
    out.source_lines = line_map

    for key, raw in raw_values.items():
        if key not in schema:
            out.diagnostics.append(Diagnostic(
                "error", key, "unknown key for this command", line_map.get(key)))

    for key, spec in schema.items():
        if key not in raw_values:
            out.values[key] = spec.default
            continue
        try:
            value = _convert(spec, raw_values[key])
        except ValueError as exc:
            out.diagnostics.append(Diagnostic("error", key, str(exc), line_map.get(key)))
            out.values[key] = spec.default
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if spec.minimum is not None and value < spec.minimum:
                out.diagnostics.append(Diagnostic(
                    "error", key, f"value {value} below minimum {spec.minimum}",
                    line_map.get(key)))
            if spec.maximum is not None and value > spec.maximum:
                out.diagnostics.append(Diagnostic(
                    "error", key, f"value {value} above maximum {spec.maximum}",
                    line_map.get(key)))
        if spec.choices is not None and value not in spec.choices:
            out.diagnostics.append(Diagnostic(
                "error", key, f"must be one of {', '.join(spec.choices)}",
                line_map.get(key)))
        out.values[key] = value

    _cross_validate(out)
    return out


def _cross_validate(cfg: ResolvedConfig) -> None:
    v = cfg.values
    if cfg.kind in ("switch-trace", "feedforward-run"):
        on = v["drive.on_time_ns"]
        edges = v["drive.rise_time_10_90_ns"] + v["drive.fall_time_10_90_ns"]
        if on < edges:
            cfg.diagnostics.append(Diagnostic(
                "error", "drive.on_time_ns",
                f"on-time {on} ns cannot fit rise + fall ({edges} ns)"))
    if cfg.kind == "fringe-scan":
        span = abs(v["scan.phi_stop_rad"] - v["scan.phi_start_rad"])
        if span <= _PI:
            cfg.diagnostics.append(Diagnostic(
                "error", "scan.phi_stop_rad",
                "scan spans no more than half a fringe; the visibility fit "
                "needs more than pi radians"))
        if v["scan.n_points"] < 4:
            cfg.diagnostics.append(Diagnostic(
                "error", "scan.n_points", "need at least 4 points to fit a fringe"))
    if cfg.kind == "feedforward-run" and v["source.pulse_period_ns"] <= 0.0:
        cfg.diagnostics.append(Diagnostic(
            "error", "source.pulse_period_ns", "pulse period must be positive"))
    elif cfg.kind == "feedforward-run":
        period = v["source.pulse_period_ns"]
        spacing = v["limiter.min_spacing_ns"]
        # floor(duration / period) + 1 pulses exceed MAX_PULSES exactly when
        # duration / period >= MAX_PULSES
        if v["run.duration_ns"] / period >= MAX_PULSES:
            cfg.diagnostics.append(Diagnostic(
                "error", "run.duration_ns",
                f"run of {v['run.duration_ns']} ns at {period} ns per pulse exceeds "
                f"{MAX_PULSES} pump pulses"))
        rate = v["source.p_pair"] * v["source.trigger_efficiency"] / period
        ceiling = 1.0 / spacing if spacing > 0.0 else math.inf
        if rate > ceiling and not v["limiter.enabled"]:
            cfg.diagnostics.append(Diagnostic(
                "warning", "source.p_pair",
                f"mean trigger rate {rate * 1e3:.3f} MHz exceeds the drive "
                f"ceiling {ceiling * 1e3:.3f} MHz; enable limiter.enabled or "
                f"expect missed gates"))
    if cfg.kind == "hom-scan":
        if v["scan.delay_stop_ns"] <= v["scan.delay_start_ns"]:
            cfg.diagnostics.append(Diagnostic(
                "error", "scan.delay_stop_ns", "delay scan must be increasing"))
    if cfg.kind == "lock-sim":
        # the schema minimum 0 rejects negatives and admits 0 itself
        for key in ("lock.sample_period_s", "lock.output_limit_rad"):
            if v[key] == 0.0:
                cfg.diagnostics.append(Diagnostic("error", key, "must be positive"))
        period = v["lock.sample_period_s"]
        if v["lock.duration_s"] < 2 * period:
            cfg.diagnostics.append(Diagnostic(
                "error", "lock.duration_s", "run shorter than two control steps"))
        # round(duration / period) steps stay within the ceiling whenever the
        # ratio does; a float ratio overflows to inf rather than raising
        elif period > 0.0 and v["lock.duration_s"] / period > MAX_LOCK_STEPS:
            cfg.diagnostics.append(Diagnostic(
                "error", "lock.duration_s",
                f"run of {v['lock.duration_s']} s at {period} s per step exceeds "
                f"{MAX_LOCK_STEPS} control steps"))


def require_clean(cfg: ResolvedConfig) -> None:
    """Raise ConfigError listing every error diagnostic, if any."""
    errs = cfg.errors
    if errs:
        raise ConfigError("\n".join(d.render() for d in errs))


def defaults_text(kind: str) -> str:
    """Render a commented config file of the schema defaults."""
    schema = SCHEMAS[kind]
    lines = [f"# defaults for {kind}"]
    for key in sorted(schema):
        lines.append(f"{key} = {schema[key].default}")
    return "\n".join(lines) + "\n"
