"""Run configuration: flat ``key = value`` files with dotted keys.

One schema per CLI command; a key bound to a model dataclass field takes its
default from that field, and ``build`` makes the model.  Parsing keeps line
numbers so every diagnostic can point at the offending line; unknown keys
are rejected rather than ignored, so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace

from .detection import DEFAULT_WINDOW_NS, DetectorModel
from .hom import Wavepacket
from .lock import DRIFT_KINDS, DriftModel, PidGains
from .tbs import InterferenceQuality
from .timing import DEFAULT_SAMPLE_NS, ChainDelays, EomDrive, TimelineConfig, edge_problem

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
    default: object = None  # None: the default of the model field the key sets
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple[str, ...] | None = None
    above: float | None = None  # exclusive lower bound


# key prefix -> the model whose fields its keys set: drive.on_time_ns sets
# EomDrive.on_time_ns.  A key that names no field of its model, such as
# scan.n_points or lock.duration_s, is bound to none.
MODELS = {"drive": EomDrive, "delays": ChainDelays, "source": TimelineConfig,
          "limiter": TimelineConfig, "lock": PidGains, "drift": DriftModel,
          "packet": Wavepacket, "detector": DetectorModel, "scan": InterferenceQuality}
# bound keys whose field has another name
FIELD_NAMES = {"limiter.enabled": "enforce_rate_limit",
               "limiter.min_spacing_ns": "min_gate_spacing_ns"}


@functools.cache
def bound_field(key: str):
    """The (model, dataclass field) that ``key`` sets, or None."""
    prefix, _, name = key.partition(".")
    model = MODELS.get(prefix)
    if model is not None:
        for f in fields(model):
            if f.name == FIELD_NAMES.get(key, name):
                return model, f
    return None


def build(model, values: dict, **given):
    """The ``model`` that the resolved ``values`` describe: each key bound to
    one of its fields sets that field (``auto`` as None), ``given`` sets
    others, and the rest keep their defaults."""
    for key, value in values.items():
        bound = bound_field(key)
        if bound is not None and bound[0] is model:
            given[bound[1].name] = None if value == AUTO else value
    return model(**given)


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
        return int(raw, 0)
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
# artifacts are streamed, so each ceiling bounds the arrays a run holds; the
# peaks are ru_maxrss.  feedforward-run: about 90 B per event row, 0.43 GB at
# 4.48e6 rows (p_pair 1); 4e6 pump pulses at p_pair 0.02 just fit
MAX_TIMELINE_ROWS = 4_480_000
# lock-sim: about 47 B per step, 0.50 GB at 1e7 steps
MAX_LOCK_STEPS = 10_000_000
# switch-trace: about 55 B per sample, 0.25 GB at 4e6 samples
MAX_TRACE_SAMPLES = 4_000_000
# 1e6 points took 34 s and 0.45 GB in fringe-scan, 24 s and 0.30 GB in hom-scan
MAX_SCAN_POINTS = 1_000_000

_DRIVE_FIELDS = {
    "drive.on_time_ns": FieldSpec("float", above=0.0),
    "drive.rise_time_10_90_ns": FieldSpec("float", above=0.0),
    "drive.fall_time_10_90_ns": FieldSpec("float", above=0.0),
    "drive.target_phase_rad": FieldSpec("float"),
    "drive.edge_tail_ns": FieldSpec("float", above=0.0),
}

_SPECS: dict[str, dict[str, FieldSpec]] = {
    "fringe-scan": {
        "run.seed": FieldSpec("int", 1234, 0, None),
        "scan.phi_start_rad": FieldSpec("float", 0.0),
        "scan.phi_stop_rad": FieldSpec("float", 2.0 * _PI),
        "scan.n_points": FieldSpec("int", 16, 4, MAX_SCAN_POINTS),  # the fringe fit needs 4
        "scan.shots_per_point": FieldSpec("int", 100000, 1, MAX_SHOTS_PER_POINT),
        "scan.mode_overlap": FieldSpec("float", minimum=0.0, maximum=1.0),
        "scan.phase_jitter_rms_rad": FieldSpec("float", 0.0, 0.0, None),
        "channel.survival": FieldSpec("float", 1.0, 0.0, 1.0),
        "detector.efficiency": FieldSpec("float", minimum=0.0, maximum=1.0),
        "detector.dark_count_rate_hz": FieldSpec("float", minimum=0.0),
        "detector.dead_time_ns": FieldSpec("float", minimum=0.0),
        "detector.window_ns": FieldSpec("float", DEFAULT_WINDOW_NS, 0.0, None),
    },
    "hom-scan": {
        "run.seed": FieldSpec("int", 1234, 0, None),
        "scan.delay_start_ns": FieldSpec("float", -0.001),
        "scan.delay_stop_ns": FieldSpec("float", 0.001),
        "scan.n_points": FieldSpec("int", 21, 3, MAX_SCAN_POINTS),  # the dip analysis needs 3
        "scan.shots_per_point": FieldSpec("int", 100000, 1, MAX_SHOTS_PER_POINT),
        "scan.phi_rad": FieldSpec("float", _PI / 2.0),
        "scan.max_overlap": FieldSpec("float", 0.9418067742376883, 0.0, 1.0),
        "packet.center_wavelength_nm": FieldSpec("float", minimum=1.0),
        "packet.bandwidth_fwhm_nm": FieldSpec("float", above=0.0),
    },
    "switch-trace": {
        **_DRIVE_FIELDS,
        "drive.target_phase_rad": FieldSpec("float", above=0.0),  # the rise to it is measured
        "trace.dt_ns": FieldSpec("float", DEFAULT_SAMPLE_NS, above=0.0),
        "trace.pre_ns": FieldSpec("float", 2.0, 0.0, None),
        "trace.post_ns": FieldSpec("float", 2.0, 0.0, None),
    },
    "feedforward-run": {
        "run.seed": FieldSpec("int", 1234, 0, None),
        "run.duration_ns": FieldSpec("float", 100000.0, 0.0, None),
        "source.pulse_period_ns": FieldSpec("float", above=0.0),
        "source.p_pair": FieldSpec("float", minimum=0.0, maximum=1.0),
        "source.trigger_efficiency": FieldSpec("float", minimum=0.0, maximum=1.0),
        "delays.fiber_length_m": FieldSpec("float", minimum=0.0),
        "delays.fiber_group_index": FieldSpec("float", minimum=1.0),
        "delays.detector_latency_ns": FieldSpec("float", minimum=0.0),
        "delays.cable_delays_ns": FieldSpec("float", minimum=0.0),
        "delays.fpga_delay_ns": FieldSpec("float_or_auto", minimum=0.0),
        "limiter.enabled": FieldSpec("bool"),
        "limiter.min_spacing_ns": FieldSpec("float", minimum=0.0),
        "channel.survival": FieldSpec("float", 1.0, 0.0, 1.0),
        "detector.efficiency": FieldSpec("float", minimum=0.0, maximum=1.0),
        **_DRIVE_FIELDS,
    },
    "lock-sim": {
        "run.seed": FieldSpec("int", 1234, 0, None),
        "lock.kp": FieldSpec("float"),
        "lock.ki": FieldSpec("float"),
        "lock.kd": FieldSpec("float"),
        "lock.sample_period_s": FieldSpec("float", above=0.0),
        "lock.output_limit_rad": FieldSpec("float", above=0.0),
        "lock.duration_s": FieldSpec("float", 0.05, 0.0, None),
        "lock.control_enabled": FieldSpec("bool", True),
        "drift.kind": FieldSpec("str", choices=DRIFT_KINDS),
        "drift.rms_rad_per_sqrt_s": FieldSpec("float", minimum=0.0),
        "drift.amplitude_rad": FieldSpec("float", minimum=0.0),
        "drift.frequency_hz": FieldSpec("float", minimum=0.0),
        "drift.step_rad": FieldSpec("float"),
        "drift.step_time_s": FieldSpec("float", minimum=0.0),
    },
}


def _with_model_default(key: str, spec: FieldSpec) -> FieldSpec:
    bound = bound_field(key)
    if bound is None:
        return spec
    return replace(spec, default=AUTO if bound[1].default is None else bound[1].default)


SCHEMAS = {kind: {key: _with_model_default(key, spec) for key, spec in specs.items()}
           for kind, specs in _SPECS.items()}


@dataclass
class ResolvedConfig:
    kind: str
    values: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

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
    diagnostics.  Only when there are none do the checks between keys run,
    so each sees values that are valid one by one; those that merely look
    suspicious become warnings.  Unset keys take their schema defaults.
    """
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown config kind {kind!r}; "
                          f"expected one of {', '.join(sorted(SCHEMAS))}")
    schema = SCHEMAS[kind]
    raw_values, line_map = parse_kv(text)
    out = ResolvedConfig(kind=kind)

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
            if spec.above is not None and value <= spec.above:
                out.diagnostics.append(Diagnostic(
                    "error", key, f"value {value} must be greater than {spec.above}",
                    line_map.get(key)))
        out.values[key] = value

    if not out.errors:
        _cross_validate(out)
    return out


def _cross_validate(cfg: ResolvedConfig) -> None:
    v = cfg.values
    if cfg.kind in ("switch-trace", "feedforward-run"):
        try:  # the on-time must fit rise + fall
            build(EomDrive, v)
        except ValueError as exc:
            cfg.diagnostics.append(Diagnostic("error", "drive.on_time_ns", str(exc)))
    if cfg.kind == "switch-trace":
        span = v["trace.pre_ns"] + v["drive.on_time_ns"] + v["trace.post_ns"]
        # the trace has ceil(span / dt) samples; an overflowing ratio is inf
        if span / v["trace.dt_ns"] > MAX_TRACE_SAMPLES:
            cfg.diagnostics.append(Diagnostic(
                "error", "trace.dt_ns",
                f"trace of {span} ns at {v['trace.dt_ns']} ns per sample exceeds "
                f"{MAX_TRACE_SAMPLES} samples"))
        elif not cfg.errors:  # the drive builds
            drive = build(EomDrive, v)
            problem = edge_problem(drive, -v["trace.pre_ns"],
                                   drive.on_time_ns + v["trace.post_ns"], v["trace.dt_ns"])
            if problem is not None:
                cfg.diagnostics.append(Diagnostic(
                    "error", "trace.dt_ns", f"the trace cannot resolve both edges: {problem}"))
    if cfg.kind == "fringe-scan":
        span = abs(v["scan.phi_stop_rad"] - v["scan.phi_start_rad"])
        if span <= _PI:
            cfg.diagnostics.append(Diagnostic(
                "error", "scan.phi_stop_rad",
                "scan spans no more than half a fringe; the visibility fit "
                "needs more than pi radians"))
    if cfg.kind == "feedforward-run":
        period = v["source.pulse_period_ns"]
        spacing = v["limiter.min_spacing_ns"]
        # floor(pulses) + 1 pump pulses, each with 1 + p_pair * (3 + 3 *
        # trigger_efficiency) rows on average; pulses overflow to inf
        pulses = v["run.duration_ns"] / period
        rows = 1.0 + v["source.p_pair"] * (3.0 + 3.0 * v["source.trigger_efficiency"])
        if pulses >= MAX_TIMELINE_ROWS or (math.floor(pulses) + 1) * rows > MAX_TIMELINE_ROWS:
            cfg.diagnostics.append(Diagnostic(
                "error", "run.duration_ns",
                f"run of {v['run.duration_ns']} ns at {period} ns per pulse expects more "
                f"than {MAX_TIMELINE_ROWS} timeline rows"))
        rate = v["source.p_pair"] * v["source.trigger_efficiency"] / period
        ceiling = 1.0 / spacing if spacing > 0.0 else math.inf
        if rate > ceiling and not v["limiter.enabled"]:
            cfg.diagnostics.append(Diagnostic(
                "warning", "source.p_pair",
                f"mean trigger rate {rate * 1e3:.3f} MHz exceeds the drive "
                f"ceiling {ceiling * 1e3:.3f} MHz; enable limiter.enabled or "
                f"expect missed gates"))
    if cfg.kind == "hom-scan":
        # stop - start is 0 only at stop == start, and inf where it overflows
        if not 0.0 < v["scan.delay_stop_ns"] - v["scan.delay_start_ns"] < math.inf:
            cfg.diagnostics.append(Diagnostic(
                "error", "scan.delay_stop_ns",
                "delay scan must be increasing, with a finite span stop - start"))
        try:  # overlap() must be able to square the spectral width
            build(Wavepacket, v)
        except ValueError as exc:
            cfg.diagnostics.append(Diagnostic("error", "packet.bandwidth_fwhm_nm", str(exc)))
    if cfg.kind == "lock-sim":
        period = v["lock.sample_period_s"]
        if v["lock.duration_s"] < 2 * period:
            cfg.diagnostics.append(Diagnostic(
                "error", "lock.duration_s", "run shorter than two control steps"))
        # round(duration / period) steps stay within the ceiling whenever the
        # ratio does; a float ratio overflows to inf rather than raising
        elif v["lock.duration_s"] / period > MAX_LOCK_STEPS:
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
