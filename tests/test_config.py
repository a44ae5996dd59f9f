"""Config parsing, schema validation, diagnostics."""

import math
from pathlib import Path

import pytest

from tbsim.config import (AUTO, SCHEMAS, ConfigError, bound_field, build, defaults_text,
                          parse_kv, require_clean, resolve)

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_parse_kv_basics():
    text = """
    # a comment
    scan.n_points = 8

    scan.shots_per_point=500  # trailing comment
    """
    values, lines = parse_kv(text)
    assert values == {"scan.n_points": "8", "scan.shots_per_point": "500"}
    assert lines["scan.n_points"] == 3


def test_parse_kv_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_kv("no equals sign here")
    with pytest.raises(ConfigError, match="empty key"):
        parse_kv("= 5")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv("a.b = 1\na.b = 2")


def test_empty_config_resolves_to_defaults():
    cfg = resolve("", "fringe-scan")
    assert cfg.errors == []
    assert cfg.values["scan.n_points"] == 16
    assert cfg.values["scan.shots_per_point"] == 100000
    assert cfg.values["detector.efficiency"] == 1.0


def test_unknown_key_is_an_error_with_line_number():
    cfg = resolve("scan.n_pionts = 8\n", "fringe-scan")
    errs = cfg.errors
    assert len(errs) == 1
    assert errs[0].key == "scan.n_pionts"
    assert errs[0].line == 1
    with pytest.raises(ConfigError, match="scan.n_pionts"):
        require_clean(cfg)


def test_type_and_range_violations():
    cfg = resolve("scan.n_points = eight\n", "fringe-scan")
    assert len(cfg.errors) == 1
    cfg = resolve("detector.efficiency = 1.5\n", "fringe-scan")
    assert any("above maximum" in d.message for d in cfg.errors)
    cfg = resolve("scan.shots_per_point = 0\n", "fringe-scan")
    assert any("below minimum" in d.message for d in cfg.errors)


def test_bool_parsing():
    cfg = resolve("limiter.enabled = yes\n", "feedforward-run")
    assert cfg.values["limiter.enabled"] is True
    cfg = resolve("limiter.enabled = off\n", "feedforward-run")
    assert cfg.values["limiter.enabled"] is False
    cfg = resolve("limiter.enabled = maybe\n", "feedforward-run")
    assert len(cfg.errors) == 1


def test_float_or_auto():
    cfg = resolve("delays.fpga_delay_ns = auto\n", "feedforward-run")
    assert cfg.values["delays.fpga_delay_ns"] == AUTO
    cfg = resolve("delays.fpga_delay_ns = 369.5\n", "feedforward-run")
    assert cfg.values["delays.fpga_delay_ns"] == 369.5
    cfg = resolve("delays.fpga_delay_ns = -2\n", "feedforward-run")
    assert len(cfg.errors) == 1


def test_choice_field():
    cfg = resolve("drift.kind = sinusoidal\n", "lock-sim")
    assert cfg.errors == []
    cfg = resolve("drift.kind = brownian\n", "lock-sim")
    assert len(cfg.errors) == 1


def test_cross_validation_drive_window():
    text = "drive.on_time_ns = 8\n"
    cfg = resolve(text, "switch-trace")
    assert any(d.key == "drive.on_time_ns" for d in cfg.errors)


def test_cross_validation_fringe_span_error():
    # the visibility fit needs more than pi radians, so a narrower scan
    # could only fail at run time
    text = "scan.phi_start_rad = 0\nscan.phi_stop_rad = 2.0\n"
    cfg = resolve(text, "fringe-scan")
    assert [d.key for d in cfg.errors] == ["scan.phi_stop_rad"]
    assert cfg.warnings == []


def test_cross_validation_trigger_rate_warning():
    text = "source.p_pair = 0.2\n"
    cfg = resolve(text, "feedforward-run")
    assert any("ceiling" in d.message for d in cfg.warnings)
    # enabling the limiter silences it
    cfg = resolve(text + "limiter.enabled = true\n", "feedforward-run")
    assert cfg.warnings == []


def test_cross_validation_hom_delays():
    text = "scan.delay_start_ns = 0.001\nscan.delay_stop_ns = -0.001\n"
    cfg = resolve(text, "hom-scan")
    assert len(cfg.errors) == 1


def test_unknown_kind_raises():
    with pytest.raises(ConfigError, match="unknown config kind"):
        resolve("", "frobnicate")


def test_defaults_text_round_trips_clean_for_every_kind():
    for kind in SCHEMAS:
        cfg = resolve(defaults_text(kind), kind)
        assert cfg.errors == [], f"{kind}: {[d.render() for d in cfg.errors]}"
        assert cfg.warnings == [], f"{kind}: {[d.render() for d in cfg.warnings]}"


def test_default_target_phase_is_pi():
    cfg = resolve("", "switch-trace")
    assert cfg.values["drive.target_phase_rad"] == pytest.approx(math.pi)


def test_timeline_row_ceiling_and_positive_period():
    # floor(5e7 / 12.5) + 1 pulses at the default p_pair of 0.02 expect
    # 1.12 rows each, 1.12 rows over MAX_TIMELINE_ROWS; one pulse less is
    # admitted.  No run here is started.
    assert resolve("run.duration_ns = 49999987.5\n", "feedforward-run").errors == []
    # 7 rows per pulse at p_pair = 1 and 4 with no trigger: one pulse over
    for text in ("source.p_pair = 1\nrun.duration_ns = 8e6\n",
                 "source.p_pair = 1\nsource.trigger_efficiency = 0\nrun.duration_ns = 1.4e7\n"):
        cfg = resolve(text, "feedforward-run")
        assert [d.key for d in cfg.errors] == ["run.duration_ns"], text
        assert "timeline rows" in cfg.errors[0].message
        shorter = text.replace("8e6", "7999987.5").replace("1.4e7", "13999987.5")
        assert resolve(shorter, "feedforward-run").errors == [], shorter
    for text in ("run.duration_ns = 5e7\n", "run.duration_ns = 1e12\n",
                 "source.pulse_period_ns = 1e-300\n"):
        cfg = resolve(text, "feedforward-run")
        assert [d.key for d in cfg.errors] == ["run.duration_ns"], text
    cfg = resolve("source.pulse_period_ns = 0\n", "feedforward-run")
    assert [d.key for d in cfg.errors] == ["source.pulse_period_ns"]


def test_lock_step_ceiling_and_positive_period_and_limit():
    # 100 s at 1e-5 s per step is MAX_LOCK_STEPS steps; no run here is started
    assert resolve("lock.duration_s = 100\n", "lock-sim").errors == []
    for text in ("lock.duration_s = 100.001\n", "lock.sample_period_s = 1e-300\n",
                 "lock.duration_s = 1e300\nlock.sample_period_s = 1e-300\n"):
        cfg = resolve(text, "lock-sim")
        assert [d.key for d in cfg.errors] == ["lock.duration_s"], text
    for key in ("lock.sample_period_s", "lock.output_limit_rad"):
        cfg = resolve(f"{key} = 0\n", "lock-sim")
        assert [d.key for d in cfg.errors] == [key]


def test_zero_limiter_spacing_sets_no_rate_ceiling():
    cfg = resolve("limiter.min_spacing_ns = 0\nsource.p_pair = 1\n", "feedforward-run")
    assert cfg.diagnostics == []


def test_trace_sample_ceiling():
    # 24 ns of trace at 1e-5 ns per sample is 2.4e6 samples; the rejected
    # traces are not sampled
    assert resolve("trace.dt_ns = 1e-5\n", "switch-trace").errors == []
    for text in ("trace.dt_ns = 5e-6\n", "trace.dt_ns = 1e-300\n",
                 "trace.pre_ns = 1e308\ntrace.post_ns = 1e308\n"):
        cfg = resolve(text, "switch-trace")
        assert [d.key for d in cfg.errors] == ["trace.dt_ns"], text


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_defaults_text_matches_the_golden_text(kind):
    # captured while the schemas still held their own literal defaults
    assert defaults_text(kind) == (GOLDEN / f"print-defaults-{kind}.txt").read_text()


def _other_value(spec):
    """A value of ``spec`` that is valid and is not its default."""
    if spec.choices is not None:
        return next(choice for choice in spec.choices if choice != spec.default)
    if spec.kind == "bool":
        return not spec.default
    if spec.default == AUTO:
        return 100.0
    return 0.5 if spec.default in (0.0, 1.0) else spec.default * 1.25


@pytest.mark.parametrize("kind,key", [(kind, key) for kind, schema in SCHEMAS.items()
                                      for key in schema if bound_field(key)])
def test_every_bound_key_sets_its_model_field(kind, key):
    model, model_field = bound_field(key)
    spec = SCHEMAS[kind][key]
    assert spec.default == (AUTO if model_field.default is None else model_field.default)
    value = _other_value(spec)
    cfg = resolve(f"{key} = {value}\n", kind)
    assert cfg.errors == []
    built = build(model, cfg.values)
    assert getattr(built, model_field.name) == value
    assert built != build(model, resolve("", kind).values)


@pytest.mark.parametrize("kind,key,value", [
    (kind, key, bound) for kind, schema in SCHEMAS.items() for key, spec in schema.items()
    for bound in (spec.minimum, spec.maximum, spec.above) if bound is not None])
def test_a_config_at_a_bound_is_rejected_or_builds_its_models(kind, key, value):
    cfg = resolve(f"{key} = {value}\n", kind)
    if value == SCHEMAS[kind][key].above:
        assert [d.key for d in cfg.errors] == [key]
    if not cfg.errors:
        for model in {bound_field(k)[0] for k in cfg.values if bound_field(k)}:
            build(model, cfg.values)


def _outside(spec):
    """A value one float step outside each bound of ``spec``, then NaN if it
    has any bound, and ``auto`` if it has choices; a value at an exclusive
    bound is already outside it."""
    values = []
    if spec.minimum is not None:
        values.append(math.nextafter(spec.minimum, -math.inf))
    if spec.maximum is not None:
        values.append(math.nextafter(spec.maximum, math.inf))
    if spec.above is not None:
        values.append(spec.above)
    if spec.choices:
        return [math.nan, AUTO]
    return values + [math.nan] if values else []


# every bound key but the target phase of switch-trace, which only that
# command bounds, takes its bounds from its model field
@pytest.mark.parametrize("kind,key,value", [
    (kind, key, value) for kind, schema in SCHEMAS.items() for key, spec in schema.items()
    if bound_field(key) and (kind, key) != ("switch-trace", "drive.target_phase_rad")
    for value in _outside(spec)])
def test_the_schema_and_the_model_reject_the_same_values(kind, key, value):
    cfg = resolve(f"{key} = {value}\n", kind)
    assert [d.key for d in cfg.errors] == [key]
    model, model_field = bound_field(key)
    with pytest.raises(ValueError, match=model_field.name):
        model(**{model_field.name: value})
    with pytest.raises(ValueError, match=model_field.name):
        build(model, {key: value})
