"""Tests of the benchmark's own output checks and bookkeeping.

Each check must accept a real artifact and reject a hand-corrupted one, and
a CLI call that fails must be counted, not crash the run.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import tbsim.cli as cli  # noqa: E402

# sizes small enough for a unit test; the checks read sizes from the values
SMALL = {
    "fringe": {"scan.shots_per_point": 20000},
    "feedforward": {"run.duration_ns": 2.0e5},
    "lock": {"lock.duration_s": 0.05},
    "hom_default": {},
    "switch_default": {},
}


def _op(tmp: Path, label: str, values: dict, seed: int = 7) -> workloads.Op:
    cfg = tmp / f"{label}.cfg"
    cfg.write_text(workloads.config_text(values))
    return workloads.call(label, tmp, tmp / label, seed)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One real artifact directory per check, with the values it ran with."""
    tmp = tmp_path_factory.mktemp("artifacts")
    made = {}
    for label, overrides in SMALL.items():
        values = {**workloads.CONFIGS[label][1], **overrides}
        op = _op(tmp, label, values)
        _, error = run.call(cli, op)
        assert error is None, error
        made[label] = (op, values)
    return made


def _copy(artifacts, label, tmp_path):
    op, values = artifacts[label]
    out = tmp_path / label
    shutil.copytree(op.out, out)
    return op.command, out, values


def _edit_summary(out: Path, **changes):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["summary"].update(changes)
    path.write_text(json.dumps(manifest))
    return manifest["summary"]


def _worst(zs):
    return max(abs(z) for _, z in zs)


@pytest.mark.parametrize("label", sorted(SMALL))
def test_check_accepts_real_artifact(artifacts, label):
    op, values = artifacts[label]
    zs = checks.BY_COMMAND[op.command](op.out, values)
    assert not zs or _worst(zs) < checks.z_threshold(len(zs))


def test_fringe_rejects_wrong_visibility(artifacts, tmp_path):
    command, out, values = _copy(artifacts, "fringe", tmp_path)
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    _edit_summary(out, visibility=summary["visibility"] * 0.97)
    assert _worst(checks.fringe(out, values)) > 5.0


def test_fringe_rejects_flattened_points(artifacts, tmp_path):
    command, out, values = _copy(artifacts, "fringe", tmp_path)
    lines = (out / "fringe.csv").read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        phi, _, r, sigma = map(float, line.split(","))
        r = 0.5 + 0.9 * (r - 0.5)
        rows.append(f"{phi!r},{1.0 - r!r},{r!r},{sigma!r}")
    (out / "fringe.csv").write_text("\n".join(rows) + "\n")
    zs = checks.fringe(out, values)
    assert max(abs(z) for name, z in zs if name.startswith("R_est")) > 5.0


def _rewrite_timeline(out: Path, edit):
    lines = (out / "timeline.csv").read_text().splitlines(keepends=True)
    (out / "timeline.csv").write_text("".join(edit(lines)))


def test_feedforward_rejects_gates_closer_than_spacing(artifacts, tmp_path):
    _, out, values = _copy(artifacts, "feedforward", tmp_path)

    def squeeze(lines):
        opens = [(float(l.split(",")[0]), l.split(",", 2)[2]) for l in lines if ",gate_open," in l]
        (first, _), (second, pair) = opens[0], opens[1]
        shift = second - (first + values["limiter.min_spacing_ns"] / 2.0)
        out_lines = []
        for line in lines:
            t, kind, payload = line.split(",", 2)
            if kind in ("gate_open", "gate_close") and payload == pair:
                line = f"{float(t) - shift!r},{kind},{payload}"
            out_lines.append(line)
        return out_lines

    _rewrite_timeline(out, squeeze)
    with pytest.raises(checks.CheckError, match="limiter spacing"):
        checks.feedforward(out, values)


def test_feedforward_rejects_missing_pulse(artifacts, tmp_path):
    _, out, values = _copy(artifacts, "feedforward", tmp_path)
    _rewrite_timeline(out, lambda lines: [l for i, l in enumerate(lines) if i != 1])
    with pytest.raises(checks.CheckError, match="pump pulses"):
        checks.feedforward(out, values)


def test_feedforward_rejects_manifest_counts(artifacts, tmp_path):
    _, out, values = _copy(artifacts, "feedforward", tmp_path)
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    _edit_summary(out, clicks_d1=summary["clicks_d1"] + 1)
    with pytest.raises(checks.CheckError, match="click counts"):
        checks.feedforward(out, values)


def _rewrite_lock_row(out: Path, index: int, edit):
    lines = (out / "lock_trace.csv").read_text().splitlines()
    t, residual, monitor, actuator = map(float, lines[index].split(","))
    residual, monitor = edit(residual, monitor)
    lines[index] = f"{t!r},{residual!r},{monitor!r},{actuator!r}"
    (out / "lock_trace.csv").write_text("\n".join(lines) + "\n")


def test_lock_rejects_monitor_off_fringe_law(artifacts, tmp_path):
    _, out, values = _copy(artifacts, "lock", tmp_path)
    _rewrite_lock_row(out, 10, lambda residual, monitor: (residual, monitor + 1e-6))
    with pytest.raises(checks.CheckError, match="fringe law"):
        checks.lock(out, values)


def test_lock_rejects_residual_outside_band(artifacts, tmp_path):
    _, out, values = _copy(artifacts, "lock", tmp_path)

    def unlock(residual, monitor):
        residual = 0.2
        return residual, 0.5 * (1.0 + math.cos(checks.FRINGE_SCALE * (residual + checks.LOCK_OFFSET_RAD)))

    _rewrite_lock_row(out, -1, unlock)
    with pytest.raises(checks.CheckError, match="locked band"):
        checks.lock(out, values)


def test_hom_rejects_wrong_visibility(artifacts, tmp_path):
    _, out, values = _copy(artifacts, "hom_default", tmp_path)
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    _edit_summary(out, visibility=summary["visibility"] + 0.05)
    assert _worst(checks.hom(out, values)) > 5.0


def test_switch_rejects_slow_rise(artifacts, tmp_path):
    _, out, values = _copy(artifacts, "switch_default", tmp_path)
    _edit_summary(out, rise_time_10_90_ns=values["drive.rise_time_10_90_ns"] + 0.2)
    with pytest.raises(checks.CheckError, match="rise"):
        checks.switch(out, values)


def test_identical_rejects_changed_byte(artifacts, tmp_path):
    _, out, _ = _copy(artifacts, "switch_default", tmp_path)
    csv = out / "switch_trace.csv"
    data = bytearray(csv.read_bytes())
    data[-2] = ord("7") if data[-2] != ord("7") else ord("8")
    csv.write_bytes(bytes(data))
    with pytest.raises(checks.CheckError, match="differs"):
        checks.identical(artifacts["switch_default"][0].out, out)


def test_failed_calls_are_counted_and_do_not_crash(artifacts, tmp_path):
    values = {**workloads.CONFIGS["fringe"][1], **SMALL["fringe"], "detector.dead_time_ns": 5.0}
    dead_time = _op(tmp_path, "fringe", values)
    manifest = json.loads((artifacts["lock"][0].out / "manifest.json").read_text())
    del manifest["seed"]
    (tmp_path / "broken.json").write_text(json.dumps(manifest))
    replay = workloads.Op("replay", "lock", ("replay", "--manifest", str(tmp_path / "broken.json"),
                                             "--out", str(tmp_path / "again")), tmp_path / "again", 0)
    good = artifacts["switch_default"][0]
    good_replay = workloads.replay(good, tmp_path / "switch-replay")
    rounds = [run.run_round(cli, [dead_time, replay, good, good_replay])]
    errors = [error for _, _, error in rounds[0]]
    assert errors[0].startswith("exit 3") and errors[1].startswith("uncaught KeyError")
    assert errors[2] is None and errors[3] is None
    assert run.rates(rounds)["runs_per_s"] > 0
    # replay succeeded once and was checked; no fringe-scan call did
    unchecked = ["no fringe-scan call succeeded, so none was checked"]
    assert run.check_rounds(rounds, pairs=False) == unchecked
    # a run whose every call failed is not correct
    assert run.check_rounds([rounds[0][:1]], pairs=False) == unchecked


def test_z_threshold_grows_with_the_number_of_tests():
    assert checks.z_threshold(1) == 5.0
    assert 6.0 < checks.z_threshold(10_000) < 7.0


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    own, calls = tracer.self_times()
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0} and calls["b"] == 2


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(cli, "fit_visibility")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["tbs.fit_visibility_s"] == {"value": None, "unit": "s", "absent": True}
    assert metrics["tbs.fringe_scan_s"]["value"] == 0.0
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_importtime_attribution():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     _stdlib_child",
        "import time:        20 |         30 |   numpy.core",
        "import time:         5 |         35 | numpy",
        "import time:         7 |          7 |     re",
        "import time:         3 |         10 |   tbsim.tbs",
        "import time:         1 |         46 | tbsim",
    ])
    assert tracing.parse_importtime(text) == {"numpy": 35, "tbsim": 11}


def test_pid_step_is_counted_without_a_span(monkeypatch):
    import tbsim.lock

    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = cli.run_lock(tbsim.lock.DriftModel(), tbsim.lock.PidGains(), 0.01, 3)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["lock.pid_step.calls"]["value"] == metrics["lock.steps"]["value"] == len(
        result.residual_rad)
    assert {name for name, *_ in tracer.spans} == {"lock.run_lock", "lock.sample_path"}

    monkeypatch.delattr(tbsim.lock, "pid_step")
    absent = tracing.Tracer()
    absent.install()
    absent.uninstall()
    assert tracing.layer_metrics(absent)["lock.pid_step.calls"]["absent"] is True
