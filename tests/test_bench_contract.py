"""The names that ``perfbench/tracing.py`` wraps from outside still resolve.

The benchmark's tracer replaces tbsim functions and methods by name and
reports a layer whose name it cannot find as absent (``null``).  This runs
one tiny call of each subcommand and one replay under that tracer, loaded
from the benchmark's own file, and requires every layer metric to be present.
"""

import importlib.util
from pathlib import Path

from tbsim import cli, detection

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

CONFIGS = {
    "fringe-scan": "scan.n_points = 4\nscan.shots_per_point = 1000\n",
    "hom-scan": "scan.n_points = 3\nscan.shots_per_point = 100\n",
    "switch-trace": "",
    # the limiter on, so rate_limit runs and its rejections are counted
    "feedforward-run": "run.duration_ns = 20000\nsource.p_pair = 0.3\nlimiter.enabled = true\n",
    "lock-sim": "lock.duration_s = 0.001\n",
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_calls_leave_no_layer_metric_absent(tmp_path, capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for command, text in CONFIGS.items():
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(text)
            assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        manifest = tmp_path / "feedforward-run" / "manifest.json"
        assert cli.main(["replay", "--manifest", str(manifest),
                         "--out", str(tmp_path / "replay")]) == 0
        # no command samples shot by shot; the tracer still counts the
        # shots of a call by the parameter names n_shots and output_probs
        detection.sample_clicks({"d": 1.0}, {"d": detection.DetectorModel()}, 10, 1)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert [name for name, m in metrics.items() if m["value"] is None] == []
    assert metrics["lock.pid_step.calls"]["value"] == metrics["lock.steps"]["value"] > 0
    assert metrics["timing.gates_rejected"]["value"] > 0
    assert metrics["detection.shots_sampled"]["value"] == 10


def test_scaling_kernels_still_build_their_models():
    # tracing.exponents builds DetectorModel(0.8, 1000.0), TimelineConfig,
    # EomDrive, DriftModel and PidGains itself, by position and by name
    exponents = _load_tracing().exponents(seed=1)
    assert [name for name, m in exponents.items() if m["value"] is None] == []
