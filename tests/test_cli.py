"""End-to-end CLI runs: artifacts, manifests, determinism, exit codes."""

import csv
import dataclasses
import io
import json
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from oracles import (LoopTimeline, check_switch_trace_edges_sampled, gate_alignment_loop,
                     run_lock_loop, run_timeline_loop, simulate_switching_loop)

from tbsim import CSV_CHUNK_ROWS, cli, timing
from tbsim.config import MAX_SCAN_POINTS, ResolvedConfig, resolve
from tbsim.lock import DriftModel, LockResult, PidGains
from tbsim.tbs import fit_visibility
from tbsim.timing import EventTimeline, TimelineConfig

FRINGE_CFG = """
run.seed = 99
scan.n_points = 8
scan.shots_per_point = 2000
scan.mode_overlap = 0.95
"""

FEEDFORWARD_CFG = """
run.seed = 5
run.duration_ns = 20000
source.p_pair = 0.05
"""

LOCK_CFG = """
lock.duration_s = 0.005
"""


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "tbsim.cli", *args],
                          capture_output=True, text=True)


def write(path, text):
    path.write_text(text)
    return str(path)


def test_fringe_scan_produces_artifacts_and_manifest(tmp_path):
    cfg = write(tmp_path / "scan.cfg", FRINGE_CFG)
    out = tmp_path / "out"
    proc = run_cli("fringe-scan", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "fringe.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fringe-scan"
    assert manifest["seed"] == 99
    assert manifest["config"]["scan.n_points"] == 8
    assert "visibility" in manifest["summary"]
    assert abs(manifest["summary"]["visibility"] - 0.95) < 0.05
    assert "visibility" in proc.stdout


def test_seed_flag_overrides_config(tmp_path):
    cfg = write(tmp_path / "scan.cfg", FRINGE_CFG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("fringe-scan", "--config", cfg, "--out", str(a),
                   "--seed", "123").returncode == 0
    assert run_cli("fringe-scan", "--config", cfg, "--out", str(b)).returncode == 0
    ma = json.loads((a / "manifest.json").read_text())
    assert ma["seed"] == 123
    assert (a / "fringe.csv").read_bytes() != (b / "fringe.csv").read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    cfg = write(tmp_path / "scan.cfg", FRINGE_CFG)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli("fringe-scan", "--config", cfg, "--out", str(out)).returncode == 0
        outs.append(out)
    assert (outs[0] / "fringe.csv").read_bytes() == (outs[1] / "fringe.csv").read_bytes()
    assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


def test_replay_reproduces_artifacts(tmp_path):
    cfg = write(tmp_path / "ff.cfg", FEEDFORWARD_CFG)
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert run_cli("feedforward-run", "--config", cfg, "--out", str(first)).returncode == 0
    proc = run_cli("replay", "--manifest", str(first / "manifest.json"),
                   "--out", str(again))
    assert proc.returncode == 0, proc.stderr
    assert (first / "timeline.csv").read_bytes() == (again / "timeline.csv").read_bytes()
    assert (first / "manifest.json").read_bytes() == (again / "manifest.json").read_bytes()


def test_switch_trace_runs_without_seed(tmp_path):
    out = tmp_path / "sw"
    proc = run_cli("switch-trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] is None
    assert abs(manifest["summary"]["rise_time_10_90_ns"] - 5.6) < 0.1
    header = (out / "switch_trace.csv").read_text().splitlines()[0]
    assert header == "time_ns,phase_rad"


def test_hom_scan_summary(tmp_path):
    out = tmp_path / "hom"
    cfg = write(tmp_path / "hom.cfg", "scan.shots_per_point = 20000\n")
    proc = run_cli("hom-scan", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["classification"] == "dip"


def test_lock_sim_artifact(tmp_path):
    out = tmp_path / "lk"
    cfg = write(tmp_path / "lock.cfg", LOCK_CFG)
    proc = run_cli("lock-sim", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["rms_residual_rad"] < 0.05
    header = (out / "lock_trace.csv").read_text().splitlines()[0]
    assert header == "time_s,phi_true_rad,monitor_intensity,actuator_rad"


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write(tmp_path / "bad.cfg", "scan.n_pints = 8\n")
    proc = run_cli("fringe-scan", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "scan.n_pints" in proc.stderr


@pytest.mark.parametrize("command,line", [
    ("feedforward-run", "run.duration_ns = inf"),
    ("fringe-scan", "scan.mode_overlap = nan"),
    ("feedforward-run", "delays.fpga_delay_ns = -inf"),
])
def test_non_finite_config_value_exits_2(tmp_path, command, line):
    cfg = write(tmp_path / "bad.cfg", line + "\n")
    proc = run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "finite" in proc.stderr
    assert line.split()[0] in proc.stderr


@pytest.mark.parametrize("command", ["fringe-scan", "hom-scan"])
def test_huge_shot_count_exits_2(tmp_path, command):
    cfg = write(tmp_path / "huge.cfg", "scan.shots_per_point = 100000000000000000000\n")
    proc = run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "scan.shots_per_point" in proc.stderr and "maximum" in proc.stderr


def test_narrow_fringe_span_exits_2(tmp_path):
    cfg = write(tmp_path / "narrow.cfg", "scan.phi_stop_rad = 3.0\n")
    proc = run_cli("fringe-scan", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "scan.phi_stop_rad" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fringe-scan", "hom-scan", "feedforward-run", "lock-sim"])
def test_negative_seed_in_config_exits_2(tmp_path, command):
    cfg = write(tmp_path / "neg.cfg", "run.seed = -1\n")
    proc = run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "run.seed" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_negative_seed_flag_exits_2(tmp_path):
    proc = run_cli("lock-sim", "--seed", "-1", "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "--seed" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_out_naming_a_file_exits_2(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    proc = run_cli("switch-trace", "--out", str(taken))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert str(taken) in proc.stderr


def test_run_beyond_the_pulse_ceiling_exits_2(tmp_path):
    # 8e10 pump pulses: rejected by the config check, before any allocation
    cfg = write(tmp_path / "long.cfg", "run.duration_ns = 1e12\n")
    proc = run_cli("feedforward-run", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "run.duration_ns" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["lock.sample_period_s = 0", "lock.output_limit_rad = 0",
                                  "lock.sample_period_s = 1e-300"])
def test_bad_lock_config_exits_2(tmp_path, line):
    cfg = write(tmp_path / "bad.cfg", line + "\n")
    proc = run_cli("lock-sim", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,line,key", [
    ("switch-trace", "drive.on_time_ns = 0", "drive.on_time_ns"),
    ("switch-trace", "drive.rise_time_10_90_ns = 0", "drive.rise_time_10_90_ns"),
    ("switch-trace", "drive.fall_time_10_90_ns = 0", "drive.fall_time_10_90_ns"),
    ("switch-trace", "drive.edge_tail_ns = 0", "drive.edge_tail_ns"),
    ("switch-trace", "trace.dt_ns = 0", "trace.dt_ns"),
    ("hom-scan", "packet.bandwidth_fwhm_nm = 0", "packet.bandwidth_fwhm_nm"),
    ("hom-scan", "scan.n_points = 2", "scan.n_points"),
    # the squared spectral width underflows, or the squared wavelength overflows
    ("hom-scan", "packet.bandwidth_fwhm_nm = 1e-300", "packet.bandwidth_fwhm_nm"),
    ("hom-scan", "packet.center_wavelength_nm = 1e300", "packet.bandwidth_fwhm_nm"),
    # 2.4e301 samples: rejected by the config check, before any allocation
    ("switch-trace", "trace.dt_ns = 1e-300", "trace.dt_ns"),
    # the span overflows, so numpy's linspace would warn and yield NaN delays
    ("hom-scan", "scan.delay_start_ns = -1e308\nscan.delay_stop_ns = 1e308",
     "scan.delay_stop_ns"),
    # no sample, or too few, lands on an edge; a flat or negative trace has none
    ("switch-trace", "trace.dt_ns = 100", "trace.dt_ns"),
    ("switch-trace", "trace.dt_ns = 1", "trace.dt_ns"),
    ("switch-trace", "drive.target_phase_rad = 0", "drive.target_phase_rad"),
    ("switch-trace", "drive.target_phase_rad = -3.14159", "drive.target_phase_rad"),
])
def test_config_a_model_or_runner_would_reject_exits_2(tmp_path, capsys, command, line, key):
    cfg = write(tmp_path / "bad.cfg", line + "\n")
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {key}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", [f"trace.dt_ns = {0.5 + 0.01 * k:.2f}" for k in range(51)]
                         + ["drive.target_phase_rad = 0", "drive.target_phase_rad = -3.14159"])
def test_switch_trace_is_measured_or_rejected_never_a_runtime_failure(tmp_path, capsys, line):
    cfg = write(tmp_path / "trace.cfg", line + "\n")
    code = cli.main(["switch-trace", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 0 and err == "" or code == 2 and err.count("\n") == 1
    if line in ("trace.dt_ns = 0.50", "trace.dt_ns = 0.60"):
        assert code == 0


def test_feedforward_accepts_any_target_phase(tmp_path):
    cfg = write(tmp_path / "ff.cfg", "run.duration_ns = 2000\ndrive.target_phase_rad = -3.14159\n")
    assert cli.main(["feedforward-run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("option,name", [("--config", "dir"), ("--config", "latin1.cfg"),
                                         ("--manifest", "dir"), ("--manifest", "latin1.cfg")])
def test_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, option, name):
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(b"run.seed = 1  # caf\xe9\n")
    path = str(tmp_path / name)
    argv = ["replay", "--manifest", path] if option == "--manifest" else \
        ["fringe-scan", "--config", path]
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {option} {path}: ")


def test_fringe_visibility_sigma_follows_the_shot_count(tmp_path):
    # every point sigma is far below 1e-6 at these shot counts, so a floor
    # there would stall visibility_sigma instead of letting it fall as 1/sqrt(N)
    sigma = {}
    for shots in (10 ** 12, 10 ** 15):
        values = resolve(f"scan.mode_overlap = 0.9\nscan.shots_per_point = {shots}\n",
                         "fringe-scan").values
        _, summary, _ = cli.run_fringe(values, 1234)
        sigma[shots] = summary["visibility_sigma"]
    assert sigma[10 ** 12] < 1e-6
    assert sigma[10 ** 15] / sigma[10 ** 12] == pytest.approx(1000 ** -0.5, rel=0.2)


@pytest.mark.parametrize("text", [
    "",
    FRINGE_CFG,
    # the paper's contrast with jitter, loss, efficiency and dark counts
    "scan.mode_overlap = 0.959\nscan.phase_jitter_rms_rad = 0.1\nchannel.survival = 0.9\n"
    "detector.efficiency = 0.8\ndetector.dark_count_rate_hz = 1000\n"
    "scan.shots_per_point = 1000000\n",
])
def test_fringe_fit_matches_the_floored_fit_above_the_floor(text):
    # only sigma == 0 points get a stand-in, so a scan with no sigma in
    # (0, 1e-6] fits exactly as it did when every sigma was floored at 1e-6
    values = resolve(text, "fringe-scan").values
    _, summary, files = cli.run_fringe(values, values["run.seed"])
    rows = list(csv.DictReader(io.StringIO("".join(files["fringe.csv"]))))
    sigmas = np.array([float(r["sigma"]) for r in rows])
    assert np.all((sigmas == 0.0) | (sigmas > 1e-6))
    floored = fit_visibility([float(r["phi_rad"]) for r in rows],
                             [float(r["R_est"]) for r in rows], np.maximum(sigmas, 1e-6))
    assert summary["visibility"] == floored.visibility
    assert summary["visibility_sigma"] == floored.uncertainty
    assert summary["phase_offset_rad"] == floored.phase_offset_rad


def test_fringe_scan_runs_at_a_billion_shots_per_point(tmp_path):
    cfg = write(tmp_path / "big.cfg", FRINGE_CFG.replace("2000", "1000000000"))
    out = tmp_path / "big"
    proc = run_cli("fringe-scan", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary["shots_per_point"] == 10 ** 9
    assert abs(summary["visibility"] - 0.95) < 5 * summary["visibility_sigma"]


def test_missing_config_file_exits_2(tmp_path):
    proc = run_cli("fringe-scan", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def test_missing_out_exits_2():
    proc = run_cli("fringe-scan")
    assert proc.returncode == 2


def test_runtime_failure_exits_3(tmp_path):
    # a fully blocked channel records no coincidences, so no ratio exists
    cfg = write(tmp_path / "blocked.cfg",
                "channel.survival = 0\nscan.shots_per_point = 100\n")
    proc = run_cli("fringe-scan", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert "runtime failure" in proc.stderr


def test_print_defaults(tmp_path):
    proc = run_cli("hom-scan", "--print-defaults")
    assert proc.returncode == 0
    assert "scan.max_overlap = 0.9418067742376883" in proc.stdout


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "tbsim" in proc.stdout


def test_config_warning_is_echoed_and_recorded(tmp_path):
    cfg = write(tmp_path / "hot.cfg", FEEDFORWARD_CFG + "source.p_pair = 0.2\n")
    # duplicate key: the parser rejects it outright
    proc = run_cli("feedforward-run", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    cfg2 = write(tmp_path / "hot2.cfg",
                 "run.duration_ns = 20000\nsource.p_pair = 0.2\n")
    out = tmp_path / "o2"
    proc = run_cli("feedforward-run", "--config", cfg2, "--out", str(out))
    assert proc.returncode == 0
    assert "ceiling" in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("ceiling" in w for w in manifest["warnings"])


def test_detector_window_reaches_the_fringe_sampler(tmp_path):
    csv = []
    for window in (3, 300):
        cfg = write(tmp_path / f"w{window}.cfg", FRINGE_CFG
                    + f"detector.dark_count_rate_hz = 1e6\ndetector.window_ns = {window}\n")
        out = tmp_path / f"w{window}"
        assert run_cli("fringe-scan", "--config", cfg, "--out", str(out)).returncode == 0
        csv.append((out / "fringe.csv").read_bytes())
    assert csv[0] != csv[1]


def test_feedforward_aligns_gates_once(monkeypatch):
    calls = []
    real = timing.gate_alignment

    def counted(timeline, drive):
        calls.append(drive)
        return real(timeline, drive)

    monkeypatch.setattr(cli, "gate_alignment", counted)
    monkeypatch.setattr(timing, "gate_alignment", counted)
    values = resolve(FEEDFORWARD_CFG, "feedforward-run").values
    _, summary, _ = cli.run_feedforward(values, 5)
    assert len(calls) == 1
    assert summary["n_gated"] > 0


def test_cli_import_loads_no_scipy():
    code = "import sys, tbsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# row counts on each side of a chunk boundary
BOUNDARY_ROWS = [1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1]


@pytest.fixture(scope="module")
def loop_timeline():
    """The loop engine's switched timeline of ``feedforward-run`` at
    ``source.p_pair = 0.3``, 40 us and seed 3: every row kind, over one chunk."""
    config = TimelineConfig(p_pair=0.3)
    timeline_seed, switching_seed = np.random.SeedSequence(3).spawn(2)
    timeline = run_timeline_loop(config, 40000.0, timeline_seed)
    switched, _ = simulate_switching_loop(
        timeline, gate_alignment_loop(timeline, config.drive), switching_seed)
    assert len(switched.events) > CSV_CHUNK_ROWS + 1
    return switched


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
def test_streamed_timeline_equals_the_loop_oracle_at_chunk_boundaries(tmp_path, loop_timeline,
                                                                      rows):
    events = loop_timeline.events[:rows]
    path = tmp_path / "timeline.csv"
    cli._write_atomic(path, EventTimeline.from_events(events).csv_chunks())
    assert path.read_bytes() == LoopTimeline(events).to_csv().encode()


@pytest.mark.parametrize("rows", BOUNDARY_ROWS)
def test_streamed_lock_trace_equals_the_loop_oracle_at_chunk_boundaries(tmp_path, rows):
    steps = max(rows, 2)  # a lock-sim runs two steps at least
    ref = run_lock_loop(DriftModel(), PidGains(), steps * 1e-5, 8)
    cfg = write(tmp_path / "lock.cfg", f"lock.duration_s = {steps * 1e-5!r}\n")
    out = tmp_path / "o"
    assert cli.main(["lock-sim", "--config", cfg, "--out", str(out), "--seed", "8"]) == 0
    assert (out / "lock_trace.csv").read_bytes() == ref.to_csv().encode()
    if rows < steps:  # the first rows of the run, through the same writer
        first = {f.name: getattr(ref, f.name)[:rows] for f in dataclasses.fields(ref)}
        result = cli.run_lock(DriftModel(), PidGains(), steps * 1e-5, 8)
        result = dataclasses.replace(result, **{k: getattr(result, k)[:rows] for k in first})
        cli._write_atomic(tmp_path / "first.csv", result.csv_chunks())
        assert (tmp_path / "first.csv").read_bytes() == type(ref)(**first).to_csv().encode()


def test_the_feedforward_file_equals_the_loop_oracle(tmp_path, loop_timeline):
    cfg = write(tmp_path / "ff.cfg", "run.duration_ns = 40000\nsource.p_pair = 0.3\n")
    out = tmp_path / "o"
    assert cli.main(["feedforward-run", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    assert (out / "timeline.csv").read_bytes() == loop_timeline.to_csv().encode()


def test_writing_a_lock_trace_holds_about_one_chunk_not_the_file(tmp_path):
    steps = 50_000
    values = resolve(f"lock.duration_s = {steps * 1e-5!r}\n", "lock-sim").values
    tracemalloc.start()
    try:
        _, _, files = cli.run_lock_sim(values, 1)
        held, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cli._write_atomic(tmp_path / "lock_trace.csv", files["lock_trace.csv"])
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "lock_trace.csv").stat().st_size
    chunk = size * CSV_CHUNK_ROWS / steps
    # formatting a chunk also holds its row strings, about as large as its text
    assert write_peak - max(run_peak, held) <= 2.5 * chunk < size / 2


def test_a_chunk_that_raises_leaves_no_artifact_temp_file_or_manifest(tmp_path, capsys,
                                                                      monkeypatch):
    real = LockResult.csv_chunks

    def second_chunk_raises(self):
        chunks = real(self)
        yield next(chunks)
        raise RuntimeError("chunk failed")

    monkeypatch.setattr(LockResult, "csv_chunks", second_chunk_raises)
    cfg = write(tmp_path / "lock.cfg", f"lock.duration_s = {3 * CSV_CHUNK_ROWS * 1e-5!r}\n")
    out = tmp_path / "o"
    assert cli.main(["lock-sim", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "runtime failure: chunk failed\n"
    assert list(out.iterdir()) == []


def _switch_trace_cases():
    """Random ``trace.pre_ns`` offsets over a sweep of ``dt`` from 0.001 to 1
    ns; then drives whose peak falls short of the target or whose trace ends
    inside the fall."""
    rng = random.Random(24)
    cases = [f"trace.dt_ns = {dt!r}\ntrace.pre_ns = {rng.uniform(0.0, 5.0)!r}\n"
             for dt in np.geomspace(0.001, 1.0, 120).tolist()]
    for _ in range(60):
        rise, fall = rng.uniform(0.1, 8.0), rng.uniform(0.1, 8.0)
        cases.append(
            f"trace.dt_ns = {10 ** rng.uniform(-2.5, 0.0)!r}\n"
            f"trace.pre_ns = {rng.uniform(0.0, 5.0)!r}\n"
            f"trace.post_ns = {rng.choice([0.0, rng.uniform(0.0, 0.05), 2.0])!r}\n"
            f"drive.rise_time_10_90_ns = {rise!r}\ndrive.fall_time_10_90_ns = {fall!r}\n"
            f"drive.on_time_ns = {(rise + fall) * rng.choice([1.0, 1.001, 1.3])!r}\n"
            f"drive.edge_tail_ns = {10 ** rng.uniform(-3.0, 1.0)!r}\n")
    return cases


def test_switch_trace_check_gives_the_sampled_oracles_exit_code(tmp_path, capsys):
    codes = []
    for k, text in enumerate(_switch_trace_cases()):
        oracle = ResolvedConfig("switch-trace", dict(resolve(text, "switch-trace").values))
        check_switch_trace_edges_sampled(oracle)
        want = 2 if oracle.errors else 0
        cfg = write(tmp_path / "trace.cfg", text)
        code = cli.main(["switch-trace", "--config", cfg, "--out", str(tmp_path / f"o{k}")])
        err = capsys.readouterr().err
        assert code == want or (code, want) == (0, 2), text
        if code == want == 2:  # the same diagnostic, down to the sample count
            assert err == oracle.errors[0].render() + "\n", text
        codes.append(code)
    assert codes.count(0) > 20 and codes.count(2) > 20


def test_scan_point_ceilings_exit_2_before_any_scan(tmp_path):
    for command in ("fringe-scan", "hom-scan"):
        for n in (MAX_SCAN_POINTS + 1, 10 ** 8):
            cfg = write(tmp_path / "big.cfg", f"scan.n_points = {n}\n")
            proc = run_cli(command, "--config", cfg, "--out", str(tmp_path / "o"))
            assert proc.returncode == 2
            assert proc.stderr.count("\n") == 1 and "scan.n_points" in proc.stderr
            assert not (tmp_path / "o").exists()
