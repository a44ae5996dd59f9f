"""Traced run: spans around the calls into each tbsim layer, made from outside.

``Tracer.install`` replaces the module and class attributes through which
tbsim calls its layers with timing wrappers defined here; ``uninstall`` puts
the originals back.  Spans (name, start, end, parent) stay in memory and are
written out once, at the end.  A layer's self time is its spans' duration
minus the time covered by their child spans.  An attribute that a version of
tbsim lacks is reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module[:class], attribute, span name, {count metric: f(bound arguments, result)})
WRAPS = [
    ("tbsim.cli", "main", "cli.main", {}),
    ("tbsim.cli", "_run_replay", "cli.replay", {}),
    ("tbsim.cli", "resolve", "config.resolve", {}),
    ("tbsim.cli", "fringe_scan", "tbs.fringe_scan", {"tbs.points": lambda a, r: len(r)}),
    ("tbsim.cli", "fit_visibility", "tbs.fit_visibility", {}),
    ("tbsim.detection", "sample_clicks", "detection.sample_clicks",
     {"detection.shots_sampled": lambda a, r: a["n_shots"] * len(a["output_probs"])}),
    ("tbsim.cli", "hom_delay_scan", "hom.hom_delay_scan", {}),
    ("tbsim.cli", "run_timeline", "timing.run_timeline", {"timing.events": lambda a, r: len(r.events)}),
    ("tbsim.timing:EventTimeline", "sort", "timing.sort", {}),
    ("tbsim.timing", "rate_limit", "timing.rate_limit",
     {"timing.gates_rejected": lambda a, r: len(r.rejected_times)}),
    ("tbsim.cli", "gate_alignment", "timing.gate_alignment", {}),
    ("tbsim.timing", "gate_alignment", "timing.gate_alignment", {}),
    ("tbsim.cli", "simulate_switching", "timing.simulate_switching", {}),
    ("tbsim.timing:EventTimeline", "to_csv", "timing.timeline_to_csv", {}),
    ("tbsim.cli", "sample_drive", "timing.sample_drive", {}),
    ("tbsim.cli", "run_lock", "lock.run_lock", {"lock.steps": lambda a, r: len(r.residual_rad)}),
    ("tbsim.lock:DriftModel", "sample_path", "lock.sample_path", {}),
    ("tbsim.lock:LockResult", "to_csv", "lock.to_csv", {}),
]

# (module, attribute, count metric): a per-step function whose calls are
# counted with no span, so that its caller's self time keeps its whole loop
CALL_COUNTS = [("tbsim.lock", "pid_step", "lock.pid_step.calls")]

# metric -> span whose summed self time it reports; cli.self_s is the time
# of main() outside every other span
SELF_TIMES = {
    "config.resolve_s": "config.resolve", "cli.self_s": "cli.main", "cli.replay_s": "cli.replay",
    "tbs.fringe_scan_s": "tbs.fringe_scan", "tbs.fit_visibility_s": "tbs.fit_visibility",
    "detection.sample_clicks_s": "detection.sample_clicks", "hom.hom_delay_scan_s": "hom.hom_delay_scan",
    "timing.run_timeline_s": "timing.run_timeline", "timing.sort_s": "timing.sort",
    "timing.rate_limit_s": "timing.rate_limit", "timing.gate_alignment_s": "timing.gate_alignment",
    "timing.simulate_switching_s": "timing.simulate_switching",
    "timing.timeline_to_csv_s": "timing.timeline_to_csv", "timing.sample_drive_s": "timing.sample_drive",
    "lock.run_lock_s": "lock.run_lock", "lock.sample_path_s": "lock.sample_path",
    "lock.to_csv_s": "lock.to_csv",
}
CALLS = {"detection.sample_clicks.calls": "detection.sample_clicks",
         "timing.gate_alignment.calls": "timing.gate_alignment"}
COUNTS = {metric: span for _, _, span, counts in WRAPS for metric in counts}

IMPORTS = ("numpy", "scipy", "tbsim")


def _owner(path: str):
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    """Span recorder; every span and count of one traced run."""

    def __init__(self):
        self.spans: list = []           # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self.installed: set[str] = set()  # span names with at least one wrapper
        self.broken: set[str] = set()     # counts whose result lacked the counted field
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for owner_path, attr, span, counts in WRAPS:
            owner = _owner(owner_path)
            fn = getattr(owner, attr, None)
            if callable(fn):
                setattr(owner, attr, self._wrapper(fn, span, counts))
                self._undo.append((owner, attr, fn))
                self.installed.add(span)
        for owner_path, attr, name in CALL_COUNTS:
            owner = _owner(owner_path)
            fn = getattr(owner, attr, None)
            if callable(fn):
                setattr(owner, attr, self._counter(fn, name))
                self._undo.append((owner, attr, fn))
                self.installed.add(name)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _wrapper(self, fn, span: str, counts: dict):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent)
            for metric, count in counts.items():
                try:
                    self.counts[metric] += count(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    self.broken.add(metric)
            return result
        return traced

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def self_times(self) -> tuple[dict, Counter]:
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, inner):
            own[name] += end - start - covered
            calls[name] += 1
        return own, calls

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer) -> dict:
    own, calls = tracer.self_times()
    out = {}
    for name, span in SELF_TIMES.items():
        out[name] = metric(own.get(span, 0.0) if span in tracer.installed else None, "s")
    for name, span in CALLS.items():
        out[name] = metric(calls[span] if span in tracer.installed else None, "count")
    for name, span in COUNTS.items():
        ok = span in tracer.installed and name not in tracer.broken
        out[name] = metric(tracer.counts[name] if ok else None, "count")
    for _, _, name in CALL_COUNTS:
        out[name] = metric(tracer.counts[name] if name in tracer.installed else None, "count")
    return out


def parse_importtime(text: str) -> Counter:
    """Microseconds of import attributed to numpy, scipy and tbsim.

    Each module's self time goes to the nearest of these packages among the
    module and the modules that imported it; ``-X importtime`` prints a
    module after its children, indented two spaces per level.
    """
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        self_us = parts[0].split(":", 1)[1].strip()
        if self_us.isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(self_us)))
    totals: Counter = Counter()
    stack: list = []  # (depth, package) along the current import chain
    for depth, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        package = top if top in IMPORTS else (stack[-1][1] if stack else None)
        stack.append((depth, package))
        if package:
            totals[package] += self_us
    return totals


def import_times(probe: Path, src: Path, argv: list[str], runs: int = 3) -> dict:
    samples = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", str(probe), str(src), *argv],
                              capture_output=True, text=True, timeout=120, check=True)
        totals = parse_importtime(proc.stderr)
        for package in IMPORTS:
            samples[package].append(totals[package] / 1e6)
    return {f"import.{p}_s": metric(statistics.median(samples[p]), "s") for p in IMPORTS}


def _slope(run, small, large, reps: int = 3) -> float:
    def seconds(n):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            run(n)
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    return math.log(seconds(large) / seconds(small)) / math.log(large / small)


def exponents(seed: int) -> dict:
    """Log-log slope of time against size of four kernels, each from two
    sizes a factor of 4 apart, timed through tbsim's public functions."""
    import numpy as np
    import tbsim

    def fringe(shots):
        tbsim.fringe_scan(np.linspace(0.0, 2.0 * math.pi, 16), tbsim.InterferenceQuality(0.959),
                          int(shots), seed, survival=0.9,
                          detector_model=tbsim.DetectorModel(0.8, 1000.0), phase_jitter_rms=0.1)

    def timeline(duration):
        return tbsim.run_timeline(tbsim.TimelineConfig(enforce_rate_limit=True), duration, seed)

    def alignment():
        timelines = {n: timeline(n) for n in (2.5e5, 1e6)}
        drive = tbsim.EomDrive()
        return lambda n: tbsim.gate_alignment(timelines[n], drive)

    def lock(duration):
        tbsim.run_lock(tbsim.DriftModel(), tbsim.PidGains(), duration, seed)

    kernels = {
        "tbs.fringe_scan.exponent": (lambda: fringe, 1e5, 4e5),
        "timing.run_timeline.exponent": (lambda: timeline, 2.5e5, 1e6),
        "timing.gate_alignment.exponent": (alignment, 2.5e5, 1e6),
        "lock.run_lock.exponent": (lambda: lock, 0.2, 0.8),
    }
    out = {}
    for name, (make, small, large) in kernels.items():
        try:
            value = _slope(make(), small, large)
        except (AttributeError, TypeError):
            value = None
        out[name] = metric(value, "1")
    return out
