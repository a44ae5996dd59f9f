"""Amplitude-level simulator of a rapidly switchable beam splitter.

An interferometer with a phase-modulator pair acts as a beam splitter whose
splitting ratio is set, within nanoseconds, by the drive phase.  The package
models the quantum optics (mode amplitudes, interference, two-photon
statistics), the classical feed-forward chain (heralding, delays, gate
envelopes) and the supporting control loop, plus counting detectors and a
deterministic CLI for generating data artifacts.
"""

import dataclasses

__version__ = "0.3.0"
# rows per piece of a streamed CSV artifact, and the bound helpers below: set
# before the submodules that read them are imported
CSV_CHUNK_ROWS = 8192


def bounded(default, *, minimum=None, maximum=None, above=None, choices=None):
    """A dataclass field with ``default`` whose value must be at least
    ``minimum``, at most ``maximum``, greater than ``above`` and one of
    ``choices``, each where given.  ``check_bounds`` holds a model to them,
    and ``tbsim.config`` gives them to the key that sets the field."""
    return dataclasses.field(default=default, metadata={"bounds": {
        "minimum": minimum, "maximum": maximum, "above": above, "choices": choices}})


def bound_problem(value, minimum=None, maximum=None, above=None, choices=None):
    """What puts ``value`` outside the given bounds, or None; NaN is outside
    every bound."""
    if minimum is not None and not value >= minimum:
        return f"value {value} below minimum {minimum}"
    if maximum is not None and not value <= maximum:
        return f"value {value} above maximum {maximum}"
    if above is not None and not value > above:
        return f"value {value} must be greater than {above}"
    if choices is not None and value not in choices:
        return f"must be one of {', '.join(choices)}"
    return None


def check_bounds(model) -> None:
    """Raise ValueError naming the first field of the dataclass ``model`` that
    is outside the bounds of its ``bounded`` field; None is inside only for
    a field whose default is None (auto).  This reads the fields without the
    copy that ``dataclasses.fields`` makes."""
    for f in model.__dataclass_fields__.values():
        value = getattr(model, f.name)
        problem = (None if value is None and f.default is None
                   else bound_problem(value, **f.metadata.get("bounds", {})))
        if problem is not None:
            raise ValueError(f"{f.name}: {problem}")


from .detection import DetectorModel, estimate_T_R, sample_clicks
from .elements import EomSetting, SplittingRatio, beam_splitter, eom, mirror
from .hom import (DipAnalysis, HomPoint, UndefinedVisibilityError, Wavepacket,
                  analyze_delay_scan, hom_coincidence_prob, hom_delay_scan,
                  hom_dip_visibility, overlap)
from .lock import (DriftModel, LockResult, PidGains, PidState, hene_signal,
                   monitor_intensity, pid_step, run_lock)
from .modes import (FULL_BASIS, BasisMismatchError, ModeLabel, ModeState, Path,
                    Pol, TransferMatrix, apply, compose, global_phase_equal, label)
from .tbs import (FitError, FringePoint, InterferenceQuality, TbsOutput,
                  VisibilityFit, fit_visibility, fringe_probability, fringe_scan,
                  reflectivity, tbs_closed_form, tbs_composed, tbs_network_form,
                  transmissivity)
from .timing import (AlignmentSummary, ChainDelays, EomDrive, EventKind,
                     EventTimeline, TimelineConfig, TimelineEvent, gate_alignment,
                     measure_fall_time, measure_plateau_width, measure_rise_time,
                     phase_at, rate_limit, run_timeline, sample_drive,
                     simulate_switching)
