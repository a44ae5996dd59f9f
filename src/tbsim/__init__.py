"""Amplitude-level simulator of a rapidly switchable beam splitter.

An interferometer with a phase-modulator pair acts as a beam splitter whose
splitting ratio is set, within nanoseconds, by the drive phase.  The package
models the quantum optics (mode amplitudes, interference, two-photon
statistics), the classical feed-forward chain (heralding, delays, gate
envelopes) and the supporting control loop, plus counting detectors and a
deterministic CLI for generating data artifacts.
"""

__version__ = "0.3.0"
# rows per piece of a streamed CSV artifact; set before the submodules that
# read it are imported
CSV_CHUNK_ROWS = 8192

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
