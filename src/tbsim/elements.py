"""Transfer-matrix builders for the individual optical elements.

Conventions (fixed once for the whole package):

* Beam splitters use the symmetric convention: transmitted amplitudes are
  real ``sqrt(T)``, reflected amplitudes carry a factor ``i*sqrt(1-T)``.
* An electro-optic modulator driven to birefringent phase ``phi`` is
  diagonal in the +45/-45 basis on its path: the ``+`` component gains
  ``exp(+i*polarity*phi/2)``, the ``-`` component ``exp(-i*polarity*phi/2)``.
* Mirrors are the identity; their fixed reflection phase is taken as a
  global factor and dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import FULL_BASIS, ModeLabel, Path, Pol, TransferMatrix


@dataclass(frozen=True)
class SplittingRatio:
    """Beam-splitter power transmissivity; reflectivity is the complement."""

    transmissivity: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity must be in [0, 1], got {self.transmissivity}")

    @property
    def reflectivity(self) -> float:
        return 1.0 - self.transmissivity


@dataclass(frozen=True)
class EomSetting:
    """Drive setting of one modulator crystal.

    phase_rad is the full birefringent phase between the +45 and -45 axes;
    polarity +1/-1 selects the sign of the applied voltage.
    """

    phase_rad: float
    polarity: int = +1

    def __post_init__(self) -> None:
        if self.polarity not in (+1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")


def beam_splitter(ratio: SplittingRatio,
                  in_paths: tuple[Path, Path],
                  out_paths: tuple[Path, Path]) -> TransferMatrix:
    """Beam splitter mapping two input paths onto two distinct output paths.

    Acts identically on both polarization components.  The reverse direction
    (out-paths back onto in-paths) carries the same 2x2 block so the full
    matrix stays unitary; in a forward-propagating network those modes are
    never populated.
    """
    labels = (*in_paths, *out_paths)
    if len(set(labels)) != 4:
        raise ValueError(f"beam splitter needs four distinct paths, got {labels}")
    t = math.sqrt(ratio.transmissivity)
    r = 1j * math.sqrt(ratio.reflectivity)
    block = np.array([[t, r], [r, t]], dtype=np.complex128)

    mat = np.eye(len(FULL_BASIS), dtype=np.complex128)
    for pol in Pol:
        src = [FULL_BASIS.index(ModeLabel(p, pol)) for p in in_paths]
        dst = [FULL_BASIS.index(ModeLabel(p, pol)) for p in out_paths]
        for i in (*src, *dst):
            mat[i, i] = 0.0
        for a, da in enumerate(dst):
            for b, sb in enumerate(src):
                mat[da, sb] = block[a, b]
                mat[sb, da] = block[a, b]  # reciprocal direction, keeps U unitary
    return TransferMatrix(mat)


def eom(setting: EomSetting, path: Path) -> TransferMatrix:
    """Electro-optic modulator on one path, diagonal in the +45/-45 basis."""
    mat = np.eye(len(FULL_BASIS), dtype=np.complex128)
    half = setting.polarity * setting.phase_rad / 2.0
    plus = FULL_BASIS.index(ModeLabel(path, Pol.PLUS))
    minus = FULL_BASIS.index(ModeLabel(path, Pol.MINUS))
    mat[plus, plus] = np.exp(1j * half)
    mat[minus, minus] = np.exp(-1j * half)
    return TransferMatrix(mat)


def mirror(path: Path) -> TransferMatrix:
    """Folding mirror; identity up to a dropped global reflection phase."""
    del path  # the phase convention makes every mirror the same identity map
    return TransferMatrix.identity()
