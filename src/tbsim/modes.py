"""Single-photon mode bookkeeping: labels, amplitude vectors, transfer matrices.

A photon lives in a discrete set of modes, each labelled by a spatial path
(``a`` through ``f``) and a polarization component in the diagonal basis
(``+`` for +45 degrees, ``-`` for -45 degrees).  The canonical basis used
throughout the package is the full 12-mode basis ordered path-major::

    (a,+), (a,-), (b,+), (b,-), ..., (f,+), (f,-)

Every state and operator lives on this one basis; a state over a subset of
paths is zero padded.  All values here are immutable, so they can be shared
freely between threads and processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Mapping

import numpy as np
from numpy.typing import NDArray

NORM_TOL = 1e-12


class Path(str, Enum):
    """Spatial path labels of the interferometer network."""

    A = "a"  # input port 1
    B = "b"  # input port 2
    C = "c"  # internal arm 1 (first modulator)
    D = "d"  # internal arm 2 (second modulator)
    E = "e"  # output port reached with probability sin^2(phi/2)
    F = "f"  # output port reached with probability cos^2(phi/2)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Pol(str, Enum):
    """Polarization component in the diagonal (+45/-45 degree) basis."""

    PLUS = "+"
    MINUS = "-"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class ModeLabel:
    """One optical mode: a spatial path carrying one polarization component."""

    path: Path
    pol: Pol

    def __repr__(self) -> str:
        return f"({self.path.value},{self.pol.value})"


FULL_BASIS: tuple[ModeLabel, ...] = tuple(
    ModeLabel(p, s) for p in Path for s in Pol
)


class BasisMismatchError(ValueError):
    """Raised when a value cannot be read as a mode label or basis amplitudes."""


def label(path, pol) -> ModeLabel:
    """Coerce loose arguments like ("a", "+") into a ModeLabel."""
    return ModeLabel(Path(path), Pol(pol))


def as_label(value) -> ModeLabel:
    if isinstance(value, ModeLabel):
        return value
    try:
        path, pol = value
    except (TypeError, ValueError):
        raise BasisMismatchError(f"cannot interpret {value!r} as a mode label") from None
    return label(path, pol)


@dataclass(frozen=True)
class ModeState:
    """Complex amplitude vector of a single photon over the mode basis.

    The squared norm is the total survival probability and may be below one
    for lossy evolutions, but never above one (up to ``NORM_TOL``).
    """

    amplitudes: NDArray[np.complex128]
    basis: ClassVar[tuple[ModeLabel, ...]] = FULL_BASIS

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128)
        n = len(FULL_BASIS)
        if arr.shape != (n,):
            raise ValueError(f"amplitudes must have shape ({n},), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)
        n2 = float(np.sum(np.abs(arr) ** 2))
        if n2 > 1.0 + NORM_TOL:
            raise ValueError(f"state norm^2 = {n2!r} exceeds 1 (not a photon amplitude vector)")

    @classmethod
    def from_dict(cls, mapping: Mapping[ModeLabel, complex]) -> "ModeState":
        """Build a state by zero-padding a sparse {label: amplitude} mapping."""
        arr = np.zeros(len(FULL_BASIS), dtype=np.complex128)
        for key, amp in mapping.items():
            arr[FULL_BASIS.index(as_label(key))] = amp
        return cls(arr)

    def amplitude(self, label: ModeLabel) -> complex:
        return complex(self.amplitudes[self.basis.index(label)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def path_probability(self, path: Path) -> float:
        """Total probability of finding the photon in the given spatial path."""
        sel = [i for i, m in enumerate(self.basis) if m.path == path]
        return float(np.sum(np.abs(self.amplitudes[sel]) ** 2))


@dataclass(frozen=True)
class TransferMatrix:
    """Linear map between photon amplitude vectors on the mode basis.

    Lossless elements are unitary to 1e-12.
    """

    matrix: NDArray[np.complex128]
    basis: ClassVar[tuple[ModeLabel, ...]] = FULL_BASIS

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=np.complex128)
        n = len(FULL_BASIS)
        if arr.shape != (n, n):
            raise ValueError(f"matrix must have shape ({n},{n}), got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def identity(cls) -> "TransferMatrix":
        return cls(np.eye(len(FULL_BASIS), dtype=np.complex128))

    def is_unitary(self, tol: float = NORM_TOL) -> bool:
        n = self.matrix.shape[0]
        return bool(np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(n))) <= tol)


def apply(matrix: TransferMatrix, state: ModeState) -> ModeState:
    """Apply a transfer matrix to a state, returning the new state."""
    return ModeState(matrix.matrix @ state.amplitudes)


def compose(first: TransferMatrix, second: TransferMatrix) -> TransferMatrix:
    """Chain two elements: the photon passes ``first``, then ``second``.

    The result equals the matrix product ``second @ first``.
    """
    return TransferMatrix(second.matrix @ first.matrix)


def global_phase_equal(state_x: ModeState | NDArray[np.complex128],
                       state_y: ModeState | NDArray[np.complex128],
                       tol: float = 1e-10) -> bool:
    """True when two states are equal up to one overall phase factor.

    The unit phase ``c`` is read off the amplitude pair with the largest
    combined magnitude, then ``max |x - c*y| <= tol`` is required across the
    whole vector.  Physically equal rays always pass; states differing by a
    relative phase anywhere do not.

    Raises:
        ValueError: if both states are identically zero (no phase is defined).
        BasisMismatchError: if the two amplitude arrays differ in shape.
    """
    x = state_x.amplitudes if isinstance(state_x, ModeState) else np.asarray(state_x, dtype=np.complex128)
    y = state_y.amplitudes if isinstance(state_y, ModeState) else np.asarray(state_y, dtype=np.complex128)
    if x.shape != y.shape:
        raise BasisMismatchError(f"shape mismatch: {x.shape} vs {y.shape}")
    weight = np.abs(x) + np.abs(y)
    k = int(np.argmax(weight))
    if weight[k] == 0.0:
        raise ValueError("both states are identically zero; phase comparison undefined")
    if abs(y[k]) == 0.0 or abs(x[k]) == 0.0:
        # one side has amplitude where the other has none: no phase can fix it
        # unless the mismatch is already within tolerance
        return bool(np.max(np.abs(x - y)) <= tol)
    c = x[k] / y[k]
    c /= abs(c)
    return bool(np.max(np.abs(x - c * y)) <= tol)
