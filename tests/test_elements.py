"""Optical element transfer matrices: splitters, modulators, mirrors, loss."""

import math

import numpy as np
import pytest

from tbsim.elements import EomSetting, SplittingRatio, beam_splitter, eom, mirror
from tbsim.modes import FULL_BASIS, ModeState, Path, Pol, apply, label


def test_splitting_ratio_validation_and_complement():
    assert SplittingRatio(0.3).reflectivity == pytest.approx(0.7)
    with pytest.raises(ValueError):
        SplittingRatio(1.2)
    with pytest.raises(ValueError):
        SplittingRatio(-0.1)


def test_beam_splitter_is_unitary_for_random_ratios():
    rng = np.random.default_rng(42)
    for _ in range(20):
        ratio = SplittingRatio(float(rng.uniform(0, 1)))
        bs = beam_splitter(ratio, (Path.A, Path.B), (Path.C, Path.D))
        assert bs.is_unitary(1e-12)


def test_beam_splitter_symmetric_convention():
    # transmitted amplitude real sqrt(T), reflected i*sqrt(R)
    bs = beam_splitter(SplittingRatio(0.7), (Path.A, Path.B), (Path.C, Path.D))
    st = apply(bs, ModeState.from_dict({("a", "+"): 1.0}))
    assert st.amplitude(label("c", "+")) == pytest.approx(math.sqrt(0.7))
    assert st.amplitude(label("d", "+")) == pytest.approx(1j * math.sqrt(0.3))


def test_beam_splitter_balanced_input_splits_evenly():
    # (|a> + |b>)/sqrt(2) through a 50:50 splitter: both outputs get
    # amplitude (1+i)/2, i.e. probability 1/2 each, under this convention
    bs = beam_splitter(SplittingRatio(0.5), (Path.A, Path.B), (Path.C, Path.D))
    st = apply(bs, ModeState.from_dict({("a", "+"): 2 ** -0.5, ("b", "+"): 2 ** -0.5}))
    assert st.amplitude(label("c", "+")) == pytest.approx((1 + 1j) / 2)
    assert st.amplitude(label("d", "+")) == pytest.approx((1 + 1j) / 2)
    assert st.path_probability(Path.C) == pytest.approx(0.5)
    assert st.path_probability(Path.D) == pytest.approx(0.5)


def test_beam_splitter_interference_can_direct_all_light():
    # feeding the two outputs with the conjugate superposition reverses the
    # split: (|a> - i|b>)/sqrt(2) exits entirely through path c
    bs = beam_splitter(SplittingRatio(0.5), (Path.A, Path.B), (Path.C, Path.D))
    st = apply(bs, ModeState.from_dict({("a", "+"): 2 ** -0.5, ("b", "+"): -1j * 2 ** -0.5}))
    assert st.path_probability(Path.C) == pytest.approx(1.0)
    assert st.path_probability(Path.D) == pytest.approx(0.0, abs=1e-12)


def test_beam_splitter_requires_four_distinct_paths():
    with pytest.raises(ValueError):
        beam_splitter(SplittingRatio(0.5), (Path.A, Path.B), (Path.A, Path.C))


def test_beam_splitter_acts_per_polarization():
    bs = beam_splitter(SplittingRatio(0.5), (Path.A, Path.B), (Path.C, Path.D))
    st = apply(bs, ModeState.from_dict({("a", "-"): 1.0}))
    assert st.amplitude(label("c", "-")) == pytest.approx(2 ** -0.5)
    assert st.amplitude(label("c", "+")) == 0.0


def test_eom_applies_opposite_half_phases_to_the_two_components():
    phi = 1.1
    mod = eom(EomSetting(phi, polarity=+1), Path.C)
    st = apply(mod, ModeState.from_dict({("c", "+"): 2 ** -0.5, ("c", "-"): 2 ** -0.5}))
    assert st.amplitude(label("c", "+")) == pytest.approx(np.exp(1j * phi / 2) / np.sqrt(2))
    assert st.amplitude(label("c", "-")) == pytest.approx(np.exp(-1j * phi / 2) / np.sqrt(2))


def test_eom_polarity_flips_the_sign():
    phi = 0.8
    plus = eom(EomSetting(phi, polarity=+1), Path.D)
    minus = eom(EomSetting(phi, polarity=-1), Path.D)
    assert np.allclose(minus.matrix, plus.matrix.conj())


def test_eom_leaves_other_paths_alone():
    mod = eom(EomSetting(2.0), Path.C)
    st = apply(mod, ModeState.from_dict({("d", "+"): 1.0}))
    assert st.amplitude(label("d", "+")) == 1.0


def test_eom_is_unitary():
    assert eom(EomSetting(0.37, polarity=-1), Path.C).is_unitary(1e-12)


def test_eom_rejects_bad_polarity():
    with pytest.raises(ValueError):
        EomSetting(1.0, polarity=2)


def test_mirror_is_identity():
    assert np.allclose(mirror(Path.C).matrix, np.eye(len(FULL_BASIS)))

