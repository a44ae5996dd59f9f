"""Mode labels, amplitude states and transfer-matrix plumbing."""

import numpy as np
import pytest

from tbsim.modes import (FULL_BASIS, BasisMismatchError, ModeLabel, ModeState,
                         Path, Pol, TransferMatrix, apply, compose,
                         global_phase_equal, label)


def test_full_basis_is_path_major_with_12_modes():
    assert len(FULL_BASIS) == 12
    assert FULL_BASIS[0] == label("a", "+")
    assert FULL_BASIS[1] == label("a", "-")
    assert FULL_BASIS[2] == label("b", "+")
    assert FULL_BASIS[-1] == label("f", "-")
    # every path contributes its + component before its - component
    for i in range(0, 12, 2):
        assert FULL_BASIS[i].path == FULL_BASIS[i + 1].path
        assert FULL_BASIS[i].pol == Pol.PLUS


def test_from_dict_zero_pads_and_accepts_tuples():
    st = ModeState.from_dict({("a", "+"): 0.6, ModeLabel(Path.B, Pol.MINUS): 0.8j})
    assert st.amplitude(label("a", "+")) == 0.6
    assert st.amplitude(label("b", "-")) == 0.8j
    assert st.amplitude(label("c", "+")) == 0.0
    assert abs(st.norm() - 1.0) < 1e-15


def test_state_norm_cannot_exceed_one():
    with pytest.raises(ValueError):
        ModeState.from_dict({("a", "+"): 1.0, ("b", "+"): 0.1})


def test_subunit_norm_is_allowed_for_lossy_states():
    st = ModeState.from_dict({("a", "+"): 0.5})
    assert st.norm() == 0.5


def test_amplitudes_are_write_locked():
    st = ModeState.from_dict({("a", "+"): 1.0})
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.0


def test_path_probability_sums_both_polarizations():
    st = ModeState.from_dict({("e", "+"): 0.6, ("e", "-"): 0.6j, ("f", "+"): 0.529})
    assert abs(st.path_probability(Path.E) - 0.72) < 1e-12


def test_compose_orders_left_to_right():
    # first scales path a by i, second swaps nothing but scales by 2... a
    # unitary pair with distinct diagonal phases is enough to see ordering
    m1 = np.eye(12, dtype=complex)
    m1[0, 0] = 1j
    m2 = np.eye(12, dtype=complex)
    m2[0, 0] = np.exp(0.3j)
    chained = compose(TransferMatrix(m1), TransferMatrix(m2))
    assert chained.matrix[0, 0] == pytest.approx(1j * np.exp(0.3j))


def test_identity_is_unitary_and_preserves_states():
    ident = TransferMatrix.identity()
    assert ident.is_unitary()
    st = ModeState.from_dict({("c", "-"): 1.0})
    out = apply(ident, st)
    assert np.allclose(out.amplitudes, st.amplitudes)


def test_global_phase_equal_accepts_any_overall_phase():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.normal(size=12) + 1j * rng.normal(size=12)
        x /= np.linalg.norm(x)
        c = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert global_phase_equal(x, c * x)


def test_global_phase_equal_rejects_relative_phase():
    x = np.zeros(12, dtype=complex)
    x[0] = x[1] = 1 / np.sqrt(2)
    y = x.copy()
    y[1] *= np.exp(0.01j)  # relative phase between components, not global
    assert not global_phase_equal(x, y, tol=1e-6)


def test_global_phase_equal_rejects_double_zero():
    z = np.zeros(12, dtype=complex)
    with pytest.raises(ValueError):
        global_phase_equal(z, z)


def test_uninterpretable_labels_and_mismatched_shapes_are_rejected():
    with pytest.raises(BasisMismatchError):
        ModeState.from_dict({"a": 1.0})
    with pytest.raises(BasisMismatchError):
        global_phase_equal(np.ones(12), np.ones(4))


def test_state_repr_of_labels_is_compact():
    assert repr(label("a", "+")) == "(a,+)"
