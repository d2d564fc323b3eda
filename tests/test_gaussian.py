import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbath.errors import ValidationError
from entbath.gaussian import (
    BEAM_SPLITTER,
    SYMPLECTIC_FORM,
    GaussianState,
    ModeSpec,
    log_negativity,
    mode_squeezing,
    squeezed_cov,
    state_from_virtual_blocks,
)

from conftest import random_physical_state, single_mode_symplectic
from oracles import beam_splitter, two_mode_squeezed_state

UNIT = ModeSpec(1.0, 1.0)


def _nu_from_invariants(cov):
    """Independent oracle: symplectic spectrum from the 2x2-block invariants."""
    a = np.linalg.det(cov[:2, :2])
    b = np.linalg.det(cov[2:, 2:])
    c = np.linalg.det(cov[:2, 2:])
    delta = a + b + 2.0 * c
    disc = math.sqrt(max(delta**2 - 4.0 * np.linalg.det(cov), 0.0))
    return math.sqrt((delta - disc) / 2.0), math.sqrt((delta + disc) / 2.0)


def _symplectic_spectrum(cov):
    """Symplectic eigenvalues (nu_min, nu_max): the moduli of the eigenvalues of
    iJV, which come in pairs.  Unlike the invariants, accurate at degenerate
    (pure) states, where the discriminant cancels to O(sqrt(eps))."""
    mods = np.sort(np.abs(np.linalg.eigvals(1j * SYMPLECTIC_FORM @ cov)))
    return 0.5 * (mods[0] + mods[1]), 0.5 * (mods[2] + mods[3])


def _state(cov):
    return GaussianState(np.zeros(4), cov)


def _thermal_product(nbar_1, nbar_2):
    cov = np.zeros((4, 4))
    cov[:2, :2] = squeezed_cov(0.0, UNIT, area_product=nbar_1 + 0.5)
    cov[2:, 2:] = squeezed_cov(0.0, UNIT, area_product=nbar_2 + 0.5)
    return cov


class TestSymplecticEigenvalues:
    """The spectrum that the property tests check nu_min with."""

    def test_vacuum(self):
        assert _symplectic_spectrum(np.eye(4) * 0.5) == pytest.approx((0.5, 0.5))

    def test_thermal_product(self):
        assert _symplectic_spectrum(_thermal_product(1.0, 1.0)) == pytest.approx((1.5, 1.5))

    def test_random_states_match_block_invariant_oracle(self, rng):
        for _ in range(25):
            cov = random_physical_state(rng).cov
            assert _symplectic_spectrum(cov) == pytest.approx(_nu_from_invariants(cov), rel=1e-9)

    def test_invariant_under_symplectic_congruence(self, rng):
        from conftest import random_symplectic

        cov = random_physical_state(rng).cov
        s = random_symplectic(rng)
        before = _symplectic_spectrum(cov)
        after = _symplectic_spectrum(s @ cov @ s.T)
        assert after == pytest.approx(before, rel=1e-8)


class TestLogNegativity:
    def test_vacuum_product_is_separable(self):
        assert log_negativity(_state(np.eye(4) * 0.5)) == 0.0

    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    def test_two_mode_squeezed_value(self, r):
        state = two_mode_squeezed_state(r, UNIT)
        assert log_negativity(state) == pytest.approx(2.0 * r, abs=1e-9)

    def test_thermal_products_exactly_zero(self, rng):
        for _ in range(10):
            cov = _thermal_product(rng.random() * 3, rng.random() * 3)
            assert log_negativity(_state(cov)) == 0.0

    def test_local_symplectic_invariance(self, rng):
        state = two_mode_squeezed_state(0.8, UNIT)
        for _ in range(10):
            s1 = single_mode_symplectic(rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1))
            s2 = single_mode_symplectic(rng.uniform(0, 2 * np.pi), rng.uniform(-1, 1))
            local = np.zeros((4, 4))
            local[:2, :2] = s1
            local[2:, 2:] = s2
            rotated = _state(local @ state.cov @ local.T)
            assert log_negativity(rotated) == pytest.approx(1.6, abs=1e-9)


class TestBeamSplitter:
    def test_is_involution(self, rng):
        state = random_physical_state(rng)
        back = beam_splitter(beam_splitter(state))
        assert np.allclose(back.cov, state.cov, atol=1e-14)
        assert np.allclose(back.mean, state.mean, atol=1e-14)

    def test_identical_product_becomes_block_diagonal(self):
        single = squeezed_cov(0.7, UNIT)
        state = _state(np.block([[single, np.zeros((2, 2))], [np.zeros((2, 2)), single]]))
        virt = beam_splitter(state)
        assert np.allclose(virt.cov[:2, 2:], 0.0, atol=1e-14)
        assert np.allclose(virt.cov[:2, :2], virt.cov[2:, 2:], atol=1e-14)

    def test_two_mode_squeezed_splits_into_opposite_squeezers(self):
        r = 0.9
        virt = beam_splitter(two_mode_squeezed_state(r, UNIT))
        assert np.allclose(virt.cov[:2, 2:], 0.0, atol=1e-12)
        assert np.allclose(virt.cov[:2, :2], squeezed_cov(-r, UNIT), atol=1e-12)
        assert np.allclose(virt.cov[2:, 2:], squeezed_cov(r, UNIT), atol=1e-12)

    def test_matches_matrix_product_oracle(self, rng):
        state = random_physical_state(rng)
        out = beam_splitter(state)
        assert np.allclose(out.cov, BEAM_SPLITTER @ state.cov @ BEAM_SPLITTER.T, atol=0.0)

    def test_preserves_symplectic_spectrum(self, rng):
        state = random_physical_state(rng)
        before = _symplectic_spectrum(state.cov)
        after = _symplectic_spectrum(beam_splitter(state).cov)
        assert after == pytest.approx(before, abs=1e-10)


class TestModeSqueezing:
    def test_balanced_is_zero(self):
        assert mode_squeezing(0.3, 0.3, UNIT) == 0.0

    def test_log_identity(self):
        assert mode_squeezing(math.e**2, 1.0, UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            mode_squeezing(0.0, 1.0, UNIT)
        with pytest.raises(ValidationError):
            mode_squeezing(1.0, -0.5, UNIT)

    def test_mode_spec_validation(self):
        with pytest.raises(ValidationError):
            ModeSpec(-1.0, 1.0)
        with pytest.raises(ValidationError):
            ModeSpec(1.0, 0.0)


class TestStateValidation:
    def test_rejects_asymmetric_cov(self):
        cov = np.eye(4)
        cov[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            _state(cov)

    def test_rejects_unphysical_cov(self):
        with pytest.raises(ValidationError):
            _state(np.eye(4) * 0.1)

    def test_immutable_arrays(self):
        state = two_mode_squeezed_state(0.0, UNIT)
        with pytest.raises(ValueError):
            state.cov[0, 0] = 9.0


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(-1.5, 1.5),
    nbar=st.floats(0.0, 3.0),
    theta=st.floats(0.0, 2 * math.pi),
)
def test_physicality_and_purity_invariants(r, nbar, theta):
    """Every constructible state has nu >= 1/2 and purity <= 1."""
    s1 = single_mode_symplectic(theta, r)
    local = np.zeros((4, 4))
    local[:2, :2] = s1
    local[2:, 2:] = s1.T
    base = two_mode_squeezed_state(r, UNIT, area_product=0.5 + nbar)
    state = _state(local @ base.cov @ local.T)
    nu_min, _ = _symplectic_spectrum(state.cov)
    assert nu_min >= 0.5 - 1e-9
    assert 1.0 / (4.0 * math.sqrt(np.linalg.det(state.cov))) <= 1.0 + 1e-9  # purity
    herm = state.cov + 0.5j * SYMPLECTIC_FORM
    assert np.linalg.eigvalsh(herm).min() >= -1e-9 * max(1.0, abs(state.cov).max())


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.0, 2.0), kappa=st.floats(1.0, 4.0))
def test_mixed_minus_mode_states_are_physical(r, kappa):
    state = two_mode_squeezed_state(r, UNIT, area_product=0.5 * kappa)
    nu_min, _ = _symplectic_spectrum(state.cov)
    assert nu_min >= 0.5 - 1e-9


def test_virtual_block_assembly_roundtrip(rng):
    plus = squeezed_cov(0.4, UNIT)
    minus = squeezed_cov(-0.2, UNIT, area_product=0.8)
    state = state_from_virtual_blocks(plus, minus)
    virt = beam_splitter(state)
    assert np.allclose(virt.cov[:2, :2], plus, atol=1e-14)
    assert np.allclose(virt.cov[2:, 2:], minus, atol=1e-14)


@pytest.mark.parametrize("plus, minus", [
    (np.diag([0.1, 0.1]), squeezed_cov(0.0, UNIT)),
    (squeezed_cov(0.3, UNIT), np.diag([2.0, 0.1])),
], ids=["plus", "minus"])
def test_unphysical_virtual_block_is_rejected(plus, minus):
    # the one check of the site-basis state decides the virtual blocks too
    with pytest.raises(ValidationError, match="unphysical covariance"):
        state_from_virtual_blocks(plus, minus)
