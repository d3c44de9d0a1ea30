import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from peca.adjust import METHODS, adjust, reject_set


def test_holm_textbook_vector():
    adj = adjust(np.array([0.01, 0.04, 0.03]), "holm")
    np.testing.assert_allclose(adj, [0.03, 0.06, 0.06], atol=1e-12)


def test_sidak_single_value():
    adj = adjust(np.array([0.01]), "sidak")
    assert adj[0] == pytest.approx(0.01, abs=1e-15)


def test_sidak_known_value():
    adj = adjust(np.array([0.01, 0.5, 0.9]), "sidak")
    assert adj[0] == pytest.approx(1 - 0.99**3, abs=1e-9)
    assert adj[0] == pytest.approx(0.029701, abs=1e-9)


def test_bonferroni_caps_at_one():
    adj = adjust(np.array([0.4, 0.9]), "bonferroni")
    np.testing.assert_allclose(adj, [0.8, 1.0])


def test_extreme_pvalues_are_fixed_points():
    for method in METHODS:
        adj = adjust(np.array([0.0, 1.0]), method)
        assert adj[0] == 0.0
        assert adj[1] == 1.0


def test_holm_sidak_no_smaller_than_raw():
    raw = np.array([0.02, 0.2, 0.01, 0.7])
    adj = adjust(raw, "holm-sidak")
    assert np.all(adj >= raw - 1e-15)
    # step-down never exceeds plain sidak on the smallest p
    plain = adjust(raw, "sidak")
    i = int(np.argmin(raw))
    assert adj[i] <= plain[i] + 1e-15


def test_ties_get_equal_adjustments():
    adj = adjust(np.array([0.02, 0.02, 0.5]), "holm")
    assert adj[0] == adj[1]


def test_input_validation():
    with pytest.raises(ValueError):
        adjust(np.array([1.2]), "holm")
    with pytest.raises(ValueError):
        adjust(np.array([-0.1]), "holm")
    with pytest.raises(ValueError):
        adjust(np.array([0.5]), "fdr")
    with pytest.raises(ValueError):
        adjust(np.array([]), "holm")


def test_reject_set_strict():
    adjusted = np.array([0.05])
    assert reject_set(adjusted, 0.05).tolist() == [False]
    assert reject_set(adjusted, 0.051).tolist() == [True]


pvec = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=12).map(np.array)


@given(pvec)
def test_adjusted_dominates_raw_and_stays_in_range(raw):
    for method in METHODS:
        adj = adjust(raw, method)
        assert np.all(adj >= raw - 1e-12)
        assert np.all((0.0 <= adj) & (adj <= 1.0))


@given(pvec)
def test_adjustment_monotone_in_raw_order(raw):
    for method in METHODS:
        adj = adjust(raw, method)
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(adj[order]) >= -1e-12)


@given(pvec, st.randoms(use_true_random=False))
def test_permutation_equivariance(raw, pyrandom):
    perm = list(range(raw.size))
    pyrandom.shuffle(perm)
    perm = np.array(perm)
    for method in METHODS:
        direct = adjust(raw[perm], method)
        via = adjust(raw, method)[perm]
        np.testing.assert_allclose(direct, via, atol=1e-12)


@given(pvec, st.floats(0.001, 0.2))
def test_holm_rejects_superset_of_bonferroni(raw, alpha):
    holm = reject_set(adjust(raw, "holm"), alpha)
    bonf = reject_set(adjust(raw, "bonferroni"), alpha)
    assert np.all(holm | ~bonf)  # bonf implies holm
    hs = reject_set(adjust(raw, "holm-sidak"), alpha)
    sid = reject_set(adjust(raw, "sidak"), alpha)
    assert np.all(hs | ~sid)
