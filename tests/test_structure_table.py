"""Every row of the theta-quotient table against the function it replaced."""

from fractions import Fraction

import numpy as np
import pytest
import structure_reference as ref

from screenalg import G_TABLE, make_params, theta_quotient

ORDER = 200
FLOOR = 1e-6

# table row -> (reference G, its keyword arguments); the reference marks the
# points below theta_floor as the table's evaluator does
G_ROWS = {
    "SpSp": (ref.g_spsp, ()), "SmSm": (ref.g_smsm, ()), "EE": (ref.g_ee, ()),
    "FF": (ref.g_ff, ()), "FF-qt": (ref.g_ff_qt, ()), "HH": (ref.g_hh, ()),
    "HpHm": (ref.g_hphm, ()),
    "HpE": (ref.g_he, (("sign", 1),)), "HmE": (ref.g_he, (("sign", -1),)),
    "HpF": (ref.g_hf, (("sign", 1),)), "HmF": (ref.g_hf, (("sign", -1),)),
}
# table row -> psi or phi at the base it stands for; these apply no floor
FUNCTION_ROWS = {
    "EE": lambda x, a, p: ref.psi(x, a, p.q, p, ORDER),
    "FF-qt": lambda x, a, p: ref.psi(x, a, p.qtilde, p, ORDER),
    "phi": lambda x, a, p: ref.phi(x, a, p.q, p.q_half, p, ORDER),
    "phi-qt": lambda x, a, p: ref.phi(x, a, p.qtilde, p.qtilde_half, p, ORDER),
}


def points():
    """16 points on |x| = 0.5, 24 random points, and x = 1 + 1e-9, near a theta zero."""
    rng = np.random.default_rng(7)
    ph = (np.arange(16) + 0.5) / 16 * 2 * np.pi - np.pi
    xs = rng.uniform(0.3, 1.7, 24) * np.exp(1j * rng.uniform(-3.0, 3.0, 24))
    return np.r_[0.5 * np.exp(1j * ph), xs, 1 + 1e-9 + 0j]


def test_every_row_has_a_reference():
    assert set(G_TABLE) == set(G_ROWS) | set(FUNCTION_ROWS)


@pytest.mark.parametrize("p, q", [(0.09, 0.3), (0.3, 0.7), (0.05 + 0.02j, 0.4 - 0.1j)])
@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("a_ij", [2, -1, 0])
def test_every_row_matches_its_reference(p, q, c, a_ij):
    params, xs = make_params(p, q, Fraction(c)), points()
    for key in G_TABLE:
        got, low = theta_quotient(key, xs, a_ij, params, ORDER, FLOOR)
        got0, low0 = theta_quotient(key, xs, a_ij, params, ORDER, 0)
        assert np.array_equal(got, got0) and not np.any(low0), key
        wants = []
        if key in G_ROWS:
            g_fn, kw = G_ROWS[key]
            want, want_low = ref.ReferenceContext(params, ORDER, FLOOR).structure_function(g_fn, xs, a_ij, kw)
            assert np.array_equal(low, want_low), key
            wants.append(want)
        if key in FUNCTION_ROWS:
            wants.append(FUNCTION_ROWS[key](xs, a_ij, params))
        for want in wants:
            rel = np.abs(got - want) / np.maximum(np.abs(got), np.abs(want))
            assert np.max(rel[~low], initial=0.0) <= 1e-13, key
