import numpy as np
import pytest

from screenalg import (
    closed_form,
    compose_h,
    contract,
    contraction_log_coeff,
    current_spec,
    make_cartan,
    make_params,
    zero_mode_reorder,
)
from screenalg.currents import _shifted_word
from screenalg.qlaurent import LaurentSeries, series_exp

PR = make_params(0.09, 0.3, 1)
A2 = make_cartan("A", 2)
A3 = make_cartan("A", 3)


def circle(n=16, r=0.5):
    ph = (np.arange(n) + 0.5) / n * 2 * np.pi - np.pi
    return r * np.exp(1j * ph)


class TestContract:
    def test_orthogonal_pair_trivial(self):
        e0 = current_spec("E", 0, 3, PR)
        f2 = current_spec("F", 2, 3, PR)
        ope = contract(e0, f2, A3, PR, 40)
        assert ope.coeff == 1.0 and ope.z_exp == 0 and ope.w_exp == 0
        assert np.allclose(ope.series.window(0, 40), [1.0] + [0.0] * 40)
        assert ope.evaluate(1.0, 0.7j) == pytest.approx(1.0)

    def test_ef_same_node_matches_closed_form(self):
        e0, f0 = current_spec("E", 0, 2, PR), current_spec("F", 0, 2, PR)
        ope = contract(e0, f0, A2, PR, 80)
        cf = closed_form("E", "F", 2, PR)
        for x in circle():
            got, want = ope.evaluate(1.0, x), cf(1.0, x)
            assert abs(got - want) / abs(want) < 1e-9

    def test_spsm_same_node_matches_closed_form(self):
        sp, sm = current_spec("S+", 0, 2, PR), current_spec("S-", 0, 2, PR)
        ope = contract(sp, sm, A2, PR, 80)
        for x in circle():
            got = ope.evaluate(1.0, x)
            want = 1 / ((1 - x * PR.q) * (1 - x * PR.q / PR.p))
            assert abs(got - want) / abs(want) < 1e-9

    def test_series_matches_kernel_inside_radius(self):
        # the truncated series and the q-product are independent summations
        e0, f0 = current_spec("E", 0, 2, PR), current_spec("F", 0, 2, PR)
        ope = contract(e0, f0, A2, PR, 80)
        for x in (0.1, 0.1j, 0.15 * np.exp(2.0j)):
            series_val = ope.series.evaluate(x)
            prod_val, _ = ope.kernel.evaluate(x)
            assert abs(series_val - prod_val) / abs(prod_val) < 1e-12

    def test_series_coefficients_are_log_coeffs(self):
        ee = contract(current_spec("E", 0, 2, PR), current_spec("E", 1, 2, PR), A2, PR, 30)
        # reconstruct log-series from the numeric coefficients and compare
        cm = [contraction_log_coeff("E", "E", -1, PR, m) for m in range(1, 6)]
        assert ee.series.coeff(1) == pytest.approx(cm[0])
        assert ee.series.coeff(2) == pytest.approx(cm[1] + cm[0] ** 2 / 2)

    def test_kernel_log_matches_numeric(self):
        # the exact q-product decomposition and the direct numeric compose
        # of bracket and oscillator coefficients are independent derivations
        nodes = {2: (0, 0), -1: (0, 1), 0: (0, 2)}
        for kx, ky in (("E", "E"), ("E", "F"), ("F", "E"), ("F", "F"), ("S+", "S-")):
            for a, (i, j) in nodes.items():
                ope = contract(
                    current_spec(kx, i, 3, PR), current_spec(ky, j, 3, PR), A3, PR, 10
                )
                for m in (1, 2, 5):
                    got = ope.kernel.log_coeff(m) if ope.kernel.groups else 0.0
                    assert got == pytest.approx(
                        contraction_log_coeff(kx, ky, a, PR, m), rel=1e-12, abs=1e-15
                    )


def per_pair_series(spec_x, spec_y, cartan, order):
    """The contraction series as one exp per constituent pair, mode by mode.

    Also returns the majorant exp(sum_m |c_m| x^m) over all pairs' log
    coefficients, which bounds how far rounding can move each coefficient.
    """
    a_ij = cartan[spec_x.node, spec_y.node]
    series = LaurentSeries.one(order)
    majorant = np.zeros(order + 1, dtype=complex)
    for kx, sx in spec_x.constituents:
        for ky, sy in spec_y.constituents:
            cs = np.zeros(order + 1, dtype=complex)
            for m in range(1, order + 1):
                cs[m] = contraction_log_coeff(kx, ky, a_ij, PR, m) * (sy / sx) ** m
            series = series * series_exp(LaurentSeries(0, cs, order))
            majorant += np.abs(cs)
    return series, series_exp(LaurentSeries(0, majorant, order))


class TestSeriesConstruction:
    @pytest.mark.parametrize("nodes", [(0, 0), (0, 1), (0, 2)])
    def test_one_exp_matches_product_of_per_pair_exps(self, nodes):
        # composite H pairs cancel large terms between constituent pairs, so
        # coefficients are compared on the scale of the majorant series
        kinds = ("S+", "S-", "E", "F", "H+", "H-")
        for kx in kinds:
            for ky in kinds:
                sx = current_spec(kx, nodes[0], 3, PR)
                sy = current_spec(ky, nodes[1], 3, PR)
                got = contract(sx, sy, A3, PR, 80).series.window(0, 80)
                want, majorant = per_pair_series(sx, sy, A3, 80)
                scale = np.abs(majorant.window(0, 80))
                assert np.all(np.abs(got - want.window(0, 80)) <= 1e-13 * scale), (kx, ky)


class TestClosedFormTable:
    def test_untabulated_pairs(self):
        assert closed_form("E", "E", 2, PR) is None
        assert closed_form("F", "F", -1, PR) is None

    @pytest.mark.parametrize(
        "kx,ky,a",
        [("S+", "S-", a) for a in (2, -1, 0)]
        + [("S-", "S+", a) for a in (2, -1, 0)]
        + [("E", "F", a) for a in (2, -1, 0)]
        + [("F", "E", a) for a in (2, -1, 0)],
    )
    def test_engine_agrees_with_each_form(self, kx, ky, a):
        nodes = {2: (0, 0), -1: (0, 1), 0: (0, 2)}[a]
        sx = current_spec(kx, nodes[0], 3, PR)
        sy = current_spec(ky, nodes[1], 3, PR)
        ope = contract(sx, sy, A3, PR, 80)
        cf = closed_form(kx, ky, a, PR)
        for x in circle(8):
            got, want = ope.evaluate(1.0, x), cf(1.0, x)
            assert abs(got - want) / max(abs(want), 1e-30) < 1e-9


class TestComposeH:
    def test_charges_cancel(self):
        for sign in (+1, -1):
            h = compose_h(0, sign, 2, PR)
            assert np.allclose(h.charge(PR), 0)
            assert h.p_charge().tolist() == [0, 0]

    def test_momentum_constants(self):
        # H+ combines (z q^{1/2} (p/q)^{1/2})^{P} (z q^{-1/2} q^{1/2})^{-P}
        hp = compose_h(0, +1, 2, PR)
        consts = [c for c, _ in hp.momentum_data(PR)]
        assert consts[0] == pytest.approx(PR.p_half)
        assert consts[1] == pytest.approx(1.0)
        hm = compose_h(0, -1, 2, PR)
        consts = [c for c, _ in hm.momentum_data(PR)]
        assert consts[0] == pytest.approx(1.0)
        assert consts[1] == pytest.approx(PR.p_half)

    def test_momentum_word_agrees_with_reorder_route(self):
        # composite zero-mode data equals the reordering of constituent words
        hp = compose_h(0, +1, 2, PR)
        e_w = _shifted_word(current_spec("E", 0, 2, PR), "z", PR.q_half, PR)
        f_w = _shifted_word(current_spec("F", 0, 2, PR), "z", 1 / PR.q_half, PR)
        combined = zero_mode_reorder(e_w, f_w, A2, PR)
        word = hp.word("z", PR)
        assert np.allclose(np.asarray(combined.charge), np.asarray(word.charge))
        got = sorted((abs(c), tuple(g)) for c, _, g in word.factors)
        want = sorted((abs(c), tuple(g)) for c, _, g in combined.factors)
        for (gc, gg), (wc, wg) in zip(got, want):
            assert gc == pytest.approx(wc)
            assert np.allclose(gg, wg)

    def test_hh_contraction_via_constituents(self):
        # composite route against the theta-quotient structure function
        from screenalg.qlaurent import theta

        hp0, hp1 = compose_h(0, +1, 2, PR), compose_h(1, +1, 2, PR)
        xy = contract(hp0, hp1, A2, PR, 60)
        yx = contract(hp1, hp0, A2, PR, 60)
        pa = PR.p_half ** A2[0, 1]
        for x in circle(8):
            ratio = xy.evaluate(1.0, x) / yx.evaluate(x, 1.0)
            want = (
                x ** (-2.0)
                * theta(x * pa, PR.q, 60)
                * theta(x * pa, PR.qtilde, 60)
                / (theta(pa / x, PR.q, 60) * theta(pa / x, PR.qtilde, 60))
            )
            assert abs(ratio - want) / abs(want) < 1e-8


class TestExchangeStructure:
    def test_anticommutation_ef_adjacent(self):
        # E_i(z) F_j(w) = -F_j(w) E_i(z) for adjacent nodes: the two closed
        # forms are exact negatives
        cf_ef = closed_form("E", "F", -1, PR)
        cf_fe = closed_form("F", "E", -1, PR)
        for x in circle(6):
            assert cf_ef(1.0, x) == pytest.approx(-cf_fe(x, 1.0))

    def test_exchange_ratio_reproduces_printed_monomial_exponent(self):
        # the S+S+ ratio carries (w/z)^{A - A beta - 1}; at these parameters
        # beta = -1 so the exponent is 2A - 1
        sp0, sp1 = current_spec("S+", 0, 2, PR), current_spec("S+", 1, 2, PR)
        xy = contract(sp0, sp1, A2, PR, 60)
        assert complex(xy.z_exp) == pytest.approx(A2[0, 1] * PR.beta)
