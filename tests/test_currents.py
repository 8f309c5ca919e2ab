import dataclasses

import numpy as np
import pytest
from kernel_reference import direct_product, extended_product

from screenalg import (
    closed_form,
    contract,
    contraction_log_coeff,
    current_spec,
    make_cartan,
    make_params,
    zero_mode_reorder,
    zero_modes,
)
from screenalg import currents
from screenalg.currents import ContractionKernel, KernelGroup, _atomic_kernel
from screenalg.qlaurent import LaurentSeries, series_exp

PR = make_params(0.09, 0.3, 1)
WIDE = make_params(0.3, 0.7, 1)
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
        assert ope.coeff == 1.0 and ope.z_exp == 0
        assert np.allclose(ope.series.window(0, 40), [1.0] + [0.0] * 40)
        assert ope.evaluate(1.0, 0.7j)[0] == pytest.approx(1.0)

    def test_ef_same_node_matches_closed_form(self):
        e0, f0 = current_spec("E", 0, 2, PR), current_spec("F", 0, 2, PR)
        ope = contract(e0, f0, A2, PR, 80)
        cf = closed_form("E", "F", 2, PR)
        for x in circle():
            got, want = ope.evaluate(1.0, x)[0], cf(1.0, x)
            assert abs(got - want) / abs(want) < 1e-9

    def test_spsm_same_node_matches_closed_form(self):
        sp, sm = current_spec("S+", 0, 2, PR), current_spec("S-", 0, 2, PR)
        ope = contract(sp, sm, A2, PR, 80)
        for x in circle():
            got = ope.evaluate(1.0, x)[0]
            want = 1 / ((1 - x * PR.q) * (1 - x * PR.q / PR.p))
            assert abs(got - want) / abs(want) < 1e-9

    @pytest.mark.parametrize("kx, ky", [("E", "F"), ("H+", "H-"), ("S+", "S+")])
    def test_array_evaluation_matches_the_scalar_loop(self, kx, ky):
        ope = contract(current_spec(kx, 0, 2, PR), current_spec(ky, 1, 2, PR), A2, PR, 80)
        xs = circle()
        for z, w in ((1.0, xs), (xs, 1.0)):
            vals, closest = ope.evaluate(z, w)
            assert vals.shape == closest.shape == xs.shape
            zs, ws = np.broadcast_to(z, xs.shape), np.broadcast_to(w, xs.shape)
            for k in range(len(xs)):
                v, c = ope.evaluate(complex(zs[k]), complex(ws[k]))
                assert abs(vals[k] - v) <= 1e-15 * abs(v)
                assert closest[k] == pytest.approx(c, rel=1e-15)

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


KINDS = ("S+", "S-", "E", "F", "H+", "H-")
SLOW = make_params(0.5, 0.9, 1)  # theta bases near 1: the longest lattices
COMPLEX = make_params(0.2 + 0.1j, 0.5 + 0.3j, 1)


def a2_kernels(params):
    """Every distinct non-trivial contraction kernel on A2 (A_ij = 2 and -1)."""
    kernels = {
        contract(current_spec(kx, i, 2, params), current_spec(ky, j, 2, params), A2, params, 10).kernel
        for kx in KINDS
        for ky in KINDS
        for i, j in ((0, 0), (0, 1))
    }
    return [k for k in kernels if k.groups]


def relative_error(kernel, xs):
    want = extended_product(kernel, xs)
    return float(np.max(np.abs(kernel.evaluate(xs)[0] - want) / np.abs(want)))


class TestSplitKernel:
    """The q-product split at |x mu lambda| = SPLIT, against the references."""

    # The exchange rows evaluate x on the sample circle and 1/x.  The float64
    # rounding of y = x mu alone moves the value by about eps * sum |y lambda|;
    # at (0.5, 0.9) and radius 2 that sum reaches 400, and the bound is 2e-14
    # there (the direct product reads 1.6e-13).
    @pytest.mark.parametrize(
        "params, radius, bound",
        [
            (PR, 0.5, 1e-14), (PR, 2.0, 1e-14),
            (WIDE, 0.5, 1e-14), (WIDE, 2.0, 1e-14),
            (SLOW, 0.5, 1e-14), (SLOW, 2.0, 2e-14),
            (COMPLEX, 0.5, 1e-14), (COMPLEX, 2.0, 1e-14),
        ],
    )
    def test_every_a2_kernel_matches_the_extended_product(self, params, radius, bound):
        for kernel in a2_kernels(params):
            assert relative_error(kernel, circle(16, radius)) <= bound, kernel

    @pytest.mark.parametrize("params", [PR, COMPLEX])
    def test_far_from_the_origin(self, params):
        # |x mu| up to 30 covers the 1/x side of every series-route row at the
        # defaults (|x mu| reaches 22.2 on E8)
        for kernel in a2_kernels(params):
            mu_max = max(abs(mu) for g in kernel.groups for _, mu in g.terms)
            for reach in (3.0, 10.0, 30.0):
                assert relative_error(kernel, circle(16, reach / mu_max)) <= 1e-14, kernel

    @pytest.mark.parametrize("constant, value", [("LOG_TERMS", 16), ("SPLIT", 0.5)])
    def test_a_shorter_log_series_fails_the_bound(self, monkeypatch, constant, value):
        # the tail's truncation is below rounding at SPLIT = 1/4, LOG_TERMS = 32;
        # halving the terms or doubling the split leaves about 5e-12 per factor
        monkeypatch.setattr(currents, constant, value)
        currents._tail_sums.cache_clear()
        try:
            worst = max(relative_error(k, circle(16, 2.0)) for k in a2_kernels(WIDE))
        finally:
            currents._tail_sums.cache_clear()
        assert worst > 1e-14

    @pytest.mark.parametrize("params", [PR, WIDE])
    def test_matches_the_direct_product(self, params):
        # the direct product is the oracle: values agree to its own rounding,
        # and closest is its min |factor| wherever that is below 1 - SPLIT
        rng = np.random.default_rng(3)
        xs = rng.uniform(0.2, 5.0, 64) * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
        for kernel in a2_kernels(params):
            got, closest = kernel.evaluate(xs)
            want, want_closest = direct_product(kernel, xs)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
            floor = np.minimum(want_closest, 1 - currents.SPLIT)
            assert np.allclose(closest, floor, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("params", [PR, WIDE, SLOW])
    def test_a_point_reads_its_guard_alone_and_its_value_to_rounding(self, params):
        # each point has its own prefix, so closest does not depend on the
        # other points of its array and batching never moves a skip count;
        # the value moves by rounding (up to 1.8e-15 relative here), as the
        # reductions run over arrays of another shape
        d4 = make_cartan("D", 4)
        rng = np.random.default_rng(5)
        xs = rng.uniform(0.2, 5.0, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
        for kx in KINDS:
            for ky in KINDS:
                for j in (0, 1, 2):  # A_0j = 2, -1, 0
                    spec_x, spec_y = current_spec(kx, 0, 4, params), current_spec(ky, j, 4, params)
                    kernel = contract(spec_x, spec_y, d4, params, 10).kernel
                    vals, closest = kernel.evaluate(xs)
                    one = [kernel.evaluate(x) for x in xs]
                    assert np.array_equal(closest, [c for _, c in one])
                    assert np.all(np.abs(vals - [v for v, _ in one]) <= 1e-14 * np.abs(vals))

    # poles at x = 2 * 4^k: y = x / 2 and lambda = 4^-k are exact in binary
    POLES = ContractionKernel((KernelGroup(((1, 0.5 + 0j),), (0.25 + 0j,)),))

    def test_a_point_on_a_pole_raises(self):
        for x in (2.0, 8.0, np.array([0.5, 8.0, 1j])):
            with pytest.raises(ZeroDivisionError):
                self.POLES.evaluate(x)

    def test_a_point_near_a_pole_is_guarded(self):
        xs = np.array([0.5, 8.0 * (1 + 1e-12), 3.0j])
        _, closest = self.POLES.evaluate(xs)
        assert closest[0] == 1 - currents.SPLIT  # no factor in the prefix
        assert closest[1] == pytest.approx(1e-12, rel=1e-3) and closest[1] < 1e-9
        assert closest[2] > 1e-9


def per_pair_series(spec_x, spec_y, cartan, order):
    """The contraction series as one exp per constituent pair, mode by mode.

    Also returns the majorant exp(sum_m |c_m| x^m) over all pairs' log
    coefficients, which bounds how far rounding can move each coefficient.
    """
    a_ij = cartan[spec_x.node, spec_y.node]
    series = LaurentSeries(0, np.ones(1, dtype=complex), order)
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


def contract_one_loop(spec_x, spec_y, cartan, order):
    """Reference: oscillator and zero-mode parts in one loop per node pair."""
    a_ij = cartan[spec_x.node, spec_y.node]
    ms = np.arange(1, order + 1)
    log = np.zeros(order + 1, dtype=complex)
    kernel = ContractionKernel(())
    coeff, z_exp = 1.0 + 0.0j, 0.0 + 0.0j
    for kx, sx in spec_x.constituents:
        for ky, sy in spec_y.constituents:
            scale = sy / sx
            log[1:] += contraction_log_coeff(kx, ky, a_ij, PR, ms) * scale**ms
            kernel = kernel * _atomic_kernel(kx, ky, a_ij, PR).scale(scale)
            _, gamma_x, const_x = zero_modes(kx, PR)
            charge_y = zero_modes(ky, PR)[0]
            mcoeff, e = zero_mode_reorder(const_x * sx, gamma_x, a_ij, charge_y, PR)
            coeff *= mcoeff
            z_exp += e
    series = series_exp(LaurentSeries(0, log, order))
    return coeff, z_exp, series, kernel


class TestSharedOscillatorPart:
    @pytest.mark.parametrize("nodes", [(0, 0), (0, 1), (1, 0), (0, 2), (2, 1)])
    def test_matches_the_one_loop_contraction(self, nodes):
        kinds = ("S+", "S-", "E", "F", "H+", "H-")
        for kx in kinds:
            for ky in kinds:
                sx = current_spec(kx, nodes[0], 3, PR)
                sy = current_spec(ky, nodes[1], 3, PR)
                ope = contract(sx, sy, A3, PR, 40)
                coeff, z_exp, series, kernel = contract_one_loop(sx, sy, A3, 40)
                assert (ope.coeff, ope.z_exp) == (coeff, z_exp)
                assert np.array_equal(ope.series.coeffs, series.coeffs), (kx, ky)
                assert ope.series.order == series.order and ope.kernel == kernel

    def test_node_pairs_of_one_class_share_a_read_only_series(self):
        e = [current_spec("E", i, 3, PR) for i in range(3)]
        ope01, ope12 = contract(e[0], e[1], A3, PR, 40), contract(e[1], e[2], A3, PR, 40)
        assert ope01.series is ope12.series and ope01.kernel is ope12.kernel
        with pytest.raises(ValueError):
            ope01.series.coeffs[1] = 0.0


class TestKernelHash:
    def test_equal_kernels_hash_equal_and_a_mutant_does_not(self):
        hp0, hp1 = current_spec("H+", 0, 3, PR), current_spec("H+", 1, 3, PR)
        kernel = contract(hp0, hp1, A3, PR, 40).kernel
        # another order is another cache entry, so this kernel is built anew
        rebuilt = contract(hp0, hp1, A3, PR, 41).kernel
        assert rebuilt is not kernel
        assert rebuilt == kernel and hash(rebuilt) == hash(kernel)
        assert {kernel: 1}[rebuilt] == 1
        g = kernel.groups[-1]
        bad_group = KernelGroup(((-g.terms[0][0], g.terms[0][1]),) + g.terms[1:], g.dens)
        mutant = dataclasses.replace(kernel, groups=kernel.groups[:-1] + (bad_group,))
        assert mutant != kernel and hash(mutant) != hash(kernel)
        assert kernel not in {mutant: 1}


FORMS = [
    (kx, ky, a)
    for kx, ky in (("S+", "S-"), ("S-", "S+"), ("E", "F"), ("F", "E"))
    for a in (2, -1, 0)
]


class TestClosedFormTable:
    def test_untabulated_pairs(self):
        assert closed_form("E", "E", 2, PR) is None
        assert closed_form("F", "F", -1, PR) is None

    @pytest.mark.parametrize("kx,ky,a", FORMS)
    def test_engine_agrees_with_each_form(self, kx, ky, a):
        self.assert_agrees(kx, ky, a, PR)

    @pytest.mark.parametrize("kx,ky,a", FORMS)
    def test_engine_agrees_at_non_integer_beta(self, kx, ky, a):
        # PR has p = q^2, so (p/q)^{1/2} = q^{1/2} there and the E and F
        # zero-mode constants could be swapped unseen
        self.assert_agrees(kx, ky, a, WIDE)

    @staticmethod
    def assert_agrees(kx, ky, a, params):
        nodes = {2: (0, 0), -1: (0, 1), 0: (0, 2)}[a]
        sx = current_spec(kx, nodes[0], 3, params)
        sy = current_spec(ky, nodes[1], 3, params)
        ope = contract(sx, sy, A3, params, 80)
        cf = closed_form(kx, ky, a, params)
        for x in circle(8):
            got, want = ope.evaluate(1.0, x)[0], cf(1.0, x)
            assert abs(got - want) / max(abs(want), 1e-30) < 1e-9


class TestComposeH:
    def test_charges_cancel(self):
        for kind in ("H+", "H-"):
            h = current_spec(kind, 0, 2, PR)
            assert sum(zero_modes(k, PR)[0] for k, _ in h.constituents) == 0

    def test_momentum_constants(self):
        # H+ combines (z q^{1/2} (p/q)^{1/2})^{P} (z q^{-1/2} q^{1/2})^{-P}
        for kind, want in (("H+", (PR.p_half, 1.0)), ("H-", (1.0, PR.p_half))):
            h = current_spec(kind, 0, 2, PR)
            consts = [shift * zero_modes(k, PR)[2] for k, shift in h.constituents]
            assert consts == pytest.approx(want)

    def test_hh_contraction_via_constituents(self):
        # composite route against the theta-quotient structure function
        from screenalg.qlaurent import theta

        hp0, hp1 = current_spec("H+", 0, 2, PR), current_spec("H+", 1, 2, PR)
        xy = contract(hp0, hp1, A2, PR, 60)
        yx = contract(hp1, hp0, A2, PR, 60)
        pa = PR.p_half ** A2[0, 1]
        for x in circle(8):
            ratio = xy.evaluate(1.0, x)[0] / yx.evaluate(x, 1.0)[0]
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
