import numpy as np
import pytest

from screenalg import (
    ModeBracketTable,
    contraction_log_coeff,
    make_cartan,
    make_params,
    osc_coeff,
    zero_mode_reorder,
    zero_modes,
)

PR = make_params(0.09, 0.3, 1)
A2 = make_cartan("A", 2)
# beta = 1 - log p / log q is -1 at PR; WIDE has a non-integer beta (-2.376)
WIDE = make_params(0.3, 0.7, 1)


class TestBracket:
    def test_printed_value_n1(self):
        # direct substitution, A_ii = 2 so p^{A n/2} = p
        t = ModeBracketTable(A2, PR)
        want = (1 - 0.3) * (0.09 - 1 / 0.09) * (1 - 0.3) / (1 - 0.09)
        assert t.bracket(0, 0, 1, -1) == pytest.approx(want)

    def test_mode_mismatch_is_zero(self):
        t = ModeBracketTable(A2, PR)
        assert t.bracket(0, 1, 2, 3) == 0.0
        assert t.bracket(0, 0, 0, 0) == 0.0

    def test_orthogonal_pair_vanishes(self):
        a3 = make_cartan("A", 3)
        t = ModeBracketTable(a3, PR)
        assert all(t.bracket(0, 2, n, -n) == 0.0 for n in range(1, 12))

    def test_antisymmetry_a2_d4(self):
        for cartan in (A2, make_cartan("D", 4)):
            t = ModeBracketTable(cartan, PR)
            for i, j, _ in cartan.node_pairs():
                for n in range(1, 31):
                    b = t.bracket(i, j, n, -n)
                    rev = t.bracket(j, i, -n, n)
                    assert abs(b + rev) <= 1e-12 * max(abs(b), 1e-30)

    def test_odd_in_cartan_entry(self):
        # b is odd in A_ij: evaluating with A and -A gives negatives
        t = ModeBracketTable(A2, PR)
        for n in (1, 2, 5):
            assert t.value(2, n) == pytest.approx(-t.value(-2, n))
            assert t.value(-1, n) == pytest.approx(-t.value(1, n))

    def test_node_range_checked(self):
        t = ModeBracketTable(A2, PR)
        with pytest.raises(ValueError):
            t.bracket(0, 5, 1, -1)


class TestOscCoeff:
    def test_raising_kind(self):
        # 1/(q^{-1} - 1) at q = 0.3 is 3/7
        assert osc_coeff("E", PR, 1) == pytest.approx(3 / 7)
        assert osc_coeff("S+", PR, 1) == pytest.approx(3 / 7)

    def test_lowering_kind(self):
        # 1/((q/p) - 1) at q/p = 10/3 is 3/7
        assert osc_coeff("F", PR, 1) == pytest.approx(3 / 7)
        assert osc_coeff("S-", PR, 1) == pytest.approx(3 / 7)

    def test_opposite_modes_independent(self):
        # no symmetry is claimed between m and -m; both follow the definition
        assert osc_coeff("E", PR, -1) == pytest.approx(1 / (0.3 - 1))
        assert osc_coeff("F", PR, -1) == pytest.approx(1 / ((0.3 / 0.09) ** -1 - 1))

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            osc_coeff("E", PR, 0)


class TestContractionLogCoeff:
    def test_ef_same_node_closed_sum(self):
        # hand-summed: m c_m = (q/p)^m + q^m for the E/F pair at A_ij = 2
        q, p = 0.3, 0.09
        for m in range(1, 12):
            want = ((q / p) ** m + q**m) / m
            assert contraction_log_coeff("E", "F", 2, PR, m) == pytest.approx(want)

    def test_orthogonal_vanishes(self):
        assert all(
            contraction_log_coeff("E", "E", 0, PR, m) == 0.0 for m in range(1, 8)
        )

    def test_swap_consistency(self):
        # c_m for (X, Y) relates to (Y, X) through bracket antisymmetry:
        # coeffX(m) coeffY(-m) b(m) vs coeffY(m) coeffX(-m) (-b(-m))
        t = ModeBracketTable(A2, PR)
        for kx, ky in (("E", "F"), ("E", "E"), ("S+", "S-")):
            for m in range(1, 8):
                direct = contraction_log_coeff(ky, kx, -1, PR, m)
                rebuilt = (
                    osc_coeff(ky, PR, m)
                    * osc_coeff(kx, PR, -m)
                    * (-t.value(-1, -m))
                )
                assert direct == pytest.approx(rebuilt)

    def test_requires_positive_m(self):
        with pytest.raises(ValueError):
            contraction_log_coeff("E", "F", 2, PR, 0)
        with pytest.raises(ValueError):
            contraction_log_coeff("E", "F", 2, PR, np.arange(0, 3))

    @pytest.mark.parametrize("a_ij", [2, -1, 0])
    def test_array_of_modes_matches_scalar_loop(self, a_ij):
        ms = np.arange(1, 81)
        for kx in ("S+", "S-", "E", "F"):
            for ky in ("S+", "S-", "E", "F"):
                got = contraction_log_coeff(kx, ky, a_ij, PR, ms)
                want = np.array([contraction_log_coeff(kx, ky, a_ij, PR, int(m)) for m in ms])
                assert got.shape == want.shape
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (kx, ky)


# z-exponent from moving X's momentum factor past Y's charge, by kind pair:
# a[0] = beta P, E/F carry e^{+-Q} z^{+-P}, S+ carries z^{a[0]} and S- carries
# e^{-Q/beta} z^{-a[0]/beta}
EXPONENT = {
    ("E", "E"): lambda a, b: a,
    ("E", "F"): lambda a, b: -a,
    ("F", "E"): lambda a, b: -a,
    ("F", "F"): lambda a, b: a,
    ("S+", "S+"): lambda a, b: b * a,
    ("S+", "S-"): lambda a, b: -a,
    ("S-", "S+"): lambda a, b: -a,
    ("S-", "S-"): lambda a, b: a / b,
    ("E", "S+"): lambda a, b: a,
    ("E", "S-"): lambda a, b: -a / b,
    ("F", "S+"): lambda a, b: -a,
    ("F", "S-"): lambda a, b: a / b,
    ("S+", "E"): lambda a, b: b * a,
    ("S+", "F"): lambda a, b: -b * a,
    ("S-", "E"): lambda a, b: -a,
    ("S-", "F"): lambda a, b: a,
}


class TestZeroModeReorder:
    def test_momentum_past_charge(self):
        # (c z)^{P_i} e^{Q_j} -> e^{Q_j} (c z)^{A_ij} (c z)^{P_i}
        coeff, e = zero_mode_reorder(2.0, 1 / WIDE.beta, A2[0, 1], 1, WIDE)
        assert e == A2[0, 1] and coeff == 2.0 ** A2[0, 1]

    @pytest.mark.parametrize("a_ij", [2, -1, 0])
    @pytest.mark.parametrize("kx,ky", list(EXPONENT))
    def test_exponent_per_kind_pair(self, kx, ky, a_ij):
        _, gamma_x, const_x = zero_modes(kx, WIDE)
        charge_y = zero_modes(ky, WIDE)[0]
        coeff, e = zero_mode_reorder(const_x, gamma_x, a_ij, charge_y, WIDE)
        want = EXPONENT[kx, ky](a_ij, WIDE.beta)
        if kx != "S+" and ky != "S-":  # +-A_ij: snapped to an exact integer
            assert e == want and e.imag == 0.0
            assert coeff == const_x**want
        else:
            assert e == pytest.approx(want, rel=1e-14, abs=1e-15)
            assert coeff == pytest.approx(const_x**want, rel=1e-14)
