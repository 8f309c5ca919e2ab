import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenalg import make_cartan, make_params


class TestMakeCartan:
    def test_a2(self):
        c = make_cartan("A", 2)
        assert c.entries.tolist() == [[2, -1], [-1, 2]]

    def test_a1(self):
        assert make_cartan("A", 1).entries.tolist() == [[2]]

    def test_d4_branch_node(self):
        c = make_cartan("D", 4)
        # node 2 (index 1) adjacent to all of 1, 3, 4
        assert sorted(np.flatnonzero(c.entries[1] == -1).tolist()) == [0, 2, 3]
        assert c.entries.shape == (4, 4)

    @pytest.mark.parametrize("label,rank", [("A", 1), ("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)])
    def test_invariants(self, label, rank):
        c = make_cartan(label, rank)
        a = c.entries
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 2)
        off = a[~np.eye(rank, dtype=bool)]
        assert set(off.tolist()) <= {0, -1}
        # positive definiteness through leading principal minors
        for k in range(rank):
            assert np.linalg.det(a[: k + 1, : k + 1]) > 0.5

    @pytest.mark.parametrize("label,rank", [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("B", 2)])
    def test_bad_configs(self, label, rank):
        with pytest.raises(ValueError):
            make_cartan(label, rank)


class TestMakeParams:
    def test_defaults(self):
        # direct evaluation of the two defining relations with real arithmetic
        pr = make_params(0.09, 0.3, 1)
        assert pr.beta == pytest.approx(1 - cmath.log(0.09) / cmath.log(0.3))
        assert pr.beta == pytest.approx(-1.0)
        assert pr.qtilde == pytest.approx(0.09 / 0.3)

    def test_c2(self):
        pr = make_params(0.09, 0.3, 2)
        assert pr.qtilde == pytest.approx(0.09**2 / 0.3)
        assert pr.qtilde == pytest.approx(0.027)

    def test_degenerate_p_equals_q_rejected(self):
        with pytest.raises(ValueError):
            make_params(0.3, 0.3, 1)

    def test_bounds_named_in_errors(self):
        with pytest.raises(ValueError, match=r"\|q\|"):
            make_params(0.09, 1.2, 1)
        with pytest.raises(ValueError, match=r"\|p/q\|"):
            make_params(0.5, 0.3, 1)
        with pytest.raises(ValueError, match="qtilde"):
            make_params(0.09, 0.3, 0)  # qtilde = 1/q

    def test_roundtrip_beta(self):
        for p, q in [(0.09, 0.3), (0.1 + 0.02j, 0.35), (0.07, 0.4 - 0.05j)]:
            pr = make_params(p, q, 1)
            back = cmath.exp((1 - pr.beta) * cmath.log(pr.q))
            assert abs(back - pr.p) / abs(pr.p) <= 1e-12

    def test_q_qtilde_is_p_to_c(self):
        for c in (Fraction(1), Fraction(2), Fraction(3, 2)):
            pr = make_params(0.09, 0.3, c)
            assert pr.q * pr.qtilde == pytest.approx(pr.p ** float(c))

    @given(
        st.floats(min_value=0.02, max_value=0.2),
        st.floats(min_value=0.25, max_value=0.6),
    )
    def test_derived_quantities_consistent(self, p, q):
        if abs(p / q) >= 0.9:
            return
        pr = make_params(p, q, 1)
        assert abs(pr.p_half**2 - pr.p) < 1e-14
        assert abs(pr.q_half**2 - pr.q) < 1e-14
        assert abs(pr.pq_half**2 - pr.p / pr.q) < 1e-14


class TestPackageExports:
    def test_every_exported_name_resolves(self):
        import screenalg

        missing = [n for n in screenalg.__all__ if not hasattr(screenalg, n)]
        assert not missing and len(set(screenalg.__all__)) == len(screenalg.__all__)
        namespace: dict = {}
        exec("from screenalg import *", namespace)
        assert set(screenalg.__all__) <= set(namespace)
