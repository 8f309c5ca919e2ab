import numpy as np
import pytest
from fock_reference import reference_apply

from screenalg import (
    FockSpace,
    ModeWindowError,
    current_spec,
    enumerate_sector,
    make_cartan,
    make_params,
    osc_coeff,
    sector_dimension,
)
from screenalg.qlaurent import LaurentSeries

PR = make_params(0.09, 0.3, 1)
A1 = make_cartan("A", 1)
A2 = make_cartan("A", 2)


class TestEnumeration:
    def test_degree_zero(self):
        basis = enumerate_sector((0, 0), 0)
        assert len(basis) == 1
        assert basis[0].oscillators == ((), ())

    def test_rank1_degree2(self):
        basis = enumerate_sector((0,), 2)
        oscs = [b.oscillators for b in basis]
        assert oscs == [((),), ((1,),), ((2,),), ((1, 1),)]

    def test_rank2_counts_match_generating_function(self):
        # oracle: coefficient extraction from prod_m (1 - x^m)^{-rank}
        cap = 8
        gf = LaurentSeries.from_coeff_map({0: 1.0}, cap)
        for m in range(1, cap + 1):
            geo = LaurentSeries.from_coeff_map(
                {k * m: 1.0 for k in range(cap // m + 1)}, cap
            )
            gf = gf * geo * geo
        want = int(round(sum(gf.coeff(k).real for k in range(cap + 1))))
        assert sector_dimension(2, cap) == want

    def test_deterministic_order(self):
        assert enumerate_sector((0, 0), 3) == enumerate_sector((0, 0), 3)


class TestModeMatrix:
    def test_vacuum_lowest_mode_is_zero_mode_scalar(self):
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        mm = fs.current_mode_matrix(e0, 0, (0,), 2)
        # on the vacuum sector the zero modes contribute the bare scalar 1
        assert mm.entries[0, 0] == pytest.approx(1.0)
        assert mm.target_sector == (1,)
        assert mm.sector_offset == 0

    def test_single_contraction_element(self):
        # first-order expansion of the creation exponential: the a[-1] state
        # picks the m = -1 oscillator coefficient
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        mm = fs.current_mode_matrix(e0, -1, (0,), 2)
        row = mm.target_basis.index(
            next(b for b in mm.target_basis if b.oscillators == ((1,),))
        )
        assert mm.entries[row, 0] == pytest.approx(osc_coeff("E", PR, -1))

    def test_nonvacuum_sector_scalar_and_offset(self):
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        lam = (1,)
        off = int(A1.pairing(lam)[0])  # = 2
        mm = fs.current_mode_matrix(e0, -off, lam, 2)
        assert mm.sector_offset == off
        assert mm.entries[0, 0] == pytest.approx(PR.pq_half**off)

    def test_grading_block_structure(self):
        fs = FockSpace(A2, PR)
        f1 = current_spec("F", 1, 2, PR)
        mm = fs.current_mode_matrix(f1, 1, (0, 0), 3)
        for r, tgt in enumerate(mm.target_basis):
            for c, src in enumerate(mm.source_basis):
                if mm.entries[r, c] != 0:
                    assert tgt.degree == src.degree - 1  # g' = g - n - 0

    def test_sector_shifts(self):
        fs = FockSpace(A2, PR)
        assert fs.current_mode_matrix(current_spec("E", 0, 2, PR), 0, (0, 0), 1).target_sector == (1, 0)
        assert fs.current_mode_matrix(current_spec("F", 0, 2, PR), 0, (0, 0), 1).target_sector == (-1, 0)
        assert fs.current_mode_matrix(current_spec("H+", 0, 2, PR), 0, (0, 0), 1).target_sector == (0, 0)

    def test_window_refusal(self):
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        with pytest.raises(ModeWindowError, match="window"):
            fs.current_mode_matrix(e0, 7, (0,), 2)

    def test_s_currents_refused(self):
        fs = FockSpace(A1, PR)
        sp = current_spec("S+", 0, 1, PR)
        with pytest.raises(ValueError, match="Fock route"):
            fs.current_mode_matrix(sp, 0, (0,), 2)

    def test_orthogonal_nodes_factorize(self):
        # A_ij = 0: acting with E_i never touches node j oscillators
        a3 = make_cartan("A", 3)
        fs = FockSpace(a3, PR)
        e0 = current_spec("E", 0, 3, PR)
        mm = fs.current_mode_matrix(e0, -1, (0, 0, 0), 2)
        for r, tgt in enumerate(mm.target_basis):
            for c, src in enumerate(mm.source_basis):
                if abs(mm.entries[r, c]) > 0:
                    assert tgt.oscillators[2] == src.oscillators[2]


class TestCommutator:
    def test_same_node_sl2(self):
        fs = FockSpace(A1, PR)
        rep = fs.commutator_check(
            current_spec("E", 0, 1, PR), current_spec("F", 0, 1, PR), [(0,)], 3, 3
        )
        assert rep.max_residual < 1e-8

    def test_adjacent_nodes_a2(self):
        fs = FockSpace(A2, PR)
        rep = fs.commutator_check(
            current_spec("E", 0, 2, PR), current_spec("F", 1, 2, PR), [(0, 0)], 2, 2
        )
        assert rep.cartan_entry == -1
        assert rep.max_residual < 1e-8

    def test_orthogonal_nodes_commute_exactly(self):
        a3 = make_cartan("A", 3)
        fs = FockSpace(a3, PR)
        rep = fs.commutator_check(
            current_spec("E", 0, 3, PR), current_spec("F", 2, 3, PR), [(0, 0, 0)], 2, 2
        )
        assert rep.cartan_entry == 0
        assert rep.max_residual == 0.0

    def test_shifted_sector(self):
        cases = [(A1, (1,), 0, 0)] + [
            (A2, lam, i, j) for lam in [(1, 0), (0, 1), (1, 1)] for i in range(2) for j in range(2)
        ]
        for cartan, lam, i, j in cases:
            r = cartan.rank
            rep = FockSpace(cartan, PR).commutator_check(
                current_spec("E", i, r, PR), current_spec("F", j, r, PR), [lam], 2, 2
            )
            assert rep.max_residual < 1e-8, (lam, i, j, rep.max_residual)
            assert len(rep.residuals) - rep.vacuous > 0, (lam, i, j)

    def test_noise_and_empty_rows_are_vacuous(self):
        e0, f1 = current_spec("E", 0, 2, PR), current_spec("F", 1, 2, PR)
        # on (1, 1), rows (2, -2) and (2, -1) hold rounding noise only (scale
        # ~1e-15 against a sector maximum of ~36); 6 more rows are empty
        rep = FockSpace(A2, PR).commutator_check(e0, f1, [(1, 1)], 2, 2)
        noise = {(m, n) for (_, m, n), _, s in rep.residuals if 0 < s < 1e-12}
        assert noise == {(2, -2), (2, -1)}
        assert rep.vacuous == 8 and rep.max_residual < 1e-8
        # on (2, -1) both sides of every row reach only negative degrees
        rep = FockSpace(A2, PR).commutator_check(e0, f1, [(2, -1)], 2, 2)
        assert rep.vacuous == len(rep.residuals) == 25
        assert rep.max_residual == 0.0

    def test_kind_pair_enforced(self):
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        with pytest.raises(ValueError, match=r"\(E, F\)"):
            fs.commutator_check(e0, e0, [(0,)], 2, 2)


def _reference_modes(fs, specs_vars, lam, src_cap, tgt_cap):
    _, _, modes = reference_apply(fs, specs_vars, lam, src_cap, tgt_cap)
    if len(specs_vars) == 1:
        return {nz: blocks for (nz, _), blocks in modes.items()}
    return modes


EQUIVALENCE_SECTORS = [(A1, (0,)), (A1, (1,)), (A2, (0, 0)), (A2, (1, 0)), (A2, (1, 1))]


@pytest.mark.parametrize("current", ["E", "F", "H+", "H-", "EF"])
@pytest.mark.parametrize(
    "cartan,lam", EQUIVALENCE_SECTORS, ids=[f"A{c.rank}-{lam}" for c, lam in EQUIVALENCE_SECTORS]
)
def test_graded_engine_matches_reference(cartan, lam, current):
    src_cap, tgt_cap = 2, 5
    r = cartan.rank
    fs = FockSpace(cartan, PR)
    calls = []
    for i in range(r):
        if current == "EF":
            for j in range(r):
                e, f = current_spec("E", i, r, PR), current_spec("F", j, r, PR)
                calls.append(([(e, 0), (f, 1)], fs.pair_modes(e, f, lam, src_cap, tgt_cap)))
        else:
            spec = current_spec(current, i, r, PR)
            calls.append(([(spec, 0)], fs.sector_modes(spec, lam, src_cap, tgt_cap)))
    for specs, (_, _, modes) in calls:
        ref = _reference_modes(fs, specs, lam, src_cap, tgt_cap)
        for key, blocks in modes.items():
            for g, (t, block) in blocks.items():
                # complete modes only: exact for every source degree up to src_cap
                assert t - g <= tgt_cap - src_cap, (key, g, t)
                ref_t, ref_block = ref[key][g]
                assert ref_t == t
                err = np.max(np.abs(block - ref_block))
                assert err <= 1e-13 * np.max(np.abs(ref_block)), (key, g, err)
        for key, blocks in ref.items():
            if all(t - g <= tgt_cap - src_cap for g, (t, _) in blocks.items()):
                assert set(modes.get(key, {})) == set(blocks), key
