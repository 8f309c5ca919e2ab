import numpy as np
import pytest
from fock_reference import composed_commutator, reference_apply

from screenalg import (
    FockSpace,
    current_spec,
    make_cartan,
    make_params,
    osc_coeff,
    sector_dimension,
)
from screenalg import fock
from screenalg.fock import states_of_degree
from screenalg.qlaurent import LaurentSeries

PR = make_params(0.09, 0.3, 1)
A1 = make_cartan("A", 1)
A2 = make_cartan("A", 2)
A3 = make_cartan("A", 3)


class TestEnumeration:
    def test_degree_zero(self):
        assert states_of_degree(2, 0) == (((), ()),)

    def test_rank1_degree2(self):
        oscs = [s for d in range(3) for s in states_of_degree(1, d)]
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
        assert states_of_degree(2, 3) == states_of_degree.__wrapped__(2, 3)


class TestModeMatrix:
    def test_vacuum_lowest_mode_is_zero_mode_scalar(self):
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        tgt, offset, modes = fs.sector_modes(e0, (0,), 2, 2)
        # on the vacuum sector the zero modes contribute the bare scalar 1
        t, block = modes[0][0]
        assert t == 0 and block[0, 0] == pytest.approx(1.0)
        assert tgt == (1,)
        assert offset == 0

    def test_single_contraction_element(self):
        # first-order expansion of the creation exponential: the a[-1] state
        # picks the m = -1 oscillator coefficient
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        t, block = fs.sector_modes(e0, (0,), 2, 3)[2][-1][0]
        row = states_of_degree(1, t).index(((1,),))
        assert block[row, 0] == pytest.approx(osc_coeff("E", PR, -1))

    def test_nonvacuum_sector_scalar_and_offset(self):
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        lam = (1,)
        off = int(A1.pairing(lam)[0])  # = 2
        _, offset, modes = fs.sector_modes(e0, lam, 2, 2)
        assert offset == off
        t, block = modes[-off][0]  # E[-off] keeps the degree
        assert t == 0 and block[0, 0] == pytest.approx(PR.pq_half**off)

    def test_grading_block_structure(self):
        fs = FockSpace(A2, PR)
        f1 = current_spec("F", 1, 2, PR)
        blocks = fs.sector_modes(f1, (0, 0), 3, 3)[2][1]
        assert set(blocks) == {1, 2, 3}
        for g, (t, block) in blocks.items():
            assert t == g - 1  # g' = g - n - 0
            assert block.shape == (len(states_of_degree(2, t)), len(states_of_degree(2, g)))

    def test_sector_shifts(self):
        fs = FockSpace(A2, PR)
        for kind, want in (("E", (1, 0)), ("F", (-1, 0)), ("H+", (0, 0))):
            assert fs.sector_modes(current_spec(kind, 0, 2, PR), (0, 0), 1, 1)[0] == want

    def test_s_currents_refused(self):
        fs = FockSpace(A1, PR)
        sp = current_spec("S+", 0, 1, PR)
        with pytest.raises(ValueError, match="Fock route"):
            fs.sector_modes(sp, (0,), 2, 2)

    def test_orthogonal_nodes_factorize(self):
        # A_ij = 0: acting with E_i never touches node j oscillators
        fs = FockSpace(A3, PR)
        e0 = current_spec("E", 0, 3, PR)
        blocks = fs.sector_modes(e0, (0, 0, 0), 2, 3)[2][-1]
        assert blocks
        for g, (t, block) in blocks.items():
            for r, c in zip(*np.nonzero(block)):
                assert states_of_degree(3, t)[r][2] == states_of_degree(3, g)[c][2]


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
        fs = FockSpace(A3, PR)
        rep = fs.commutator_check(
            current_spec("E", 0, 3, PR), current_spec("F", 2, 3, PR), [(0, 0, 0)], 2, 2
        )
        assert rep.cartan_entry == 0
        # exact up to the rounding of applying E after F and F after E
        assert rep.max_residual < 1e-15
        assert len(rep.residuals) - rep.vacuous > 0

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

    def test_node_pair_modes_are_dropped_after_their_check(self):
        # H+-_i and :E_i F_j: are read by node pair (i, j) alone; E and F
        # modes are read by the other node pairs too and stay cached
        fs = FockSpace(A2, PR)
        for i, j, a_ij in A2.node_pairs():
            e_i, f_j = current_spec("E", i, 2, PR), current_spec("F", j, 2, PR)
            rep = fs.commutator_check(e_i, f_j, [(0, 0)], 3, 3)
            assert rep.max_residual < 1e-8
            kinds = {key[0] for key in fs._modes_cache}
            assert kinds == {"E", "F"}, (i, j, a_ij, kinds)

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


ORACLE_SECTORS = [(A1, (0,)), (A1, (1,)), (A2, (0, 0)), (A2, (1, 0)), (A2, (1, 1)), (A3, (0, 0, 0))]


@pytest.mark.parametrize("cap,window", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize(
    "cartan,lam", ORACLE_SECTORS, ids=[f"A{c.rank}-{lam}" for c, lam in ORACLE_SECTORS]
)
def test_commutator_by_application_matches_whole_sector_composition(cartan, lam, cap, window):
    """E on F's output columns (and F on E's) gives the rows of E[m] F[n] composed whole."""
    r = cartan.rank
    fs = FockSpace(cartan, PR)
    for i in range(r):
        for j in range(r):
            e, f = current_spec("E", i, r, PR), current_spec("F", j, r, PR)
            rep = fs.commutator_check(e, f, [lam], cap, window)
            want, vacuous = composed_commutator(fs, e, f, lam, cap, window)
            assert rep.vacuous == vacuous, (i, j)
            assert [w for w, *_ in rep.residuals] == [w for w, *_ in want]
            top = max(s for *_, s in want)
            floor = fock.SCALE_FLOOR * top
            for (where, res, scale), (_, res0, scale0) in zip(rep.residuals, want):
                if scale0 > floor:  # a compared row
                    assert scale == pytest.approx(scale0, rel=1e-13, abs=0), (i, j, where)
                    assert res == pytest.approx(res0, rel=0, abs=1e-14), (i, j, where)
                else:  # rounding noise or empty: residual = error / floor
                    assert scale <= floor and abs(scale - scale0) <= 1e-13 * top, (i, j, where)
                    assert abs(res - res0) * floor <= 1e-14 * top, (i, j, where)


MUTANT_ALGEBRAS = [A2, A3]


def _same_node_residual(cartan, fs=None):
    """max_residual of the E_0/F_0 commutator on the vacuum at cap 3, window 3."""
    r = cartan.rank
    fs = fs or FockSpace(cartan, PR)
    e, f = current_spec("E", 0, r, PR), current_spec("F", 0, r, PR)
    return fs.commutator_check(e, f, [(0,) * r], 3, 3).max_residual


class TestCommutatorMutants:
    """Defects of 1e-6 that the application route must report above tol_fock."""

    TOL_FOCK = 1e-8

    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_honest_engine_passes(self, cartan):
        assert _same_node_residual(cartan) < 1e-13

    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_scaled_gather_fails(self, cartan, monkeypatch):
        lower = FockSpace._lower_into

        def scaled(self, out, coeff, *args):
            return lower(self, out, coeff * (1 + 1e-6), *args)

        monkeypatch.setattr(FockSpace, "_lower_into", scaled)
        assert _same_node_residual(cartan) > self.TOL_FOCK

    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_one_hplus_entry_fails(self, cartan):
        r = cartan.rank
        fs = FockSpace(cartan, PR)
        hp = current_spec("H+", 0, r, PR)
        # the H+ modes the check reads (reach 2W + 2), from the same cache;
        # the largest entry of H+[-2], the mode of the rows m + n = 0
        blocks = [b for _, b in fs.sector_modes(hp, (0,) * r, 3, 3 + 8)[2][-2].values()]
        block = max(blocks, key=lambda b: np.max(np.abs(b)))
        block[np.unravel_index(np.argmax(np.abs(block)), block.shape)] *= 1 + 1e-6
        assert _same_node_residual(cartan, fs) > self.TOL_FOCK

    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_dropped_f_column_group_fails(self, cartan, monkeypatch):
        r = cartan.rank
        fs = FockSpace(cartan, PR)
        f = current_spec("F", 0, r, PR)
        f_modes = fs.sector_modes(f, (0,) * r, 3, 3 + 3)[2]  # the modes the check reads
        stack = fock._stack_outputs

        def without_f0_on_vacuum(modes, window):
            if modes is f_modes:  # F[0]'s columns from source degree 0 never reach R_t
                modes = {**modes, 0: {g: b for g, b in modes[0].items() if g != 0}}
            return stack(modes, window)

        monkeypatch.setattr(fock, "_stack_outputs", without_f0_on_vacuum)
        assert _same_node_residual(cartan, fs) > self.TOL_FOCK
