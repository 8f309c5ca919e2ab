import itertools
import math
from collections import Counter

import numpy as np
import pytest
from fock_reference import blocks_max_abs, composed_commutator, reference_apply

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
from screenalg.heisenberg import mode_bracket
from screenalg.qlaurent import LaurentSeries

PR = make_params(0.09, 0.3, 1)
A1 = make_cartan("A", 1)
A2 = make_cartan("A", 2)
A3 = make_cartan("A", 3)
D4 = make_cartan("D", 4)


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
        assert rep.max_residual < 1e-8

    def test_orthogonal_nodes_commute_exactly(self):
        fs = FockSpace(A3, PR)
        rep = fs.commutator_check(
            current_spec("E", 0, 3, PR), current_spec("F", 2, 3, PR), [(0, 0, 0)], 2, 2
        )
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

    def test_kind_pair_enforced(self):
        fs = FockSpace(A1, PR)
        e0 = current_spec("E", 0, 1, PR)
        with pytest.raises(ValueError, match=r"\(E, F\)"):
            fs.commutator_check(e0, e0, [(0,)], 2, 2)


CHUNK_CASES = [(A2, lam, 3) for lam in [(0, 0), (1, 0), (1, 1)]]
CHUNK_CASES += [(A2, (2, -1), 2), (A3, (0, 0, 0), 2)]  # on (2, -1) E_0 and F_1 stack no columns


@pytest.mark.parametrize(
    "cartan,lam,cap", CHUNK_CASES, ids=[f"A{c.rank}-{lam}" for c, lam, _ in CHUNK_CASES]
)
def test_chunk_width_does_not_change_the_check(cartan, lam, cap, monkeypatch):
    """Columns never mix, so residuals and vacuous counts are bit-identical at any width."""
    r, window = cartan.rank, 2
    dim = len(states_of_degree(r, cap + 2 * window + 2))
    widths = []
    chunks = fock._column_chunks

    def recorded(rank, cap, width):
        widths.append(width)
        return chunks(rank, cap, width)

    monkeypatch.setattr(fock, "_column_chunks", recorded)
    for i, j, _ in cartan.node_pairs():
        e, f = current_spec("E", i, r, PR), current_spec("F", j, r, PR)
        reports = []
        for width in (1, 2, 5, sector_dimension(r, cap)):
            monkeypatch.setattr(fock, "CHUNK_BYTES", 16 * dim * width)
            reports.append(FockSpace(cartan, PR).commutator_check(e, f, [lam], cap, window))
            assert widths[-1] == width
        assert reports[-1].max_residual < 1e-8, (i, j)
        for rep in reports[:-1]:
            assert rep.residuals == reports[-1].residuals, (i, j)
            assert rep.vacuous == reports[-1].vacuous, (i, j)


@pytest.mark.parametrize("cartan,cap", [(A2, 3), (make_cartan("D", 4), 3)], ids=["A2", "D4"])
@pytest.mark.parametrize("width", [1, 2, 7, 10_000])
def test_column_chunks_cover_every_identity_column_once_in_graded_order(cartan, cap, width):
    r = cartan.rank
    seen = []
    for chunk in fock._column_chunks(r, cap, width):
        assert 0 < sum(x.shape[1] for x in chunk.values()) <= width
        for d, x in chunk.items():
            assert x.shape[0] == len(states_of_degree(r, d))
            assert set(np.unique(x)) <= {0.0, 1.0} and (x.sum(axis=0) == 1).all()
            seen += [(d, int(k)) for k in np.argmax(x, axis=0)]
    assert seen == [(d, k) for d in range(cap + 1) for k in range(len(states_of_degree(r, d)))]


def _random_blocks(rng, shapes):
    """Blocks {src: (tgt, complex matrix)} of the given {src: (tgt, rows, cols)}."""
    return {
        g: (t, rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
        for g, (t, rows, cols) in shapes.items()
    }


def test_slice_selector_composes_as_its_0_1_matrix_and_as_a_view():
    rng = np.random.default_rng(5)
    outer = _random_blocks(rng, {4: (6, 7, 9), 5: (7, 3, 12)})
    for start, stop in [(0, 9), (0, 1), (2, 5), (8, 9), (4, 4)]:
        inner = {0: (4, slice(start, stop)), 1: (5, slice(start, stop + 3)), 2: (3, slice(0, 1))}
        want = {g: (t, np.eye(outer[t][1].shape[1])[:, s]) for g, (t, s) in inner.items() if t in outer}
        got = fock.blocks_compose(outer, inner)
        assert list(got) == [0, 1]  # no outer block at degree 3
        for g, (t, block) in got.items():
            t0, block0 = fock.blocks_compose(outer, want)[g]
            assert t == t0 and np.array_equal(block, block0)
            if block.size:
                assert np.shares_memory(block, outer[inner[g][0]][1])


# which of ef, fe and rhs hold a block at source degrees 0..7: every combination
PRESENCE = list(itertools.product([False, True], repeat=3))


def test_row_maxima_equals_the_blocks_linear_difference_and_leaves_its_inputs():
    rng = np.random.default_rng(7)
    sides = [
        _random_blocks(rng, {g: (g + 2, 4 + g, 3) for g, has in enumerate(PRESENCE) if has[k]})
        for k in range(3)
    ]
    ef, fe, rhs = sides
    before = [{g: b.copy() for g, (_, b) in side.items()} for side in sides]
    err, scale = fock._row_maxima(ef, fe, rhs, 0.0, 0.0)
    diff = fock.blocks_linear([(1.0, ef), (-1.0, fe), (-1.0, rhs)])
    assert err == blocks_max_abs(diff)
    assert scale == blocks_max_abs(rhs)  # ef's and fe's come from _column_maxima
    for side, copies in zip(sides, before):
        assert all(np.array_equal(b, copies[g]) for g, (_, b) in side.items())
    # running maxima: a larger err or scale passed in is kept
    assert fock._row_maxima(ef, fe, rhs, 2 * err, scale / 2) == (2 * err, scale)
    assert fock._row_maxima({}, {}, {}, 0.5, 0.25) == (0.5, 0.25)


def test_column_maxima_give_each_selected_product_its_max_abs():
    rng = np.random.default_rng(11)
    modes = {m: _random_blocks(rng, {4: (6, 7, 9), 5: (7, 3, 12)}) for m in (-1, 0)}
    modes[1] = _random_blocks(rng, {5: (7, 3, 12)})
    col_max = fock._column_maxima(modes, 1)
    assert fock._column_maxima(modes, 0).keys() == {0}
    selectors = [{0: (4, slice(0, 9)), 1: (5, slice(2, 7))}, {0: (4, slice(8, 9))}, {2: (3, slice(0, 1))}, {}]
    for m, selector in itertools.product(modes, selectors):
        want = blocks_max_abs(fock.blocks_compose(modes[m], selector))
        assert fock._selected_max(col_max[m], selector) == want, (m, selector)


@pytest.mark.parametrize("cartan", [A2, D4], ids=["A2", "D4"])
def test_weights_at_a_smaller_reach_are_a_prefix_bit_for_bit(cartan):
    # the weights are kept at the largest reach asked for, and a smaller
    # reach reads their first rows
    legs = [leg for kind in ("E", "F", "H+") for leg in FockSpace(cartan, PR)._merged_legs(
        [(current_spec(kind, node, cartan.rank, PR), 0) for node in range(cartan.rank)])]
    for (node, _, members), sign, (small, large) in itertools.product(legs, (1, -1), [(1, 4), (3, 7)]):
        fresh = FockSpace(cartan, PR)._weights(node, members, sign, small)
        grown = FockSpace(cartan, PR)
        grown._weights(node, members, sign, large)
        kept = grown._weights(node, members, sign, small)
        assert [j for j, _ in kept] == [j for j, _ in fresh]
        for (_, w), (_, w0) in zip(kept, fresh):
            assert len(w) > len(w0) and np.array_equal(w[: len(w0)], w0)


@pytest.mark.parametrize("side", [0, 1, 2], ids=["ef", "fe", "rhs"])
def test_row_maxima_rejects_blocks_at_different_target_degrees(side):
    rng = np.random.default_rng(3)
    sides = [_random_blocks(rng, {1: (4, 5, 2)}) for _ in range(3)]
    sides[side] = {1: (5, sides[side][1][1])}
    with pytest.raises(ValueError, match="degree-incompatible"):
        fock._row_maxima(*sides, 0.0, 0.0)


PAIR_CASES = [(A2, (0, 0), 0, 1), (A2, (1, 0), 1, 0), (A3, (0, 0, 0), 1, 2), (D4, (0, 0, 0, 0), 1, 3)]


@pytest.mark.parametrize(
    "cartan,lam,i,j", PAIR_CASES, ids=[f"{c.label}{c.rank}-E{i}F{j}" for c, _, i, j in PAIR_CASES]
)
def test_pair_modes_in_a_window_are_the_full_modes_bit_for_bit(cartan, lam, i, j):
    r, src_cap, window = cartan.rank, 3, 2
    fs = FockSpace(cartan, PR)
    e, f = current_spec("E", i, r, PR), current_spec("F", j, r, PR)
    tgt_cap = src_cap + 2 * window + 1
    full = fs.pair_modes(e, f, lam, src_cap, None, tgt_cap)
    x_modes = range(-window, window + 2)
    part = FockSpace(cartan, PR).pair_modes(e, f, lam, src_cap, x_modes, tgt_cap)
    assert part[:2] == full[:2]
    assert any(m not in x_modes for m, _ in full[2])  # the window drops modes
    assert set(part[2]) == {(m, n) for m, n in full[2] if m in x_modes}
    for key, blocks in part[2].items():
        assert blocks.keys() == full[2][key].keys()
        for g, (t, block) in blocks.items():
            assert t == full[2][key][g][0] and np.array_equal(block, full[2][key][g][1]), (key, g)


def _reference_modes(fs, specs_vars, lam, src_cap, tgt_cap):
    _, _, modes = reference_apply(fs, specs_vars, lam, src_cap, tgt_cap)
    if len(specs_vars) == 1:
        return {nz: blocks for (nz, _), blocks in modes.items()}
    return modes


# D4's node 1 has three neighbours, so its annihilators act on three nodes
EQUIVALENCE_SECTORS = [(A1, (0,)), (A1, (1,)), (A2, (0, 0)), (A2, (1, 0)), (A2, (1, 1))]
EQUIVALENCE_SECTORS += [(D4, (0, 0, 0, 0))]


@pytest.mark.parametrize("current", ["E", "F", "H+", "H-", "EF"])
@pytest.mark.parametrize(
    "cartan,lam",
    EQUIVALENCE_SECTORS,
    ids=[f"{c.label}{c.rank}-{lam}" for c, lam in EQUIVALENCE_SECTORS],
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
                calls.append(([(e, 0), (f, 1)], fs.pair_modes(e, f, lam, src_cap, None, tgt_cap)))
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


def _partitions_of(k):
    """The partitions of k as descending tuples, in reverse lexicographic order."""
    parts = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(k, 0, -1), n) for n in range(1, k + 1)
    )
    return sorted({p for p in parts if sum(p) == k}, reverse=True)


def _with_parts(state, node, parts, sign):
    """state with the parts inserted at (sign +1) or removed from (sign -1) `node`."""
    kept = Counter(state[node])
    kept.update({m: sign * c for m, c in Counter(parts).items()})
    return state[:node] + (tuple(sorted(kept.elements(), reverse=True)),) + state[node + 1 :]


@pytest.mark.parametrize("cartan", [A2, A3, D4], ids=["A2", "A3", "D4"])
def test_leg_maps_and_weights_match_tuple_enumeration(cartan):
    """Insertion and removal maps, with their weights, against brute force over tuples, degrees <= 6."""
    r, top = cartan.rank, 6
    graded = [mu for k in range(1, top + 1) for mu in _partitions_of(k)]
    # a state's row in the degrees 0, 1, ... stacked
    row = {
        s: sector_dimension(r, d - 1) + k
        for d in range(top + 1)
        for k, s in enumerate(states_of_degree(r, d))
    }
    for node, d in itertools.product(range(r), range(top + 1)):
        states = states_of_degree(r, d)
        # creators: row mu holds the target of every state of degree d
        fits = [mu for mu in graded if sum(mu) <= top - d]
        if fits:
            ent = fock._leg_map(r, node, d, 1, top - d)[: len(fits)]
            assert ent.tolist() == [[row[_with_parts(s, node, mu, 1)] for s in states] for mu in fits]
        # annihilators: (source, nu, C(n, nu) nu!, target) for every nonempty sub-multiset nu
        want = []
        for k, s in enumerate(states):
            n = Counter(s[node])
            for pick in itertools.product(*(range(c + 1) for c in n.values())):
                nu = tuple(sorted(Counter(dict(zip(n, pick))).elements(), reverse=True))
                mult = math.prod(math.comb(n[m], c) * math.factorial(c) for m, c in zip(n, pick))
                if nu:
                    want.append((k, graded.index(nu), mult, row[_with_parts(s, node, nu, -1)]))
        if d:
            assert sorted(map(tuple, fock._leg_map(r, node, d, -1, d).tolist())) == sorted(want)
    # weights v^nu / nu!: v(m) = kappa(-m) for creators, kappa(m) b(A_ij, m) for annihilators
    fs = FockSpace(cartan, PR)
    for kind, node in itertools.product(["E", "F", "H+"], range(r)):
        ((_, _, members),) = fs._merged_legs([(current_spec(kind, node, r, PR), 0)])

        def kappa(m):
            return sum(osc_coeff(cls, PR, m) * shift ** (-m) for cls, shift in members)

        def weights(v):
            return [
                math.prod(v(m) ** mu.count(m) / math.factorial(mu.count(m)) for m in set(mu))
                for mu in graded
            ]

        ((j, w),) = fs._weights(node, members, 1, top)
        assert j == node
        np.testing.assert_allclose(w, weights(lambda m: kappa(-m)), rtol=1e-13)
        got = fs._weights(node, members, -1, top)
        assert [j for j, _ in got] == [j for j in range(r) if cartan[node, j]]
        for j, w in got:
            want = weights(lambda m: kappa(m) * mode_bracket(int(cartan[node, j]), PR, m))
            np.testing.assert_allclose(w, want, rtol=1e-13)


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
        # every annihilation coefficient beta^nu / nu! scaled by 1 + 1e-6
        weights = FockSpace._weights

        def scaled(self, node, members, sign, reach):
            out = weights(self, node, members, sign, reach)
            return [(j, w * (1 + 1e-6)) for j, w in out] if sign < 0 else out

        monkeypatch.setattr(FockSpace, "_weights", scaled)
        assert _same_node_residual(cartan) > self.TOL_FOCK

    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_scaled_single_part_creation_fails(self, cartan, monkeypatch):
        # the creation weight c_mu of mu = (1,), first in graded order, scaled by 1 + 1e-6
        weights = FockSpace._weights

        def scaled(self, node, members, sign, reach):
            out = weights(self, node, members, sign, reach)
            if sign > 0:
                ((j, w),) = out
                out = [(j, np.concatenate([w[:1] * (1 + 1e-6), w[1:]]))]
            return out

        monkeypatch.setattr(FockSpace, "_weights", scaled)
        assert _same_node_residual(cartan) > self.TOL_FOCK

    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_one_hplus_entry_fails(self, cartan, monkeypatch):
        # the edit is made on the H+_0 modes the check reads (reach 2W + 2)
        # as sector_modes returns them: the largest entry of H+[-2], the
        # mode of the rows m + n = 0
        sector_modes = FockSpace.sector_modes
        edited = []

        def one_entry_scaled(self, spec, lam, src, tgt_cap):
            out = sector_modes(self, spec, lam, src, tgt_cap)
            if (spec.kind, spec.node) == ("H+", 0):
                blocks = [b for _, b in out[2][-2].values()]
                block = max(blocks, key=lambda b: np.max(np.abs(b)))
                block[np.unravel_index(np.argmax(np.abs(block)), block.shape)] *= 1 + 1e-6
                edited.append((lam, set(src), tgt_cap))
            return out

        monkeypatch.setattr(FockSpace, "sector_modes", one_entry_scaled)
        assert _same_node_residual(cartan) > self.TOL_FOCK
        assert {(lam, tgt_cap) for lam, _, tgt_cap in edited} == {((0,) * cartan.rank, 3 + 8)}
        assert set().union(*(degrees for _, degrees, _ in edited)) == {0, 1, 2, 3}

    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_dropped_f_column_group_fails(self, cartan, monkeypatch):
        # F[0]'s columns from source degree 0 never reach the stack that E acts on
        r = cartan.rank
        sector_modes = FockSpace.sector_modes

        def without_f0_on_vacuum(self, spec, lam, src, tgt_cap):
            tgt, off, modes = sector_modes(self, spec, lam, src, tgt_cap)
            if spec.kind == "F" and lam == (0,) * r:  # F first, not F on E's outputs
                modes = {**modes, 0: {g: b for g, b in modes[0].items() if g != 0}}
            return tgt, off, modes

        monkeypatch.setattr(FockSpace, "sector_modes", without_f0_on_vacuum)
        assert _same_node_residual(cartan) > self.TOL_FOCK

    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_selector_slice_shifted_by_one_column_fails(self, cartan, monkeypatch):
        # the first (n, g) group with a neighbour in its stack reads one column off
        stack_outputs = fock._stack_outputs
        shifted = []

        def one_slice_shifted(modes, window):
            cols, selectors = stack_outputs(modes, window)
            for n, by_degree in selectors.items():
                for g, (t, s) in by_degree.items():
                    step = -1 if s.start else 1
                    if s.stop + step <= cols[t].shape[1]:
                        by_degree[g] = (t, slice(s.start + step, s.stop + step))
                        shifted.append((n, g))
                        return cols, selectors
            return cols, selectors

        monkeypatch.setattr(fock, "_stack_outputs", one_slice_shifted)
        assert _same_node_residual(cartan) > self.TOL_FOCK
        assert shifted

    @pytest.mark.parametrize("kind", ["H+", "H-"])
    @pytest.mark.parametrize("cartan", MUTANT_ALGEBRAS, ids=["A2", "A3"])
    def test_relabelled_h_block_target_raises(self, cartan, kind, monkeypatch):
        # one block of H[-2] (the rows m + n = 0) claims the next target degree
        sector_modes = FockSpace.sector_modes

        def relabelled(self, spec, lam, src, tgt_cap):
            tgt, off, modes = sector_modes(self, spec, lam, src, tgt_cap)
            if (spec.kind, spec.node) == (kind, 0):
                g = min(modes[-2])
                t, block = modes[-2][g]
                modes = {**modes, -2: {**modes[-2], g: (t + 1, block)}}
            return tgt, off, modes

        monkeypatch.setattr(FockSpace, "sector_modes", relabelled)
        with pytest.raises(ValueError, match="degree-incompatible"):
            _same_node_residual(cartan)
