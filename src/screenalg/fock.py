"""Truncated Fock space of the level-1 representation: graded mode blocks.

Basis states are momentum vectors lam (root-lattice coordinates) dressed
with one partition per node, ``prod_k a_i[-m_k] |lam>``, ordered by degree.
Operators act on degree blocks of source columns and come from commutators
alone, so no inner-product convention enters.  Creators on a node commute,
so exp(sum_m kappa(-m) a_i[-m]) inserts each partition mu at node i with
weight prod_m kappa(-m)^{k_m} / k_m!, the power-sum expansion of a
plethystic exponential (Macdonald, Symmetric Functions, ch. I 2).  a_i[m]
is b(A_ij, m) d/da_j[-m] on each neighbour j, so the annihilators'
exponential is a translation: it removes nu at j with weight
prod_m C(n_m, nu_m) (kappa(m) b(A_ij, m))^{nu_m}.  Both act on a source
degree through one precomputed index map (_leg_map) composed of raise maps.

a_i[0] acts on |lam> with eigenvalue beta * (A lam)_i, so E/F/H modes carry
integer indices within a sector.  X[n] is the coefficient of z^{-n} in X(z);
the zero modes contribute z^{off}, off = (A lam)_i times the summed charges
+-1 of X's E/F constituents, so X[n] maps degree g to the single degree
g - n - off.  Complete-mode contract: a current applied to columns of source
degrees up to src_cap, with target cap tgt_cap, returns a mode iff its
degree shift is at most tgt_cap - src_cap, and then with its exact block for
every source degree given; no returned mode is truncated.

The commutator check applies E to F's stacked output columns and F to E's,
over chunks of the identity columns of degrees 0..cap, and reads E[m] F[n]
back off as a column slice of the result, a view.  Columns never mix, so
each row's largest difference and scale are maxima over the chunks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import CartanMatrix, DeformationParams
from .currents import CurrentSpec, current_spec, zero_modes
from .heisenberg import ModeBracketTable, osc_coeff

State = tuple[tuple[int, ...], ...]  # one descending partition per node
Blocks = dict[int, tuple[int, np.ndarray]]  # src_deg -> (tgt_deg, matrix)


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def states_of_degree(rank: int, degree: int) -> tuple[State, ...]:
    """All rank-tuples of partitions with total weight `degree`, ordered."""
    if rank == 1:
        return tuple((p,) for p in _partitions(degree, degree))
    out = []
    for d0 in range(degree, -1, -1):
        for p0 in _partitions(d0, d0):
            for rest in states_of_degree(rank - 1, degree - d0):
                out.append((p0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _state_index(rank: int, degree: int) -> dict[State, int]:
    return {s: k for k, s in enumerate(states_of_degree(rank, degree))}


@lru_cache(maxsize=None)
def _raise_map(rank: int, node: int, m: int, degree: int) -> np.ndarray:
    """a_node[-m] as an index map: position at `degree` -> position at `degree + m`."""
    index = _state_index(rank, degree + m)
    return np.array(
        [
            index[s[:node] + (tuple(sorted(s[node] + (m,), reverse=True)),) + s[node + 1 :]]
            for s in states_of_degree(rank, degree)
        ],
        dtype=np.intp,
    )


@lru_cache(maxsize=None)
def sector_dimension(rank: int, cap: int) -> int:
    return sum(len(states_of_degree(rank, d)) for d in range(cap + 1))


@lru_cache(maxsize=None)
def _counts(rank: int, node: int, m: int, degree: int) -> np.ndarray:
    """How often the part m occurs at `node` in each state of `degree`."""
    out = np.zeros(len(states_of_degree(rank, degree)), dtype=np.int8)
    if degree >= m:
        out[_raise_map(rank, node, m, degree - m)] = _counts(rank, node, m, degree - m) + 1
    return out


def _insertions(rank: int, node: int, degree: int, counted: bool):
    """Yield for k = 1, 2, ... (t, c), one row per partition mu of k in _partitions order.

    Inserting mu at `node` takes state s of `degree` to t[mu, s].  If counted,
    c[mu, s] = prod_m (n_m + mu_m)! / n_m!, n_m the count of the part m in s.
    Each mu extends mu[:-1] by one raise map.
    """
    n = len(states_of_degree(rank, degree))
    done = {(): (np.arange(n), np.ones(n, dtype=int))}
    for k in itertools.count(1):
        for mu in _partitions(k, k):
            m, (t, c) = mu[-1], done[mu[:-1]]
            c = c * (_counts(rank, node, m, degree) + mu.count(m)) if counted else c
            done[mu] = _raise_map(rank, node, m, degree + k - m)[t], c
        yield [np.array(x) for x in zip(*(done[mu] for mu in _partitions(k, k)))]


@lru_cache(maxsize=None)
def _partition_table(reach: int):
    """Part counts of the partitions of 1..reach in graded order, and 1 / their factorials' product."""
    ms = range(1, reach + 1)
    counts = np.array([[mu.count(m) for m in ms] for k in ms for mu in _partitions(k, k)], dtype=np.int8)
    return counts, 1 / np.prod(np.cumprod([1.0, *ms])[counts], axis=1)


_LEG_MAPS: dict = {}  # (rank, node, degree, sign) -> (reach, map), at the largest reach asked for


def _leg_map(rank: int, node: int, degree: int, sign: int, reach: int) -> np.ndarray:
    """exp - 1 of the creators (sign +1) or annihilators (-1) at `node` on `degree`.

    Targets are rows of the degrees 0, 1, ... stacked.  Creators insert each
    partition mu of 1..reach in graded order: row mu holds every state's
    target, so a smaller reach reads the first rows.  A row (s, nu, c, t) of
    annihilators adds c w[nu] x[s] to t, c = prod_m (n_m + nu_m)! / n_m! from
    t's counts: removing nu from s leaves t exactly when inserting nu into t
    gives s, so the rows are insertions into degree - k read backwards.
    """
    key = (rank, node, degree, sign)
    if _LEG_MAPS.get(key, (0,))[0] < reach:
        cols, first, ins = [], 0, _insertions(rank, node, degree, False)
        for k in range(1, reach + 1):
            r = sector_dimension(rank, degree + sign * k - 1)
            if sign > 0:
                cols.append((next(ins)[0] + r).astype(np.int32))
            else:
                t, c = next(itertools.islice(_insertions(rank, node, degree - k, True), k - 1, None))
                nu, s = np.indices(t.shape)
                cols.append(np.stack([t, nu + first, c, s + r], axis=-1).reshape(-1, 4))
                first += len(t)
        _LEG_MAPS[key] = reach, np.concatenate(cols)
    return _LEG_MAPS[key][1]


# ---------------------------------------------------------------------------
# degree-block operator algebra


def blocks_compose(outer: Blocks, inner: Blocks) -> Blocks:
    """outer after inner; an inner column slice s reads outer's block as the view m2[:, s]."""
    out: Blocks = {}
    for src, (mid, m1) in inner.items():
        if mid in outer:
            tgt, m2 = outer[mid]
            out[src] = (tgt, m2[:, m1] if isinstance(m1, slice) else m2 @ m1)
    return out


def blocks_linear(parts: list[tuple[complex, Blocks]]) -> Blocks:
    """Linear combination; contributing blocks must agree on target degrees."""
    out: Blocks = {}
    for c, b in parts:
        for src, (tgt, m) in b.items():
            if src in out:
                tgt0, m0 = out[src]
                if tgt0 != tgt:
                    raise ValueError("degree-incompatible blocks in linear combination")
                m0 += c * m  # the first part's product is a fresh array
            else:
                out[src] = (tgt, c * m)
    return out


def _row_maxima(ef: Blocks, fe: Blocks, rhs: Blocks, err, scale):
    """err and scale raised to max |ef - fe - rhs| and to the largest |entry| of rhs.

    Each source degree's difference is formed once, in place after its first step, by
    blocks_linear([(1, ef), (-1, fe), (-1, rhs)])'s steps in order; a missing block is zero.
    The caller takes |ef| and |fe| at their largest off _column_maxima.
    """
    for g in ef.keys() | fe.keys() | rhs.keys():
        (t, x), (u, y), (v, r) = (b.get(g, (None, 0)) for b in (ef, fe, rhs))
        if len({t, u, v} - {None}) > 1:
            raise ValueError("degree-incompatible blocks in linear combination")
        d = x - y if g in fe else x - r if g in rhs else x
        if g in fe and g in rhs:
            d -= r
        err = max(err, float(np.abs(d).max()))
        if g in rhs:
            scale = max(scale, float(np.abs(r).max()))
    return err, scale


def _column_maxima(modes: dict[int, Blocks], window: int) -> dict:
    """{n: {g: the largest |entry| of each column of modes[n]'s block at g}} for |n| <= window."""
    return {
        n: {g: np.abs(b).max(axis=0) for g, (_, b) in modes[n].items()}
        for n in range(-window, window + 1) if n in modes
    }


def _selected_max(col_max: dict, selector: dict) -> float:
    """max |entry| of blocks_compose(modes[n], selector), read off _column_maxima(modes)[n]."""
    return max((float(col_max[t][s].max()) for t, s in selector.values() if t in col_max), default=0.0)


def _stack_outputs(modes: dict[int, Blocks], window: int):
    """Output columns of the modes |n| <= window, stacked per target degree.

    Returns (cols, selectors): cols[t] holds, mode by mode, every block that
    lands at degree t, and selectors[n][g] = (t, s) with s the column slice
    of modes[n]'s block at source degree g in cols[t].  So for Y acting on
    cols, blocks_compose(Y, selectors[n]) is Y modes[n], as views of Y's blocks.
    """
    stacks, selectors = {}, {}
    for n in range(-window, window + 1):
        for g, (t, block) in modes.get(n, {}).items():
            col = sum(b.shape[1] for b in stacks.setdefault(t, []))
            selectors.setdefault(n, {})[g] = (t, slice(col, col + block.shape[1]))
            stacks[t].append(block)
    return {t: np.hstack(stacks[t]) for t in sorted(stacks)}, selectors


def _column_chunks(rank: int, cap: int, width: int):
    """The identity columns of degrees 0..cap in graded order, `width` at a time.

    Each chunk maps source degrees to blocks of their identity's columns, so
    one chunk may span several degrees.
    """
    cols = [(d, k) for d in range(cap + 1) for k in range(len(states_of_degree(rank, d)))]
    for a in range(0, len(cols), width):
        yield {
            d: np.eye(len(states_of_degree(rank, d)))[:, [k for _, k in group]]
            for d, group in itertools.groupby(cols[a : a + width], key=lambda c: c[0])
        }


# Commutator rows below SCALE_FLOOR times the largest scale in their sector
# hold rounding noise only (on A1/A2, caps <= 3: noise near 1e-17 of the
# maximum, all other rows above 1e-4), so they are divided by the floor.
SCALE_FLOOR = 1e-6

# The commutator check applies the currents to at most this many bytes of
# columns at its largest target degree, cap + 2W + 2, at a time.
CHUNK_BYTES = 32 << 20


class FockSpace:
    """Sector-wise current application for one algebra and parameter set."""

    def __init__(self, cartan: CartanMatrix, params: DeformationParams):
        self.cartan = cartan
        self.params = params
        self.rank = cartan.rank
        self.table = ModeBracketTable(cartan, params)
        self._weight_memo: dict = {}  # (node, members, sign) -> (reach, _weights), at the largest reach

    def _merged_legs(self, specs_vars) -> list[tuple[int, int, tuple]]:
        """Oscillator legs (node, var, constituents): coefficients of a_node[m] add per (node, var)."""
        groups: dict = {}
        for spec, var in specs_vars:
            groups.setdefault((spec.node, var), []).extend((k, complex(z)) for k, z in spec.constituents)
        return [(node, var, tuple(members)) for (node, var), members in groups.items()]

    def _zero_mode(self, spec: CurrentSpec, lam) -> tuple[complex, int, int]:
        """Scalar factor, z-power and lattice charge of the zero modes on sector lam.

        E and F carry e^{+-Q_i} (const z)^{+-P_i}: the momentum power equals
        the lattice charge, and P_i acts on lam as (A lam)_i.
        """
        alam = int(self.cartan.pairing(lam)[spec.node])
        scalar, offset, total = 1.0 + 0.0j, 0, 0
        for kind, shift in spec.constituents:
            if kind not in ("E", "F"):
                raise ValueError(
                    f"{spec.kind} has non-integer momentum exponents; "
                    "the Fock route supports E, F and H currents only"
                )
            charge, _, const = zero_modes(kind, self.params)
            scalar *= (shift * const) ** (charge * alam)
            offset += charge * alam
            total += charge
        return scalar, offset, total

    def _weights(self, node: int, members, sign: int, reach: int):
        """[(j, w)]: exp(sum_m kappa(-sign m) a_node[-sign m]) as weights w[nu] = v^nu / nu!.

        nu runs over the partitions of 1..reach in graded order, and kappa(m)
        sums the members' coefficients of a[m].  Creators insert nu at
        j = node, with v(m) = kappa(-m); annihilators remove nu at each
        neighbour j, with v(m) = kappa(m) b(A_node,j, m).  The weights are
        kept at the largest reach asked for; a smaller reach reads a prefix.
        """
        key = (node, members, sign)
        if self._weight_memo.get(key, (0,))[0] < reach:
            ms = np.arange(1, reach + 1)
            kappa = sum(osc_coeff(k, self.params, -sign * ms) * z ** (sign * ms) for k, z in members)
            vs = {node: kappa} if sign > 0 else {
                j: kappa * [self.table.value(int(a), m) for m in ms]
                for j, a in enumerate(self.cartan.entries[node])
                if a
            }
            counts, inv_fact = _partition_table(reach)
            self._weight_memo[key] = reach, [(j, np.prod(v**counts, axis=1) * inv_fact) for j, v in vs.items()]
        return self._weight_memo[key][1]

    def _leg(self, terms: dict, node: int, members, sign: int, tops, shift_z: bool) -> dict:
        """exp(sum_m kappa(-sign m) a_node[-sign m]) on terms {(z-power, degree): columns}.

        Targets run from each source degree to tops[0]: creation stops there,
        annihilation at 0.  Maps are built out to tops[1] for later calls to
        read a prefix.  Terms whose outputs share z-powers add into one stack
        of target rows, each term through one gather, one product with the
        weights and one unbuffered add (np.add.at) on the float view.
        """
        reach = max([1] + [sign * (tops[0] - d) for _, d in terms])
        for j, w in self._weights(node, members, sign, reach):
            stacks: dict = {}
            for (zd, d), y in terms.items():
                if sign * (tops[0] - d) >= 0:  # a source past the target cap reaches no block
                    stacks.setdefault(zd - d if shift_z else zd, {})[d] = y
            terms = {}
            for z, ys in stacks.items():
                lo, hi = min(tops[0], *ys), max(tops[0], *ys)
                rows = [sector_dimension(self.rank, t - 1) for t in range(hi + 2)]
                # every term has the source's columns
                block = np.zeros((rows[-1], y.shape[1]), dtype=complex)
                for d, y in ys.items():
                    block[rows[d] : rows[d + 1]] += y
                    reach, n = sign * (tops[0] - d), 2 * y.shape[1]
                    if reach:
                        ent = _leg_map(self.rank, j, d, sign, sign * (tops[1] - d))
                        p = len(_partition_table(reach)[1])
                        src, nu, c, tgt = ent.T if sign < 0 else (..., np.arange(p)[:, None], 1, ent[:p])
                        vals = np.ascontiguousarray((w[nu] * c)[..., None] * y[src]).view(float)
                        # the float view's flat index; int32 targets times n may wrap
                        idx = (tgt.astype(np.intp)[..., None] * n + np.arange(n)).ravel()
                        np.add.at(block.view(float).ravel(), idx, vals.ravel())
                for t in range(lo, hi + 1):
                    terms[z + t if shift_z else z, t] = block[rows[t] : rows[t + 1]]
        return terms

    def _apply(self, specs_vars, lam, src, tgt_cap: int, x_modes=None):
        """Normal-ordered product of one or two currents (variables z, w) on sector lam.

        Returns (target_sector, offsets, modes), modes mapping a tuple of mode
        indices, one per variable, to the Blocks of a complete mode.  ``src``
        maps source degrees to the columns the product acts on, or is a
        source cap, meaning every degree's identity up to it, so that each
        block is the mode's matrix.  Each source degree g is applied on its
        own, with terms keyed by (z-power, degree); for a pair the w-power
        is read off at the end as target - g - z-power.  Creation stops at
        degree g + tgt_cap - max(src): no returned block reaches past it.
        """
        lam = tuple(int(x) for x in lam)
        n_vars = 1 + max(var for _, var in specs_vars)
        scalar = 1.0 + 0.0j
        off = [0] * n_vars
        tgt = list(lam)
        for spec, var in specs_vars:
            s, o, charge = self._zero_mode(spec, lam)
            scalar *= s
            off[var] += o
            tgt[spec.node] += charge
        if not isinstance(src, dict):
            src = {d: np.eye(len(states_of_degree(self.rank, d))) for d in range(src + 1)}
        span = tgt_cap - max(src, default=0)
        legs = self._merged_legs(specs_vars)
        modes: dict = {}  # mode indices -> Blocks
        for g, x in src.items():
            terms = {(0, g): scalar * x}
            for sign, tops in ((-1, (0, 0)), (1, (g + span, tgt_cap))):  # annihilators act first
                for node, var, members in legs:
                    terms = self._leg(terms, node, members, sign, tops, var < n_vars - 1)
                    if x_modes is not None and sign > 0 and var == 0:  # z's power is final:
                        # w's creators run only on the z-modes in x_modes
                        terms = {k: y for k, y in terms.items() if -(k[0] + off[0]) in x_modes}
            for (zd, t), block in terms.items():
                if block.any():
                    powers = (zd, t - g - zd)[2 - n_vars :]  # (z, w) or (z,)
                    key = tuple(-(e + o) for e, o in zip(powers, off))
                    modes.setdefault(key, {})[g] = (t, block)
        return tuple(tgt), tuple(off), modes

    def sector_modes(self, spec: CurrentSpec, lam, src, tgt_cap: int):
        """(target_sector, offset, dict[n] -> Blocks) for one current; ``src`` as for _apply."""
        tgt, offs, modes = self._apply([(spec, 0)], lam, src, tgt_cap)
        return tgt, offs[0], {nz: blocks for (nz,), blocks in modes.items()}

    def pair_modes(self, spec_x: CurrentSpec, spec_y: CurrentSpec, lam, src, x_modes, tgt_cap: int):
        """(target_sector, offsets, dict[(m, n)] -> Blocks) for :X(z) Y(w):, m in x_modes if given."""
        return self._apply([(spec_x, 0), (spec_y, 1)], lam, src, tgt_cap, x_modes)

    # -- public operations -------------------------------------------------------

    def commutator_check(
        self, spec_a: CurrentSpec, spec_b: CurrentSpec, sectors, cap: int, window: int
    ) -> "CommutatorReport":
        """Entry-wise residuals of the E/F commutation relation on mode blocks.

        i = j: [E[m], F[n]] is compared against
        (q^{(m-n)/2} Hp[m+n-2] - (q/p)^{(m-n)/2} Hm[m+n-2]) / (p - 1).
        A_ij = -1: compared against the finite regular part
        2((p/q)^{1/2} B[m+1, n] - q^{1/2} B[m, n+1]) with B the bilocal
        :E F: modes.  A_ij = 0: the commutator must vanish identically.
        """
        if spec_a.kind != "E" or spec_b.kind != "F":
            raise ValueError("commutator_check is defined for the (E, F) pair only")
        i, j = spec_a.node, spec_b.node
        params = self.params
        qh, pqh = params.q_half, params.pq_half
        hp, hm = (current_spec(kind, i, self.rank, params) for kind in ("H+", "H-"))
        width = max(CHUNK_BYTES // (16 * len(states_of_degree(self.rank, cap + 2 * window + 2))), 1)

        def complete(spec, sector, src, reach):
            """X[n], n >= -reach, on the columns src, as sector_modes: maps degree g to g - n - off."""
            tgt_cap = max(max(src, default=0) + reach - self._zero_mode(spec, sector)[1], 0)
            return self.sector_modes(spec, sector, src, tgt_cap)

        rows, vacuous = [], 0
        for lam in sectors:
            lam = tuple(int(x) for x in lam)
            # each (m, n) row's largest |diff| and scale over the columns:
            # a max over column chunks is the max over the sector's columns
            worst = dict.fromkeys(itertools.product(range(-window, window + 1), repeat=2), (0.0, 0.0))
            for chunk in _column_chunks(self.rank, cap, width):
                # E acts on F's output columns and F on E's, never on the whole middle sector
                lam_e, _, f_modes = complete(spec_b, lam, chunk, window)
                lam_f, _, e_modes = complete(spec_a, lam, chunk, window)
                f_cols, f_sel = _stack_outputs(f_modes, window)
                e_cols, e_sel = _stack_outputs(e_modes, window)
                e_on_f = complete(spec_a, lam_e, f_cols, window)[2]
                f_on_e = complete(spec_b, lam_f, e_cols, window)[2]
                # each column's largest |entry|, once per chunk: a row's |E[m] F[n]| and
                # |F[n] E[m]| maxima are maxima over its selectors' slices of these
                e_max, f_max = _column_maxima(e_on_f, window), _column_maxima(f_on_e, window)
                b_modes = {}  # no :E F: term at A_ij = 0
                if i == j:  # H[m + n - 2] reaches mode -2W - 2
                    hp_modes, hm_modes = (complete(h, lam, chunk, 2 * window + 2)[2] for h in (hp, hm))
                elif self.cartan[i, j] == -1:  # B[m', n'] reaches m' + n' = 1 - 2W
                    offs = self._zero_mode(spec_a, lam)[1] + self._zero_mode(spec_b, lam)[1]
                    tgt_cap = max(max(chunk) + 2 * window - 1 - offs, 0)
                    x_modes = range(-window, window + 2)  # the rows read B[m', n'] for these m' only
                    b_modes = self.pair_modes(spec_a, spec_b, lam, chunk, x_modes, tgt_cap)[2]
                for m, n in worst:
                    ef = blocks_compose(e_on_f.get(m, {}), f_sel.get(n, {}))
                    fe = blocks_compose(f_on_e.get(n, {}), e_sel.get(m, {}))
                    if i == j:
                        w_p = qh ** (m - n) / (params.p - 1)
                        w_m = -((1 / pqh) ** (m - n)) / (params.p - 1)
                        h = m + n - 2
                        parts = [(w_p, hp_modes.get(h, {})), (w_m, hm_modes.get(h, {}))]
                    else:
                        b1, b2 = b_modes.get((m + 1, n), {}), b_modes.get((m, n + 1), {})
                        parts = [(2 * pqh, b1), (-2 * qh, b2)]
                    err, scale = worst[m, n]
                    scale = max(scale, _selected_max(e_max.get(m, {}), f_sel.get(n, {})),
                                _selected_max(f_max.get(n, {}), e_sel.get(m, {})))
                    worst[m, n] = _row_maxima(ef, fe, blocks_linear(parts), err, scale)
            # rounding noise scales with the largest entries of the sector's
            # check; a row whose own scale is below that floor compares nothing
            floor = SCALE_FLOOR * max(scale for _, scale in worst.values())
            for mn, (err, scale) in worst.items():
                vacuous += scale <= floor
                rows.append(((lam, *mn), err / max(scale, floor) if err else 0.0, scale))
        return CommutatorReport(rows, max((r for _, r, _ in rows), default=0.0), vacuous)


@dataclass
class CommutatorReport:
    residuals: list  # ((sector, m, n), residual, scale), one per row
    max_residual: float
    vacuous: int  # rows at or below the noise floor, where nothing is compared
