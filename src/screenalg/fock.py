"""Truncated Fock space of the level-1 representation: graded mode blocks.

Basis states are momentum vectors lam (root-lattice coordinates) dressed
with one partition per node, ``prod_k a_i[-m_k] |lam>``, ordered by degree.
Operators act on degree blocks of source columns and come from commutators
alone, so no inner-product convention enters: a_i[-m] is an injective index
map from degree d to d + m, and a_i[m] a gather through the neighbours'
maps weighted by multiplicity times the bracket b(A_ij, m).  Exponentials
are never formed as matrices; their homogeneous parts act on the columns
through the Newton recursion k h_k = sum_m m kappa(m) a[m] h_{k-m}.

a_i[0] acts on |lam> with eigenvalue beta * (A lam)_i, so E/F/H modes carry
integer indices within a sector.  X[n] is the coefficient of z^{-n} in X(z);
the zero modes contribute z^{off}, off = (A lam)_i times the summed charges
+-1 of X's E/F constituents, so X[n] maps degree g to the single degree
g - n - off.  Complete-mode contract: a current applied to columns of source
degrees up to src_cap, with target cap tgt_cap, returns a mode iff its
degree shift is at most tgt_cap - src_cap, and then with its exact block for
every source degree given; no returned mode is truncated.

Composed products are built by application on output columns.  The
commutator check takes the identity columns of degrees 0..cap in chunks of
bounded width, stacks the blocks of F's window modes per target degree and
applies E to those columns alone, and F to E's the same way; 0/1 column
selectors then read E[m] F[n] off through blocks_compose.  Columns never
mix, so each row's largest difference and scale are maxima over the chunks,
and nothing is cached between calls.
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


def sector_dimension(rank: int, cap: int) -> int:
    return sum(len(states_of_degree(rank, d)) for d in range(cap + 1))


# ---------------------------------------------------------------------------
# degree-block operator algebra


def blocks_compose(outer: Blocks, inner: Blocks) -> Blocks:
    out: Blocks = {}
    for src, (mid, m1) in inner.items():
        if mid in outer:
            tgt, m2 = outer[mid]
            out[src] = (tgt, m2 @ m1)
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
                out[src] = (tgt0, m0 + c * m)
            else:
                out[src] = (tgt, c * m)
    return out


def blocks_max_abs(b: Blocks) -> float:
    return max((float(np.max(np.abs(m))) for _, m in b.values()), default=0.0)


def _stack_outputs(modes: dict[int, Blocks], window: int):
    """Output columns of the modes |n| <= window, stacked per target degree.

    Returns (cols, selectors): cols[t] holds, mode by mode, every block that
    lands at degree t, and selectors[n][g] = (t, S) with S the 0/1 matrix
    that picks modes[n]'s block at source degree g out of cols[t].  So for
    Y acting on cols, blocks_compose(Y, selectors[n]) is Y modes[n].
    """
    groups: dict[int, list] = {}
    for n in range(-window, window + 1):
        for g, (t, block) in modes.get(n, {}).items():
            groups.setdefault(t, []).append((n, g, block))
    cols, selectors = {}, {}
    for t in sorted(groups):
        cols[t] = np.hstack([block for *_, block in groups[t]])
        pick, col = np.eye(cols[t].shape[1]), 0
        for n, g, block in groups[t]:
            selectors.setdefault(n, {})[g] = (t, pick[:, col : col + block.shape[1]])
            col += block.shape[1]
    return cols, selectors


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
        self._gathers: dict = {}  # (node, m, target degree) -> [(index map, weights)]

    def _merged_legs(self, specs_vars) -> list[tuple[int, int, object]]:
        """Oscillator legs merged per (node, var): coefficients of a_node[m] add."""
        groups: dict[tuple[int, int], list[tuple[str, complex]]] = {}
        for spec, var in specs_vars:
            for kind, shift in spec.constituents:
                groups.setdefault((spec.node, var), []).append((kind, complex(shift)))
        legs = []
        for (node, var), members in groups.items():
            legs.append((node, var, _merged_kappa(self.params, tuple(members))))
        return legs

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

    def _lower_into(self, out: np.ndarray, coeff: complex, node: int, m: int, x, degree: int):
        """out += coeff * a_node[m] x, for columns x at `degree` and m > 0."""
        key = (node, m, degree - m)
        if key not in self._gathers:
            states = states_of_degree(self.rank, degree - m)
            self._gathers[key] = [
                (
                    _raise_map(self.rank, j, m, degree - m),
                    self.table.value(int(a), m) * np.array([[s[j].count(m) + 1.0] for s in states]),
                )
                for j, a in enumerate(self.cartan.entries[node])
                if a
            ]
        for idx, w in self._gathers[key]:
            out += (coeff * w) * x[idx]

    def _exp_parts(self, node: int, kappa, sign: int, degree: int, x, top: int):
        """(k, h_k): degree-k parts of exp(sum_{m>0} kappa(-sign m) a_node[-sign m]) x.

        sign +1 takes the creators a[-m], sign -1 the annihilators a[m]; x
        holds columns at `degree`, and h_k sits at degree + sign k, from 0
        up to `top`.
        """
        parts = []
        for k in itertools.count():
            t = degree + sign * k
            if not 0 <= t <= top:
                return
            h = x
            if k:
                h = np.zeros((len(states_of_degree(self.rank, t)), x.shape[1]), dtype=complex)
                for m in range(1, k + 1):
                    coeff = m * kappa(-sign * m) / k
                    if sign < 0:
                        self._lower_into(h, coeff, node, m, parts[k - m], t + m)
                    else:
                        h[_raise_map(self.rank, node, m, t - m)] += coeff * parts[k - m]
            parts.append(h)
            yield k, h

    def _apply(self, specs_vars, lam, src, tgt_cap: int):
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
        modes: dict[tuple[int, ...], Blocks] = {}
        for g, x in src.items():
            terms = {(0, g): scalar * x}
            for sign, top in ((-1, g), (1, g + span)):  # annihilators act first, then creators
                for node, var, kappa in legs:
                    out: dict = {}
                    for (zd, d), y in terms.items():
                        for k, h in self._exp_parts(node, kappa, sign, d, y, top):
                            key = (zd + sign * k if var < n_vars - 1 else zd, d + sign * k)
                            out[key] = out[key] + h if key in out else h
                    terms = out
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

    def pair_modes(self, spec_x: CurrentSpec, spec_y: CurrentSpec, lam, src, tgt_cap: int):
        """(target_sector, offsets, dict[(m, n)] -> Blocks) for :X(z) Y(w):."""
        return self._apply([(spec_x, 0), (spec_y, 1)], lam, src, tgt_cap)

    # -- public operations -------------------------------------------------------

    def commutator_check(
        self,
        spec_a: CurrentSpec,
        spec_b: CurrentSpec,
        sectors,
        cap: int,
        window: int,
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
        params, cartan = self.params, self.cartan
        a_ij = cartan[i, j]
        alpha_i = np.eye(self.rank, dtype=int)[i]
        alpha_j = np.eye(self.rank, dtype=int)[j]
        qh, pqh = params.q_half, params.pq_half
        hp, hm = (current_spec(kind, i, self.rank, params) for kind in ("H+", "H-"))
        pairs = list(itertools.product(range(-window, window + 1), repeat=2))
        top_dim = len(states_of_degree(self.rank, cap + 2 * window + 2))
        width = max(CHUNK_BYTES // (16 * top_dim), 1)  # columns per chunk

        def complete(spec, sector, src, reach):
            """X[n], n >= -reach, on the columns src: maps degree g to g - n - off."""
            tgt_cap = max(max(src, default=0) + reach - self._zero_mode(spec, sector)[1], 0)
            return self.sector_modes(spec, sector, src, tgt_cap)[2]

        rows, vacuous = [], 0
        for lam in sectors:
            lam = tuple(int(x) for x in lam)
            lam_e = tuple(int(x) for x in np.asarray(lam) - alpha_j)  # E acts after F
            lam_f = tuple(int(x) for x in np.asarray(lam) + alpha_i)  # F acts after E
            # each (m, n) row's largest |diff| and scale over the columns:
            # a max over column chunks is the max over the sector's columns
            err, scale = dict.fromkeys(pairs, 0.0), dict.fromkeys(pairs, 0.0)
            for chunk in _column_chunks(self.rank, cap, width):
                # E acts on F's output columns and F on E's, never on the whole middle sector
                f_cols, f_sel = _stack_outputs(complete(spec_b, lam, chunk, window), window)
                e_cols, e_sel = _stack_outputs(complete(spec_a, lam, chunk, window), window)
                e_on_f = complete(spec_a, lam_e, f_cols, window)
                f_on_e = complete(spec_b, lam_f, e_cols, window)
                b_modes: dict = {}  # no :E F: term at A_ij = 0
                if i == j:  # H[m + n - 2] reaches mode -2W - 2
                    hp_modes = complete(hp, lam, chunk, 2 * window + 2)
                    hm_modes = complete(hm, lam, chunk, 2 * window + 2)
                elif a_ij == -1:  # B[m', n'] reaches m' + n' = 1 - 2W
                    offs = self._zero_mode(spec_a, lam)[1] + self._zero_mode(spec_b, lam)[1]
                    tgt_cap = max(max(chunk) + 2 * window - 1 - offs, 0)
                    b_modes = self.pair_modes(spec_a, spec_b, lam, chunk, tgt_cap)[2]
                for m, n in pairs:
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
                    rhs = blocks_linear(parts)
                    diff = blocks_linear([(1.0, ef), (-1.0, fe), (-1.0, rhs)])
                    err[m, n] = max(err[m, n], blocks_max_abs(diff))
                    scale[m, n] = max(scale[m, n], *(blocks_max_abs(b) for b in (ef, fe, rhs)))
            # rounding noise scales with the largest entries of the sector's
            # check; a row whose own scale is below that floor compares nothing
            floor = SCALE_FLOOR * max(scale.values())
            for m, n in pairs:
                vacuous += scale[m, n] <= floor
                res = err[m, n] / max(scale[m, n], floor) if err[m, n] else 0.0
                rows.append(((lam, m, n), res, scale[m, n]))
        max_res = max((r for _, r, _ in rows), default=0.0)
        return CommutatorReport(residuals=rows, max_residual=max_res, vacuous=vacuous)


@dataclass
class CommutatorReport:
    residuals: list  # ((sector, m, n), residual, scale), one per row
    max_residual: float
    vacuous: int  # rows at or below the noise floor, where nothing is compared


@lru_cache(maxsize=None)
def _merged_kappa(params: DeformationParams, members: tuple[tuple[str, complex], ...]):
    memo: dict[int, complex] = {}

    def kappa(m: int) -> complex:
        v = memo.get(m)
        if v is None:
            v = sum(osc_coeff(cls, params, m) * shift ** (-m) for cls, shift in members)
            memo[m] = v
        return v

    return kappa
