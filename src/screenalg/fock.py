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
g - n - off.  Complete-mode contract: with caps (src_cap, tgt_cap) a mode is
returned iff its degree shift is at most tgt_cap - src_cap, and then with its
exact block for every source degree up to src_cap; no returned mode is
truncated.

Composed products are built by application on output columns.  The
commutator check stacks the blocks of F's window modes per target degree
and applies E to those columns alone, and F to E's the same way; 0/1
column selectors then read E[m] F[n] off through blocks_compose.  The
second current never acts on the whole middle sector, and its modes are
not cached.
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


def _accumulate(store: dict, key, col: int, x: np.ndarray) -> None:
    """store[key] += x over source columns col..; values are (col, matrix, owned).

    A first piece is stored as given, since its recursion may still read it,
    and is copied into a fresh sum only when a second piece arrives.
    """
    if key not in store:
        store[key] = (col, x, False)
        return
    c0, y, owned = store[key]
    lo, hi = min(c0, col), max(c0 + y.shape[1], col + x.shape[1])
    if not owned or (lo, hi) != (c0, c0 + y.shape[1]):
        wider = np.zeros((y.shape[0], hi - lo), dtype=complex)
        wider[:, c0 - lo : c0 - lo + y.shape[1]] = y
        c0, y = lo, wider
    y[:, col - c0 : col - c0 + x.shape[1]] += x
    store[key] = (c0, y, True)


# Commutator rows below SCALE_FLOOR times the largest scale in their sector
# hold rounding noise only (on A1/A2, caps <= 3: noise near 1e-17 of the
# maximum, all other rows above 1e-4), so they are divided by the floor.
SCALE_FLOOR = 1e-6


class FockSpace:
    """Sector-wise current application for one algebra and parameter set."""

    def __init__(self, cartan: CartanMatrix, params: DeformationParams):
        self.cartan = cartan
        self.params = params
        self.rank = cartan.rank
        self.table = ModeBracketTable(cartan, params)
        self._modes_cache: dict = {}
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

    def _exp_parts(self, node: int, kappa, sign: int, degree: int, col0: int, x, first_col):
        """(k, col, h_k): degree-k parts of exp(sum_{m>0} kappa(-sign m) a_node[-sign m]) x.

        sign +1 takes the creators a[-m], sign -1 the annihilators a[m]; x
        holds source columns col0.. at `degree` and h_k sits at degree + sign k.
        Creation drops the columns before first_col(degree + k): no returned
        block reads them.
        """
        parts = []
        for k in itertools.count():
            t = degree + sign * k
            col = col0 if first_col is None else max(col0, first_col(t))
            if t < 0 or col >= col0 + x.shape[1]:
                return
            h = x[:, col - col0 :]
            if k:
                h = np.zeros((len(states_of_degree(self.rank, t)), h.shape[1]), dtype=complex)
                for m in range(1, k + 1):
                    c_prev, prev = parts[k - m]
                    coeff = m * kappa(-sign * m) / k
                    if sign < 0:
                        self._lower_into(h, coeff, node, m, prev[:, col - c_prev :], t + m)
                    else:
                        h[_raise_map(self.rank, node, m, t - m)] += coeff * prev[:, col - c_prev :]
            parts.append((col, h))
            yield k, col, h

    def _apply(self, specs_vars, lam, src_cap: int, tgt_cap: int, cols=None):
        """Normal-ordered product of one or two currents (variables z, w) on sector lam.

        Returns (target_sector, offsets, modes), modes mapping a tuple of mode
        indices, one per variable, to the Blocks of a complete mode.  Terms
        are keyed by (z-power, degree) over source columns; for a pair the
        w-power is read off at the end as target - source degree - z-power.
        ``cols`` maps source degrees up to src_cap to the columns the product
        acts on; by default every degree's identity, so that each block is
        the mode's matrix.
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
        if cols is None:
            cols = {d: np.eye(len(states_of_degree(self.rank, d))) for d in range(src_cap + 1)}
        widths = (cols[d].shape[1] if d in cols else 0 for d in range(src_cap + 1))
        starts = list(itertools.accumulate(widths, initial=0))
        span = tgt_cap - src_cap

        def first_col(t: int) -> int:  # blocks reaching degree t start at source degree t - span
            return starts[min(max(t - span, 0), src_cap + 1)]

        # all source degrees at once, as the columns of one graded matrix
        terms = {(0, d): (starts[d], scalar * x, False) for d, x in cols.items()}
        legs = self._merged_legs(specs_vars)
        for sign in (-1, 1):  # annihilators act first, then creators
            trim = first_col if sign > 0 else None
            for node, var, kappa in legs:
                out: dict = {}
                for (zd, d), (col0, x, _) in terms.items():
                    for k, col, h in self._exp_parts(node, kappa, sign, d, col0, x, trim):
                        key = (zd + sign * k if var < n_vars - 1 else zd, d + sign * k)
                        _accumulate(out, key, col, h)
                terms = out
        modes: dict[tuple[int, ...], Blocks] = {}
        for (zd, t), (col, x, _) in terms.items():
            for g in range(starts.index(col), src_cap + 1):
                block = x[:, starts[g] - col : starts[g + 1] - col]
                if block.size and block.any():
                    powers = (zd, t - g - zd)[2 - n_vars :]  # (z, w) or (z,)
                    key = tuple(-(e + o) for e, o in zip(powers, off))
                    modes.setdefault(key, {})[g] = (t, block)
        return tuple(tgt), tuple(off), modes

    def sector_modes(self, spec: CurrentSpec, lam, src_cap: int, tgt_cap: int):
        """(target_sector, offset, dict[n] -> Blocks) for one current; cached."""
        key = (spec.kind, spec.node, tuple(int(x) for x in lam), src_cap, tgt_cap)
        if key not in self._modes_cache:
            tgt, offs, modes = self._apply([(spec, 0)], lam, src_cap, tgt_cap)
            self._modes_cache[key] = (tgt, offs[0], {nz: blocks for (nz,), blocks in modes.items()})
        return self._modes_cache[key]

    def pair_modes(self, spec_x: CurrentSpec, spec_y: CurrentSpec, lam, src_cap: int, tgt_cap: int):
        """(target_sector, offsets, dict[(m, n)] -> Blocks) for :X(z) Y(w):."""
        key = (
            "pair", spec_x.kind, spec_x.node, spec_y.kind, spec_y.node,
            tuple(int(x) for x in lam), src_cap, tgt_cap,
        )
        if key not in self._modes_cache:
            self._modes_cache[key] = self._apply(
                [(spec_x, 0), (spec_y, 1)], lam, src_cap, tgt_cap
            )
        return self._modes_cache[key]

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

        def complete(spec, sector, src_cap, reach):
            """(tgt_cap, modes): X[n], n >= -reach, maps g <= src_cap to g - n - off."""
            tgt_cap = max(src_cap + reach - self._zero_mode(spec, sector)[1], 0)
            return tgt_cap, self.sector_modes(spec, sector, src_cap, tgt_cap)[2]

        def applied(spec, sector, src_cap, inner):
            """X[m], |m| <= W, on the output columns of inner's window modes; uncached."""
            cols, selectors = _stack_outputs(inner, window)
            tgt_cap = max(src_cap + window - self._zero_mode(spec, sector)[1], 0)
            modes = self._apply([(spec, 0)], sector, src_cap, tgt_cap, cols)[2]
            return {m: modes.get((m,), {}) for m in range(-window, window + 1)}, selectors

        rows, vacuous = [], 0
        for lam in sectors:
            lam = tuple(int(x) for x in lam)
            lam_e = tuple(int(x) for x in np.asarray(lam) - alpha_j)  # E acts after F
            lam_f = tuple(int(x) for x in np.asarray(lam) + alpha_i)  # F acts after E
            top_f, f_modes = complete(spec_b, lam, cap, window)
            top_e, e_modes = complete(spec_a, lam, cap, window)
            e_on_f, f_sel = applied(spec_a, lam_e, top_f, f_modes)
            f_on_e, e_sel = applied(spec_b, lam_f, top_e, e_modes)
            if i == j:  # H[m + n - 2] reaches mode -2W - 2
                hp = current_spec("H+", i, self.rank, params)
                hm = current_spec("H-", i, self.rank, params)
                _, hp_modes = complete(hp, lam, cap, 2 * window + 2)
                _, hm_modes = complete(hm, lam, cap, 2 * window + 2)
            elif a_ij == -1:  # B[m', n'] reaches m' + n' = 1 - 2W
                offs = self._zero_mode(spec_a, lam)[1] + self._zero_mode(spec_b, lam)[1]
                tgt_cap = max(cap + 2 * window - 1 - offs, 0)
                _, _, b_modes = self.pair_modes(spec_a, spec_b, lam, cap, tgt_cap)
            sector_rows = []
            for m in range(-window, window + 1):
                for n in range(-window, window + 1):
                    ef = blocks_compose(e_on_f[m], f_sel.get(n, {}))
                    fe = blocks_compose(f_on_e[n], e_sel.get(m, {}))
                    if i == j:
                        w_p = qh ** (m - n) / (params.p - 1)
                        w_m = -((1 / pqh) ** (m - n)) / (params.p - 1)
                        h = m + n - 2
                        parts = [(w_p, hp_modes.get(h, {})), (w_m, hm_modes.get(h, {}))]
                    elif a_ij == -1:
                        b1, b2 = b_modes.get((m + 1, n), {}), b_modes.get((m, n + 1), {})
                        parts = [(2 * pqh, b1), (-2 * qh, b2)]
                    else:
                        parts = []
                    rhs = blocks_linear(parts)
                    diff = blocks_linear([(1.0, ef), (-1.0, fe), (-1.0, rhs)])
                    scale = max(blocks_max_abs(ef), blocks_max_abs(fe), blocks_max_abs(rhs))
                    sector_rows.append(((lam, m, n), blocks_max_abs(diff), scale))
            # rounding noise scales with the largest entries of the sector's
            # check; a row whose own scale is below that floor compares nothing
            floor = SCALE_FLOOR * max((s for *_, s in sector_rows), default=0.0)
            for where, err, scale in sector_rows:
                vacuous += scale <= floor
                rows.append((where, err / max(scale, floor) if err else 0.0, scale))
        # H±_i's modes and the :E_i F_j: pair modes are read by this node pair
        # only; E and F modes stay cached for the other node pairs
        for key in [
            k for k in self._modes_cache
            if k[:2] in (("H+", i), ("H-", i)) or k[:5] == ("pair", "E", i, "F", j)
        ]:
            del self._modes_cache[key]
        max_res = max((r for _, r, _ in rows), default=0.0)
        return CommutatorReport(
            node_i=i,
            node_j=j,
            cartan_entry=a_ij,
            cap=cap,
            window=window,
            residuals=rows,
            max_residual=max_res,
            vacuous=vacuous,
        )


@dataclass
class CommutatorReport:
    node_i: int
    node_j: int
    cartan_entry: int
    cap: int
    window: int
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
