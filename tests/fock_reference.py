"""Per-basis-state reference engine for the Fock route, kept as a test oracle.

Each source basis state is expanded into a dict of terms keyed by
(oscillators, z-power, w-power): annihilators are pushed through the
creators one state at a time with the bracket table, then the creation
exponentials add every partition up to the target degree cap.  It is slow
but shares no block algebra with ``screenalg.fock``, so the graded-block
engine is compared against it entry by entry.  ``composed_commutator`` is
the commutator check by whole-sector mode blocks, the oracle for the check's
application to output columns.
"""

from __future__ import annotations

import math

import numpy as np

from screenalg import current_spec, osc_coeff
from screenalg.fock import (
    SCALE_FLOOR,
    FockSpace,
    _partitions,
    _state_index,
    blocks_compose,
    blocks_linear,
    states_of_degree,
)

State = tuple[tuple[int, ...], ...]  # one descending partition per node
Key = tuple[State, int, int]  # (oscillators, z-power, w-power)


def _annihilate(
    space: FockSpace, node: int, m: int, terms: dict[Key, complex]
) -> dict[Key, complex]:
    """One application of a_node[m] (m > 0), a derivation across nodes."""
    out: dict[Key, complex] = {}
    arow = space.cartan.entries[node]
    for (state, zd, wd), coeff in terms.items():
        for j in range(space.rank):
            if arow[j] == 0:
                continue
            mult = state[j].count(m)
            if mult == 0:
                continue
            b = space.table.value(int(arow[j]), m)
            lst = list(state[j])
            lst.remove(m)
            key = (state[:j] + (tuple(lst),) + state[j + 1 :], zd, wd)
            out[key] = out.get(key, 0.0 + 0.0j) + coeff * mult * b
    return out


def _apply_annihilation_exp(
    space: FockSpace, node: int, var: int, kappa, terms: dict[Key, complex]
) -> dict[Key, complex]:
    """exp(sum_{m>0} kappa(m) a_node[m] var^{-m}) applied to a term dict."""
    max_m = 0
    for state, _, _ in terms:
        for part in state:
            if part:
                max_m = max(max_m, part[0])
    total = dict(terms)
    for m in range(1, max_m + 1):
        km = kappa(m)
        level = total
        accum = dict(total)
        r = 1
        while level:
            raw = _annihilate(space, node, m, level)
            if not raw:
                break
            level = {}
            for (state, zd, wd), coeff in raw.items():
                key = (state, zd - m, wd) if var == 0 else (state, zd, wd - m)
                level[key] = level.get(key, 0.0 + 0.0j) + coeff * km / r
            for key, c in level.items():
                accum[key] = accum.get(key, 0.0 + 0.0j) + c
            r += 1
        total = accum
    return total


def _apply_creation_exp(
    node: int, var: int, kappa, terms: dict[Key, complex], cap: int
) -> dict[Key, complex]:
    """exp(sum_{m>0} kappa(-m) a_node[-m] var^{+m}), truncated at degree cap."""
    coeff_cache: dict[tuple[int, ...], complex] = {}

    def addition_coeff(added: tuple[int, ...]) -> complex:
        c = coeff_cache.get(added)
        if c is None:
            c = 1.0 + 0.0j
            for m in set(added):
                r = added.count(m)
                c *= kappa(-m) ** r / math.factorial(r)
            coeff_cache[added] = c
        return c

    out: dict[Key, complex] = {}
    for (state, zd, wd), coeff in terms.items():
        headroom = cap - sum(sum(p) for p in state)
        for add_deg in range(max(headroom, -1) + 1):
            for added in _partitions(add_deg, add_deg):
                c = coeff * addition_coeff(added)
                merged = tuple(sorted(state[node] + added, reverse=True))
                ns = state[:node] + (merged,) + state[node + 1 :]
                key = (ns, zd + add_deg, wd) if var == 0 else (ns, zd, wd + add_deg)
                out[key] = out.get(key, 0.0 + 0.0j) + c
    return out


def _legs(space: FockSpace, specs_vars):
    """(node, var, kappa) per (node, var): kappa(m) sums each constituent's coefficient of a[m]."""
    groups: dict = {}
    for spec, var in specs_vars:
        groups.setdefault((spec.node, var), []).extend(spec.constituents)

    def kappa_of(members):
        return lambda m: sum(osc_coeff(cls, space.params, m) * shift ** (-m) for cls, shift in members)

    return [(node, var, kappa_of(members)) for (node, var), members in groups.items()]


def reference_apply(space: FockSpace, specs_vars, lam, src_cap: int, tgt_cap: int):
    """Normal-ordered product of currents on sector lam, one basis state at a time.

    Returns (target_sector, offsets, modes) with modes mapping
    (n_z, n_w) -> {src_deg: (tgt_deg, block)}.  Exact for every block whose
    target degree is at most tgt_cap.
    """
    lam = tuple(int(x) for x in lam)
    legs = _legs(space, specs_vars)
    scalar = 1.0 + 0.0j
    off = [0, 0]
    tgt = list(lam)
    for spec, var in specs_vars:
        s, o, charge = space._zero_mode(spec, lam)
        scalar *= s
        off[var] += o
        tgt[spec.node] += charge
    rank = space.rank
    modes: dict[tuple[int, int], dict] = {}
    for src_deg in range(src_cap + 1):
        src_states = states_of_degree(rank, src_deg)
        for col, s0 in enumerate(src_states):
            terms: dict[Key, complex] = {(s0, 0, 0): scalar}
            for node, var, kap in legs:
                terms = _apply_annihilation_exp(space, node, var, kap, terms)
            for node, var, kap in legs:
                terms = _apply_creation_exp(node, var, kap, terms, tgt_cap)
            for (state, zd, wd), coeff in terms.items():
                if coeff == 0.0:
                    continue
                nz, nw = -(zd + off[0]), -(wd + off[1])
                tdeg = sum(sum(p) for p in state)
                block_map = modes.setdefault((nz, nw), {})
                if src_deg not in block_map:
                    block_map[src_deg] = (
                        tdeg,
                        np.zeros(
                            (len(states_of_degree(rank, tdeg)), len(src_states)),
                            dtype=complex,
                        ),
                    )
                _, mat = block_map[src_deg]
                mat[_state_index(rank, tdeg)[state], col] += coeff
    return tuple(tgt), tuple(off), modes


def blocks_max_abs(b) -> float:
    return max((float(np.max(np.abs(m))) for _, m in b.values()), default=0.0)


def composed_commutator(space: FockSpace, spec_e, spec_f, lam, cap: int, window: int):
    """Rows and vacuous count of ``commutator_check`` on one sector, from whole-sector blocks.

    E F and F E are composed from complete mode blocks of the second current
    over every source degree of the middle sector, ``blocks_compose(E[m],
    F[n])``, instead of applying the second current to the first one's
    output columns.  The right-hand sides and the noise floor follow the
    check's own definitions.
    """
    i, j = spec_e.node, spec_f.node
    params, a_ij = space.params, space.cartan[i, j]
    unit = np.eye(space.rank, dtype=int)
    lam = tuple(int(x) for x in lam)
    lam_e = tuple(int(x) for x in np.asarray(lam) - unit[j])
    lam_f = tuple(int(x) for x in np.asarray(lam) + unit[i])

    def complete(spec, sector, src_cap, reach):
        tgt_cap = max(src_cap + reach - space._zero_mode(spec, sector)[1], 0)
        return tgt_cap, space.sector_modes(spec, sector, src_cap, tgt_cap)[2]

    top_f, f_modes = complete(spec_f, lam, cap, window)
    _, e_mid = complete(spec_e, lam_e, top_f, window)
    top_e, e_modes = complete(spec_e, lam, cap, window)
    _, f_mid = complete(spec_f, lam_f, top_e, window)
    qh, pqh = params.q_half, params.pq_half
    if i == j:
        hp, hm = (current_spec(k, i, space.rank, params) for k in ("H+", "H-"))
        _, hp_modes = complete(hp, lam, cap, 2 * window + 2)
        _, hm_modes = complete(hm, lam, cap, 2 * window + 2)
    elif a_ij == -1:
        offs = space._zero_mode(spec_e, lam)[1] + space._zero_mode(spec_f, lam)[1]
        tgt_cap = max(cap + 2 * window - 1 - offs, 0)
        b_modes = space.pair_modes(spec_e, spec_f, lam, cap, None, tgt_cap)[2]
    rows = []
    for m in range(-window, window + 1):
        for n in range(-window, window + 1):
            ef = blocks_compose(e_mid.get(m, {}), f_modes.get(n, {}))
            fe = blocks_compose(f_mid.get(n, {}), e_modes.get(m, {}))
            parts = []
            if i == j:
                w_p = qh ** (m - n) / (params.p - 1)
                w_m = -((1 / pqh) ** (m - n)) / (params.p - 1)
                h = m + n - 2
                parts = [(w_p, hp_modes.get(h, {})), (w_m, hm_modes.get(h, {}))]
            elif a_ij == -1:
                b1, b2 = b_modes.get((m + 1, n), {}), b_modes.get((m, n + 1), {})
                parts = [(2 * pqh, b1), (-2 * qh, b2)]
            rhs = blocks_linear(parts)
            diff = blocks_linear([(1.0, ef), (-1.0, fe), (-1.0, rhs)])
            scale = max(blocks_max_abs(ef), blocks_max_abs(fe), blocks_max_abs(rhs))
            rows.append(((lam, m, n), blocks_max_abs(diff), scale))
    floor = SCALE_FLOOR * max(s for *_, s in rows)
    residuals = [(w, err / max(scale, floor) if err else 0.0, scale) for w, err, scale in rows]
    return residuals, sum(scale <= floor for *_, scale in rows)
