"""Per-basis-state reference engine for the Fock route, kept as a test oracle.

Each source basis state is expanded into a dict of terms keyed by
(oscillators, z-power, w-power): annihilators are pushed through the
creators one state at a time with the bracket table, then the creation
exponentials add every partition up to the target degree cap.  It is slow
but shares no block algebra with ``screenalg.fock``, so the graded-block
engine is compared against it entry by entry.
"""

from __future__ import annotations

import math

import numpy as np

from screenalg.fock import FockSpace, _partitions, _state_index, states_of_degree

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


def reference_apply(space: FockSpace, specs_vars, lam, src_cap: int, tgt_cap: int):
    """Normal-ordered product of currents on sector lam, one basis state at a time.

    Returns (target_sector, offsets, modes) with modes mapping
    (n_z, n_w) -> {src_deg: (tgt_deg, block)}.  Exact for every block whose
    target degree is at most tgt_cap.
    """
    lam = tuple(int(x) for x in lam)
    legs = space._merged_legs(specs_vars)
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
