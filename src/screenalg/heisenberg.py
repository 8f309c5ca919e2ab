"""Deformed Heisenberg algebra: mode brackets, exponent coefficients, zero modes.

The oscillator family a_i[n] obeys

    [a_i[n], a_j[m]] = (1/n) (1-q^n)(p^{A_ij n/2} - p^{-A_ij n/2})(1-(p/q)^n)
                       / (1-p^n) * delta_{n,-m}

and the lattice zero modes obey [a_i[0], Q_j] = A_ij * beta.  The four
current kinds enter only through the scalar multiplying a_i[m] in their
exponent:

    kind "+" (raising-type, exponent +s^+):   1/(q^{-m} - 1)
    kind "-" (lowering-type, exponent -s^-):  1/((q/p)^m - 1)

The zero-mode sector is a small normal-form algebra on words made of
charges e^{Q} and momentum monomials (c*z)^{gamma . a[0]}; reordering a
momentum factor past a charge multiplies by (c*z)^{beta * gamma^T A eps}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CartanMatrix, DeformationParams

# oscillator-coefficient structure per current kind: sign of the exponent
# is already folded in, so kind "+" covers S+ and E, kind "-" covers S- and F.
RAISING_KINDS = ("S+", "E")
LOWERING_KINDS = ("S-", "F")


def mode_bracket(a_ij: int, params: DeformationParams, n):
    """b(n) = [a_i[n], a_j[-n]] for a node pair with Cartan entry a_ij, n != 0.

    ``n`` is an integer or an integer array (elementwise result).
    """
    # p^{A n/2} as (p^{A/2})^n keeps every exponent <= |n|: below 100, numpy
    # raises complex arrays by repeated squaring, as Python does scalars
    p, q, pa = params.p, params.q, params.p_half**a_ij
    return (1 - q**n) * (pa**n - pa ** (-n)) * (1 - (p / q) ** n) / (n * (1 - p**n))


class ModeBracketTable:
    """Memoized values b_{ij}(n) = [a_i[n], a_j[-n]], keyed by (A_ij, n)."""

    def __init__(self, cartan: CartanMatrix, params: DeformationParams):
        self.cartan = cartan
        self.params = params
        self._cache: dict[tuple[int, int], complex] = {}

    def value(self, a_ij: int, n: int) -> complex:
        """b(n) for a node pair with Cartan entry a_ij; 0 for n = 0."""
        if n == 0:
            return 0.0 + 0.0j
        key = (a_ij, n)
        if key not in self._cache:
            self._cache[key] = mode_bracket(a_ij, self.params, n)
        return self._cache[key]

    def bracket(self, i: int, j: int, n: int, m: int) -> complex:
        """[a_i[n], a_j[m]]; nonzero only when n + m = 0 and n != 0."""
        r = self.cartan.rank
        if not (0 <= i < r and 0 <= j < r):
            raise ValueError(f"node out of range for rank {r}")
        if n + m != 0 or n == 0:
            return 0.0 + 0.0j
        return self.value(self.cartan[i, j], n)


def osc_coeff(kind: str, params: DeformationParams, m):
    """Scalar multiplying a_i[m] in the exponent of the given current kind.

    ``m`` is an integer or an integer array (elementwise result).
    """
    if np.any(np.asarray(m) == 0):
        raise ValueError("zero modes are handled by ZeroModeWord, not osc_coeff")
    if kind in RAISING_KINDS:
        return 1.0 / (params.q ** (-m) - 1.0)
    if kind in LOWERING_KINDS:
        return 1.0 / ((params.q / params.p) ** m - 1.0)
    raise ValueError(f"unknown current kind {kind!r}")


def contraction_log_coeff(
    kind_x: str,
    kind_y: str,
    a_ij: int,
    params: DeformationParams,
    m,
):
    """m-th log coefficient c_m of the contraction of X(z) Y(w).

    c_m multiplies (w/z)^m in log of the scalar prefactor; it is the
    oscillator coefficient of X at +m times that of Y at -m times b(m).
    ``m`` is an integer or an integer array (elementwise result).
    """
    if np.any(np.asarray(m) < 1):
        raise ValueError("contraction log coefficients are indexed by m >= 1")
    b = mode_bracket(a_ij, params, m)
    return osc_coeff(kind_x, params, m) * osc_coeff(kind_y, params, -m) * b


@dataclass(frozen=True)
class ZeroModeWord:
    """Normal-form word: scalar monomial * e^{charge . Q} * momentum factors.

    ``factors`` is an ordered tuple of (const, var, gamma) triples, each
    standing for (const * var)^{gamma . a[0]} with gamma in the a[0] basis.
    ``coeff`` and ``zpow`` hold the scalar monomial accumulated by
    reordering: coeff * prod_var var^{zpow[var]}.
    """

    rank: int
    charge: tuple[complex, ...] = ()
    factors: tuple[tuple[complex, str, tuple[complex, ...]], ...] = ()
    coeff: complex = 1.0 + 0.0j
    zpow: tuple[tuple[str, complex], ...] = ()

    def __post_init__(self):
        if not self.charge:
            object.__setattr__(self, "charge", (0.0 + 0.0j,) * self.rank)

    def zpow_dict(self) -> dict[str, complex]:
        return dict(self.zpow)

    def monomial(self) -> tuple[complex, dict[str, complex]]:
        """The accumulated reordering scalar as (coefficient, var -> exponent)."""
        return self.coeff, self.zpow_dict()


def momentum_factor_word(
    rank: int, const: complex, var: str, gamma, coeff: complex = 1.0
) -> ZeroModeWord:
    return ZeroModeWord(
        rank=rank,
        factors=((complex(const), var, tuple(complex(g) for g in gamma)),),
        coeff=complex(coeff),
    )


def charge_word(rank: int, eps, coeff: complex = 1.0) -> ZeroModeWord:
    return ZeroModeWord(
        rank=rank, charge=tuple(complex(e) for e in eps), coeff=complex(coeff)
    )


def zero_mode_reorder(
    w1: ZeroModeWord,
    w2: ZeroModeWord,
    cartan: CartanMatrix,
    params: DeformationParams,
) -> ZeroModeWord:
    """Normal form of w1 * w2: all charges left of all momentum factors.

    Moving each momentum factor of w1 past the total charge of w2 multiplies
    the word by (const * var)^e with e = beta * gamma^T A eps2; the integer
    cases (E/F-type words) come out exact.
    """
    if w1.rank != w2.rank:
        raise ValueError("rank mismatch")
    a = cartan.entries
    eps2 = np.asarray(w2.charge, dtype=complex)
    coeff = w1.coeff * w2.coeff
    zpow = dict(w1.zpow)
    for var, e in w2.zpow:
        zpow[var] = zpow.get(var, 0.0) + e
    for const, var, gamma in w1.factors:
        e = params.beta * complex(np.asarray(gamma, dtype=complex) @ a @ eps2)
        if abs(e - round(e.real)) < 1e-12:
            e = complex(round(e.real))
        if e != 0:
            coeff *= const**e
            zpow[var] = zpow.get(var, 0.0) + e
    charge = tuple(c1 + c2 for c1, c2 in zip(w1.charge, w2.charge))
    zp = tuple(sorted((v, e) for v, e in zpow.items() if e != 0))
    return ZeroModeWord(
        rank=w1.rank, charge=charge, factors=w1.factors + w2.factors, coeff=coeff, zpow=zp
    )
