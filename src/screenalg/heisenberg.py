"""Deformed Heisenberg algebra: mode brackets, exponent coefficients, zero modes.

The oscillator family a_i[n] obeys

    [a_i[n], a_j[m]] = (1/n) (1-q^n)(p^{A_ij n/2} - p^{-A_ij n/2})(1-(p/q)^n)
                       / (1-p^n) * delta_{n,-m}

and the lattice zero modes obey [a_i[0], Q_j] = A_ij * beta.  The four
current kinds enter only through the scalar multiplying a_i[m] in their
exponent:

    kind "+" (raising-type, exponent +s^+):   1/(q^{-m} - 1)
    kind "-" (lowering-type, exponent -s^-):  1/((q/p)^m - 1)

Each current's zero modes are e^{charge Q_i} (const z)^{gamma a_i[0]}
(the per-kind table is ``currents.zero_modes``); moving the momentum factor
of X past the charge of Y multiplies by (const z)^{beta gamma A_ij charge}.
"""

from __future__ import annotations

import numpy as np

from .algebra import CartanMatrix, DeformationParams

# oscillator class per atomic kind, the sign of the exponent folded in:
# "+" (raising-type) covers S+ and E, "-" (lowering-type) covers S- and F.
OSCILLATOR_CLASS = {"S+": "+", "E": "+", "S-": "-", "F": "-"}


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
        raise ValueError("zero modes are read from currents.zero_modes, not osc_coeff")
    cls = OSCILLATOR_CLASS.get(kind)
    if cls is None:
        raise ValueError(f"unknown current kind {kind!r}")
    if cls == "+":
        return 1.0 / (params.q ** (-m) - 1.0)
    return 1.0 / ((params.q / params.p) ** m - 1.0)


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


def zero_mode_reorder(
    const_x: complex,
    gamma_x: complex,
    a_ij: int,
    charge_y: complex,
    params: DeformationParams,
) -> tuple[complex, complex]:
    """Scalar (const_x**e, e) from moving (const_x z)^{gamma_x a_i[0]} past e^{charge_y Q_j}.

    [a_i[0], Q_j] = beta A_ij gives e = beta * gamma_x * A_ij * charge_y; the
    lattice cases (E/F past E/F) come out as exact integers.
    """
    e = params.beta * (gamma_x * a_ij * charge_y)
    if abs(e - round(e.real)) < 1e-12:
        e = complex(round(e.real))
    return const_x**e, e
