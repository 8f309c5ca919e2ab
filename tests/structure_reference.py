"""The structure functions written out one function each, kept as a test oracle.

``screenalg.verifier`` evaluates every structure function from one row of
``G_TABLE``.  These are the functions that table replaced, verbatim: nine ``g_*``
functions, which read their theta factors through ``ctx.theta_g`` and
collect the points below ``theta_floor`` in ``ctx._below_floor``, and
``psi`` and ``phi``, which apply no floor.  ``ReferenceContext`` carries
that side channel and ``structure_function``, as the verifier's context did.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from screenalg import DeformationParams, theta


@dataclass
class ReferenceContext:
    params: DeformationParams
    order: int = 80
    theta_floor: float = 1e-6
    _below_floor: np.ndarray | bool = False

    def theta_g(self, x, a: complex):
        """theta(x, a) at this run's order; marks the points below ``theta_floor``."""
        v = theta(x, a, self.order)
        self._below_floor = self._below_floor | (np.abs(v) < self.theta_floor)
        return v

    def structure_function(self, g_fn, x, a_ij: int, kw=()):
        """G = ``g_fn(self, 1, x, a_ij, **dict(kw))``, and where a theta factor is below the floor."""
        self._below_floor = np.zeros(np.shape(x), dtype=bool)
        g = g_fn(self, 1.0 + 0j, x, a_ij, **dict(kw))
        return g, self._below_floor


def psi(x, a_ij: int, base: complex, params: DeformationParams, order: int = 80):
    """Exchange factor (-1)^(A-1) x^-1 theta(x p^{A/2}) / theta(p^{A/2}/x), per element of x."""
    pa = params.p_half**a_ij
    return (
        (-1.0) ** (a_ij - 1)
        * x ** (-1.0)
        * theta(x * pa, base, order)
        / theta(pa / x, base, order)
    )


def phi(x, a_ij: int, base: complex, base_half: complex, params: DeformationParams, order: int = 80):
    """Factorizing component theta_base(x p^{A/2}) / theta_base(x base^{A/2}), per element of x."""
    return theta(x * params.p_half**a_ij, base, order) / theta(
        x * base_half**a_ij, base, order
    )


# exchange structure functions G(z, w) per relation; sign conventions carry
# the corrections listed in ERRATA.


def g_spsp(ctx: VerifierContext, z, w, a_ij):
    x = w / z
    b = ctx.params.beta
    pa = ctx.params.p_half**a_ij
    return (
        (-1.0) ** (a_ij - 1)
        * x ** (a_ij - a_ij * b - 1)
        * ctx.theta_g(x * pa, ctx.params.q)
        / ctx.theta_g(pa / x, ctx.params.q)
    )


def g_smsm(ctx, z, w, a_ij):
    x = w / z
    b = ctx.params.beta
    pa = ctx.params.p_half**a_ij
    pq = ctx.params.pq
    return (
        (-1.0) ** (a_ij - 1)
        * x ** (a_ij - a_ij / b - 1)
        * ctx.theta_g(x * pa, pq)
        / ctx.theta_g(pa / x, pq)
    )


def g_ee(ctx, z, w, a_ij, base=None):
    x = w / z
    pa = ctx.params.p_half**a_ij
    b = ctx.params.q if base is None else base
    return (
        (-1.0) ** (a_ij - 1) * x ** (-1.0) * ctx.theta_g(x * pa, b) / ctx.theta_g(pa / x, b)
    )


def g_ff(ctx, z, w, a_ij):
    return g_ee(ctx, z, w, a_ij, base=ctx.params.pq)


def g_ff_qt(ctx, z, w, a_ij):
    """F-F exchange with theta base qtilde, as the general-c displays print it."""
    return g_ee(ctx, z, w, a_ij, base=ctx.params.qtilde)


def g_hh(ctx, z, w, a_ij):
    x = w / z
    pa = ctx.params.p_half**a_ij
    qt = ctx.params.qtilde
    return (
        x ** (-2.0)
        * ctx.theta_g(x * pa, ctx.params.q)
        * ctx.theta_g(x * pa, qt)
        / (ctx.theta_g(pa / x, ctx.params.q) * ctx.theta_g(pa / x, qt))
    )


def _half_power(base: complex, half_exponent) -> complex:
    """base^(half_exponent/2); integer half-exponents stay branch-coherent."""
    f = float(half_exponent)
    if f.is_integer():
        return cmath.sqrt(base) ** int(f)
    return base ** (f / 2.0)


def g_hphm(ctx, z, w, a_ij):
    x = w / z
    p = ctx.params
    pm = _half_power(p.p, a_ij - p.c)  # p^{(A_ij - c)/2}
    pp = _half_power(p.p, a_ij + p.c)  # p^{(A_ij + c)/2}
    return (
        x ** (-2.0)
        * ctx.theta_g(x * pm, p.q)
        * ctx.theta_g(x * pp, p.qtilde)
        / (ctx.theta_g(pp / x, p.q) * ctx.theta_g(pm / x, p.qtilde))
    )


def g_he(ctx, z, w, a_ij, sign: int):
    """H(sign) against E: uniform factor -1 (see ERRATA), theta base q."""
    p = ctx.params
    pa = p.p_half**a_ij
    if sign > 0:
        sc = _half_power(p.q, -p.c)  # q^{-c/2}
    else:
        sc = _half_power(p.qtilde, p.c)  # qtilde^{c/2}
    x = w / z
    return (
        -((w * sc / z) ** (-1.0))
        * ctx.theta_g(x * pa * sc, p.q)
        / ctx.theta_g(pa / (sc * x), p.q)
    )


def g_hf(ctx, z, w, a_ij, sign: int):
    """H(sign) against F: uniform factor -1, theta base qtilde."""
    p = ctx.params
    pa = p.p_half**a_ij
    if sign > 0:
        sc = _half_power(p.q, p.c)  # q^{c/2}
    else:
        sc = _half_power(p.qtilde, -p.c)  # qtilde^{-c/2}
    x = w / z
    return (
        -((w * sc / z) ** (-1.0))
        * ctx.theta_g(x * pa * sc, p.qtilde)
        / ctx.theta_g(pa / (sc * x), p.qtilde)
    )
