"""Reference evaluations of a ``ContractionKernel``'s q-product.

``direct_product`` is the product that ``ContractionKernel.evaluate``
computed before it split each factor list at the unit circle: every sample
times every lattice entry above 1e-17, multiplied out in float64.  It is
kept as the oracle of the split evaluation.  ``extended_product`` is the
accuracy reference: the same product in ``np.clongdouble`` on a lattice cut
at 1e-22, one point at a time.
"""

from __future__ import annotations

import numpy as np


def lattice(dens, tol, dtype=complex):
    """All products prod rho_t^{k_t} above tol, as a flat array."""
    lat = np.array([1], dtype=dtype)
    for rho in dens:
        powers = []
        v = np.array(1, dtype=dtype)
        while abs(v) > tol:
            powers.append(v)
            v = v * dtype(rho)
        lat = np.outer(lat, np.array(powers, dtype=dtype)).ravel()
        lat = lat[np.abs(lat) > tol]
    return lat


def direct_product(kernel, x, tol=1e-17):
    """Fully summed product at x, and min |factor| there, factor by factor.

    Each term contributes prod_k (1 - x mu rho^k)^{-sigma}.  Per element
    for an array ``x``.
    """
    x = np.asarray(x, dtype=complex)
    out = np.ones_like(x)
    closest = np.full(x.shape, np.inf)
    for g in kernel.groups:
        lat = lattice(g.dens, tol)
        for sigma, mu in g.terms:
            f = 1 - (x * mu)[..., None] * lat
            am = np.abs(f).min(-1)
            if (am == 0.0).any():
                raise ZeroDivisionError("contraction product hit an exact pole/zero")
            closest = np.minimum(closest, am)
            out *= f.prod(-1) ** (-sigma)
    return out[()], closest[()]


def extended_product(kernel, x, tol=1e-22):
    """The product at each point of x in np.clongdouble, on a lattice cut at tol."""
    ld = np.clongdouble
    xs = np.atleast_1d(np.asarray(x, dtype=complex)).astype(ld)
    lats = [lattice(g.dens, tol, ld) for g in kernel.groups]
    out = np.ones(xs.shape, dtype=ld)
    for n, xn in enumerate(xs):
        for g, lat in zip(kernel.groups, lats):
            for sigma, mu in g.terms:
                f = np.prod(1 - xn * ld(mu) * lat)
                out[n] *= f if sigma < 0 else 1 / f
    return out.reshape(np.shape(x))
