"""Truncated Laurent series, q-products, theta functions and delta combs.

A :class:`LaurentSeries` stores complex coefficients on an integer exponent
window.  ``order`` is the largest exponent the series knows exactly;
arithmetic never extends knowledge past it.  Exponents below the stored
window are exactly zero (all series here are truncated expansions with
finitely many negative powers).

The formal distribution delta(x) = sum_{n in Z} x^n enters as the
difference between the inner and outer expansion of a rational function;
:func:`delta_extract` fits its weights at candidate support points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np


def _power_table(a, order: int) -> np.ndarray:
    """1, a, a^2, ..., a^(order-1) along a new last axis; ``a`` may be an array."""
    out = np.empty(np.shape(a) + (max(order, 0),), dtype=complex)
    out[...] = np.asarray(a)[..., None]
    out[..., :1] = 1.0
    return np.cumprod(out, axis=-1)


@lru_cache(maxsize=256)
def _powers(a: complex, order: int) -> np.ndarray:
    """The power table of a scalar base, read-only; shared by every product in base a."""
    out = _power_table(a, order)
    out.flags.writeable = False
    return out


def qpochhammer(x, a, order: int):
    """Truncated q-Pochhammer product prod_{n=0}^{order-1} (1 - x a^n).

    Truncation error against the infinite product is O(|x| |a|^order).  One
    ``np.multiply.reduce`` takes the product of the factors.  ``x`` and the
    base ``a`` may be arrays, broadcast against each other: the product is
    then taken per element; scalars give a complex.  The powers of a scalar
    base are cached per (a, order); an array base gets its own table.
    """
    array_base = isinstance(a, np.ndarray)
    largest = np.abs(a).max(initial=0.0) if array_base else abs(a)
    if largest >= 1:
        raise ValueError(f"|a| = {largest:.6g} violates |a| < 1")
    powers = _power_table(a, order) if array_base else _powers(a, order)
    if isinstance(x, np.ndarray):
        x = x[..., None]
    out = np.multiply.reduce(1.0 - x * powers, axis=-1)
    return out if isinstance(out, np.ndarray) else complex(out)


def theta(x, a, order: int = 80):
    """Triple-product theta: (x|a)_inf (a/x|a)_inf (a|a)_inf, truncated.

    Elliptic with multiplicative periods a and e^{2 pi i}; satisfies
    theta(a x) = -theta(x)/x.  Zeros exactly at x = a^k, k in Z.  Per
    element for an array ``x`` or an array base ``a``, broadcast against
    each other, like :func:`qpochhammer`.
    """
    if np.count_nonzero(x == 0):
        raise ValueError("theta undefined at x = 0 (a/x factor)")
    return (
        qpochhammer(x, a, order)
        * qpochhammer(a / x, a, order)
        * qpochhammer(a, a, order)
    )


@dataclass(frozen=True)
class LaurentSeries:
    """Coefficients c[k] for exponents min_exp + k, known exactly up to `order`."""

    min_exp: int
    coeffs: np.ndarray
    order: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        if self.min_exp + len(c) - 1 > self.order:
            c = c[: self.order - self.min_exp + 1]
        object.__setattr__(self, "coeffs", c)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_coeff_map(cmap: dict[int, complex], order: int):
        if not cmap:
            return LaurentSeries(0, np.zeros(1, dtype=complex), order)
        lo, hi = min(cmap), min(max(cmap), order)
        arr = np.zeros(hi - lo + 1, dtype=complex)
        for k, v in cmap.items():
            if k <= order:
                arr[k - lo] = v
        return LaurentSeries(lo, arr, order)

    # -- queries ---------------------------------------------------------------

    @property
    def max_stored(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, k: int) -> complex:
        if k > self.order:
            raise ValueError(f"exponent {k} beyond truncation order {self.order}")
        if k < self.min_exp or k > self.max_stored:
            return 0.0 + 0.0j
        return complex(self.coeffs[k - self.min_exp])

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients on [lo, hi]; hi must not exceed the truncation order."""
        return np.array([self.coeff(k) for k in range(lo, hi + 1)])

    def canonical(self) -> "LaurentSeries":
        nz = np.flatnonzero(np.abs(self.coeffs) > 0)
        if len(nz) == 0:
            return LaurentSeries(0, np.zeros(1, dtype=complex), self.order)
        lo, hi = nz[0], nz[-1]
        return LaurentSeries(self.min_exp + lo, self.coeffs[lo : hi + 1].copy(), self.order)

    def evaluate(self, x: complex) -> complex:
        ks = np.arange(self.min_exp, self.max_stored + 1)
        return complex(np.sum(self.coeffs * np.asarray(x, dtype=complex) ** ks))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        order = min(self.order, other.order)
        lo = min(self.min_exp, other.min_exp)
        hi = min(max(self.max_stored, other.max_stored), order)
        arr = np.zeros(max(hi - lo + 1, 1), dtype=complex)
        for s in (self, other):
            a, b = s.min_exp, min(s.max_stored, hi)
            if b >= a:
                arr[a - lo : b - lo + 1] += s.coeffs[: b - a + 1]
        return LaurentSeries(lo, arr, order)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.min_exp, -self.coeffs, self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other) -> "LaurentSeries":
        if np.isscalar(other):
            return LaurentSeries(self.min_exp, self.coeffs * other, self.order)
        # product known up to min(order1 + min_exp2, order2 + min_exp1)
        order = min(self.order + other.min_exp, other.order + self.min_exp)
        arr = np.convolve(self.coeffs, other.coeffs)
        lo = self.min_exp + other.min_exp
        return LaurentSeries(lo, arr, order)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by x^k."""
        return LaurentSeries(self.min_exp + k, self.coeffs, self.order + k)

    def flip(self) -> "LaurentSeries":
        """Substitute x -> 1/x; the known window reflects accordingly."""
        return LaurentSeries(-self.max_stored, self.coeffs[::-1].copy(), -self.min_exp)


def series_exp(logseries: LaurentSeries) -> LaurentSeries:
    """exp of a series with no negative exponents and zero constant term."""
    s = logseries.canonical()
    if s.min_exp < 0 and np.any(np.abs(s.coeffs[: -s.min_exp]) > 0):
        raise ValueError("series_exp requires no negative exponents")
    if s.min_exp <= 0 and abs(s.coeff(0)) != 0:
        raise ValueError("series_exp requires zero constant term")
    n = logseries.order
    c = np.zeros(n + 1, dtype=complex)
    lo, hi = max(s.min_exp, 1), min(s.max_stored, n)
    if hi >= lo:
        c[lo : hi + 1] = s.coeffs[lo - s.min_exp : hi - s.min_exp + 1]
    # E' = c' E  =>  n E_n = sum_k k c_k E_{n-k}
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    ks = np.arange(n + 1)
    kc = ks * c
    for m in range(1, n + 1):
        e[m] = np.dot(kc[1 : m + 1], e[m - 1 :: -1][:m]) / m
    return LaurentSeries(0, e, n)


@dataclass(frozen=True)
class DeltaComb:
    """sum_t weights[t] * delta(x / support_t) over the candidate supports, and the fit's residual."""

    weights: tuple[complex, ...]
    residual: float


def delta_extract(
    f_inner: LaurentSeries,
    f_outer: LaurentSeries,
    candidate_poles: Sequence[complex],
    window: tuple[int, int],
) -> DeltaComb:
    """Match inner-minus-outer expansion coefficients to a finite delta comb.

    ``f_inner`` expands a rational function inside some annulus, ``f_outer``
    the same function outside it; their coefficient-wise difference d_k is
    fitted to sum_t w_t x_t^{-k} over the caller-supplied candidate poles x_t,
    for the exponents k in ``window`` = (lo, hi).  Rows are rescaled before
    the least-squares solve because the model columns grow geometrically in
    |k|.  One weight is returned per candidate pole, in the caller's order
    (about 0 where the difference has no delta), with the relative
    ``residual`` of the fit whatever its size; the caller judges both.
    """
    lo, hi = window
    if hi < lo:
        raise ValueError("empty exponent window")

    def stored(series: LaurentSeries, k: int) -> complex:
        if series.min_exp <= k <= series.max_stored:
            return complex(series.coeffs[k - series.min_exp])
        return 0.0 + 0.0j

    ks = np.arange(lo, hi + 1)
    d = np.array([stored(f_inner, k) - stored(f_outer, k) for k in ks])
    mag = np.array(
        [max(abs(stored(f_inner, k)), abs(stored(f_outer, k))) for k in ks]
    )
    poles = [complex(x) for x in candidate_poles]
    for t, x in enumerate(poles):
        if x == 0:
            raise ValueError("candidate pole at 0 is not a delta support")
        if any(abs(x - y) <= 1e-12 * abs(x) for y in poles[:t]):
            raise ValueError("candidate poles must be pairwise distinct")
    if poles:
        model = np.array([[x ** (-int(k)) for x in poles] for k in ks], dtype=complex)
        scale_rows = np.maximum(np.max(np.abs(model), axis=1), 1.0)
        w, *_ = np.linalg.lstsq(model / scale_rows[:, None], d / scale_rows, rcond=None)
        fit = model @ w
    else:
        w = np.zeros(0, dtype=complex)
        fit = np.zeros_like(d)
        scale_rows = np.ones(len(ks))
    profile = np.abs(d - fit) / scale_rows
    scale = max(
        float(np.max(mag / scale_rows, initial=0.0)),
        float(np.max(np.abs(w), initial=0.0)),
        1e-300,
    )
    return DeltaComb(weights=tuple(map(complex, w)), residual=float(np.max(profile)) / scale)
