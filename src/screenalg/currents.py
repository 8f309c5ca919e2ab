"""Current specifications and the contraction engine.

A product of two normal-ordered exponential currents is

    X(z) Y(w) = M(z, w) * C(w/z) * :X(z) Y(w):

where M is an exact monomial from reordering zero modes and C is the
oscillator contraction, C(x) = exp(sum_{m>=1} c_m x^m).  The engine keeps C
in two equivalent forms:

* a truncated power series (valid inside the contraction radius), built
  from the numeric log coefficients, and
* an exact q-product: every c_m here has the shape
  (1/m) sum_j sigma_j mu_j^m / prod_t (1 - rho_t^m) with sigma_j = +-1 and
  |rho_t| < 1, so exponentiating and expanding the geometric denominators
  gives C(x) = prod_j prod_k (1 - x mu_j rho^k)^{-sigma_j}, a convergent
  product on the whole x-plane minus poles.  This is the analytic
  continuation used for every exchange-relation check.  It is evaluated
  split at the unit circle: the few factors with |x mu lambda| > SPLIT are
  multiplied out, and the rest of the lattice enters through its power
  sums, as log prod (1 - y lambda) = -sum_m (y^m / m) sum lambda^m, which
  converges like SPLIT^m (Gasper-Rahman, Basic Hypergeometric Series,
  section 1.3).

Each atomic kind's zero modes are one row of :func:`zero_modes`, and M is
the product of the scalars from moving each X constituent's momentum
factor past each Y constituent's charge.  Composite Cartan currents
contract pairwise through their constituents.  Both M and C read the node
pair only through A_ij, so a contraction is built once per Cartan class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import CartanMatrix, DeformationParams
from .heisenberg import OSCILLATOR_CLASS, contraction_log_coeff, zero_mode_reorder
from .qlaurent import LaurentSeries, series_exp

ATOMIC_KINDS = ("S+", "S-", "E", "F")

# ContractionKernel.evaluate multiplies out the factors with |x mu lambda| >
# SPLIT and sums the rest as their log series to LOG_TERMS terms; the
# remainder per factor is below SPLIT^(LOG_TERMS + 1) / (1 - SPLIT).
SPLIT = 0.25
LOG_TERMS = 32
LATTICE_FLOOR = 1e-17


def zero_modes(kind: str, params: DeformationParams) -> tuple[complex, complex, complex]:
    """Zero-mode data (charge, gamma, const) of an atomic current at node i.

    The current carries e^{charge Q_i} (const z)^{gamma a_i[0]}, gamma in
    a[0] units (a_i[0] = beta P_i): E and F are lattice-valued, e^{+-Q_i}
    (const z)^{+-P_i}, while the S+- powers are not integer in P.
    """
    beta = params.beta
    if kind == "S+":
        return 1, 1.0, 1.0
    if kind == "S-":
        return -1 / beta, -1.0 / beta, 1.0
    if kind == "E":
        return 1, 1 / beta, params.pq_half
    if kind == "F":
        return -1, -1 / beta, params.q_half
    raise ValueError(f"unknown atomic current kind {kind!r}")


@dataclass(frozen=True)
class CurrentSpec:
    """One generating current: kind, node, and its normal-ordered constituents.

    ``constituents`` lists (atomic kind, argument multiplier); atomic currents
    have a single constituent with multiplier 1, the Cartan currents H+- have
    their two shifted constituents.  Each constituent's zero modes are read
    from :func:`zero_modes` with its const scaled by the multiplier.
    """

    kind: str
    node: int
    rank: int
    constituents: tuple[tuple[str, complex], ...]


def current_spec(kind: str, node: int, rank: int, params: DeformationParams) -> CurrentSpec:
    """Build the spec for any of the six current kinds."""
    if not 0 <= node < rank:
        raise ValueError(f"node {node} out of range for rank {rank}")
    if kind in ATOMIC_KINDS:
        return CurrentSpec(kind, node, rank, ((kind, 1.0 + 0j),))
    if kind == "H+":
        return CurrentSpec(
            kind, node, rank, (("E", params.q_half), ("F", 1 / params.q_half))
        )
    if kind == "H-":
        return CurrentSpec(
            kind, node, rank, (("E", 1 / params.pq_half), ("F", params.pq_half))
        )
    raise ValueError(f"unknown current kind {kind!r}")


# ---------------------------------------------------------------------------
# q-product kernels


@dataclass(frozen=True)
class KernelGroup:
    """exp(sum_m x^m/m * sum_j sigma_j mu_j^m / prod_t (1-rho_t^m))."""

    terms: tuple[tuple[int, complex], ...]  # (sigma, mu)
    dens: tuple[complex, ...]


@dataclass(frozen=True)
class ContractionKernel:
    groups: tuple[KernelGroup, ...]

    def scale(self, s: complex) -> "ContractionKernel":
        """Argument substitution x -> s x (mu_j -> s mu_j)."""
        return ContractionKernel(
            tuple(
                KernelGroup(tuple((sg, mu * s) for sg, mu in g.terms), g.dens)
                for g in self.groups
            )
        )

    def __mul__(self, other: "ContractionKernel") -> "ContractionKernel":
        return ContractionKernel(self.groups + other.groups)

    def log_coeff(self, m: int) -> complex:
        """c_m, the coefficient of x^m in the logarithm."""
        tot = 0.0 + 0.0j
        for g in self.groups:
            den = 1.0 + 0.0j
            for rho in g.dens:
                den *= 1 - rho**m
            tot += sum(sg * mu**m for sg, mu in g.terms) / den
        return tot / m

    def evaluate(self, x):
        """Fully summed product at x, and how close a factor comes to 0 (pole guard).

        Each term contributes prod_k (1 - y lambda_k)^{-sigma}, y = x mu, over
        the lattice of :func:`_den_lattice`.  The factors with |y lambda| >
        ``SPLIT``, a prefix of the sorted lattice, are multiplied out; the rest
        contribute exp(sigma sum_{m <= LOG_TERMS} y^m P_m / m), where P_m is
        the sum of their lambda^m (:func:`_tail_sums`).  ``closest`` is the
        exact min |factor| where that is below 1 - ``SPLIT``, else 1 - ``SPLIT``.
        Per element for an array ``x``: each point has its own prefix, so its
        guard does not depend on the other points, and its value only by
        rounding (the reductions run over the whole array).
        """
        x = np.asarray(x, dtype=complex)
        out = np.ones(x.size, dtype=complex)
        closest = np.full(x.size, 1 - SPLIT)
        for g in self.groups:
            lat = _den_lattice(g.dens)
            sigma = np.array([s for s, _ in g.terms])[:, None]
            y = np.multiply.outer([mu for _, mu in g.terms], x.ravel())  # terms x points
            k = np.searchsorted(SPLIT / np.abs(lat), np.abs(y))  # prefix lengths
            # the prefixes, padded with exact 1s past each point's own length
            f = 1 - lat[: k.max(), None, None] * y
            f[np.arange(len(f))[:, None, None] >= k] = 1
            am = np.abs(f).min(0, initial=1 - SPLIT)
            if (am == 0.0).any():
                raise ZeroDivisionError("contraction product hit an exact pole/zero")
            closest = np.minimum(closest, am.min(0))
            head = np.multiply.reduce(f, axis=0)
            out *= np.multiply.reduce(np.where(sigma > 0, 1 / head, head), axis=0)
            lengths = np.flatnonzero(np.bincount(k.ravel()))
            scale, sums = map(np.array, zip(*(_tail_sums(g.dens, int(n)) for n in lengths)))
            row = np.searchsorted(lengths, k)
            powers = np.cumprod(np.repeat((y * scale[row])[..., None], LOG_TERMS, -1), -1)
            out *= np.exp((sigma * (powers * sums[row]).sum(-1)).sum(0))
        return out.reshape(x.shape)[()], closest.reshape(x.shape)[()]


@lru_cache(maxsize=256)
def _den_lattice(dens: tuple[complex, ...]) -> np.ndarray:
    """All products prod rho_t^{k_t} above LATTICE_FLOOR, by decreasing modulus.

    The lattice is built in extended precision and rounded once at the end.
    """
    ld = np.clongdouble
    lat = np.ones(1, dtype=ld)
    for rho in dens:
        n = int(np.log(LATTICE_FLOOR) / np.log(abs(rho))) + 1
        lat = np.outer(lat, np.cumprod(np.r_[1, np.full(n, rho)].astype(ld))).ravel()
        lat = lat[np.abs(lat) > LATTICE_FLOOR]
    lat = lat.astype(complex)
    lat = lat[np.argsort(-np.abs(lat), kind="stable")]
    lat.flags.writeable = False
    return lat


@lru_cache(maxsize=1024)
def _tail_sums(dens: tuple[complex, ...], k: int) -> tuple[float, np.ndarray]:
    """(c, s) with s[m-1] = P_m / (m c^m), P_m = sum_{i >= k} lambda_i^m.

    c = |lambda_k| is the largest modulus past the prefix, so |y c| <=
    ``SPLIT`` wherever k is the prefix length at y and y^m P_m / m =
    (y c)^m s[m-1] neither overflows nor underflows.  Each sum runs from the
    small end of the lattice.
    """
    tail = _den_lattice(dens)[k:][::-1]
    c = abs(tail[-1]) if len(tail) else 0.0  # no tail: (y c)^m = 0
    r = tail / (c or 1.0)
    s = np.zeros(LOG_TERMS, dtype=complex)
    power = r.copy()
    for m in range(1, LOG_TERMS + 1):
        s[m - 1] = power.sum() / m
        power *= r
    s.flags.writeable = False
    return c, s


def _atomic_kernel(
    kind_x: str, kind_y: str, a_ij: int, params: DeformationParams
) -> ContractionKernel:
    """Exact term decomposition of m*c_m for one atomic pair.

    Starts from the bracket numerator (1-q^m)(p^{Am/2}-p^{-Am/2})(1-(p/q)^m)
    over (1-p^m) and multiplies the two oscillator coefficients, cancelling
    the matching (1-q^m)/(1-(p/q)^m) factors so every surviving geometric
    denominator has modulus < 1.
    """
    if a_ij == 0:
        return ContractionKernel(())
    p, q, ph = params.p, params.q, params.p_half
    cx, cy = OSCILLATOR_CLASS[kind_x], OSCILLATOR_CLASS[kind_y]
    terms = [(1, ph**a_ij), (-1, ph ** (-a_ij))]
    dens: list[complex] = [p]
    avail = {"q": 1, "pq": 1}
    mul = 1.0 + 0.0j
    sign = 1
    for cls, side in ((cx, "L"), (cy, "R")):
        key, rho = ("q", q) if cls == "+" else ("pq", p / q)
        if side == "L":
            mul *= rho  # left coefficient carries an extra rho^m
        else:
            sign = -sign  # right coefficient is -1/(1-rho^m)
        if avail[key]:
            avail[key] -= 1
        else:
            dens.append(rho)
    for key, rho in (("q", q), ("pq", p / q)):
        if avail[key]:  # uncancelled bracket factor (1-rho^m): expand
            terms = terms + [(-s, mu * rho) for s, mu in terms]
    out = tuple((sign * s, mu * mul) for s, mu in terms)
    return ContractionKernel((KernelGroup(out, tuple(dens)),))


# ---------------------------------------------------------------------------
# contraction of two currents


@dataclass(frozen=True)
class OpeResult:
    """X(z) Y(w) = coeff * z^z_exp * prefactor(w/z) * :X(z) Y(w):"""

    spec_x: CurrentSpec
    spec_y: CurrentSpec
    coeff: complex
    z_exp: complex
    series: LaurentSeries  # prefactor as truncated power series in x = w/z
    kernel: ContractionKernel

    def monomial(self, z: complex) -> complex:
        return self.coeff * z**self.z_exp if self.z_exp != 0 else self.coeff

    def evaluate(self, z, w):
        """Monomial times the fully summed prefactor (meromorphic route).

        Also returns the kernel's pole guard at w/z (``closest`` of
        :meth:`ContractionKernel.evaluate`); per element for arrays ``z``, ``w``.
        """
        val, closest = self.kernel.evaluate(w / z)
        return self.monomial(z) * val, closest

    def laurent_in_x(self, first_var_is_z: bool = True) -> tuple[complex, LaurentSeries]:
        """Full coefficient of :XY: as (z power, Laurent series in x = w/z).

        With ``first_var_is_z`` False the result reads a contraction computed
        in the reversed order (first argument w) on the same x axis: its
        monomial w^z_exp becomes z^z_exp x^z_exp.  This is how the inner and
        outer expansions of a cross relation are brought to one window.
        """
        if first_var_is_z:
            return self.z_exp, self.series * self.coeff
        shift = complex(self.z_exp)
        if abs(shift - round(shift.real)) > 1e-9:
            raise ValueError("monomial exponent is not an integer; no common Laurent window")
        return self.z_exp, (self.series.flip() * self.coeff).shift(int(round(shift.real)))


def contract(
    spec_x: CurrentSpec,
    spec_y: CurrentSpec,
    cartan: CartanMatrix,
    params: DeformationParams,
    order: int = 80,
) -> OpeResult:
    """Wick contraction of X(z) Y(w) over all constituent pairs.

    Both the oscillator part and the zero-mode monomial read the node pair
    only through A_ij, so the whole contraction comes from
    :func:`_node_free_part`, built once per Cartan class and shared by value.
    """
    a_ij = cartan[spec_x.node, spec_y.node]
    parts = _node_free_part(spec_x.constituents, spec_y.constituents, a_ij, params, order)
    return OpeResult(spec_x, spec_y, *parts)


@lru_cache(maxsize=256)
def _node_free_part(
    cons_x: tuple[tuple[str, complex], ...],
    cons_y: tuple[tuple[str, complex], ...],
    a_ij: int,
    params: DeformationParams,
    order: int,
) -> tuple[complex, complex, LaurentSeries, ContractionKernel]:
    """Node-free part of a contraction: (coeff, z_exp, series, q-product kernel).

    The constituent pairs' log series share one order, so they are summed
    and exponentiated once (exp is multiplicative on such series), and their
    zero-mode monomials multiply.  The result is shared by every node pair
    with the same A_ij; its coefficient array is read-only, so an in-place
    edit raises instead of reaching them.
    """
    ms = np.arange(1, order + 1)
    log = np.zeros(order + 1, dtype=complex)
    kernel = ContractionKernel(())
    coeff, z_exp = 1.0 + 0.0j, 0.0 + 0.0j
    for kx, sx in cons_x:
        _, gamma_x, const_x = zero_modes(kx, params)
        for ky, sy in cons_y:
            scale = sy / sx
            log[1:] += contraction_log_coeff(kx, ky, a_ij, params, ms) * scale**ms
            kernel = kernel * _atomic_kernel(kx, ky, a_ij, params).scale(scale)
            # X's momentum factor, at argument z * sx, past Y's charge
            charge_y = zero_modes(ky, params)[0]
            c, e = zero_mode_reorder(const_x * sx, gamma_x, a_ij, charge_y, params)
            coeff *= c
            z_exp += e
    series = series_exp(LaurentSeries(0, log, order))
    series.coeffs.flags.writeable = False
    return coeff, z_exp, series, kernel


# ---------------------------------------------------------------------------
# tabulated closed forms (cross relations; EE/FF have no printed closed form)


def closed_form(kind_x: str, kind_y: str, a_ij: int, params: DeformationParams):
    """Printed closed form of the full contraction coefficient, or None.

    Signature of the returned callable is (z1, z2) with z1 the first
    current's argument.  Only the S+S-/S-S+/EF/FE families are tabulated;
    the same-kind pairs are certified through the exchange-ratio route.
    """
    p, q = params.p, params.q
    ph, qh, pqh = params.p_half, params.q_half, params.pq_half
    key = (kind_x, kind_y, a_ij)
    table = {
        ("S+", "S-", 2): lambda z, w: 1 / ((z - w * q) * (z - w * q / p)),
        ("S+", "S-", -1): lambda z, w: z - w * q / ph,
        ("S+", "S-", 0): lambda z, w: 1.0 + 0.0j,
        ("S-", "S+", 2): lambda w, z: 1 / ((w - z / q) * (w - z * p / q)),
        ("S-", "S+", -1): lambda w, z: w - z * ph / q,
        ("S-", "S+", 0): lambda w, z: 1.0 + 0.0j,
        ("E", "F", 2): lambda z, w: 1
        / ((z * pqh) ** 2 * (1 - w * q / z) * (1 - w * q / (p * z))),
        ("E", "F", -1): lambda z, w: (z * pqh) * (1 - (w / z) * q / ph),
        ("E", "F", 0): lambda z, w: 1.0 + 0.0j,
        ("F", "E", 2): lambda w, z: 1
        / ((w * qh) ** 2 * (1 - z / (w * q)) * (1 - z * p / (w * q))),
        ("F", "E", -1): lambda w, z: (w * qh) * (1 - (z / w) * ph / q),
        ("F", "E", 0): lambda w, z: 1.0 + 0.0j,
    }
    return table.get(key)
