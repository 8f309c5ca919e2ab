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
  continuation used for every exchange-relation check.

Composite Cartan currents contract pairwise through their constituents;
the pairwise zero-mode monomials multiply to the exact composite monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import CartanMatrix, DeformationParams
from .heisenberg import (
    ZeroModeWord,
    contraction_log_coeff,
    zero_mode_reorder,
)
from .qlaurent import LaurentSeries, series_exp

ATOMIC_KINDS = ("S+", "S-", "E", "F")
COMPOSITE_KINDS = ("H+", "H-")

# oscillator structure of each atomic kind ("+" raising-type, "-" lowering-type)
_OSC_CLASS = {"S+": "+", "E": "+", "S-": "-", "F": "-"}


@dataclass(frozen=True)
class CurrentSpec:
    """One generating current: kind, node, and its normal-ordered constituents.

    ``constituents`` lists (atomic kind, argument multiplier); atomic currents
    have a single constituent with multiplier 1, the Cartan currents H+- have
    their two shifted constituents.
    """

    kind: str
    node: int
    rank: int
    constituents: tuple[tuple[str, complex], ...]

    def charge(self, params: DeformationParams) -> np.ndarray:
        """Coefficient vector of Q in the exponent (complex for S-)."""
        eps = np.zeros(self.rank, dtype=complex)
        for kind, _ in self.constituents:
            if kind in ("S+", "E"):
                eps[self.node] += 1
            elif kind == "F":
                eps[self.node] -= 1
            elif kind == "S-":
                eps[self.node] -= 1 / params.beta
        return eps

    def p_charge(self) -> np.ndarray | None:
        """Charge in root-lattice units, or None when not lattice-valued (S-)."""
        v = np.zeros(self.rank, dtype=int)
        for kind, _ in self.constituents:
            if kind == "S-":
                return None
            v[self.node] += {"S+": 1, "E": 1, "F": -1}[kind]
        return v

    def momentum_data(
        self, params: DeformationParams
    ) -> list[tuple[complex, np.ndarray | None]]:
        """Per constituent: (scale const, P-basis exponent vector or None).

        The factor is (const * argument)^(pvec . P); S+- zero modes are not
        integer powers of P and return pvec None (their a[0]-basis words are
        still available through :meth:`word`).
        """
        out = []
        for kind, shift in self.constituents:
            e = np.zeros(self.rank, dtype=int)
            if kind == "E":
                e[self.node] = 1
                out.append((shift * params.pq_half, e))
            elif kind == "F":
                e[self.node] = -1
                out.append((shift * params.q_half, e))
            else:
                out.append((shift, None))
        return out

    def word(self, var: str, params: DeformationParams) -> ZeroModeWord:
        """Zero-mode word of the current evaluated at (var * shifts)."""
        beta = params.beta
        charge = self.charge(params)
        factors = []
        for (kind, shift), (const, pvec) in zip(
            self.constituents, self.momentum_data(params)
        ):
            gamma = np.zeros(self.rank, dtype=complex)
            if pvec is not None:
                gamma[self.node] = pvec[self.node] / beta
            elif kind == "S+":
                gamma[self.node] = 1.0
            else:  # S-
                gamma[self.node] = -1.0 / beta
            factors.append((complex(const), var, tuple(gamma)))
        return ZeroModeWord(
            rank=self.rank, charge=tuple(charge), factors=tuple(factors)
        )


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


def compose_h(node: int, sign: int, rank: int, params: DeformationParams) -> CurrentSpec:
    """Cartan current H^sign_node as a composite of shifted E and F."""
    return current_spec("H+" if sign > 0 else "H-", node, rank, params)


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

    @cached_property
    def _hash(self) -> int:
        return hash(self.groups)

    def __hash__(self) -> int:
        # kernels key the verifier's value cache: hash the nested terms once
        return self._hash

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

    def evaluate(self, x: complex, tol: float = 1e-17) -> tuple[complex, float]:
        """Fully summed product at x; also returns min |factor| (pole guard).

        Each term contributes prod_k (1 - x mu rho^k)^{-sigma}.
        """
        out = 1.0 + 0.0j
        closest = np.inf
        for g in self.groups:
            lat = _den_lattice(g.dens, tol)
            for sigma, mu in g.terms:
                f = 1 - x * mu * lat
                am = float(np.min(np.abs(f)))
                closest = min(closest, am)
                if am == 0.0:
                    raise ZeroDivisionError("contraction product hit an exact pole/zero")
                pf = complex(np.prod(f))
                out *= pf ** (-sigma)
        return out, closest


@lru_cache(maxsize=256)
def _den_lattice(dens: tuple[complex, ...], tol: float) -> np.ndarray:
    """All products prod rho_t^{k_t} above tol, as a flat array."""
    lat = np.array([1.0 + 0.0j])
    for rho in dens:
        powers = []
        v = 1.0 + 0.0j
        while abs(v) > tol:
            powers.append(v)
            v *= rho
        lat = np.outer(lat, np.array(powers)).ravel()
        lat = lat[np.abs(lat) > tol]
    return lat


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
    cx, cy = _OSC_CLASS[kind_x], _OSC_CLASS[kind_y]
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
    """X(z) Y(w) = coeff * z^z_exp * w^w_exp * prefactor(w/z) * :X(z) Y(w):"""

    spec_x: CurrentSpec
    spec_y: CurrentSpec
    coeff: complex
    z_exp: complex
    w_exp: complex
    series: LaurentSeries  # prefactor as truncated power series in x = w/z
    kernel: ContractionKernel

    def monomial(self, z: complex, w: complex) -> complex:
        out = self.coeff
        if self.z_exp != 0:
            out *= z**self.z_exp
        if self.w_exp != 0:
            out *= w**self.w_exp
        return out

    def evaluate(self, z: complex, w: complex) -> complex:
        """Monomial times the fully summed prefactor (meromorphic route)."""
        val, _ = self.kernel.evaluate(w / z)
        return self.monomial(z, w) * val

    def laurent_in_x(self, first_var_is_z: bool = True) -> tuple[complex, LaurentSeries]:
        """Full coefficient of :XY: as (overall z power, Laurent series in x = w/z).

        The monomial's w-dependence is folded into powers of x, leaving the
        common power z^(z_exp + w_exp).  With ``first_var_is_z`` False the
        result reads a contraction computed in the reversed order (first
        argument w) on the same x axis, which is how the inner and outer
        expansions of a cross relation are brought to one window.
        """
        zsum = self.z_exp + self.w_exp
        if first_var_is_z:
            shift, series = complex(self.w_exp), self.series
        else:
            shift, series = complex(self.z_exp), self.series.flip()
        if abs(shift - round(shift.real)) > 1e-9:
            raise ValueError("monomial exponent is not an integer; no common Laurent window")
        return zsum, (series * self.coeff).shift(int(round(shift.real)))


def contract(
    spec_x: CurrentSpec,
    spec_y: CurrentSpec,
    cartan: CartanMatrix,
    params: DeformationParams,
    order: int = 80,
) -> OpeResult:
    """Wick contraction of X(z) Y(w) over all constituent pairs.

    The oscillator part reads the node pair only through A_ij, so it comes
    from :func:`_oscillator_part`, shared by value; the zero-mode monomial
    reads the node indices and is reordered here for every node pair.
    """
    a_ij = cartan[spec_x.node, spec_y.node]
    series, kernel = _oscillator_part(
        spec_x.constituents, spec_y.constituents, a_ij, params, order
    )
    coeff = 1.0 + 0.0j
    z_exp = 0.0 + 0.0j
    w_exp = 0.0 + 0.0j
    for kx, sx in spec_x.constituents:
        ax = current_spec(kx, spec_x.node, spec_x.rank, params)
        wx = _shifted_word(ax, "z", sx, params)
        for ky, sy in spec_y.constituents:
            ay = current_spec(ky, spec_y.node, spec_y.rank, params)
            # X-constituent factors past the Y-constituent charge
            wy = _shifted_word(ay, "w", sy, params)
            red = zero_mode_reorder(wx, wy, cartan, params)
            mcoeff, zp = red.monomial()
            coeff *= mcoeff
            z_exp += zp.get("z", 0.0)
            w_exp += zp.get("w", 0.0)
    return OpeResult(spec_x, spec_y, coeff, z_exp, w_exp, series, kernel)


@lru_cache(maxsize=256)
def _oscillator_part(
    cons_x: tuple[tuple[str, complex], ...],
    cons_y: tuple[tuple[str, complex], ...],
    a_ij: int,
    params: DeformationParams,
    order: int,
) -> tuple[LaurentSeries, ContractionKernel]:
    """Node-free oscillator part of a contraction: (series, q-product kernel).

    The constituent pairs' log series share one order, so they are summed
    and exponentiated once (exp is multiplicative on such series).  The
    result is shared by every node pair with the same A_ij; its coefficient
    array is read-only, so an in-place edit raises instead of reaching them.
    """
    ms = np.arange(1, order + 1)
    log = np.zeros(order + 1, dtype=complex)
    kernel = ContractionKernel(())
    for kx, sx in cons_x:
        for ky, sy in cons_y:
            scale = sy / sx
            log[1:] += contraction_log_coeff(kx, ky, a_ij, params, ms) * scale**ms
            kernel = kernel * _atomic_kernel(kx, ky, a_ij, params).scale(scale)
    series = series_exp(LaurentSeries(0, log, order))
    series.coeffs.flags.writeable = False
    return series, kernel


def _shifted_word(
    spec: CurrentSpec, var: str, shift: complex, params: DeformationParams
) -> ZeroModeWord:
    """Zero-mode word of an atomic current evaluated at var * shift."""
    w = spec.word(var, params)
    factors = tuple((const * shift, v, g) for const, v, g in w.factors)
    return ZeroModeWord(rank=w.rank, charge=w.charge, factors=factors, coeff=w.coeff)


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
