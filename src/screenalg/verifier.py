"""Executable catalogue of the algebra's defining relations.

Every relation is checked numerically, most through two independent routes:

* series route: fully summed contraction functions (q-products and exact
  monomials) evaluated at sample points and compared against the printed
  theta-quotient / rational expressions;
* Fock route: exact mode matrices on the truncated level-1 Fock space.

Exchange relations are verified as meromorphic-ratio identities,
R(x) = C_XY(1, x) / C_YX(x, 1) against the structure function, which is
how "analytical continuation" is made executable at desk scale.

Three typographic defects of the source displays are corrected here and
flagged in every report (see ERRATA): the EF cross relation mislabelled as
E E at A_ij = -1, the H+H- exchange with garbled exponents (replaced by the
general-c form at c = 1), the first delta argument of the E/F commutator
(delta(z/(w q)), as in the general-c display, which matches the pole at
w = z/q; the c = 1 display prints delta(w/(z q))).  Two further corrections
were established numerically: the H-E and H-F exchange sign is -1 for every
simply-laced A_ij (the printed (-1)^{A_ij - 1} fails at A_ij = -1), and the
psi factorization holds in the form phi(x)/phi(1/x) = x^{A_ij} psi(x).
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction

import numpy as np

from .algebra import CartanMatrix, DeformationParams, make_cartan, make_params
from .currents import CurrentSpec, OpeResult, closed_form, contract, current_spec
from .fock import FockSpace
from .heisenberg import ModeBracketTable
from .qlaurent import LaurentSeries, delta_extract, theta

ERRATA = (
    "EF-cross-relation at A_ij=-1: display header reads E_i(z) E_j(w); "
    "corrected to E_i(z) F_j(w) (matches the S+S- pattern).",
    "H+H- exchange: printed exponents p^{(A_ij} are garbled; the clean "
    "general-c form at c=1 is used instead.",
    "E/F commutator, first delta: printed delta(w/(zq)) puts the support at "
    "w = zq where the contraction has no pole; the general-c display and "
    "the partial fractions give delta(z/(wq)), support w = z/q.  Corrected.",
    "H-E and H-F exchange sign: printed (-1)^{A_ij-1} fails at A_ij = -1; "
    "the bosonization gives the factor -1 for every simply-laced A_ij.",
    "psi factorization: printed psi(x) = phi(x)/phi(1/x) holds only at "
    "A_ij = 0; the identity is phi(x)/phi(1/x) = x^{A_ij} psi(x).",
)


def _check_theta_order(params: DeformationParams, order: int, tol: float):
    """Reject an order whose theta tail |base|^order is not far below tol.

    theta truncates each q-product at ``order`` factors; its relative error
    is a small multiple of |base|^order, so that must stay under 1e-3 * tol
    for every theta base the checks use (q, p/q and qtilde).
    """
    base = max(abs(params.q), abs(params.pq), abs(params.qtilde))
    bound = 1e-3 * tol
    if base**order > bound:
        need = max(order, math.ceil(math.log(bound) / math.log(base)) - 1)
        while base**need > bound:
            need += 1
        raise ValueError(
            f"theta base {base:.6g} at series order {order} leaves a truncation "
            f"tail {base**order:.2e} above 1e-3 * tol = {bound:.1e}; "
            f"use --order {need} or more"
        )


@dataclass
class VerifierContext:
    """Shared configuration for one verification run.

    ``exchange_ratio`` and ``theta_g`` take an array of points w/z and
    return a value per point and a boolean mask of the points to skip: a
    contraction factor below ``pole_floor`` or a reversed contraction of
    exactly 0, and a theta factor below ``theta_floor``.  No value is
    cached per sample.  ``_results`` holds each catalogue row's result by
    (driver, args), so rows that make the same computation share one run.

    Building a context rejects an ``order`` whose theta truncation tail is
    not far below ``tol_series`` (see :func:`_check_theta_order`).
    """

    cartan: CartanMatrix
    params: DeformationParams
    order: int = 80
    n_samples: int = 16
    radius: float = 0.5
    n_random: int = 100
    serre_samples: int = 8
    fock_cap: int = 3
    fock_window: int = 3
    tol_series: float = 1e-8
    tol_fock: float = 1e-8
    seed: int = 75018
    theta_floor: float = 1e-6
    pole_floor: float = 1e-9
    _fock: FockSpace | None = None
    _results: dict = field(default_factory=dict)
    _circle: np.ndarray | None = None

    def __post_init__(self):
        _check_theta_order(self.params, self.order, self.tol_series)

    @property
    def fock(self) -> FockSpace:
        if self._fock is None:
            self._fock = FockSpace(self.cartan, self.params)
        return self._fock

    def spec(self, kind: str, node: int) -> CurrentSpec:
        return current_spec(kind, node, self.cartan.rank, self.params)

    def contract(self, spec_x: CurrentSpec, spec_y: CurrentSpec) -> OpeResult:
        return contract(spec_x, spec_y, self.cartan, self.params, self.order)

    def theta_g(self, key: str, x, a_ij: int):
        """:func:`theta_quotient` of row ``key`` at this run's params, order and theta_floor."""
        return theta_quotient(key, x, a_ij, self.params, self.order, self.theta_floor)

    def exchange_ratio(self, ope_xy: OpeResult, ope_yx: OpeResult, x):
        """C_XY(1, x) / C_YX(x, 1), and the mask of the points too close to a pole."""
        vxy, c1 = ope_xy.evaluate(1.0, x)
        vyx, c2 = ope_yx.evaluate(x, 1.0)
        return vxy / vyx, (np.minimum(c1, c2) < self.pole_floor) | (vyx == 0)

    def circle_samples(self) -> np.ndarray:
        if self._circle is None:
            ph = (np.arange(self.n_samples) + 0.5) / self.n_samples * 2 * np.pi - np.pi
            self._circle = self.radius * np.exp(1j * ph)
            self._circle.flags.writeable = False
        return self._circle


# ---------------------------------------------------------------------------
# structure functions

# The structure functions G(x), x = w/z, as data; the sign conventions carry
# the corrections listed in ERRATA.  A row ((s0, sa), (k0, kb), m, num, den) is
#   G(x) = (-1)^(s0 + sa A_ij) (x m)^(k0 + A_ij (1 - beta^kb)) prod_num / prod_den
# over its theta factors (b, e, *s), each theta_b(x^e s) with e = +-1.  The
# monomials m and s are products of terms (g, u, v), each g^((u A_ij + v c)/2)
# read as g_half^(u A_ij + v c) from the half powers make_params takes; bases
# and generators name DeformationParams attributes.  psi is EE (base q) or
# FF-qt (base qtilde), and phi is phi or phi-qt.
_PA = ("p", 1, 0)  # p^{A_ij/2}
G_TABLE = {
    "SpSp": ((-1, 1), (-1, 1), (), (("q", 1, _PA),), (("q", -1, _PA),)),
    "SmSm": ((-1, 1), (-1, -1), (), (("pq", 1, _PA),), (("pq", -1, _PA),)),
    "EE": ((-1, 1), (-1, 0), (), (("q", 1, _PA),), (("q", -1, _PA),)),
    "FF": ((-1, 1), (-1, 0), (), (("pq", 1, _PA),), (("pq", -1, _PA),)),
    "FF-qt": ((-1, 1), (-1, 0), (), (("qtilde", 1, _PA),), (("qtilde", -1, _PA),)),
    "HH": ((0, 0), (-2, 0), (),
           (("q", 1, _PA), ("qtilde", 1, _PA)), (("q", -1, _PA), ("qtilde", -1, _PA))),
    "HpHm": ((0, 0), (-2, 0), (),
             (("q", 1, ("p", 1, -1)), ("qtilde", 1, ("p", 1, 1))),
             (("q", -1, ("p", 1, 1)), ("qtilde", -1, ("p", 1, -1)))),
    "HpE": ((1, 0), (-1, 0), (("q", 0, -1),),
            (("q", 1, _PA, ("q", 0, -1)),), (("q", -1, _PA, ("q", 0, 1)),)),
    "HmE": ((1, 0), (-1, 0), (("qtilde", 0, 1),),
            (("q", 1, _PA, ("qtilde", 0, 1)),), (("q", -1, _PA, ("qtilde", 0, -1)),)),
    "HpF": ((1, 0), (-1, 0), (("q", 0, 1),),
            (("qtilde", 1, _PA, ("q", 0, 1)),), (("qtilde", -1, _PA, ("q", 0, -1)),)),
    "HmF": ((1, 0), (-1, 0), (("qtilde", 0, -1),),
            (("qtilde", 1, _PA, ("qtilde", 0, -1)),), (("qtilde", -1, _PA, ("qtilde", 0, 1)),)),
    "phi": ((0, 0), (0, 0), (), (("q", 1, _PA),), (("q", 1, ("q", 1, 0)),)),
    "phi-qt": ((0, 0), (0, 0), (), (("qtilde", 1, _PA),), (("qtilde", 1, ("qtilde", 1, 0)),)),
}


def theta_quotient(key: str, x, a_ij: int, params: DeformationParams, order: int, floor: float):
    """Row ``key`` of G_TABLE per element of x, and where a theta factor is below ``floor``.

    ``floor=0`` marks no point; the rows that apply no theta floor pass it.
    """
    (s0, sa), (k0, kb), m, num, den = G_TABLE[key]

    def mono(terms):
        return math.prod(getattr(params, g + "_half") ** (u * a_ij + v * params.c) for g, u, v in terms)

    g = (-1.0) ** (s0 + sa * a_ij) * (x * mono(m)) ** (k0 + a_ij * (1 - params.beta**kb))
    low = False
    for k, (b, e, *s) in enumerate(num + den):
        t = theta(x * mono(s) if e > 0 else mono(s) / x, getattr(params, b), order)
        low = low | (np.abs(t) < floor)
        g = g * t if k < len(num) else g / t
    return g, low


def serre_coefficient(z1, z2, w, psi_fn, floor: float = 1e-9):
    """f (or g) from the pairwise exchange factors, and the mask of the points to skip.

    ``psi_fn(x, a_ij)`` returns the factor and its own skip mask, as
    :meth:`VerifierContext.exchange_ratio` does.  Per element for arrays
    ``z1``, ``z2``, ``w``.  A point is skipped where a factor is skipped or
    the denominator is below ``floor`` times its terms; f there is not used.
    """
    pii, skip_ii = psi_fn(z2 / z1, 2)
    pij1, skip_1 = psi_fn(w / z1, -1)
    pij2, skip_2 = psi_fn(w / z2, -1)
    with np.errstate(divide="ignore", invalid="ignore"):  # f is not read where skip is set
        den = pij2 + pii * pij1
        low = abs(den) < floor * np.maximum(np.maximum(abs(pij2), abs(pii * pij1)), 1.0)
        f = (pii + 1) * (pij1 * pij2 + 1) / den
    return f, low | skip_ii | skip_1 | skip_2


# ---------------------------------------------------------------------------
# relation results


@dataclass
class RelationResult:
    name: str
    anchor: str
    route: str
    n_samples: int
    skipped: int
    max_residual: float
    tolerance: float
    passed: bool
    notes: str = ""
    seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "relation": self.name,
            "anchor_quote": self.anchor,
            "route": self.route,
            "n_samples": self.n_samples,
            "skipped_samples": self.skipped,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "notes": self.notes,
            "seconds": round(self.seconds, 3),
            "details": self.details,
        }


@dataclass
class VerificationReport:
    algebra: str
    p: str
    q: str
    c: str
    order: int
    fock_cap: int
    seed: int
    results: list[RelationResult]
    errata: tuple[str, ...] = ERRATA

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "algebra": self.algebra,
            "p": self.p,
            "q": self.q,
            "c": self.c,
            "order": self.order,
            "fock_degree": self.fock_cap,
            "seed": self.seed,
            "all_pass": self.all_pass,
            "errata": list(self.errata),
            "checks": [r.to_dict() for r in self.results],
        }


# ---------------------------------------------------------------------------
# generic check drivers

_VACUOUS = "no node pairs with the required Cartan entry in this algebra; vacuous"


def _relative(a, b):
    """|a - b| / max(|a|, |b|), per element."""
    return abs(a - b) / np.maximum(abs(a), abs(b))


def _outcome(residuals, n, skipped, tol, notes="", vacuous=False, compared=None):
    """The report fields of one check.

    A check passes iff it compared at least one sample (``compared``, by
    default the number of residuals) and its largest residual is within
    ``tol``, or it is ``vacuous``: the algebra has no node pair of the
    Cartan class the relation needs, so there is nothing to compare.
    """
    worst = np.max(residuals, initial=0.0)  # a NaN residual propagates and fails
    compared = len(residuals) if compared is None else compared
    return {
        "n_samples": n,
        "skipped": skipped,
        "max_residual": float(worst),
        "tolerance": tol,
        "passed": vacuous or (compared > 0 and worst <= tol),
        "notes": notes,
    }


def _by_contraction(ctx, kind_x, kind_y, nodes):
    """The node pairs grouped by the value of their contractions X Y and Y X.

    Returns ((ope_xy, ope_yx, a_ij), count) per group, with the contractions
    of the group's first node pair.  Node pairs share a group iff A_ij and
    both contractions' coeff, z_exp and kernel are equal, so a defect in one
    node pair's contraction puts it in a group of its own.
    """
    groups: dict = {}
    for i, j, a_ij in nodes:
        sx, sy = ctx.spec(kind_x, i), ctx.spec(kind_y, j)
        opes = ctx.contract(sx, sy), ctx.contract(sy, sx)
        key = (a_ij, *((o.coeff, o.z_exp, o.kernel) for o in opes))
        first, n = groups.get(key, ((*opes, a_ij), 0))
        groups[key] = (first, n + 1)
    return list(groups.values())


def _exchange_driver(ctx, pairs, key, a_filter=None):
    """Ratio check of X(z) Y(w) = G(z,w) Y(w) X(z) over node pairs and samples.

    ``pairs`` holds the (kind_x, kind_y) current pairs the relation states
    (H+H+ and H-H- for the HH exchange); each must compare a sample.  G is
    row ``key`` of G_TABLE.  Node pairs whose contractions are
    equal in both directions share one evaluation of R, G and the skip mask
    over the sample array; samples are counted per node pair.
    """
    nodes = [t for t in ctx.cartan.node_pairs() if a_filter is None or t[2] in a_filter]
    if not nodes:
        return _outcome([], 0, 0, ctx.tol_series, _VACUOUS, vacuous=True)
    xs = ctx.circle_samples()
    residuals, skipped, compared = [], 0, [0] * len(pairs)
    for k, (kind_x, kind_y) in enumerate(pairs):
        for (ope_xy, ope_yx, a_ij), n in _by_contraction(ctx, kind_x, kind_y, nodes):
            r, skip = ctx.exchange_ratio(ope_xy, ope_yx, xs)
            g, low = ctx.theta_g(key, xs, a_ij)
            keep = ~(skip | low)
            residuals.append(_relative(r, g)[keep])
            skipped += n * int(np.count_nonzero(~keep))
            compared[k] += n * int(np.count_nonzero(keep))
    total = len(pairs) * len(nodes) * ctx.n_samples
    return _outcome(
        np.concatenate(residuals), total, skipped, ctx.tol_series, compared=min(compared)
    )


def _closed_form_driver(ctx, kind_x, kind_y, a_class):
    """Summed contraction x zero-mode monomial against the printed closed form."""
    nodes = [t for t in ctx.cartan.node_pairs() if t[2] == a_class]
    if not nodes:
        return _outcome([], 0, 0, ctx.tol_series, _VACUOUS, vacuous=True)
    xs = ctx.circle_samples()
    want = closed_form(kind_x, kind_y, a_class, ctx.params)(1.0 + 0j, xs)
    residuals, skipped, compared = [], 0, 0
    for (ope_xy, _, _), n in _by_contraction(ctx, kind_x, kind_y, nodes):
        v, closest = ope_xy.evaluate(1.0, xs)
        skip = closest < ctx.pole_floor
        residuals.append(_relative(v, want)[~skip])
        skipped += n * int(np.count_nonzero(skip))
        compared += n * int(np.count_nonzero(~skip))
    total = len(nodes) * ctx.n_samples
    return _outcome(np.concatenate(residuals), total, skipped, ctx.tol_series, compared=compared)


def _commutator_driver(ctx: VerifierContext):
    """The E/F commutator row: each route against its own tolerance, for every node pair.

    Besides the report fields, the row carries each route's largest
    residual as ``series`` and ``fock``; the notes name both.
    """
    p, q = ctx.params.p, ctx.params.q
    series_res, fock_res = [], []
    compared = vacuous = 0
    details: dict = {}
    sectors = [tuple([0] * ctx.cartan.rank)]
    window = min(ctx.order // 3, 24)
    for i, j, a_ij in ctx.cartan.node_pairs():
        e_i, f_j = ctx.spec("E", i), ctx.spec("F", j)
        zs1, inner = ctx.contract(e_i, f_j).laurent_in_x(True)
        zs2, outer = ctx.contract(f_j, e_i).laurent_in_x(False)
        if abs(zs1 - zs2) > 1e-9:
            raise ValueError("EF and FE monomials do not share a z power")
        # delta supports: weights at i = j; regular part 2((p/q)^{1/2} - q^{1/2} x) at A_ij = -1
        expected = {1 / q: q / (p - 1), p / q: q / (p * (1 - p))} if i == j else {}
        coeffs = {0: 2 * ctx.params.pq_half, 1: -2 * ctx.params.q_half} if a_ij == -1 else {}
        regular = LaurentSeries.from_coeff_map(coeffs, inner.order)
        comb = delta_extract(inner - regular, outer, list(expected), window=(-window - 2, window))
        werr = [abs(w - e) / abs(e) for w, e in zip(comb.weights, expected.values())]
        series_res.append(max([comb.residual, *werr]))
        if expected:
            details[f"supports[{i},{j}]"] = [[repr(s), repr(w)] for s, w in zip(expected, comb.weights)]
        rep = ctx.fock.commutator_check(e_i, f_j, sectors, ctx.fock_cap, ctx.fock_window)
        fock_res.append(rep.max_residual)
        compared += len(rep.residuals) - rep.vacuous
        vacuous += rep.vacuous
        details[f"fock[{i},{j}]"] = rep.max_residual
    series, fock = float(max(series_res)), float(max(fock_res))
    notes = f"series residual {series:.3e}, fock residual {fock:.3e}"
    row = _outcome([series, fock], compared, vacuous, max(ctx.tol_series, ctx.tol_fock), notes)
    passed = series <= ctx.tol_series and fock <= ctx.tol_fock
    return {**row, "passed": passed, "details": details, "series": series, "fock": fock}


def _uniform_rows(rng: random.Random, n: int, bounds) -> np.ndarray:
    """n rows of rng.uniform(lo, hi) = lo + (hi - lo) rng.random(), one per (lo, hi) in bounds."""
    return np.array([[rng.uniform(lo, hi) for lo, hi in bounds] for _ in range(n)])


def _draw_triples(rng: random.Random, n: int):
    """z1, z2, w at n points, each drawn as |z| in [0.7, 1.3] then arg z in [-2.8, 2.8]."""
    r, ph = _uniform_rows(rng, n, [(0.7, 1.3), (-2.8, 2.8)] * 3).reshape(n, 3, 2).T
    return r * np.exp(1j * ph)


def _serre_driver(ctx: VerifierContext, kind: str):
    """Cubic Serre relation through six fully-contracted triple products.

    Triples are drawn in batches of as many as a node pair still needs, so
    the draws are those of a one-by-one rejection loop: a skipped triple is
    replaced, up to 10 attempts per wanted sample.
    """
    tol = 1e-7
    adjacent = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
    if not adjacent:
        return _outcome([], 0, 0, tol, "no adjacent node pair in this algebra; vacuous", vacuous=True)
    psi = "EE" if kind == "E" else "FF-qt"
    psi_fn = partial(theta_quotient, psi, params=ctx.params, order=ctx.order, floor=0)
    rng = random.Random(ctx.seed)
    residuals, skipped, total = [], 0, 0

    sampled = adjacent[:2]  # the first two only, to stay cheap; named in the notes
    want, cap = ctx.serre_samples, 10 * ctx.serre_samples
    for i, j in sampled:
        done = attempts = 0
        while done < want and attempts < cap:
            n = min(want - done, cap - attempts)
            attempts += n
            total += n
            z1, z2, w = _draw_triples(rng, n)
            f12, skip12 = serre_coefficient(z1, z2, w, psi_fn)
            f21, skip21 = serre_coefficient(z2, z1, w, psi_fn)
            skip = skip12 | skip21
            # the six ordered pairs of the three currents, each contracted once
            cur, pair = ((i, z1), (i, z2), (j, w)), {}
            for a, b in itertools.permutations(range(3), 2):
                ope = ctx.contract(ctx.spec(kind, cur[a][0]), ctx.spec(kind, cur[b][0]))
                pair[a, b], closest = ope.evaluate(cur[a][1], cur[b][1])
                skip = skip | (closest < ctx.pole_floor)
            # each order of the three currents: its weight times the product of
            # the contractions of its pairs
            orders = ((0, 1, 2), (0, 2, 1), (2, 0, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0))
            terms = [
                c * (pair[a, b] * pair[a, d] * pair[b, d])
                for c, (a, b, d) in zip((1, -f12, 1, 1, -f21, 1), orders)
            ]
            with np.errstate(invalid="ignore"):  # f is inf or nan only where skip is set
                res = abs(sum(terms)) / np.maximum.reduce([abs(t) for t in terms])
            residuals.append(res[~skip])
            skipped += int(skip.sum())
            done += int((~skip).sum())
    notes = (
        f"sampled node pairs {', '.join(map(str, sampled))}: "
        f"{len(sampled)} of {len(adjacent)} adjacent ordered pairs"
    )
    return _outcome(np.concatenate(residuals), total, skipped, tol, notes)


def _jacobi_sum(x, a):
    """sum_n (-1)^n a^{n(n-1)/2} x^n and sum_n |term|, summed out to 1e-18 of the latter.

    Per element for arrays ``x``, ``a``, until every point's terms are that
    small.  By the Jacobi triple product this equals the theta product, so it
    is an independent route to theta(x, a).
    """
    total, size, n = 1.0 + 0.0j, 1.0, 1
    while True:
        t1, t2 = ((-1) ** k * a ** (k * (k - 1) // 2) * x**k for k in (n, -n))
        total, size = total + (t1 + t2), size + (abs(t1) + abs(t2))
        if np.all(np.maximum(abs(t1), abs(t2)) < 1e-18 * size):
            return total, size
        n += 1


def _theta_driver(ctx):
    """Quasi-periodicity and the triple-product sum at n_random random (a, x)."""
    # per point: |a|, arg a, |x|, arg x
    bounds = [(0.05, 0.5), (-math.pi, math.pi), (0.2, 1.8), (-math.pi, math.pi)]
    ra, pa, rx, px = _uniform_rows(random.Random(ctx.seed), ctx.n_random, bounds).T
    a, x = ra * np.exp(1j * pa), rx * np.exp(1j * px)
    tx = theta(x, a, ctx.order)
    rhs = -tx / x
    quasi = abs(theta(a * x, a, ctx.order) - rhs) / np.maximum(abs(rhs), 1e-30)
    # the product against the triple-product sum, relative to the sum's term sizes
    total, size = _jacobi_sum(x, a)
    return _outcome(np.r_[quasi, abs(tx - total) / size], 2 * ctx.n_random, 0, 1e-9)


def _heisenberg_driver(ctx):
    residuals = []
    cartans = [ctx.cartan]
    if ctx.cartan.label != "D" or ctx.cartan.rank != 4:
        cartans.append(make_cartan("D", 4))
    for cartan in cartans:
        table = ModeBracketTable(cartan, ctx.params)
        p, q, ph = ctx.params.p, ctx.params.q, ctx.params.p_half
        for i, j, a_ij in cartan.node_pairs():
            for n in range(1, 31):
                b = table.bracket(i, j, n, -n)
                direct = (
                    (1 - q**n)
                    * (ph ** (a_ij * n) - ph ** (-a_ij * n))
                    * (1 - (p / q) ** n)
                    / (n * (1 - p**n))
                )
                scale = max(abs(direct), 1e-30)
                residuals.append(abs(b - direct) / scale)
                anti = table.bracket(j, i, -n, n)
                residuals.append(abs(b + anti) / scale)
                if a_ij == 0:
                    residuals.append(abs(b))
                if table.bracket(i, j, n, n + 1) != 0:
                    residuals.append(1.0)
    notes = (
        "consistency check: the engine's bracket (heisenberg.mode_bracket) against "
        "the printed formula, on the run algebra and on D4"
    )
    return _outcome(residuals, len(residuals), 0, 1e-12, notes)


def _structure_driver(ctx, which: str):
    rng = random.Random(ctx.seed + 1)
    p = ctx.params
    if which == "from-engine":  # serre coefficients rebuilt from the engine's exchange ratios
        pairs = [(i, j) for i, j, a in ctx.cartan.node_pairs() if a == -1]
        if not pairs:
            return _outcome([], 0, 0, 1e-9, "needs an adjacent node pair; vacuous", vacuous=True)
        i, j = pairs[0]

        def psi_engine_e(x, a_ij):
            sx, sy = ctx.spec("E", i), ctx.spec("E", i if a_ij == 2 else j)
            return ctx.exchange_ratio(ctx.contract(sx, sy), ctx.contract(sy, sx), x)

        psi_printed_e = partial(theta_quotient, "EE", params=p, order=ctx.order, floor=0)
        n = max(ctx.n_random // 4, 8)
        z1, z2, w = _draw_triples(rng, n)
        f_engine, skip = serre_coefficient(z1, z2, w, psi_engine_e)
        f_printed, skip_printed = serre_coefficient(z1, z2, w, psi_printed_e)
        skip = skip | skip_printed
        with np.errstate(divide="ignore", invalid="ignore"):  # f is finite where kept
            res = _relative(f_engine, f_printed)
        return _outcome(res[~skip], n, int(skip.sum()), 1e-9)
    # per point: A_ij, |x|, arg x
    a_all, r, ph = np.array([((2, -1, 0)[int(3 * rng.random())], rng.uniform(0.3, 1.7), rng.uniform(-3.0, 3.0))
                             for _ in range(ctx.n_random)]).T
    xs, residuals, skipped = r * np.exp(1j * ph), [], 0
    for a_ij, (psi, phi) in itertools.product((2, -1, 0), (("EE", "phi"), ("FF-qt", "phi-qt"))):
        x = xs[a_all == a_ij]
        g = partial(theta_quotient, a_ij=a_ij, params=p, order=ctx.order, floor=0)
        with np.errstate(divide="ignore", invalid="ignore"):  # masked by zero below
            if which == "psi-inversion":
                u, v = g(psi, x)[0], g(psi, 1 / x)[0]
                res = abs(u * v - 1)
            else:
                u, v = g(phi, x)[0], g(phi, 1 / x)[0]
                res = _relative(u / v, x ** float(a_ij) * g(psi, x)[0])
            # a theta quotient is 0 or not finite where one of its thetas is
            # exactly 0: those samples are skipped
            zero = (u * v == 0) | ~np.isfinite(u * v)
        residuals.append(res[~zero])
        skipped += int(zero.sum())
    return _outcome(np.concatenate(residuals), 2 * ctx.n_random, skipped, 1e-10)


def _sl2_generic_driver(ctx, key, self_inverse=False):
    """Function-level checks of the rank-1 general-c block at c = 2 and 3.

    G is row ``key`` of G_TABLE at A_ij = 2; where the relation pairs a
    current with itself (``self_inverse``), G(x) G(1/x) = 1 is checked.
    Every sample also checks q qtilde = p^c.  ``key`` is None for the
    commutator, whose delta supports are compared with the c = 1 ones.  No
    operator check exists away from c = 1.
    """
    r, ph = _uniform_rows(random.Random(ctx.seed + 2), 12, [(0.4, 1.6), (-2.9, 2.9)]).T
    xs = r * np.exp(1j * ph)
    base = ctx.params
    residuals, skipped = [], 0
    for c in (Fraction(2), Fraction(3)):
        pc = make_params(base.p, base.q, c)
        _check_theta_order(pc, ctx.order, ctx.tol_series)
        skip = np.zeros(len(xs), dtype=bool)
        if key is not None:
            g, skip = theta_quotient(key, xs, 2, pc, ctx.order, ctx.theta_floor)
            if self_inverse:
                ginv, skip_inv = theta_quotient(key, 1 / xs, 2, pc, ctx.order, ctx.theta_floor)
                skip = skip | skip_inv
                residuals += list(np.abs(g * ginv - 1)[~skip])
        qq = abs(pc.q * pc.qtilde - pc.p ** float(c)) / abs(pc.p ** float(c))
        residuals += [qq] * int(np.count_nonzero(~skip))
        skipped += int(np.count_nonzero(skip))
    notes = "function-level only; no representation exists away from c=1"
    if key is None:
        p1 = make_params(base.p, base.q, Fraction(1))
        s1, s2 = 1 / p1.q, p1.qtilde  # supports z = w q^c, w = z qtilde^c at c=1
        residuals += [abs(s1 - 1 / base.q), abs(s2 - base.p / base.q)]
        notes += "; delta supports checked to coincide with the c=1 commutator"
    notes += "; consistency only; no independent reference yet (ROADMAP item 2)"
    return _outcome(residuals, 2 * len(xs), skipped, 1e-9, notes)


def _needs_c1(ctx):
    return _outcome([], 0, 0, 0.0, "needs the level-1 representation (c = 1); skipped", vacuous=True)


# ---------------------------------------------------------------------------
# the catalogue

# One row per relation: (name, anchor quote, route, driver, args,
# requires_c1).  The row's check is driver(ctx, *args); args are hashable, so
# rows with equal (driver, args) are one computation, run once per context.
# A row that requires_c1 is reported as skipped when c != 1.
CATALOGUE = (
    ("theta-quasiperiodicity",
     "theta_a(ax) = -x^{-1} theta_a(x),  theta_a(x e^{2 pi i}) = theta_a(x)",
     "series", _theta_driver, (), False),
    ("heisenberg-bracket",
     "[a_i[n], a_j[m]] = (1/n)(1-q^n)(p^{A_ij n/2}-p^{-A_ij n/2})(1-(p/q)^n)/(1-p^n) delta_{n,-m}",
     "direct", _heisenberg_driver, (), False),
    ("Eq7-SpSp-exchange",
     "S+_i(z) S+_j(w) = (-1)^{A_ij-1} (w/z)^{A_ij-A_ij b-1} theta_q((w/z)p^{A_ij/2})/theta_q((z/w)p^{A_ij/2}) S+_j(w) S+_i(z)",
     "series", _exchange_driver, ((("S+", "S+"),), "SpSp"), False),
    ("Eq8-SmSm-exchange",
     "S-_i(z) S-_j(w) = (-1)^{A_ij-1} (w/z)^{A_ij-A_ij/b-1} theta_{p/q}((w/z)p^{A_ij/2})/theta_{p/q}((z/w)p^{A_ij/2}) S-_j(w) S-_i(z)",
     "series", _exchange_driver, ((("S-", "S-"),), "SmSm"), False),
    ("Eq10-SpSm-same-node",
     "S+_i(z) S-_i(w) = 1/((z-wq)(z-wp^{-1}q)) :S+_i(z) S-_i(w):",
     "series", _closed_form_driver, ("S+", "S-", 2), False),
    ("Eq11-SpSm-adjacent",
     "S+_i(z) S-_j(w) = (z-wp^{-1/2}q) :S+_i(z) S-_j(w):,  A_ij=-1",
     "series", _closed_form_driver, ("S+", "S-", -1), False),
    ("Eq12-SpSm-orthogonal",
     "S+_i(z) S-_j(w) = :S+_i(z) S-_j(w):,  A_ij=0",
     "series", _closed_form_driver, ("S+", "S-", 0), False),
    ("Eq13-SmSp-same-node",
     "S-_i(w) S+_i(z) = 1/((w-zq^{-1})(w-zpq^{-1})) :S+_i(z) S-_i(w):",
     "series", _closed_form_driver, ("S-", "S+", 2), False),
    ("Eq14-SmSp-adjacent",
     "S-_j(w) S+_i(z) = (w-zp^{1/2}q^{-1}) :S+_i(z) S-_j(w):,  A_ij=-1",
     "series", _closed_form_driver, ("S-", "S+", -1), False),
    ("Eq15-SmSp-orthogonal",
     "S-_j(w) S+_i(z) = :S+_i(z) S-_j(w):,  A_ij=0",
     "series", _closed_form_driver, ("S-", "S+", 0), False),
    ("PostEq20-EF-same-node",
     "E_i(z) F_i(w) = 1/((z(p/q)^{1/2})^2 (1-wq/z)(1-wp^{-1}q/z)) :E_i(z) F_i(w):",
     "series", _closed_form_driver, ("E", "F", 2), False),
    ("PostEq20-EF-adjacent",
     "E_i(z) F_j(w) = (z(p/q)^{1/2})(1-(w/z)p^{-1/2}q) :E_i(z) F_j(w):,  A_ij=-1 (header corrected from E E)",
     "series", _closed_form_driver, ("E", "F", -1), False),
    ("PostEq20-EF-orthogonal",
     "E_i(z) F_j(w) = :E_i(z) F_j(w):,  A_ij=0",
     "series", _closed_form_driver, ("E", "F", 0), False),
    ("PostEq20-FE-same-node",
     "F_i(w) E_i(z) = 1/((wq^{1/2})^2 (1-z/(wq))(1-z/(wp^{-1}q))) :E_i(z) F_i(w):",
     "series", _closed_form_driver, ("F", "E", 2), False),
    ("PostEq20-FE-adjacent",
     "F_j(w) E_i(z) = (wq^{1/2})(1-(z/w)p^{1/2}q^{-1}) :E_i(z) F_j(w):,  A_ij=-1",
     "series", _closed_form_driver, ("F", "E", -1), False),
    ("PostEq20-FE-orthogonal",
     "F_j(w) E_i(z) = :E_i(z) F_j(w):,  A_ij=0",
     "series", _closed_form_driver, ("F", "E", 0), False),
    ("Eq19-EE-exchange",
     "E_i(z) E_j(w) = (-1)^{A_ij-1} (w/z)^{-1} theta_q((w/z)p^{A_ij/2})/theta_q((z/w)p^{A_ij/2}) E_j(w) E_i(z)",
     "series", _exchange_driver, ((("E", "E"),), "EE"), False),
    ("Eq20-FF-exchange",
     "F_i(z) F_j(w) = (-1)^{A_ij-1} (w/z)^{-1} theta_{p/q}((w/z)p^{A_ij/2})/theta_{p/q}((z/w)p^{A_ij/2}) F_j(w) F_i(z)",
     "series", _exchange_driver, ((("F", "F"),), "FF"), False),
    ("Eq21-EF-commutator",
     "[E_i(z), F_j(w)] ~ delta_ij/((p-1)zw) [delta(z/(wq)) H+_i(zq^{-1/2}) - delta(w/(z(p/q))) H-_i(w(p/q)^{-1/2})]  (first delta corrected)",
     "both", _commutator_driver, (), True),
    ("Eq24-HH-exchange",
     "H+-_i(z) H+-_j(w) = (w/z)^{-2} theta_q((w/z)p^{A_ij/2}) theta_qt((w/z)p^{A_ij/2}) / (theta_q((z/w)p^{A_ij/2}) theta_qt((z/w)p^{A_ij/2})) H+-_j(w) H+-_i(z)",
     "series", _exchange_driver, ((("H+", "H+"), ("H-", "H-")), "HH"), True),
    ("Eq25-HpHm-exchange",
     "H+_i(z) H-_j(w) = (w/z)^{-2} theta_q((w/z)p^{(A_ij-c)/2}) theta_qt((w/z)p^{(A_ij+c)/2}) / (...inverse args...) H-_j(w) H+_i(z)  (garbled print; c=1 form of the general display)",
     "series", _exchange_driver, ((("H+", "H-"),), "HpHm"), True),
    ("Eq26-HpE-exchange",
     "H+_i(z) E_j(w) = -(w/(zq^{1/2}))^{-1} theta_q((w/z)p^{A_ij/2}q^{-1/2})/theta_q((z/w)p^{A_ij/2}q^{1/2}) E_j(w) H+_i(z)  (sign corrected)",
     "series", _exchange_driver, ((("H+", "E"),), "HpE"), True),
    ("Eq27-HmE-exchange",
     "H-_i(z) E_j(w) = -(w(p/q)^{1/2}/z)^{-1} theta_q((w/z)p^{A_ij/2}(p/q)^{1/2})/theta_q((z/w)p^{A_ij/2}(p/q)^{-1/2}) E_j(w) H-_i(z)  (sign corrected)",
     "series", _exchange_driver, ((("H-", "E"),), "HmE"), True),
    ("Eq28-HpF-exchange",
     "H+_i(z) F_j(w) = -(wq^{1/2}/z)^{-1} theta_{p/q}((w/z)p^{A_ij/2}q^{1/2})/theta_{p/q}((z/w)p^{A_ij/2}q^{-1/2}) F_j(w) H+_i(z)  (sign corrected)",
     "series", _exchange_driver, ((("H+", "F"),), "HpF"), True),
    ("Eq29-HmF-exchange",
     "H-_i(z) F_j(w) = -(w/(z(p/q)^{1/2}))^{-1} theta_{p/q}((w/z)p^{A_ij/2}(p/q)^{-1/2})/theta_{p/q}((z/w)p^{A_ij/2}(p/q)^{1/2}) F_j(w) H-_i(z)  (sign corrected)",
     "series", _exchange_driver, ((("H-", "F"),), "HmF"), True),
    ("Eq30-sl2-HH-generic-c",
     "H+-(z) H+-(w) = (w/z)^{-2} theta_q((w/z)p) theta_qt((w/z)p)/(...) H+-(w) H+-(z)",
     "function", _sl2_generic_driver, ("HH", True), False),
    ("Eq31-sl2-HpHm-generic-c",
     "H+(z) H-(w) = (w/z)^{-2} theta_q((w/z)p^{(2-c)/2}) theta_qt((w/z)p^{(2+c)/2})/(...) H-(w) H+(z)",
     "function", _sl2_generic_driver, ("HpHm",), False),
    ("Eq32-sl2-HpE-generic-c",
     "H+(z) E(w) = -(wq^{-c/2}/z)^{-1} theta_q((w/z)pq^{-c/2})/theta_q((z/w)pq^{c/2}) E(w) H+(z)",
     "function", _sl2_generic_driver, ("HpE",), False),
    ("Eq33-sl2-HmE-generic-c",
     "H-(z) E(w) = -(w qt^{c/2}/z)^{-1} theta_q((w/z)p qt^{c/2})/theta_q((z/w)p qt^{-c/2}) E(w) H-(z)",
     "function", _sl2_generic_driver, ("HmE",), False),
    ("Eq34-sl2-HpF-generic-c",
     "H+(z) F(w) = -(wq^{c/2}/z)^{-1} theta_qt((w/z)pq^{c/2})/theta_qt((z/w)pq^{-c/2}) F(w) H+(z)",
     "function", _sl2_generic_driver, ("HpF",), False),
    ("Eq35-sl2-HmF-generic-c",
     "H-(z) F(w) = -(w qt^{-c/2}/z)^{-1} theta_qt((w/z)p qt^{-c/2})/theta_qt((z/w)p qt^{c/2}) F(w) H-(z)",
     "function", _sl2_generic_driver, ("HmF",), False),
    ("Eq36-sl2-EE-generic-c",
     "E(z) E(w) = -(w/z)^{-1} theta_q((w/z)p)/theta_q((z/w)p) E(w) E(z)",
     "function", _sl2_generic_driver, ("EE", True), False),
    ("Eq37-sl2-FF-generic-c",
     "F(z) F(w) = -(w/z)^{-1} theta_qt((w/z)p)/theta_qt((z/w)p) F(w) F(z)",
     "function", _sl2_generic_driver, ("FF-qt", True), False),
    ("Eq38-sl2-EF-commutator-generic-c",
     "[E(z), F(w)] = 1/((p-1)zw) [delta(z/(wq^c)) H+(zq^{-c/2}) - delta(w/(z qt^c)) H-(w qt^{-c/2})],  q qt = p^c",
     "function", _sl2_generic_driver, (None,), False),
    ("Eq39-HH-exchange-c",
     "general g: H+-_i(z) H+-_j(w) exchange with theta_q theta_qt at p^{A_ij/2}",
     "series", _exchange_driver, ((("H+", "H+"), ("H-", "H-")), "HH"), True),
    ("Eq40-HpHm-exchange-c",
     "general g: H+_i(z) H-_j(w) exchange with p^{(A_ij-c)/2}, p^{(A_ij+c)/2}",
     "series", _exchange_driver, ((("H+", "H-"),), "HpHm"), True),
    ("Eq41-HpE-exchange-c",
     "general g: H+_i(z) E_j(w) exchange, theta_q, shifts q^{+-c/2}  (sign corrected)",
     "series", _exchange_driver, ((("H+", "E"),), "HpE"), True),
    ("Eq42-HmE-exchange-c",
     "general g: H-_i(z) E_j(w) exchange, theta_q, shifts qt^{+-c/2}  (sign corrected)",
     "series", _exchange_driver, ((("H-", "E"),), "HmE"), True),
    ("Eq43-HpF-exchange-c",
     "general g: H+_i(z) F_j(w) exchange, theta_qt, shifts q^{+-c/2}  (sign corrected)",
     "series", _exchange_driver, ((("H+", "F"),), "HpF"), True),
    ("Eq44-HmF-exchange-c",
     "general g: H-_i(z) F_j(w) exchange, theta_qt, shifts qt^{+-c/2}  (sign corrected)",
     "series", _exchange_driver, ((("H-", "F"),), "HmF"), True),
    ("Eq45-EE-exchange-c",
     "general g: E_i(z) E_j(w) exchange (c independent)",
     "series", _exchange_driver, ((("E", "E"),), "EE"), False),
    ("Eq46-FF-exchange-c",
     "general g: F_i(z) F_j(w) exchange with theta_qt",
     "series", _exchange_driver, ((("F", "F"),), "FF-qt"), True),
    ("Eq47-EF-commutator-c",
     "general g: [E_i(z), F_j(w)] = delta_ij/((p-1)zw)[delta(z/(wq^c)) H+ - delta(w/(z qt^c)) H-]",
     "both", _commutator_driver, (), True),
    ("Eq48-Serre-E",
     "E_i(z1)E_i(z2)E_j(w) - f_ij(z1/w,z2/w) E_i(z1)E_j(w)E_i(z2) + E_j(w)E_i(z1)E_i(z2) + (z1 <-> z2) = 0,  A_ij=-1",
     "series", _serre_driver, ("E",), False),
    ("Eq51-Serre-F",
     "F_i(z1)F_i(z2)F_j(w) - g_ij(z1/w,z2/w) F_i(z1)F_j(w)F_i(z2) + F_j(w)F_i(z1)F_i(z2) + (z1 <-> z2) = 0,  A_ij=-1",
     "series", _serre_driver, ("F",), True),
    ("psi-inversion",
     "psi^{(q)}_ij(x) psi^{(q)}_ij(x^{-1}) = 1,  psi^{(qt)}_ij(x) psi^{(qt)}_ij(x^{-1}) = 1",
     "function", _structure_driver, ("psi-inversion",), False),
    ("phi-factorization",
     "phi^{(q)}_ij(x)/phi^{(q)}_ij(x^{-1}) = x^{A_ij} psi^{(q)}_ij(x)  (monomial corrected)",
     "function", _structure_driver, ("phi-factorization",), False),
    ("serre-coefficients-from-psi",
     "f_ij, g_ij rebuilt from engine exchange ratios match their psi formulas",
     "function", _structure_driver, ("from-engine",), False),
)

CATALOGUE_NAMES = [row[0] for row in CATALOGUE]


def _run_row(driver, args, alias, ctx):
    """The row's result, computed on the first request for (driver, args) in ``ctx``."""
    key = (driver, args)
    if key not in ctx._results:
        ctx._results[key] = driver(ctx, *args)
    out = dict(ctx._results[key])
    if alias:
        out["notes"] = "; ".join(filter(None, (out["notes"], alias)))
    return out


def build_catalogue(ctx: VerifierContext) -> list[tuple[str, str, str, object]]:
    """(name, anchor quote, route, runner) for every row of CATALOGUE, in order.

    A row whose (driver, args) equals an earlier row's shares that row's
    result and names it in its notes.
    """
    owners: dict = {}
    cat: list[tuple[str, str, str, object]] = []
    for name, anchor, route, driver, args, requires_c1 in CATALOGUE:
        owner = owners.setdefault((driver, args), name)
        if requires_c1 and ctx.params.c != 1:
            cat.append((name, anchor, "skipped", _needs_c1))
            continue
        alias = ""
        if owner != name:
            alias = f"same computation as {owner}" + (" at c = 1" if requires_c1 else "")
        cat.append((name, anchor, route, partial(_run_row, driver, args, alias)))
    return cat


def run_suite(
    ctx: VerifierContext,
    relation_filter: list[str] | None = None,
) -> VerificationReport:
    """Execute the catalogue and aggregate a report.

    A filter entry (any trailing ``-`` dropped) selects the names it equals or
    starts up to a dash, case-insensitive: ``Eq20`` is Eq20-FF-exchange only.
    """
    cat = build_catalogue(ctx)
    if relation_filter:
        pats = [f.strip().rstrip("-").lower() for f in relation_filter]
        cat = [c for c in cat if any(f"{c[0]}-".lower().startswith(p + "-") for p in pats)]

    def run_one(entry):
        name, anchor, route, runner = entry
        t0 = time.perf_counter()
        try:
            out = runner(ctx)
        except Exception as exc:  # numeric failure -> failed check, not a crash
            out = _outcome(
                [float("inf")], 0, 0, 0.0, f"check raised {type(exc).__name__}: {exc}"
            )
        dt = time.perf_counter() - t0
        return RelationResult(
            name=name,
            anchor=anchor,
            route=route,
            n_samples=int(out["n_samples"]),
            skipped=int(out["skipped"]),
            max_residual=float(out["max_residual"]),
            tolerance=float(out["tolerance"]),
            passed=bool(out["passed"]),
            notes=out.get("notes", ""),
            seconds=dt,
            details=out.get("details", {}),
        )

    results = [run_one(entry) for entry in cat]
    return VerificationReport(
        algebra=f"{ctx.cartan.label}{ctx.cartan.rank}",
        p=repr(ctx.params.p),
        q=repr(ctx.params.q),
        c=str(ctx.params.c),
        order=ctx.order,
        fock_cap=ctx.fock_cap,
        seed=ctx.seed,
        results=results,
    )
