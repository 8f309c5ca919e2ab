"""Simply-laced Cartan data and deformation parameters.

Node ordering follows the Bourbaki convention:

* ``A_n``: a chain 1 - 2 - ... - n.
* ``D_n`` (n >= 4): a chain 1 - 2 - ... - (n-2) with both n-1 and n
  attached to node n-2.  For D4 this makes node 2 the branch node.
* ``E_6/7/8``: a chain 1 - 3 - 4 - 5 - 6 (- 7 - 8) with node 2 attached
  to node 4.

All scalars are complex doubles.  Every half-integer power of p, q and
p/q is taken on the principal branch exactly once, at construction, and
reused everywhere (``p_half ** k`` rather than fresh square roots), so a
single branch convention holds across the whole package.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

LABELS = ("A", "D", "E")


@dataclass(frozen=True)
class CartanMatrix:
    """Cartan matrix of a simply-laced algebra with Bourbaki node order."""

    label: str
    rank: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=int)
        if a.shape != (self.rank, self.rank):
            raise ValueError(f"entries must be {self.rank}x{self.rank}")
        if not np.array_equal(a, a.T):
            raise ValueError("Cartan matrix must be symmetric")
        if not np.all(np.diag(a) == 2):
            raise ValueError("diagonal entries must all equal 2")
        off = a[~np.eye(self.rank, dtype=bool)]
        if not np.all(np.isin(off, (0, -1))):
            raise ValueError("off-diagonal entries must be 0 or -1 (simply laced)")
        if not self._positive_definite(a):
            raise ValueError("Cartan matrix must be positive definite")
        object.__setattr__(self, "entries", a)

    @staticmethod
    def _positive_definite(a: np.ndarray) -> bool:
        # leading principal minors; exact for the small integer matrices here
        return all(np.linalg.det(a[: k + 1, : k + 1]) > 0.5 for k in range(a.shape[0]))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return int(self.entries[ij])

    def pairing(self, lam) -> np.ndarray:
        """(A lam) as an integer vector, lam in simple-root coordinates."""
        return self.entries @ np.asarray(lam, dtype=int)

    def node_pairs(self) -> list[tuple[int, int, int]]:
        """All ordered node pairs (i, j, A_ij), diagonal included."""
        return [
            (i, j, int(self.entries[i, j]))
            for i in range(self.rank)
            for j in range(self.rank)
        ]


def make_cartan(label: str, rank: int) -> CartanMatrix:
    """Standard simply-laced Cartan matrix for the given series and rank."""
    label = label.upper()
    if label == "A":
        if rank < 1:
            raise ValueError(f"series A needs rank >= 1, got {rank}")
        edges = [(i, i + 1) for i in range(rank - 1)]
    elif label == "D":
        if rank < 4:
            raise ValueError(f"series D needs rank >= 4, got {rank}")
        edges = [(i, i + 1) for i in range(rank - 3)]
        edges += [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    elif label == "E":
        if rank not in (6, 7, 8):
            raise ValueError(f"series E needs rank 6, 7 or 8, got {rank}")
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        edges += [(5, 6)] if rank >= 7 else []
        edges += [(6, 7)] if rank == 8 else []
    else:
        raise ValueError(f"unknown series label {label!r}, expected one of {LABELS}")
    a = 2 * np.eye(rank, dtype=int)
    for i, j in edges:
        a[i, j] = a[j, i] = -1
    return CartanMatrix(label=label, rank=rank, entries=a)


@dataclass(frozen=True)
class DeformationParams:
    """The two deformation scalars with their derived quantities.

    beta solves p = q^(1-beta) on the principal branch; qtilde = p^c / q so
    that q * qtilde = p^c holds to arithmetic precision.
    """

    p: complex
    q: complex
    c: Fraction
    beta: complex
    qtilde: complex
    p_half: complex
    q_half: complex
    pq_half: complex  # (p/q)^{1/2}
    qtilde_half: complex

    @property
    def pq(self) -> complex:
        return self.p / self.q


def make_params(p: complex, q: complex, c=Fraction(1)) -> DeformationParams:
    """Validate moduli constraints and populate derived scalars.

    Requires 0 < |p| < 1, 0 < |q| < 1, |p/q| < 1, and |qtilde| < 1 (needed for
    convergence of every q-product and of theta in base qtilde).
    """
    p = complex(p)
    q = complex(q)
    c = Fraction(c)
    if not 0 < abs(p) < 1:
        raise ValueError(f"|p| = {abs(p):.6g} violates 0 < |p| < 1")
    if not 0 < abs(q) < 1:
        raise ValueError(f"|q| = {abs(q):.6g} violates 0 < |q| < 1")
    if not abs(p / q) < 1:
        raise ValueError(f"|p/q| = {abs(p / q):.6g} violates |p/q| < 1")
    beta = 1 - cmath.log(p) / cmath.log(q)
    p_c = cmath.exp(float(c) * cmath.log(p))
    qtilde = p_c / q
    if not abs(qtilde) < 1:
        raise ValueError(
            f"|qtilde| = |p^c/q| = {abs(qtilde):.6g} violates |qtilde| < 1 "
            "(required for theta_qtilde convergence)"
        )
    return DeformationParams(
        p=p,
        q=q,
        c=c,
        beta=beta,
        qtilde=qtilde,
        p_half=cmath.sqrt(p),
        q_half=cmath.sqrt(q),
        pq_half=cmath.sqrt(p / q),
        qtilde_half=cmath.sqrt(qtilde),
    )
