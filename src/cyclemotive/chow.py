"""Invariants of the parameter spaces of effective cycles in projective
space: closed forms, an independent fixed-point recursion, generating
series, the product-of-projective-spaces series, irreducible-locus values,
and finite-field congruence targets.

Three routes to the same numbers are kept deliberately separate:

* closed form: a single binomial coefficient;
* recursion: the degree convolution induced by a torus action, computed
  with no binomials at all, as a table built bottom-up over the ambient
  dimension;
* series: coefficient extraction from (1-t)^(-v), built from its
  logarithmic derivative v/(1-t) by the Euler-transform recurrence.

The test suite's job is to confirm they collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import comb
from operator import mul

from .errors import DomainError
from .ffcount import CongruenceReport, PrimePower, gaussian_binomial
from .ring import Laurent1, MultiSeries, expand_inverse_product


@dataclass(frozen=True)
class ChowIndex:
    """Cycle dimension p, degree d, ambient projective dimension n."""

    p: int
    d: int
    n: int

    def __post_init__(self):
        if not 0 <= self.p <= self.n:
            raise DomainError(f"need 0 <= p <= n, got p={self.p}, n={self.n}")
        if self.d < 0:
            raise DomainError(f"degree must be >= 0, got {self.d}")


def coordinate_subspace_count(p: int, n: int) -> int:
    """Number of p-dimensional coordinate subspaces of projective n-space,
    binom(n+1, p+1): the exponent in every closed form below."""
    if not 0 <= p <= n:
        raise DomainError(f"need 0 <= p <= n, got p={p}, n={n}")
    return comb(n + 1, p + 1)


def chow_invariant_closed(idx: ChowIndex) -> int:
    """Euler number of the space of degree-d effective p-cycles: one
    binomial coefficient, counting degree-d monomials in the coordinate
    subspaces.  Degree 0 is the empty cycle, a single point."""
    v = coordinate_subspace_count(idx.p, idx.n)
    return comb(v + idx.d - 1, idx.d)


def _lam_row(p: int, n: int, d: int) -> list[int]:
    """[lambda(p, e, n) for e <= d], built bottom-up over the ambient
    dimension by the fixed-point recursion.

    The only base facts are: the empty cycle is a point, a point has one
    cycle of each degree, and there are no positive-degree cycles of
    dimension above the ambient space.  Zero-cycles split their degree over
    a hyperplane and the point off it, so each p = 0 row is the running sum
    of the row below.  In positive dimension a cycle splits into the part
    inside a hyperplane and a cone whose base is one dimension lower, so the
    row is the truncated convolution of those two rows below.
    """
    empty = [1] + [0] * d
    # rows[k - low] is the row of cycle dimension k in the current ambient
    # dimension j; only the dimensions k >= p - (n - j) are needed above it
    low = max(0, p - n)
    rows = [[1] * (d + 1) if k == 0 else empty for k in range(low, p + 1)]
    for j in range(1, n + 1):
        low_j = max(0, p - (n - j))
        new = []
        for k in range(low_j, p + 1):
            if k > j:
                new.append(empty)
            elif k == 0:
                new.append(list(accumulate(rows[k - low])))
            else:
                inside, cone = rows[k - low], rows[k - 1 - low]
                new.append([
                    sum(map(mul, inside, reversed(cone[: e + 1])))
                    for e in range(d + 1)
                ])
        rows, low = new, low_j
    return rows[-1]


def chow_invariant_recursive(idx: ChowIndex) -> int:
    """Same number as chow_invariant_closed, computed purely by the
    hyperplane/cone degree convolution.  No binomials anywhere."""
    return _lam_row(idx.p, idx.n, idx.d)[idx.d]


def chow_series(p: int, n: int, order: int) -> MultiSeries:
    """Degree generating series of the cycle-space Euler numbers: the
    expansion of (1-t)^(-v) with v = coordinate_subspace_count(p, n)."""
    v = coordinate_subspace_count(p, n)
    return expand_inverse_product([((1,), v)], arity=1, order=order)


def chow_htilde(idx: ChowIndex) -> Laurent1:
    """Image of the cycle space's Hodge polynomial in Z[u, 1/u]: constant,
    equal to the Euler number, reflecting that the Hodge polynomial is a
    polynomial in the product uv."""
    return Laurent1.constant(chow_invariant_closed(idx))


# ---------------------------------------------------------------------------
# irreducible loci


def irreducible_invariant(p: int, d: int, n: int) -> int:
    """Euler number of the locus of irreducible degree-d subvarieties:
    the count of linear subspaces for d = 1, zero for every higher degree."""
    if not 0 <= p <= n:
        raise DomainError(f"need 0 <= p <= n, got p={p}, n={n}")
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    if d == 1:
        return comb(n + 1, p + 1)
    return 0


def multidegree_slots(p: int, n: int, m: int) -> list[tuple[int, int]]:
    """Component labels (k, l), k+l = p, for p-cycles in the product of
    projective n-space and projective m-space, in ascending k order."""
    if p < 0 or n < 0 or m < 0:
        raise DomainError("indices must be non-negative")
    return [(k, p - k) for k in range(max(0, p - m), min(n, p) + 1)]


def unit_multidegree(p: int, n: int, m: int, k: int, l: int) -> tuple[int, ...]:
    slots = multidegree_slots(p, n, m)
    if (k, l) not in slots:
        raise DomainError(f"({k},{l}) is not a component of p={p}, n={n}, m={m}")
    return tuple(1 if s == (k, l) else 0 for s in slots)


def irreducible_invariant_product(
    alpha, p: int, n: int, m: int
) -> int:
    """Euler number of the irreducible locus in a product of projective
    spaces at multidegree alpha: nonzero only when alpha is the class of a
    single coordinate-subspace product, i.e. a unit vector."""
    slots = multidegree_slots(p, n, m)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != len(slots):
        raise DomainError(
            f"multidegree has {len(alpha)} entries, expected {len(slots)}"
        )
    if any(a < 0 for a in alpha):
        raise DomainError("multidegree entries must be non-negative")
    if sum(alpha) != 1:
        return 0
    k, l = slots[alpha.index(1)]
    return comb(n + 1, k + 1) * comb(m + 1, l + 1)


# ---------------------------------------------------------------------------
# product of two projective spaces


def euler_chow_product_formula(p: int, n: int, m: int, order: int) -> MultiSeries:
    """Series over multidegrees of cycle-space Euler numbers for a product
    of projective spaces, as the closed infinite product: one inverse
    factor per coordinate-subspace product, with multiplicity the number
    of such subvarieties."""
    if not 0 <= p <= n + m:
        raise DomainError(f"need 0 <= p <= n+m, got p={p}, n={n}, m={m}")
    return _formula_series(p, n, m, order)


def _formula_series(p: int, n: int, m: int, order: int) -> MultiSeries:
    slots = multidegree_slots(p, n, m)
    factors = []
    for i, (k, l) in enumerate(slots):
        exponent = [0] * len(slots)
        exponent[i] = 1
        factors.append((tuple(exponent), comb(n + 1, k + 1) * comb(m + 1, l + 1)))
    return expand_inverse_product(factors, arity=len(slots), order=order)


def euler_chow_product_recursive(p: int, n: int, m: int, order: int) -> MultiSeries:
    """The same series, rebuilt by induction on n.

    A cycle in the bigger product splits into its part inside the
    hyperplane-times-second-factor, a cone over a cycle one dimension
    lower (which shifts the first multidegree index up by one), and a
    cycle pulled in from the second factor alone at component (0, p).
    The coefficient at a multidegree is the convolution over all such
    splittings.  Base of the induction: a point times the second factor.
    """
    if not 0 <= p <= n + m:
        raise DomainError(f"need 0 <= p <= n+m, got p={p}, n={n}, m={m}")
    return _recursive_series(p, n, m, order)


@cache
def _recursive_series(p: int, n: int, m: int, order: int) -> MultiSeries:
    if p < 0:
        raise DomainError("cycle dimension must be >= 0")
    if n == 0:
        return _formula_series(p, 0, m, order)

    cur_slots = multidegree_slots(p, n, m)
    slot_index = {slot: i for i, slot in enumerate(cur_slots)}
    arity = len(cur_slots)

    inside = _recursive_series(p, n - 1, m, order)
    inside_map = [slot_index[s] for s in multidegree_slots(p, n - 1, m)]

    if p >= 1:
        cone_base = _recursive_series(p - 1, n - 1, m, order)
        cone_map = [slot_index[(k + 1, l)] for (k, l) in multidegree_slots(p - 1, n - 1, m)]
        cone_terms = cone_base.terms.items()
    else:
        cone_map = []
        cone_terms = [((), 1)]

    kappa_index = slot_index.get((0, p))
    pulled_row = _lam_row(p, m, order)

    out: dict[tuple[int, ...], int] = {}
    for beta, cb in inside.terms.items():
        degree_b = sum(beta)
        for gamma, cg in cone_terms:
            degree_bg = degree_b + sum(gamma)
            if degree_bg > order:
                continue
            merged = [0] * arity
            for i, e in zip(inside_map, beta):
                merged[i] += e
            for i, e in zip(cone_map, gamma):
                merged[i] += e
            for extra in range(order - degree_bg + 1):
                if extra and kappa_index is None:
                    break
                pulled = pulled_row[extra]
                if pulled == 0:
                    continue
                final = list(merged)
                if extra:
                    final[kappa_index] += extra
                key = tuple(final)
                out[key] = out.get(key, 0) + cb * cg * pulled
    return MultiSeries(arity, order, out)


# ---------------------------------------------------------------------------
# congruence targets


def chow_congruence_targets(idx: ChowIndex, q: int, m: int = 1) -> CongruenceReport:
    """Expected residues of the cycle-space point count over the field with
    q^m elements: 1 mod q (one cell is a point) and the Euler number mod
    q-1 (the count degenerates to the fixed points).

    For d <= 1 the space is a point or a Grassmannian, so the actual count
    is attached and checked; beyond that no enumeration is in reach and the
    report carries the expectations only.
    """
    PrimePower.from_int(q)
    if m < 1:
        raise DomainError(f"extension degree must be >= 1, got {m}")
    expected_euler = chow_invariant_closed(idx)
    if idx.d == 0:
        actual = 1
        note = "degree 0: the empty cycle is a single point"
    elif idx.d == 1:
        actual = gaussian_binomial(idx.n + 1, idx.p + 1, q**m)
        note = "degree 1: linear cycles form a Grassmannian"
    else:
        actual = None
        note = "untestable at desk scale: no cycle-space enumeration exists here"
    return CongruenceReport(
        q=q,
        expected_mod_q=1,
        expected_mod_q_minus_1=expected_euler,
        actual=actual,
        note=note,
    )
