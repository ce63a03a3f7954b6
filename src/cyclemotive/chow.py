"""Invariants of the parameter spaces of effective cycles in projective
space and in a product of two: closed forms, an independent fixed-point
recursion, generating series, irreducible-locus values, and finite-field
congruence targets.  Projective n-space is n-space times a point, so the
single-space subspace count, series and irreducible locus are the m = 0
case of the product ones, and multidegree_slots is the one index check.

Three routes to the same numbers are kept deliberately separate:

* closed form: a single binomial coefficient;
* recursion: the degree convolution induced by a torus action, computed
  with no binomials at all, by one induction for both spaces: _table
  builds the rows of n-space times m-space bottom-up over n, one row per
  multidegree slot, by running sums and big-integer products
  (_truncated_product);
* series: coefficient extraction from (1-t)^(-v), built from its
  logarithmic derivative v/(1-t) by the Euler-transform recurrence.

The test suite's job is to confirm they collide.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb
from operator import add, mul

from ._record import Record
from .errors import (DomainError, _check_ints, binomial_bits, binomial_units, budgeted, charge,
                     product_units)
from .ffcount import CongruenceReport, check_field, gaussian_binomial
from .ring import Laurent1, MultiSeries, expand_inverse_product


def multidegree_slots(p: int, n: int, m: int) -> list[tuple[int, int]]:
    """Component labels (k, l), k+l = p, for p-cycles in the product of
    projective n-space and projective m-space, in ascending k order: the
    one check of a cycle index, which every function here that takes one
    calls."""
    _check_ints({"p": p, "n": n, "m": m})
    if min(n, m) < 0 or not 0 <= p <= n + m:
        raise DomainError(f"need 0 <= p <= n, got p={p}, n={n}" if m == 0
                          else f"need 0 <= p <= n+m, got p={p}, n={n}, m={m}")
    ks = range(max(0, p - m), min(n, p) + 1)
    charge(len(ks))  # a unit a slot, before the list is built
    return [(k, p - k) for k in ks]


def _subspace_counts(p: int, n: int, m: int) -> list[int]:
    """Per multidegree slot (k, l), the number of products of a k- and an
    l-dimensional coordinate subspace, binom(n+1, k+1) * binom(m+1, l+1):
    each slot's two binomials and their product are charged before they run."""
    counts = []
    for k, l in multidegree_slots(p, n, m):
        charge(binomial_units(n + 1, k + 1) + binomial_units(m + 1, l + 1)
               + product_units(binomial_bits(n + 1, k + 1), binomial_bits(m + 1, l + 1)))
        counts.append(comb(n + 1, k + 1) * comb(m + 1, l + 1))
    return counts


class ChowIndex(Record):
    """Cycle dimension p, degree d, ambient projective dimension n."""

    p: int
    d: int
    n: int

    def __post_init__(self):
        multidegree_slots(self.p, self.n, 0)
        _check_ints({"d": self.d})
        if self.d < 0:
            raise DomainError(f"degree must be >= 0, got {self.d}")


@budgeted
def coordinate_subspace_count(p: int, n: int) -> int:
    """Number of p-dimensional coordinate subspaces of projective n-space,
    binom(n+1, p+1): the exponent in every closed form below."""
    return _subspace_counts(p, n, 0)[0]


@budgeted
def chow_invariant_closed(idx: ChowIndex) -> int:
    """Euler number of the space of degree-d effective p-cycles: one
    binomial coefficient, counting degree-d monomials in the coordinate
    subspaces, charged before it runs.  Degree 0 is the empty cycle, a
    single point."""
    v = coordinate_subspace_count(idx.p, idx.n)
    charge(binomial_units(v + idx.d - 1, idx.d))
    return comb(v + idx.d - 1, idx.d)


def _truncated_product(a: list[int], b: list[int], d: int) -> list[int]:
    """[sum(a[i] * b[e - i] for i <= e) for e <= d] for rows of at least
    d + 1 non-negative integers, as two half-size big-integer products
    (Kronecker substitution at the two points X and -X).

    Each row's even- and odd-index entries are packed into an int each,
    one slot of w bits per entry, so that with Y = 2^w and X = 2^(w/2) the
    row is a(X) = ae(Y) + X * ao(Y).  Then u = a(X) * b(X) and
    v = a(-X) * b(-X), and (u + v) / 2 and (u - v) / (2X) are the even and
    odd halves of the product row, each packed at Y.  With
    B[j] = max(bits(b[0]), ..., bits(b[j])), a term a[i] * b[e - i] of a
    coefficient e <= d is below 2^(bits(a[i]) + B[d - i]), since
    e - i <= d - i, and a coefficient sums at most d + 1 terms, so every
    kept coefficient fits a slot of w = max_i (bits(a[i]) + B[d - i]) +
    bits(d + 1) bits, rounded up to whole bytes.  All coefficients are
    non-negative, so the ones above d, which may overflow, carry only
    upward, and each half masked to its kept slots holds the kept
    coefficients themselves.
    """
    a, b = a[: d + 1], b[: d + 1]
    b_max_bits = list(accumulate(map(int.bit_length, b), max))  # B above
    bits = max(map(add, map(int.bit_length, a), reversed(b_max_bits)))
    width = (bits + (d + 1).bit_length() + 7) // 8
    half = 4 * width  # X = 2^half
    # the call, four packs and two unpacks of d + 1 entries, and u and v
    size = 8 * width * (d // 2 + 2)  # at least the bits of their factors
    charge(40 + 6 * (d + 1) + 2 * product_units(size, size))

    def pack(row: list[int]) -> int:
        return int.from_bytes(
            b"".join(map(int.to_bytes, row, repeat(width), repeat("little"))), "little"
        )

    ae, ao = pack(a[0::2]), pack(a[1::2]) << half
    be, bo = pack(b[0::2]), pack(b[1::2]) << half
    u = (ae + ao) * (be + bo)
    v = (ae - ao) * (be - bo)

    def unpack(packed: int, count: int) -> list[int]:
        size = count * width
        data = (packed & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        return [int.from_bytes(data[i : i + width], "little") for i in range(0, size, width)]

    out = [0] * (d + 1)
    out[0::2] = unpack((u + v) >> 1, d // 2 + 1)
    out[1::2] = unpack((u - v) >> (half + 1), (d + 1) // 2)
    return out


def _running_sums(row: list[int], times: int) -> list[int]:
    """row after `times` running sums: its convolution with a 0-cycle row."""
    charge(4 + times * len(row))
    for _ in range(times):
        row = accumulate(row)
    return list(row)


def _table(low: int, p: int, n: int, m: int, d: int,
           pulled: dict[int, list[int]]) -> dict[int, dict[int, list[int]]]:
    """{k: {a: row}} for low <= k <= p: the rows, up to degree d, of the
    k-cycles in projective n-space times projective m-space, one per
    multidegree slot (a, k - a) and keyed by a, built bottom-up over n by
    the fixed-point recursion.  pulled[k] is the row of k-cycles in
    projective m-space, for each k >= low - n up to m.

    Base: a point times projective m-space, whose one slot (0, k) holds
    pulled[k].  In ambient dimension j a k-cycle splits into its part
    inside a hyperplane (slot (a, k - a) one dimension down) and a cone over
    a (k-1)-cycle one dimension down (slot (a - 1, k - a), which the cone
    raises to (a, k - a)); at slot (0, k) a k-cycle pulled in from the
    second factor alone takes the cone's place.  So a row is the truncated
    convolution of its inside row with its cone row or pulled[k]; at a = j
    it is the cone row itself.  A convolution with a 0-cycle row is taken
    as running sums: that row is m + 1 running sums of the empty cycle's
    [1, 0, 0, ...] at j = 0 and m + 1 more per step, so each k = 0 row is
    m + 1 running sums of the row below, and the row (1, 0) is j(m + 1)
    running sums of its inside row.  The row (k, 0) at j = k + 1 is the
    third case: its inside row, slot (k, 0) of k-space, is the cone row
    raised k times from the base, which is pulled[0], the 0-cycle row of
    m-space, so it is m + 1 running sums of its cone row.  Other rows with
    k >= 2 stay products: carrying a count of running sums past k = 1
    would be the closed form.
    """
    # only the dimensions k >= low - (n - j) are needed above dimension j, and
    # the slots a of dimension k are multidegree_slots(k, j, m), read inline
    rows = {k: {a: pulled[k] for a in range(max(0, k - m), 1)}
            for k in range(max(0, low - n), p + 1)}
    for j in range(1, n + 1):
        new = {}
        for k in range(max(0, low - (n - j)), p + 1):
            step = new[k] = {}
            for a in range(max(0, k - m), min(j, k) + 1):
                if k == 0:
                    step[a] = _running_sums(rows[k][a], m + 1)
                elif a == 0:
                    step[a] = _truncated_product(rows[k][a], pulled[k], d)
                elif a == j:
                    step[a] = rows[k - 1][a - 1]
                elif k == 1:
                    step[a] = _running_sums(rows[k][a], j * (m + 1))
                elif a == k == j - 1:
                    step[a] = _running_sums(rows[k - 1][a - 1], m + 1)
                else:
                    step[a] = _truncated_product(rows[k][a], rows[k - 1][a - 1], d)
        rows = new
    return rows


def _lam_rows(low: int, p: int, n: int, d: int) -> list[list[int]]:
    """[[lambda(k, e, n) for e <= d] for low <= k <= p]: the slot (k, 0)
    rows of the _table of projective n-space times a point, whose 0-cycle
    row is a point's one cycle of each degree.  Past k = n there are no
    positive-degree cycles, and the empty cycle's row stands in."""
    charge(d + 1)
    table = _table(low, p, n, 0, d, {0: [1] * (d + 1)})
    return [table[k].get(k, [1] + [0] * d) for k in range(low, p + 1)]


@budgeted
def chow_invariant_recursive(idx: ChowIndex) -> int:
    """Same number as chow_invariant_closed, computed purely by the
    hyperplane/cone degree convolution.  No binomials anywhere.

    The table stops one ambient dimension short: the last step needs only
    the degree-d coefficient, one dot product of the inside and cone rows,
    or for zero-cycles the sum of the row below."""
    p, d, n = idx.p, idx.d, idx.n
    if n == 0:
        return 1
    rows = _lam_rows(max(0, p - 1), p, n - 1, d)
    if p == 0:
        return sum(rows[0])
    cone, inside = rows
    return sum(map(mul, inside, reversed(cone)))


@budgeted
def chow_series(p: int, n: int, order: int) -> MultiSeries:
    """Degree generating series of the cycle-space Euler numbers: the
    expansion of (1-t)^(-v) with v = coordinate_subspace_count(p, n)."""
    return euler_chow_product_formula(p, n, 0, order)


@budgeted
def chow_htilde(idx: ChowIndex) -> Laurent1:
    """Image of the cycle space's Hodge polynomial in Z[u, 1/u]: constant,
    equal to the Euler number, reflecting that the Hodge polynomial is a
    polynomial in the product uv."""
    return Laurent1({0: chow_invariant_closed(idx)})


# ---------------------------------------------------------------------------
# irreducible loci


@budgeted
def irreducible_invariant(p: int, d: int, n: int) -> int:
    """Euler number of the locus of irreducible degree-d subvarieties:
    the count of linear subspaces for d = 1, zero for every higher degree."""
    _check_ints({"d": d})
    if d < 1:
        raise DomainError(f"degree must be >= 1, got {d}")
    return irreducible_invariant_product((d,), p, n, 0)


@budgeted
def irreducible_invariant_product(alpha, p: int, n: int, m: int) -> int:
    """Euler number of the irreducible locus in a product of projective
    spaces at multidegree alpha: nonzero only when alpha is the class of a
    single coordinate-subspace product, i.e. a unit vector."""
    if not isinstance(alpha, (tuple, list)):
        raise DomainError(f"multidegree must be a tuple or list, got {type(alpha).__name__}")
    counts = _subspace_counts(p, n, m)
    if len(alpha) != len(counts):
        raise DomainError(f"multidegree has {len(alpha)} entries, expected {len(counts)}")
    if any(type(a) is not int or a < 0 for a in alpha):
        raise DomainError("multidegree entries must be non-negative ints")
    return counts[alpha.index(1)] if sum(alpha) == 1 else 0


# ---------------------------------------------------------------------------
# product of two projective spaces


@budgeted
def euler_chow_product_formula(p: int, n: int, m: int, order: int) -> MultiSeries:
    """Series over multidegrees of cycle-space Euler numbers for a product
    of projective spaces, as the closed infinite product: one inverse
    factor per coordinate-subspace product, with multiplicity the number
    of such subvarieties."""
    counts = _subspace_counts(p, n, m)
    arity = len(counts)
    factors = [((0,) * i + (1,) + (0,) * (arity - 1 - i), c) for i, c in enumerate(counts)]
    return expand_inverse_product(factors, arity=arity, order=order)


@budgeted
def euler_chow_product_recursive(p: int, n: int, m: int, order: int) -> MultiSeries:
    """The same series, rebuilt by induction on n with no binomials: one
    _table call, seeded with the second factor's rows from one _lam_rows
    table, gives the last degree row of each slot, and the series is their
    outer product, truncated at the order.  Every row entry is a count of
    fixed points, at least 1, and the fold keeps every total degree within
    the order, so the map is canonical and wraps with no second check."""
    multidegree_slots(p, n, m)
    _check_ints({"order": order})
    if order < 0:
        raise DomainError("truncation order must be non-negative")
    low = max(0, p - n)
    pulled = dict(enumerate(_lam_rows(low, min(p, m), m, order), low))
    rows = _table(p, p, n, m, order, pulled)[p].values()
    terms = {(): 1}
    for row in rows:
        charge(len(terms) * len(row))
        terms = {key + (e,): c * r for key, c in terms.items()
                 for e, r in enumerate(row[: order - sum(key) + 1])}
    return MultiSeries(len(rows), order)._like(terms)


# ---------------------------------------------------------------------------
# congruence targets


@budgeted
def chow_congruence_targets(idx: ChowIndex, q: int, m: int = 1) -> CongruenceReport:
    """Expected residues of the cycle-space point count over the field with
    q^m elements: 1 mod q (one cell is a point) and the Euler number mod
    q-1 (the count degenerates to the fixed points).

    For d <= 1 the space is a point or a Grassmannian, so the actual count
    is attached and checked; beyond that no enumeration is in reach and the
    report carries the expectations only.  The count is charged to the work
    budget like every exported call: past it, BudgetError is raised before
    it starts.
    """
    size = check_field(q, m)
    expected_euler = chow_invariant_closed(idx)
    if idx.d == 0:
        actual, note = 1, "degree 0: the empty cycle is a single point"
    elif idx.d == 1:
        actual = gaussian_binomial(idx.n + 1, idx.p + 1, size)
        note = "degree 1: linear cycles form a Grassmannian"
    else:
        actual, note = None, "untestable at desk scale: no cycle-space enumeration exists here"
    return CongruenceReport(
        q=q,
        expected_mod_q=1,
        expected_mod_q_minus_1=expected_euler,
        actual=actual,
        note=note,
    )
