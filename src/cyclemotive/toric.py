"""Fans, orbit censuses, and invariants of the associated torus varieties.

A fan is stored as raw combinatorial data: ray vectors plus the list of
cones that are actually present (the zero cone is implicit, faces are NOT
auto-generated).  The variety decomposes into one torus orbit per cone, a
cone of rank k contributing an (n-k)-torus, so every invariant here reads
the rank of each listed cone.  A fan is checked once, on first use: the
first read of `Fan.ranks` or `Fan.census` validates it and ranks each cone,
and the fan keeps the result.  Completeness and smoothness are never
assumed or checked.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from ._record import Record
from .errors import (
    DomainError,
    FanError,
    ParseError,
    _check_ints,
    _json_int,
    _json_ints,
    _shown,
    budgeted,
    charge,
)
from .ring import MultiSeries, Poly2, expand_inverse_product

Ray = tuple[int, ...]
Cone = tuple[int, ...]


class Fan(Record):
    """Rays (tuples of ints) and listed cones (ray-index tuples) in an
    n-dimensional lattice.  Constructing a fan checks nothing; equality and
    hashing use these three fields only, never the kept check result."""

    dim: int
    rays: tuple[Ray, ...]
    cones: tuple[Cone, ...]

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """The rank of each listed cone's ray matrix, in listing order,
        computed with the fan's checks on first read.  An invalid fan raises
        FanError on every read: a raised error is not kept."""
        n = self.dim
        if type(n) is not int:
            raise FanError(f"ambient dimension {_shown(n)} is not an int")
        if n < 0:
            raise FanError("ambient dimension must be >= 0")
        for what, items in (("rays", self.rays), ("cones", self.cones)):
            if type(items) is not tuple:
                raise FanError(f"{what} must be a tuple, got {type(items).__name__}")
        for ray in self.rays:
            if type(ray) is not tuple:
                raise FanError(f"ray {_shown(ray)} must be a tuple, got {type(ray).__name__}")
            if len(ray) != n:
                raise FanError(f"ray {_shown(ray)} has wrong length (ambient dimension {n})")
            if any(type(x) is not int for x in ray):
                raise FanError(f"ray {_shown(ray)} has an entry that is not an int")
            g = gcd(*ray)
            if g == 0:
                raise FanError(f"zero ray {_shown(ray)}")
            if g != 1:
                raise FanError(f"ray {_shown(ray)} is not primitive (gcd {g})")
        seen: set[Cone] = set()
        ranks = []
        count = len(self.rays)
        for cone in self.cones:
            if type(cone) is not tuple:
                raise FanError(f"cone {_shown(cone)} must be a tuple, got {type(cone).__name__}")
            if not cone:
                raise FanError("empty cone listed (the zero cone is implicit)")
            if not all(type(i) is int and 0 <= i < count for i in cone):
                if all(type(i) is int for i in cone):
                    raise FanError(f"cone {_shown(cone)} has a ray index out of range")
                raise FanError(f"cone {_shown(cone)} has a ray index that is not an int")
            if tuple(sorted(set(cone))) != cone:
                raise FanError(f"cone {_shown(cone)} is not a strictly increasing index list")
            if cone in seen:
                raise FanError(f"duplicate cone {_shown(cone)}")
            seen.add(cone)
            ranks.append(_int_rank([self.rays[i] for i in cone]))
        return tuple(ranks)

    @cached_property
    def census(self) -> tuple[int, ...]:
        """(d_0, ..., d_n): d_0 = 1 counts the implicit zero cone and d_k
        the listed cones whose ray matrix has rank k."""
        ranks = self.ranks  # checks the dimension before it is used here
        census = [1] + [0] * self.dim
        for rank in ranks:
            census[rank] += 1
        return tuple(census)


def _int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by exact fraction elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


@budgeted
def fan_validate(fan: Fan) -> tuple[int, ...]:
    """Check fan invariants and return the census (d_0, ..., d_n); see
    `Fan.census`.  The check runs on the first call for a fan only."""
    return fan.census


@budgeted
def toric_lambda(fan: Fan) -> int:
    """Euler number of the fan's variety: the count of full-rank cones."""
    return fan.census[fan.dim]


@budgeted
def toric_E_poly(fan: Fan) -> Poly2:
    """Hodge polynomial from the orbit decomposition.

    Each rank-k cone contributes a torus of dimension n-k, of class
    (uv-1)^(n-k); the sum over the census is the class of the whole variety.
    """
    torus = Poly2({(1, 1): 1, (0, 0): -1})
    total = Poly2()
    for k, d_k in enumerate(fan.census):
        if d_k:
            total = total + Poly2({(0, 0): d_k}) * torus ** (fan.dim - k)
    return total


class OrbitClosure(Record):
    """A p-dimensional invariant subvariety: the closure of the orbit of a
    rank-(n-p) cone, identified by the cone's ray indices."""

    ray_indices: Cone
    dim: int


@budgeted
def invariant_subvarieties(fan: Fan, p: int) -> list[OrbitClosure]:
    """The p-dimensional orbit closures, one per cone of rank n - p.

    For p = n the answer is the single descriptor of the implicit zero cone,
    the variety itself.
    """
    _check_ints({"p": p})
    ranks = fan.ranks
    n = fan.dim
    if not 0 <= p <= n:
        raise DomainError(f"subvariety dimension {p} outside 0..{n}")
    want = n - p
    if want == 0:
        return [OrbitClosure((), n)]
    return [OrbitClosure(cone, p) for cone, rank in zip(fan.cones, ranks) if rank == want]


@budgeted
def euler_series(
    fan: Fan,
    p: int,
    order: int,
    grading: Callable[[OrbitClosure], Sequence[int]] | None = None,
) -> MultiSeries:
    """Product formula for the series of p-dimensional effective classes.

    Each invariant subvariety V contributes a factor 1/(1 - x^g(V)); the
    grading g picks the monomial recording V's class.  By default every
    descriptor gets its own basis vector (the finest grading); passing a
    function identifies classes, e.g. sending all of them to a
    single variable t to grade by degree.
    """
    descriptors = invariant_subvarieties(fan, p)
    if grading is None:
        arity = len(descriptors)
        charge(arity * arity)  # a unit an entry of the unit vectors, before they are built
        vectors = [tuple(int(j == i) for j in range(arity)) for i in range(arity)]
    else:
        vectors = [tuple(grading(d)) for d in descriptors]
        if not vectors:
            raise DomainError(f"no {p}-dimensional invariant subvarieties to grade")
        arity = len(vectors[0])
    return expand_inverse_product([(v, 1) for v in vectors], arity=arity, order=order)


# ---------------------------------------------------------------------------
# stock fans, each charged before it is built: a unit per four ray entries,
# taken first, so that it bounds n before 2^n is, then a unit a cone and
# one per four of the cones' ray indices


@budgeted
def projective_fan(n: int) -> Fan:
    """Fan of n-dimensional projective space: the n standard basis rays plus
    their negated sum, with every proper subset of the rays as a cone.
    Dimension 0 is the point fan: no rays, only the implicit zero cone."""
    _check_ints({"n": n})
    if n < 0:
        raise DomainError("projective fan needs dimension >= 0")
    charge((n + 1) * n // 4)
    charge(2 ** (n + 1) - 2 + (n + 1) * (2**n - 1) // 4)
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if n:
        rays.append(tuple([-1] * n))
    cones = [c for size in range(1, n + 1) for c in combinations(range(n + 1), size)]
    return Fan(n, tuple(rays), tuple(cones))


@budgeted
def affine_fan(n: int) -> Fan:
    """Fan of affine n-space: the positive orthant and all its faces."""
    _check_ints({"n": n})
    if n < 1:
        raise DomainError("affine fan needs dimension >= 1")
    charge(n * n // 4)
    charge(2**n - 1 + n * 2 ** (n - 1) // 4)
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    cones = [c for size in range(1, n + 1) for c in combinations(range(n), size)]
    return Fan(n, tuple(rays), tuple(cones))


@budgeted
def product_fan(a: Fan, b: Fan) -> Fan:
    """Fan of the product variety: rays embed in the two factors of the sum
    lattice, and the cones are all sums of a cone from each side."""
    a.ranks, b.ranks  # both factors must be valid fans
    charge((len(a.rays) + len(b.rays)) * (a.dim + b.dim) // 4)
    # each cone of a side, the zero cone too, meets every cone of the other
    na, nb = len(a.cones) + 1, len(b.cones) + 1
    charge(na * nb - 1 + (nb * sum(map(len, a.cones)) + na * sum(map(len, b.cones))) // 4)
    rays = [r + (0,) * b.dim for r in a.rays]
    rays += [(0,) * a.dim + r for r in b.rays]
    offset = len(a.rays)
    cones = []
    for ca in ((),) + a.cones:
        for cb in ((),) + b.cones:
            merged = ca + tuple(offset + i for i in cb)
            if merged:
                cones.append(merged)
    return Fan(a.dim + b.dim, tuple(rays), tuple(cones))


# ---------------------------------------------------------------------------
# JSON exchange format: {"dim": n, "rays": [[...]], "cones": [[...]]}, every
# number a JSON integer.  A fan is written back by fan.to_json().


@budgeted
def fan_from_json(data: Mapping) -> Fan:
    """Read and check a fan from decoded JSON data; its census is kept on
    the returned fan."""
    if not isinstance(data, Mapping):
        raise ParseError("fan JSON must be an object")
    missing = {"dim", "rays", "cones"} - set(data)
    if missing:
        raise ParseError(f"fan JSON missing keys: {sorted(missing)}")
    rays, cones = data["rays"], data["cones"]
    if not isinstance(rays, list) or not isinstance(cones, list):
        raise ParseError("fan JSON 'rays' and 'cones' must be arrays")
    fan = Fan(
        _json_int(data["dim"], "dim"),
        tuple(_json_ints(ray, "rays") for ray in rays),
        tuple(_json_ints(cone, "cones") for cone in cones),
    )
    fan.census  # an invalid fan raises FanError here
    return fan
