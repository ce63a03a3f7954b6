"""Point counts over finite fields and the congruence bookkeeping.

Two deliberately separate routes to the same numbers:

* closed forms (Gaussian binomial product formula, torus-orbit census sums)
  for production use;
* a brute-force enumerator that walks canonical reduced-row-echelon forms,
  one representative per subspace, materializing and checking every matrix.

The enumerator exists to keep the formulas honest, so it never calls them,
not even to price its own work, which the work meter is charged from the
enumeration structure itself.  Its kernel (is_rref, cell_count) is plain
Python, and its entries only label the field's elements 0..q-1: it needs
no field arithmetic and takes every q that check_field admits.

check_field checks q by perfect-power detection, charged to the work meter
for q past 2^64, then a Miller-Rabin test of the base with fixed witnesses,
exact below 2^64 (larger bases are refused), and charges q^m, as every power
here, through errors.power_units first.
"""

from __future__ import annotations

from itertools import combinations
from math import log2, prod

from ._record import Record
from .errors import (WORK_BUDGET, DomainError, _check_ints, budgeted, charge, division_units,
                     power_units, product_units)
from .ring import LPoly
from .toric import Fan

KERNEL = "python"  # the enumeration kernel below is pure Python; there is no other

_PRIME_BOUND = 2**64  # Miller-Rabin with _WITNESSES is exact below this
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_ROOT_CHECK = 2**61 - 1  # a prime modulus for the cheap perfect-power test
# one exponent's float root and power modulo _ROOT_CHECK, which also
# bounds a bit's share of q's logarithm and residue
_EXPONENT_UNITS = 4


def is_prime(n: int) -> bool:
    """Primality of n < 2^64 by Miller-Rabin with the first twelve primes
    as witnesses.  The least composite that is a strong pseudoprime to all
    of them is about 3.2 * 10^23 (Jaeschke 1993; Jiang and Deng 2014), so
    the answer is exact."""
    _check_ints({"n": n})
    if n >= _PRIME_BOUND:
        raise DomainError(f"primality is decided only below 2^64, got {n}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exact_root(q: int, e: int, log_q: float, residue: int) -> int:
    """The integer p > 1 with p^e = q, or 0 if there is none; needs
    q < 2^(64e), log_q = log2(q) and residue = q % _ROOT_CHECK.

    The float guess is within a relative 2^-44 of the root: rounding it is
    exact below 2^40, and above that integer Newton steps taken from just
    over the root fall to its floor.  A residue test skips the full power
    for most e.  Each Newton step's power and division of q's size, and the
    full power, are charged before they run.
    """
    guess = 2 ** (log_q / e)
    if guess < 2**40:
        p = round(guess)
    else:
        p = int(guess * (1 + 2**-40)) + 1
        while True:
            charge(power_units(p, e - 1)
                   + division_units(q.bit_length(), p.bit_length() * (e - 1)))
            step = ((e - 1) * p + q // p ** (e - 1)) // e
            if step >= p:
                break
            p = step
    if p > 1 and pow(p, e, _ROOT_CHECK) == residue:
        charge(power_units(p, e))
        if p**e == q:
            return p
    return 0


class PrimePower(Record):
    """An integer q >= 2 together with its factorization q = p^e."""

    q: int
    p: int
    e: int

    @classmethod
    @budgeted
    def from_int(cls, q: int) -> "PrimePower":
        _check_ints({"field size": q})
        if q < 2:
            raise DomainError(f"field size must be >= 2, got {q}")
        # q = p^e with e as large as possible; the root grows as e falls,
        # so the search stops once it would reach the bound.  Below 2^64 it
        # is word-size work on at most 64 exponents, uncharged like
        # is_prime; past that its trials grow with q's bits and are charged
        # up front.  q's logarithm and residue are taken once.
        bits = q.bit_length()
        if bits > 64:
            charge(_EXPONENT_UNITS * bits)
        log_q, residue = log2(q), q % _ROOT_CHECK
        for e in range(bits, 0, -1):
            if bits > 64 * e:
                raise DomainError(
                    f"field size of {bits} bits is too large: prime powers are "
                    "checked only for bases below 2^64"
                )
            p = _exact_root(q, e, log_q, residue)
            if p:
                break
        if not is_prime(p):
            shown = p if e == 1 else f"{p}^{e}"  # q itself may be too long to format
            raise DomainError(f"{shown} is not a prime power")
        return cls(q, p, e)

    @property
    def is_prime(self) -> bool:
        return self.e == 1


def _check_field(q: int, m: int) -> None:
    """The one check that q and m name the field with q^m elements: q a
    prime power and m >= 1, each an int (a bool is not one)."""
    _check_ints({"field size": q, "field extension degree": m})
    PrimePower.from_int(q)
    if m < 1:
        raise DomainError(f"field extension degree must be >= 1, got {m}")


@budgeted
def check_field(q: int, m: int) -> int:
    """q^m, charged and built once _check_field admits q and m."""
    _check_field(q, m)
    charge(power_units(q, m))
    return q**m


def _check_subspace_dims(n: int, k: int, **more: int) -> None:
    """The one check of a subspace dimension k in an n-space, which both
    Gaussian routes and the brute-force census call: n, k and the other
    named indices are ints, and 0 <= k <= n."""
    _check_ints({"n": n, "k": k, **more})
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")


@budgeted
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over a q-element
    field: prod_{i<k} (q^(n-i) - 1) / (q^(k-i) - 1), exact, taken on the
    smaller side, [n, k] = [n, n - k].  Charged up front: a unit a factor,
    each power and product, and the one division."""
    _check_subspace_dims(n, k, q=q)
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    k = min(k, n - k)
    b, units, bits = q.bit_length(), 2 * k, [0, 0]  # the numerator's and denominator's
    for side, top in enumerate((n, k)):
        for e in range(top, top - k, -1):
            units += power_units(q, e) + product_units(bits[side], b * e)
            bits[side] += b * e
    charge(units + division_units(*bits))
    numerator, denominator = (prod(q ** (top - i) - 1 for i in range(k)) for top in (n, k))
    quotient, rest = divmod(numerator, denominator)
    assert rest == 0
    return quotient


@budgeted
def gaussian_binomial_poly(n: int, k: int) -> LPoly:
    """The same count as a polynomial in the field size, built solely from
    the Pascal-type recursion [n,k] = [n-1,k-1] + q^k [n-1,k].

    Independent of gaussian_binomial: no products of q-number quotients
    appear, so agreement of the two routes is a real check.  The table is
    filled bottom-up and lives for this call only: one row, which step j
    turns into [j+r, j] for r = 0..n-k, from [r, 0] = [j, j] = 1.  Its
    cells and each q^j are charged a unit of work up front.
    """
    _check_subspace_dims(n, k)
    charge((k + 1) * (n - k + 2))
    one = LPoly({0: 1})
    row = [one] * (n - k + 1)
    for j in range(1, k + 1):
        q_j = one._like({j: 1})
        for r in range(1, n - k + 1):
            row[r] = row[r] + q_j * row[r - 1]
    return row[n - k]


def is_rref(matrix: list[list[int]], q: int) -> bool:
    """Reduced row echelon predicate over F_q, recomputed from scratch.

    Requires: no zero rows, leading entries 1, strictly increasing pivot
    columns, and each pivot column elementary.  Entries are read mod q.
    """
    last_pivot = -1
    pivots = []
    for row in matrix:
        lead = 0
        for x in row:
            if x % q:
                break
            lead += 1
        else:
            return False
        if x % q != 1 or lead <= last_pivot:
            return False
        last_pivot = lead
        pivots.append(lead)
    for row, own in zip(matrix, pivots):
        for col in pivots:
            if col != own and row[col] % q:
                return False
    return True


def _free_entries(n: int, pivots: tuple[int, ...]) -> list[tuple[int, int]]:
    """(row, column) of each entry an RREF matrix with these pivot columns
    leaves free: right of its row's pivot and outside every pivot column,
    row by row."""
    pivot_set = set(pivots)
    return [
        (r, c) for r, col in enumerate(pivots) for c in range(col + 1, n) if c not in pivot_set
    ]


def cell_count(n: int, pivots: tuple[int, ...], q: int) -> int:
    """Number of RREF matrices with the given pivot columns, by exhaustion.

    Walks every assignment of the free entries (see _free_entries) as an
    odometer on one matrix, the first turning fastest; each step writes
    only the entries that change.  The full RREF predicate runs on every
    matrix, and the ones that pass are counted: it never fails for
    well-formed input, and checking it per matrix is the point, the count
    is evidence rather than arithmetic.
    """
    matrix = [[0] * n for _ in pivots]
    for row, col in zip(matrix, pivots):
        row[col] = 1
    free = [(matrix[r], c) for r, c in _free_entries(n, pivots)]
    count = 0
    while True:
        if is_rref(matrix, q):
            count += 1
        for row, c in free:
            value = row[c] + 1
            if value < q:
                row[c] = value
                break
            row[c] = 0
        else:
            return count


@budgeted
def rref_cell_census(k: int, n: int, q: int) -> dict[tuple[int, ...], int]:
    """Brute-force census of k-dim subspaces of F_q^n by pivot pattern.

    Enumerates, for every choice of pivot columns, all matrices in reduced
    row echelon form with those pivots; each matrix found is one subspace.
    Entries only label F_q's elements 0..q-1, so q is any prime power.  The
    work is charged to the call's budget as the patterns are listed, before
    any matrix is built: n units for the column pool, then per pattern its
    scan of free entries and its candidates, each a unit plus one per four
    of its k*n entries.
    """
    _check_subspace_dims(n, k, q=q)
    check_field(q, 1)
    price, cut = 1 + k * n // 4, WORK_BUDGET.bit_length()  # q^cut > WORK_BUDGET
    charge(n)  # combinations() copies the column pool
    patterns = []
    for pivots in combinations(range(n), k):  # pivots 0..k-1, the widest, first
        charge(price)
        charge(q ** min(len(_free_entries(n, pivots)), cut) * price)
        patterns.append(pivots)
    return {piv: cell_count(n, piv, q) for piv in patterns}


@budgeted
def grassmannian_count_brute(k: int, n: int, q: int) -> int:
    """Total number of k-dimensional subspaces of F_q^n, by exhaustive
    enumeration of canonical forms.  The independent oracle for
    gaussian_binomial; see rref_cell_census for the preconditions."""
    return sum(rref_cell_census(k, n, q).values())


@budgeted
def toric_count(fan: Fan, q: int, m: int = 1) -> int:
    """Points of the fan's variety over the field with q^m elements; q
    must be a prime power.

    Orbit decomposition: each rank-k cone contributes an (n-k)-torus with
    (q^m - 1)^(n-k) points.
    """
    base, census = check_field(q, m) - 1, fan.census
    charge(sum(1 + power_units(base, e) for e in range(fan.dim + 1)))
    return sum(d_k * base ** (fan.dim - k) for k, d_k in enumerate(census))


class CongruenceReport(Record):
    """Residue comparison of a point count against expected values mod q
    and mod q-1.  A None actual means the count is out of reach and only
    the expected residues are reported (testable=False)."""

    q: int
    expected_mod_q: int
    expected_mod_q_minus_1: int
    actual: int | None = None
    note: str = ""

    _derived = ("testable", "mod_q_ok", "mod_q_minus_1_ok")

    @property
    def testable(self) -> bool:
        return self.actual is not None

    @property
    def mod_q_ok(self) -> bool | None:
        if self.actual is None:
            return None
        return (self.actual - self.expected_mod_q) % self.q == 0

    @property
    def mod_q_minus_1_ok(self) -> bool | None:
        """Congruence mod q-1; vacuously true over the two-element field
        since every pair of integers is congruent mod 1."""
        if self.actual is None:
            return None
        return (self.actual - self.expected_mod_q_minus_1) % (self.q - 1) == 0

    @property
    def ok(self) -> bool | None:
        if self.actual is None:
            return None
        return bool(self.mod_q_ok and self.mod_q_minus_1_ok)
