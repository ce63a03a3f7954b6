"""Point counts over finite fields and the congruence bookkeeping.

Two deliberately separate routes to the same numbers:

* closed forms (Gaussian binomial product formula, torus-orbit census sums)
  for production use;
* a brute-force enumerator that walks canonical reduced-row-echelon forms,
  one representative per subspace, materializing and checking every matrix.

The enumerator exists to keep the formulas honest, so it never calls them,
not even to size its own work; its budget is computed from the enumeration
structure itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from math import isqrt

from .errors import BudgetError, DomainError
from .ring import LPoly
from .toric import Fan

from . import _ffenum_py

KERNEL = "python"  # name of the one enumeration kernel (_ffenum_py)

DEFAULT_BUDGET = 10**6
BUDGET_ENV = "CYCLEMOTIVE_BUDGET"
BRUTE_FORCE_MAX_Q = 7


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimePower:
    """An integer q >= 2 together with its factorization q = p^e."""

    q: int
    p: int
    e: int

    @classmethod
    def from_int(cls, q: int) -> "PrimePower":
        if q < 2:
            raise DomainError(f"field size must be >= 2, got {q}")
        # a q with no divisor up to its square root is prime
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        e = 0
        m = q
        while m % p == 0:
            m //= p
            e += 1
        if m != 1:
            raise DomainError(f"{q} is not a prime power")
        return cls(q, p, e)

    @property
    def is_prime(self) -> bool:
        return self.e == 1


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-space over a q-element
    field: prod_{i<k} (q^(n-i) - 1) / (q^(k-i) - 1), exact."""
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    numerator = 1
    denominator = 1
    for i in range(k):
        numerator *= q ** (n - i) - 1
        denominator *= q ** (k - i) - 1
    assert numerator % denominator == 0
    return numerator // denominator


def gaussian_binomial_poly(n: int, k: int) -> LPoly:
    """The same count as a polynomial in the field size, built solely from
    the Pascal-type recursion [n,k] = [n-1,k-1] + q^k [n-1,k].

    Independent of gaussian_binomial: no products of q-number quotients
    appear, so agreement of the two routes is a real check.  The table is
    filled bottom-up and lives for this call only: row j holds [j+r, j]
    for r = 0..n-k, starting from [r, 0] = [j, j] = 1.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    row = [LPoly.one()] * (n - k + 1)
    for j in range(1, k + 1):
        q_j = LPoly.monomial(j)
        next_row = [LPoly.one()]
        for r in range(1, n - k + 1):
            next_row.append(row[r] + q_j * next_row[r - 1])
        row = next_row
    return row[n - k]


def _free_positions(n: int, pivots: tuple[int, ...]) -> int:
    pivot_set = set(pivots)
    return sum(
        1
        for r, col in enumerate(pivots)
        for c in range(col + 1, n)
        if c not in pivot_set
    )


def _resolve_budget(budget: int | None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


def rref_cell_census(
    k: int, n: int, q: int, budget: int | None = None
) -> dict[tuple[int, ...], int]:
    """Brute-force census of k-dim subspaces of F_q^n by pivot pattern.

    Enumerates, for every choice of pivot columns, all matrices in reduced
    row echelon form with those pivots; each matrix found is one subspace.
    The work is capped: the number of candidate matrices (summed over
    patterns from the free-entry counts, never from a closed form) must not
    exceed the budget, by default 10^6 or the CYCLEMOTIVE_BUDGET variable.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    if q > BRUTE_FORCE_MAX_Q:
        raise DomainError(f"brute force is capped at q <= {BRUTE_FORCE_MAX_Q}, got {q}")
    if not is_prime(q):
        raise DomainError(f"brute force needs a prime field size, got {q}")
    patterns = list(combinations(range(n), k))
    work = sum(q ** _free_positions(n, piv) for piv in patterns)
    limit = _resolve_budget(budget)
    if work > limit:
        raise BudgetError(
            f"enumeration needs {work} candidate matrices, budget is {limit}"
        )
    return {piv: _ffenum_py.cell_count(n, piv, q) for piv in patterns}


def grassmannian_count_brute(k: int, n: int, q: int, budget: int | None = None) -> int:
    """Total number of k-dimensional subspaces of F_q^n, by exhaustive
    enumeration of canonical forms.  The independent oracle for
    gaussian_binomial; see rref_cell_census for the preconditions."""
    return sum(rref_cell_census(k, n, q, budget).values())


def toric_count(fan: Fan, q: int, m: int = 1) -> int:
    """Points of the fan's variety over the field with q^m elements; q
    must be a prime power.

    Orbit decomposition: each rank-k cone contributes an (n-k)-torus with
    (q^m - 1)^(n-k) points.
    """
    PrimePower.from_int(q)
    if m < 1:
        raise DomainError(f"field extension degree must be >= 1, got {m}")
    size = q**m
    return sum(
        d_k * (size - 1) ** (fan.dim - k) for k, d_k in enumerate(fan.census)
    )


@dataclass(frozen=True)
class CongruenceReport:
    """Residue comparison of a point count against expected values mod q
    and mod q-1.  A None actual means the count is out of reach and only
    the expected residues are reported (testable=False)."""

    q: int
    expected_mod_q: int
    expected_mod_q_minus_1: int
    actual: int | None = None
    note: str = ""

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
        modulus = self.q - 1
        if modulus == 1:
            return True
        return (self.actual - self.expected_mod_q_minus_1) % modulus == 0

    @property
    def ok(self) -> bool | None:
        if self.actual is None:
            return None
        return bool(self.mod_q_ok and self.mod_q_minus_1_ok)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "expected_mod_q": self.expected_mod_q,
            "expected_mod_q_minus_1": self.expected_mod_q_minus_1,
            "actual": self.actual,
            "testable": self.testable,
            "mod_q_ok": self.mod_q_ok,
            "mod_q_minus_1_ok": self.mod_q_minus_1_ok,
            "note": self.note,
        }


def congruence_check(
    actual: int, expected_mod_q: int, expected_mod_q_minus_1: int, q: int
) -> CongruenceReport:
    if q < 2:
        raise DomainError(f"field size must be >= 2, got {q}")
    return CongruenceReport(
        q=q,
        expected_mod_q=expected_mod_q,
        expected_mod_q_minus_1=expected_mod_q_minus_1,
        actual=actual,
    )
