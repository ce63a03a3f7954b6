"""Enumeration kernel for finite-field subspace counting.

The inner loop of ffcount's brute-force oracle, and its only kernel.  Kept
dependency-free and allocation-light so the oracle stays honest: every
candidate matrix is materialized and checked against the
reduced-row-echelon predicate, never counted by formula.
"""

from __future__ import annotations


def is_rref(matrix: list[list[int]], q: int) -> bool:
    """Reduced row echelon predicate over F_q, recomputed from scratch.

    Requires: no zero rows, leading entries 1, strictly increasing pivot
    columns, and each pivot column elementary.
    """
    last_pivot = -1
    pivots = []
    for row in matrix:
        lead = next((j for j, x in enumerate(row) if x % q), None)
        if lead is None:
            return False
        if row[lead] % q != 1:
            return False
        if lead <= last_pivot:
            return False
        last_pivot = lead
        pivots.append(lead)
    for r, col in enumerate(pivots):
        for i, row in enumerate(matrix):
            if i != r and row[col] % q:
                return False
    return True


def cell_count(n: int, pivots: tuple[int, ...], q: int) -> int:
    """Number of RREF matrices with the given pivot columns, by exhaustion.

    Materializes every assignment of the unconstrained entries (those to the
    right of their row's pivot in non-pivot columns), runs the full RREF
    predicate on each matrix, and counts the ones that pass.  The predicate
    never fails for well-formed input; checking it per matrix is the point,
    the count is evidence rather than arithmetic.
    """
    k = len(pivots)
    pivot_set = set(pivots)
    free = [
        (r, c)
        for r in range(k)
        for c in range(n)
        if c not in pivot_set and c > pivots[r]
    ]
    matrix = [[0] * n for _ in range(k)]
    for r, col in enumerate(pivots):
        matrix[r][col] = 1

    count = 0
    digits = [0] * len(free)
    while True:
        for (r, c), value in zip(free, digits):
            matrix[r][c] = value
        if is_rref(matrix, q):
            count += 1
        i = 0
        while i < len(digits):
            digits[i] += 1
            if digits[i] < q:
                break
            digits[i] = 0
            i += 1
        else:
            return count
