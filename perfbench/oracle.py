"""Independent reference values for every benchmark op.

Nothing here imports cyclemotive.  Each expected value comes from a
closed form or from a small evaluator written for the benchmark alone:
binomials for cycle spaces and series, binomial convolutions for the
censuses of the generated fan families, the Gaussian-binomial product
formula for subspace counts, and a dict-based polynomial evaluator for
class expressions.  Values are compared in a canonical plain-data form
(see ``canonical``), so the program's output types never meet the
oracle's.
"""

from __future__ import annotations

import hashlib
from math import comb

# ---------------------------------------------------------------------------
# canonical form and digests


def digest(plain) -> str:
    """Stable fingerprint of a plain value (ints, strings, tuples, lists)."""
    return hashlib.sha256(repr(plain).encode()).hexdigest()


def canonical(value):
    """Plain-data form of a program result, for comparison with the oracle.

    Series and polynomials become sorted (exponent, coefficient) tuples,
    orbit-closure lists become sorted cone tuples; integers and tuples of
    integers pass through.  Reads only public attributes.
    """
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, tuple) and all(isinstance(x, int) for x in value):
        return value
    if isinstance(value, list):
        return tuple(sorted(tuple(d.ray_indices) for d in value))
    terms = getattr(value, "terms", None)
    if terms is not None:
        return tuple(sorted((tuple(e), c) for e, c in terms.items()))
    raise TypeError(f"no canonical form for {type(value).__name__}")


# ---------------------------------------------------------------------------
# cycle spaces and series


def chow_value(p: int, d: int, n: int) -> int:
    """Euler number of degree-d p-cycles in P^n: comb(v+d-1, d)."""
    v = comb(n + 1, p + 1)
    return comb(v + d - 1, d)


def chow_series_terms(p: int, n: int, order: int) -> tuple:
    v = comb(n + 1, p + 1)
    return tuple(((k,), comb(v + k - 1, k)) for k in range(order + 1))


def compositions(arity: int, order: int):
    """Every exponent vector of the given arity with total degree <= order."""
    if arity == 0:
        yield ()
        return
    for head in range(order + 1):
        for tail in compositions(arity - 1, order - head):
            yield (head,) + tail


def product_series_terms(mults, order: int) -> tuple:
    """prod_i (1 - x_i)^(-c_i) to total degree `order`:
    coefficient prod_i comb(c_i + a_i - 1, a_i)."""
    out = []
    for alpha in compositions(len(mults), order):
        c = 1
        for ci, ai in zip(mults, alpha):
            c *= comb(ci + ai - 1, ai)
        out.append((alpha, c))
    return tuple(sorted(out))


def product_slot_mults(p: int, n: int, m: int) -> list[int]:
    """Multiplicities of the unit factors for p-cycles in P^n x P^m:
    comb(n+1, k+1) * comb(m+1, l+1) for each slot k + l = p, k ascending."""
    return [
        comb(n + 1, k + 1) * comb(m + 1, p - k + 1)
        for k in range(max(0, p - m), min(n, p) + 1)
    ]


# ---------------------------------------------------------------------------
# fan families


def census(family: str, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Cone census (d_0..d_n) of P^n, A^n or P^a x P^b."""
    if family == "P":
        (n,) = dims
        return tuple(comb(n + 1, k) for k in range(n + 1))
    if family == "A":
        (n,) = dims
        return tuple(comb(n, k) for k in range(n + 1))
    a, b = dims
    pa = [comb(a + 1, i) for i in range(a + 1)]
    pb = [comb(b + 1, j) for j in range(b + 1)]
    out = [0] * (a + b + 1)
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            out[i + j] += x * y
    return tuple(out)


def fan_e_poly(cen: tuple[int, ...]) -> tuple:
    """sum_k d_k (uv - 1)^(n-k) as sorted ((j, j), coeff) terms."""
    n = len(cen) - 1
    coeff: dict[int, int] = {}
    for k, dk in enumerate(cen):
        m = n - k
        for j in range(m + 1):
            coeff[j] = coeff.get(j, 0) + dk * comb(m, j) * (-1) ** (m - j)
    return tuple(sorted(((j, j), c) for j, c in coeff.items() if c))


def fan_count(cen: tuple[int, ...], q: int, m: int) -> int:
    n = len(cen) - 1
    return sum(dk * (q**m - 1) ** (n - k) for k, dk in enumerate(cen))


def degree_series_terms(num_factors: int, order: int) -> tuple:
    """(1 - t)^(-N) to the given order."""
    return tuple(((k,), comb(num_factors + k - 1, k)) for k in range(order + 1))


# ---------------------------------------------------------------------------
# finite fields


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of F_q^n, by the product formula."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def box_partitions(k: int, n: int) -> list[int]:
    """Coefficients of the Gaussian binomial [n choose k] as a polynomial in
    q: the number of partitions of each size that fit in a k x (n-k) box."""
    table: dict[tuple[int, int], list[int]] = {}

    def count(parts: int, max_part: int) -> list[int]:
        # partitions into at most `parts` parts, each at most `max_part`
        key = (parts, max_part)
        if key not in table:
            if parts == 0:
                res = [1]
            else:
                res = [0] * (parts * max_part + 1)
                for first in range(max_part + 1):
                    for s, c in enumerate(count(parts - 1, first)):
                        res[first + s] += c
            table[key] = res
        return table[key]

    return count(k, n - k)


# ---------------------------------------------------------------------------
# class expressions
#
# A polynomial in u, v is a dict {(p, q): c}; the evaluator mirrors the
# documented leaf semantics and nothing else.


def _pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            e = (p1 + p2, q1 + q2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _padd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _diag(coeffs) -> dict:
    return {(i, i): c for i, c in enumerate(coeffs) if c}


def _torus(n: int) -> dict:
    return _diag([comb(n, j) * (-1) ** (n - j) for j in range(n + 1)])


def leaf_e_poly(leaf: dict) -> dict:
    kind = leaf["leaf"]
    if kind == "point":
        return {(0, 0): 1}
    if kind == "affine_space":
        return {(leaf["n"], leaf["n"]): 1}
    if kind == "torus":
        return _torus(leaf["n"])
    if kind == "proj_space":
        return _diag([1] * (leaf["n"] + 1))
    if kind == "grassmannian":
        return _diag(box_partitions(leaf["k"], leaf["n"]))
    if kind == "cellular":
        out: dict = {}
        for c in leaf["cells"]:
            out[(c, c)] = out.get((c, c), 0) + 1
        return out
    if kind == "toric_fan":
        return dict(fan_e_poly(tuple(leaf["census"])))
    if kind == "elliptic":
        return {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
    if kind == "custom":
        out = {}
        for p, q, c in leaf["e_poly"]:
            out[(p, q)] = out.get((p, q), 0) + c
        return {e: c for e, c in out.items() if c}
    raise ValueError(f"unknown leaf {kind!r}")


def expr_e_poly(node: dict) -> dict:
    if "leaf" in node:
        return leaf_e_poly(node)
    args = [expr_e_poly(a) for a in node["args"]]
    op = node["op"]
    if op == "disjoint_union":
        return _padd(args[0], args[1])
    if op == "difference":
        return _padd(args[0], args[1], -1)
    if op == "product":
        return _pmul(args[0], args[1])
    if op == "cone":
        return _padd({(0, 0): 1}, _pmul({(1, 1): 1}, args[0]))
    raise ValueError(f"unknown op {op!r}")


def expr_euler(node: dict) -> int:
    return sum(expr_e_poly(node).values())


def expr_count(node: dict, q: int, m: int) -> int:
    """Points over F_(q^m): the E-polynomial at uv = q^m (countable trees)."""
    x = q**m
    return sum(c * x**p for (p, _), c in expr_e_poly(node).items())


def expr_h_bar(node: dict) -> dict:
    """Image modulo uv: drop every monomial divisible by uv."""
    return {(p, q): c for (p, q), c in expr_e_poly(node).items() if p == 0 or q == 0}


# ---------------------------------------------------------------------------
# canonical text of Z[u, v], parsed back into terms


def parse_uv(text: str) -> dict:
    """Parse the documented text form (e.g. '1-u-v+u^2*v^2') into terms."""
    out: dict = {}
    if text == "0":
        return out
    i = 0
    body = text.replace("*", "")
    while i < len(body):
        sign = 1
        if body[i] in "+-":
            sign = -1 if body[i] == "-" else 1
            i += 1
        j = i
        while j < len(body) and body[j].isdigit():
            j += 1
        coeff = int(body[i:j]) if j > i else 1
        i = j
        exps = [0, 0]
        while i < len(body) and body[i] in "uv":
            var = 0 if body[i] == "u" else 1
            i += 1
            e = 1
            if i < len(body) and body[i] == "^":
                j = i + 1
                while j < len(body) and body[j].isdigit():
                    j += 1
                e = int(body[i + 1:j])
                i = j
            exps[var] += e
        key = tuple(exps)
        out[key] = out.get(key, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def terms(poly: dict) -> tuple:
    return tuple(sorted(poly.items()))

