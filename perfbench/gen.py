"""Seeded op generators for the benchmark workloads.

A workload is a list of slots.  Every round of a run draws one op from each
slot, so every round has the same shape: the same commands and the same
size strata.  Within a slot the concrete inputs come from a seeded
low-discrepancy sequence (Roberts' R_d sequence with a random start), so
consecutive rounds sweep each slot's parameter range evenly and the mix of
a run barely depends on the seed, while the inputs themselves do.

Each op carries the oracle's expected value as a digest (see oracle.py);
nothing here imports cyclemotive.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import oracle

# ---------------------------------------------------------------------------
# draws


def _plastic(dims: int) -> float:
    """Unique positive root of x^(dims+1) = x + 1."""
    x = 2.0
    for _ in range(80):
        x = (1 + x) ** (1 / (dims + 1))
    return x


class Draws:
    """A seeded R_d sequence: point r is frac(start + r * alpha) in [0, 1)^dims."""

    def __init__(self, rng: random.Random, dims: int):
        g = _plastic(dims)
        self._alpha = [(1 / g) ** (j + 1) % 1.0 for j in range(dims)]
        self._x = [rng.random() for _ in range(dims)]

    def __call__(self) -> list[float]:
        self._x = [(x + a) % 1.0 for x, a in zip(self._x, self._alpha)]
        return self._x


def choose(u: float, seq):
    return seq[min(int(u * len(seq)), len(seq) - 1)]


def between(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


@dataclass
class Op:
    """One benchmark operation.

    kind selects the call (in-process) or the command family (CLI);
    params are the generated inputs; expected is the oracle digest of the
    canonical result.  CLI ops also carry the files they read.
    """

    kind: str
    params: dict
    expected: str
    files: dict = field(default_factory=dict)
    accept_errors: bool = False

    @property
    def label(self) -> str:
        if "argv" in self.params:
            return " ".join(self.params["argv"])[:100]
        shown = {k: v for k, v in self.params.items() if k not in ("rays", "cones")}
        return f"{self.kind} {shown}"[:100]


# ---------------------------------------------------------------------------
# fans


def stock_fan(family: str, dims: tuple[int, ...]):
    """Rays and cones of P^n, A^n or P^a x P^b in the stock layout."""
    if family in ("P", "A"):
        (n,) = dims
        rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        if family == "P":
            rays.append(tuple([-1] * n))
        cones = [c for size in range(1, n + 1) for c in combinations(range(len(rays)), size)]
        return rays, cones
    a, b = dims
    ra, ca = stock_fan("P", (a,))
    rb, cb = stock_fan("P", (b,))
    rays = [r + (0,) * b for r in ra] + [(0,) * a + r for r in rb]
    off = len(ra)
    cones = []
    for x in [()] + ca:
        for y in [()] + cb:
            if x or y:
                cones.append(x + tuple(off + i for i in y))
    return rays, cones


def disguise(rays, cones, rng: random.Random):
    """The same fan in other coordinates: a unimodular change of basis, a
    relabelling of the rays and a shuffled cone order.  Ranks, and so the
    census, are unchanged."""
    n = len(rays[0])
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        basis[i] = [x + s * y for x, y in zip(basis[i], basis[j])]
    moved = [tuple(sum(row[k] * r[k] for k in range(n)) for row in basis) for r in rays]
    perm = list(range(len(rays)))
    rng.shuffle(perm)
    new_rays = [None] * len(rays)
    for old, new in enumerate(perm):
        new_rays[new] = moved[old]
    new_cones = [tuple(sorted(perm[i] for i in c)) for c in cones]
    rng.shuffle(new_cones)
    return new_rays, new_cones


@dataclass
class GenFan:
    family: str
    dims: tuple[int, ...]
    rays: list
    cones: list

    @property
    def dim(self) -> int:
        return sum(self.dims)

    @property
    def census(self) -> tuple[int, ...]:
        return oracle.census(self.family, self.dims)

    def to_json(self) -> dict:
        return {"dim": self.dim, "rays": [list(r) for r in self.rays],
                "cones": [list(c) for c in self.cones]}

    def closures(self, p: int) -> list[tuple[int, ...]]:
        """Cones of the p-dimensional orbit closures: every cone here is
        simplicial, so rank n - p means n - p rays."""
        want = self.dim - p
        return sorted(tuple(c) for c in self.cones if len(c) == want) if want else [()]


def make_fan(family: str, dims: tuple[int, ...], rng: random.Random | None) -> GenFan:
    rays, cones = stock_fan(family, dims)
    if rng is not None:
        rays, cones = disguise(rays, cones, rng)
    return GenFan(family, dims, rays, cones)


def fan_shapes(lo: int, hi: int) -> list[tuple[str, tuple[int, ...]]]:
    """P^n, A^n and P^a x P^b of total dimension lo..hi, sorted by cone count."""
    shapes = []
    for n in range(lo, hi + 1):
        shapes += [("P", (n,)), ("A", (n,))]
        shapes += [("M", (a, n - a)) for a in range(1, n // 2 + 1)]
    return sorted(shapes, key=lambda s: (sum(oracle.census(*s)), s))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A list of slots; round() draws one op per slot."""

    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}/{seed}")
        self.slots = [(slot, Draws(self.rng, dims)) for slot, dims in self.slot_specs()]

    def slot_specs(self):
        raise NotImplementedError

    def round(self) -> list[Op]:
        return [slot(draw()) for slot, draw in self.slots]


# Sizes below were chosen so that op times form tight bands: light (under
# 50 ms), medium (about 100-250 ms) and heavy (about 400-800 ms) on a
# 2-core x86 machine.  Each round holds the same number of ops per band,
# which keeps the median and the 90th percentile of a run inside a band
# and so steady from seed to seed.

SERIES_COST_S = 0.45e-6  # seconds per term pair and multiplication


def series_order(v: int, target_s: float, lo: int, hi: int) -> int:
    """Truncation order at which expanding (1 - t)^(-v) by repeated
    squaring takes about target_s: cost ~ order^2 * (bits(v) + ones(v))."""
    mults = v.bit_length() + bin(v).count("1")
    return max(lo, min(hi, int((target_s / (SERIES_COST_S * mults)) ** 0.5)))


class SeriesDeep(Workload):
    """Series expansion and the cycle recursions; small fans only."""

    SERIES_PN = [(0, 2), (0, 3), (1, 3), (0, 5), (1, 4), (1, 5), (2, 5)]
    SERIES_PN_HEAVY = [(1, 4), (2, 5), (1, 5)]
    RECURSION_MEDIUM = [  # (p, d, n)
        (0, 244, 20), (0, 322, 11), (0, 400, 7), (1, 286, 7), (1, 400, 3), (2, 253, 6),
        (2, 365, 3), (3, 198, 7), (3, 273, 4), (4, 164, 8), (5, 141, 10), (6, 124, 11),
    ]
    RECURSION_HEAVY = [
        (0, 400, 20), (1, 316, 20), (1, 358, 15), (1, 400, 12), (2, 329, 12), (2, 400, 8),
        (3, 311, 10), (3, 400, 6), (4, 300, 8), (5, 257, 10), (6, 227, 11),
    ]
    PRODUCT_MEDIUM = [  # (p, n, m, order): arity 1..4
        (0, 3, 3, 200), (0, 4, 5, 180), (1, 2, 2, 42), (1, 2, 3, 38),
        (2, 2, 2, 24), (2, 2, 3, 22), (3, 3, 3, 12), (3, 3, 4, 12),
    ]
    PRODUCT_LIGHT = [
        (1, 2, 2, 45), (1, 2, 3, 40), (2, 2, 2, 20), (2, 2, 3, 18), (3, 3, 3, 11), (3, 3, 4, 10),
    ]

    def slot_specs(self):
        return [
            (self.series_medium, 3), (self.recursion_medium, 2), (self.recursion_medium, 2),
            (self.euler_degree, 3), (self.product_medium, 2),
            (self.product_light, 2), (self.euler_finest, 3),
            (self.series_heavy, 2), (self.recursion_heavy, 2),
        ]

    @staticmethod
    def _series(p, n, order):
        return Op("chow_series", {"p": p, "n": n, "order": order},
                  oracle.digest(oracle.chow_series_terms(p, n, order)))

    def series_medium(self, u):
        p, n = choose(u[0], self.SERIES_PN)
        target = 0.13 + 0.04 * u[1]
        return self._series(p, n, series_order(comb(n + 1, p + 1), target, 120, 400))

    def series_heavy(self, u):
        p, n = choose(u[0], self.SERIES_PN_HEAVY)
        return self._series(p, n, series_order(comb(n + 1, p + 1), 0.5, 120, 400) - int(20 * u[1]))

    @staticmethod
    def _recursion(table, u):
        p, d, n = choose(u[0], table)
        d -= int(u[1] * d / 25)
        return Op("chow_recursive", {"p": p, "d": d, "n": n}, oracle.digest(oracle.chow_value(p, d, n)))

    def recursion_medium(self, u):
        return self._recursion(self.RECURSION_MEDIUM, u)

    def recursion_heavy(self, u):
        return self._recursion(self.RECURSION_HEAVY, u)

    @staticmethod
    def _product(kind, table, u):
        p, n, m, order = choose(u[0], table)
        order -= int(u[1] * 3)
        mults = oracle.product_slot_mults(p, n, m)
        return Op(kind, {"p": p, "n": n, "m": m, "order": order},
                  oracle.digest(oracle.product_series_terms(mults, order)))

    def product_medium(self, u):
        return self._product("product_recursive", self.PRODUCT_MEDIUM, u)

    def product_light(self, u):
        return self._product("product_formula", self.PRODUCT_LIGHT, u)

    def euler_degree(self, u):
        family, dims = choose(u[0], fan_shapes(2, 5))
        fan = make_fan(family, dims, self.rng)
        p = between(u[1], 0, fan.dim - 1)
        n_factors = len(fan.closures(p))
        order = series_order(n_factors, 0.13 + 0.04 * u[2], 100, 300)
        return Op("euler_series_degree",
                  {"rays": fan.rays, "cones": fan.cones, "dim": fan.dim, "p": p, "order": order},
                  oracle.digest(oracle.degree_series_terms(n_factors, order)))

    def euler_finest(self, u):
        family, dims = choose(u[0], fan_shapes(2, 4))
        fan = make_fan(family, dims, self.rng)
        # divisors or curves: a handful of variables
        p = fan.dim - 1 if u[1] < 0.6 else max(0, fan.dim - 2)
        arity = len(fan.closures(p))
        order = max(3, between(u[2], 4, 8) - max(0, arity - 5))
        return Op("euler_series_finest",
                  {"rays": fan.rays, "cones": fan.cones, "dim": fan.dim, "p": p, "order": order},
                  oracle.digest(oracle.product_series_terms([1] * arity, order)))


class ToricEnum(Workload):
    """Large-fan validation, censuses and the brute-force enumerator."""

    # (family, dims) by band; subvarieties and euler_series cost about
    # twice what validate, E-polynomial and count cost on the same fan
    CHEAP_MEDIUM = [("M", (3, 4)), ("A", (9,)), ("P", (8,))]
    DEAR_MEDIUM = [("A", (8,)), ("M", (1, 6)), ("A", (9,))]
    CHEAP_HEAVY = [("M", (3, 5)), ("M", (4, 4)), ("P", (9,)), ("A", (11,))]
    DEAR_HEAVY = [("M", (1, 7)), ("M", (2, 6)), ("M", (3, 5)), ("A", (10,))]
    # (k, n, q): light ones, and heavy ones of similar cost (about
    # matrices * k * n); 10^4 to 1.4 * 10^5 matrices in all
    BRUTE_LIGHT = [(2, 8, 2), (2, 6, 3), (3, 7, 2), (1, 7, 5), (1, 6, 7), (2, 5, 5), (1, 10, 3)]
    BRUTE_HEAVY = [(2, 7, 3), (2, 5, 7), (3, 8, 2)]
    FUNCTIONS = ["fan_validate", "toric_E_poly", "toric_count", "invariant_subvarieties",
                 "euler_series_degree"]

    def slot_specs(self):
        return [(lambda u, f=f: self._fan_op(f, False, u), 3) for f in self.FUNCTIONS] + [
            (self.fan_heavy, 3), (self.brute_small, 1), (self.brute_large, 1),
        ]

    def fan_heavy(self, u):
        return self._fan_op(choose(u[2], self.FUNCTIONS), True, u)

    def _fan_op(self, function: str, heavy: bool, u) -> Op:
        dear = function in ("invariant_subvarieties", "euler_series_degree")
        shapes = {(False, False): self.CHEAP_MEDIUM, (False, True): self.DEAR_MEDIUM,
                  (True, False): self.CHEAP_HEAVY, (True, True): self.DEAR_HEAVY}[heavy, dear]
        fan = make_fan(*choose(u[0], shapes), self.rng)
        params = {"rays": fan.rays, "cones": fan.cones, "dim": fan.dim,
                  "shape": f"{fan.family}{fan.dims}"}
        cen = fan.census
        if function == "fan_validate":
            return Op(function, params, oracle.digest(cen))
        if function == "toric_E_poly":
            return Op(function, params, oracle.digest(oracle.fan_e_poly(cen)))
        if function == "toric_count":
            q = choose(u[1], SMALL_PRIME_POWERS)
            m = 1 + int(3 * ((u[0] + u[1]) % 1.0))
            return Op(function, {**params, "q": q, "m": m}, oracle.digest(oracle.fan_count(cen, q, m)))
        # p < n: p = n returns the variety itself without ranking any cone
        p = between(u[1], 0, fan.dim - 1)
        if function == "invariant_subvarieties":
            return Op(function, {**params, "p": p}, oracle.digest(tuple(fan.closures(p))))
        order = 2 + int(2 * ((u[0] + u[1]) % 1.0))
        return Op(function, {**params, "p": p, "order": order},
                  oracle.digest(oracle.degree_series_terms(len(fan.closures(p)), order)))

    def _brute(self, u, table):
        k, n, q = choose(u[0], table)
        return Op("brute", {"k": k, "n": n, "q": q}, oracle.digest(oracle.gaussian_binomial(n, k, q)))

    def brute_small(self, u):
        return self._brute(u, self.BRUTE_LIGHT)

    def brute_large(self, u):
        return self._brute(u, self.BRUTE_HEAVY)


SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 32, 49, 64, 81, 121, 125, 128]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------------------
# CLI workload
#
# CLI ops write their input files into the run's work directory; "@name"
# in argv stands for that file's path.  Expected values are the canonical
# form of the --json output as normalized by cli_plain().

SUITES = ["congruences", "euler-chow", "hodge-constraints", "hodge-remark",
          "irreducible", "lawson-yau", "quotients", "series", "toric"]


def cli_plain(family: str, out: dict):
    """Canonical plain form of a --json output: polynomial text parsed back
    into terms, volatile fields (notes, check values) dropped."""
    if family == "motive":
        value = out["value"]
        if isinstance(value, str):
            value = oracle.terms(oracle.parse_uv(value))
        return (out["measure"], value)
    if family == "chow":
        cong = out.get("congruence")
        if cong is not None:
            cong = tuple(cong[k] for k in ("expected_mod_q", "expected_mod_q_minus_1", "actual",
                                           "testable", "mod_q_ok", "mod_q_minus_1_ok"))
        return (out.get("value"), tuple(out.get("series", ())), out.get("htilde"), cong)
    if family == "toric":
        es = out.get("euler_series")
        if es is not None:
            es = (es["arity"], es["order"], tuple(sorted((tuple(e), c) for e, c in es["terms"])))
        e_poly = out.get("e_poly")
        return (tuple(out.get("census", ())), out.get("lambda"),
                oracle.terms(oracle.parse_uv(e_poly)) if e_poly is not None else None,
                out.get("count"), es)
    if family == "verify":
        return (out["ok"], tuple((s["suite"], s["ok"], all(c["ok"] and c["cases"] > 0
                                                           for c in s["checks"]))
                                 for s in out["suites"]))
    raise ValueError(family)


class CliMix(Workload):
    """One fresh `python -m cyclemotive` per op, across all subcommands."""

    # toric fans of dimension 2-8: small ones (under 120 cones) for the
    # light slot, 120-260 cones for the two heavy slots
    SMALL_FANS = [s for s in fan_shapes(2, 6) if sum(oracle.census(*s)) <= 120]
    LARGE_FANS = [s for s in fan_shapes(6, 8) if 121 <= sum(oracle.census(*s)) <= 261]

    def slot_specs(self):
        return [
            (self.motive_e_poly, 3), (self.motive_euler, 3), (self.motive_h_bar, 3),
            (self.motive_count_small, 3), (self.motive_count_large, 3),
            (self.chow_both, 3), (self.chow_series, 3), (self.chow_congruence, 3),
            (self.toric_stock, 1), (self.toric_count_series, 3), (self.toric_every_flag, 3),
            (self.verify_one, 1), (self.verify_all, 1),
        ]

    # motive ---------------------------------------------------------------

    def _leaf(self, countable: bool) -> dict:
        rng = self.rng
        kinds = ["point", "affine_space", "torus", "proj_space", "grassmannian",
                 "cellular", "toric_fan", "custom"] + ([] if countable else ["elliptic"])
        kind = rng.choice(kinds)
        if kind == "point":
            return {"leaf": "point"}
        if kind in ("affine_space", "proj_space"):
            return {"leaf": kind, "n": rng.randint(0, 5)}
        if kind == "torus":
            return {"leaf": kind, "n": rng.randint(1, 4)}
        if kind == "grassmannian":
            n = rng.randint(2, 8)
            return {"leaf": kind, "k": rng.randint(1, n), "n": n}
        if kind == "cellular":
            return {"leaf": kind, "cells": sorted(rng.randint(0, 5) for _ in range(rng.randint(1, 4)))}
        if kind == "toric_fan":
            family, dims = rng.choice(fan_shapes(1, 3))
            fan = make_fan(family, dims, rng if rng.random() < 0.5 else None)
            return {"leaf": kind, "fan": fan.to_json(), "census": list(fan.census)}
        if kind == "elliptic":
            return {"leaf": "elliptic"}
        # distinct monomials: the program keeps only the last of repeated ones
        diagonal = countable or rng.random() < 0.5
        monomials = set()
        for _ in range(rng.randint(1, 3)):
            p = rng.randint(0, 3)
            monomials.add((p, p if diagonal else rng.randint(0, 3)))
        e_poly = [[p, q, rng.randint(1, 5)] for p, q in sorted(monomials)]
        return {"leaf": "custom", "name": "x", "e_poly": e_poly, "countable": diagonal}

    def _tree(self, depth: int, countable: bool) -> dict:
        rng = self.rng
        if depth == 0 or rng.random() < 0.25:
            return self._leaf(countable)
        op = rng.choice(["disjoint_union", "difference", "product", "cone"])
        arity = 1 if op == "cone" else 2
        return {"op": op, "args": [self._tree(depth - 1, countable) for _ in range(arity)]}

    @staticmethod
    def _program_json(node: dict) -> dict:
        if "leaf" in node:
            return {k: v for k, v in node.items() if k != "census"}
        return {"op": node["op"], "args": [CliMix._program_json(a) for a in node["args"]]}

    def _motive(self, tree: dict, measure: str, expected_value) -> Op:
        text = json.dumps(self._program_json(tree))
        return Op("motive", {"argv": ["motive", "@expr.json", "--measure", measure, "--json"]},
                  oracle.digest((measure, expected_value)), files={"expr.json": text})

    def motive_e_poly(self, u):
        tree = self._tree(between(u[0], 2, 4), countable=False)
        return self._motive(tree, "e-poly", oracle.terms(oracle.expr_e_poly(tree)))

    def motive_euler(self, u):
        tree = self._tree(between(u[0], 2, 4), countable=False)
        return self._motive(tree, "euler", oracle.expr_euler(tree))

    def motive_h_bar(self, u):
        tree = self._tree(between(u[0], 2, 4), countable=False)
        return self._motive(tree, "h-bar", oracle.terms(oracle.expr_h_bar(tree)))

    def motive_count_small(self, u):
        tree = self._tree(between(u[0], 2, 4), countable=True)
        q = choose(u[1], SMALL_PRIME_POWERS)
        m = between(u[2], 1, 3)
        return self._motive(tree, f"count:{q},{m}", oracle.expr_count(tree, q, m))

    def motive_count_large(self, u):
        # trial division in the prime-power check scales with q
        tree = self._tree(between(u[0], 2, 4), countable=True)
        q = next_prime(between(u[1], 100_000, 1_100_000))
        m = between(u[2], 1, 2)
        return self._motive(tree, f"count:{q},{m}", oracle.expr_count(tree, q, m))

    # chow -----------------------------------------------------------------

    def chow_both(self, u):
        n = between(u[0], 1, 8)
        p = between(u[1], 0, n)
        d = between(u[2], 0, 40)
        argv = ["chow", "-p", str(p), "-d", str(d), "-n", str(n), "--method", "both", "--json"]
        return Op("chow", {"argv": argv},
                  oracle.digest((oracle.chow_value(p, d, n), (), None, None)))

    def chow_series(self, u):
        n = between(u[0], 1, 7)
        p = between(u[1], 0, n)
        order = between(u[2], 10, 80)
        argv = ["chow", "-p", str(p), "-n", str(n), "--series", str(order), "--json"]
        series = tuple(c for _, c in oracle.chow_series_terms(p, n, order))
        return Op("chow", {"argv": argv}, oracle.digest((None, series, None, None)))

    def chow_congruence(self, u):
        n = between(u[0], 1, 8)
        p = between(u[1], 0, n)
        d = choose(u[2], [0, 1, 1, 2, 3, 5])
        q = choose((u[0] + u[2]) % 1.0, SMALL_PRIME_POWERS)
        m = 1 + int(u[1] * 2)
        value = oracle.chow_value(p, d, n)
        if d == 0:
            actual = 1
        elif d == 1:
            actual = oracle.gaussian_binomial(n + 1, p + 1, q**m)
        else:
            actual = None
        if actual is None:
            cong = (1, value, None, False, None, None)
        else:
            ok_q = (actual - 1) % q == 0
            ok_q1 = True if q == 2 else (actual - value) % (q - 1) == 0
            cong = (1, value, actual, True, ok_q, ok_q1)
        argv = ["chow", "-p", str(p), "-d", str(d), "-n", str(n), "--htilde",
                "--congruence", f"{q},{m}", "--json"]
        return Op("chow", {"argv": argv}, oracle.digest((value, (), str(value), cong)))

    # toric ----------------------------------------------------------------

    def _toric(self, fan: GenFan, flags: list[str], files: dict, expected) -> Op:
        files = {"fan.json": json.dumps(fan.to_json()), **files}
        return Op("toric", {"argv": ["toric", "@fan.json", *flags, "--json"]},
                  oracle.digest(expected), files=files)

    def toric_stock(self, u):
        family, dims = choose(u[0], self.SMALL_FANS)
        fan = make_fan(family, dims, None)
        cen = fan.census
        return self._toric(fan, ["--census", "--lambda", "--e-poly"], {},
                           (cen, cen[-1], oracle.fan_e_poly(cen), None, None))

    def toric_count_series(self, u):
        family, dims = choose(u[0], self.LARGE_FANS)
        fan = make_fan(family, dims, self.rng)
        p = between(u[1], 0, fan.dim - 1)
        order = between(u[2], 3, 30)
        q = choose(u[2], SMALL_PRIME_POWERS)
        m = 1 + int(u[1] * 3)
        es = (1, order, oracle.degree_series_terms(len(fan.closures(p)), order))
        return self._toric(fan, ["--count", f"{q},{m}", "--euler-series", f"{p},{order}"], {},
                           ((), None, None, oracle.fan_count(fan.census, q, m), es))

    def toric_every_flag(self, u):
        family, dims = choose(u[0], self.LARGE_FANS)
        fan = make_fan(family, dims, self.rng)
        cen = fan.census
        p = between(u[1], 0, fan.dim - 1)
        closures = fan.closures(p)
        arity = min(len(closures), between(u[2], 1, 3))
        groups = list(range(arity)) + [self.rng.randrange(arity) for _ in closures[arity:]]
        self.rng.shuffle(groups)
        grading = [[list(c), [int(i == g) for i in range(arity)]] for c, g in zip(closures, groups)]
        order = {1: 12, 2: 8, 3: 6}[arity]
        mults = [groups.count(i) for i in range(arity)]
        q = choose(u[1], SMALL_PRIME_POWERS)
        es = (arity, order, oracle.product_series_terms(mults, order))
        flags = ["--census", "--lambda", "--e-poly", "--count", str(q),
                 "--euler-series", f"{p},{order},@grading.json"]
        return self._toric(fan, flags, {"grading.json": json.dumps(grading)},
                           (cen, cen[-1], oracle.fan_e_poly(cen), oracle.fan_count(cen, q, 1), es))

    # verify ---------------------------------------------------------------

    @staticmethod
    def _verify(names: list[str]) -> Op:
        argv = ["verify", "--suite", names[0] if len(names) == 1 else "all", "--json"]
        return Op("verify", {"argv": argv},
                  oracle.digest((True, tuple((s, True, True) for s in names))))

    def verify_one(self, u):
        return self._verify([choose(u[0], SUITES)])

    def verify_all(self, u):
        return self._verify(SUITES)


class CliDefects(CliMix):
    """cli-mix plus inputs that crash with a traceback today.

    A defect op passes when it returns the right value, or exits 2 or 3
    with a one-line error message.
    """

    def slot_specs(self):
        return super().slot_specs() + [(self.deep_json, 1), (self.deep_recursion, 1)]

    def deep_json(self, u):
        cones = between(u[0], 700, 800)  # JSON nesting depth 2 * cones
        text = '{"op": "cone", "args": [' * cones + '{"leaf": "point"}' + "]}" * cones
        return Op("motive", {"argv": ["motive", "@expr.json", "--measure", "euler", "--json"]},
                  oracle.digest(("euler", cones + 1)), files={"expr.json": text},
                  accept_errors=True)

    def deep_recursion(self, u):
        n = between(u[0], 1500, 3000)
        argv = ["chow", "-p", "0", "-d", "1", "-n", str(n), "--method", "recursive", "--json"]
        return Op("chow", {"argv": argv}, oracle.digest((comb(n + 1, 1), (), None, None)),
                  accept_errors=True)


WORKLOADS = {
    "cli-mix": CliMix,
    "series-deep": SeriesDeep,
    "toric-enum": ToricEnum,
    "cli-defects": CliDefects,
}
