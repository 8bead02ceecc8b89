"""Shared fixtures and seeded random generators for the test suite."""
from __future__ import annotations

import json
import random
from fractions import Fraction

from metricat import (
    FiniteMetricSpace,
    Functor,
    Metric1Space,
    Weight,
    build_category,
    from_metric_space,
    indiscrete,
)
from metricat import jsonio
from metricat.geometry import bimetric_space
from metricat.metricspace import shortest_path_repair


# --- fixed fixtures -----------------------------------------------------------

def z2_category():
    """One object, arrows {id, g} with g after g = id."""
    return build_category(1, [(0, 0, "g")], {(1, 1): 0})


def z2_space(wg) -> Metric1Space:
    return Metric1Space.from_weights(z2_category(), [0, wg])


def free_arrow_category():
    """Two objects, one non-identity arrow, no reverse."""
    return build_category(2, [(0, 1, "f")])


def free_arrow_space(w) -> Metric1Space:
    return Metric1Space.from_weights(free_arrow_category(), [0, 0, w])


def parallel_pair_space(w1, w2) -> Metric1Space:
    """Two parallel arrows 0 -> 1 and nothing back."""
    cat = build_category(2, [(0, 1, "f"), (0, 1, "g")])
    return Metric1Space.from_weights(cat, [0, 0, w1, w2])


def indiscrete_space(matrix) -> Metric1Space:
    """Indiscrete category weighted by an arbitrary (possibly asymmetric,
    possibly degenerate) reflexive matrix; no validation."""
    n = len(matrix)
    cat = indiscrete(n)
    weights = [Weight.parse(matrix[a.dom][a.cod]) for a in cat.arrows]
    return Metric1Space.from_weights(cat, weights)


def line_space(coords) -> Metric1Space:
    cs = [Fraction(c) for c in coords]
    matrix = [[abs(a - b) for b in cs] for a in cs]
    return from_metric_space(
        FiniteMetricSpace.from_matrix([str(c) for c in cs], matrix)
    )


def chain_space(weights_along) -> Metric1Space:
    """Free path category of a chain 0 -> 1 -> ... with interval arrows
    weighing the sum of the generators they span."""
    ws = [Weight.parse(w) for w in weights_along]
    n = len(ws) + 1
    arrows = []
    index = {}
    for i in range(n):
        for j in range(i + 1, n):
            index[(i, j)] = n + len(arrows)
            arrows.append((i, j, f"[{i},{j})"))
    compose = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                compose[(index[(i, j)], index[(j, k)])] = index[(i, k)]
    cat = build_category(n, arrows, compose)
    table: list[Weight] = [Weight(0)] * n
    for i in range(n):
        for j in range(i + 1, n):
            acc = ws[i]
            for t in range(i + 1, j):
                acc = acc + ws[t]
            table.append(acc)
    return Metric1Space.from_weights(cat, table)


def one_sided_space() -> Metric1Space:
    """Three objects, a one-sided inverse pair (phi after psi is an identity
    but psi after phi is a nontrivial idempotent), plus a strictly longer
    detour for one direction.  Valid, non-degenerate, not a groupoid."""
    PSI, PHI, ETA, RHO1, RHO2, TAU, SIGMA, ZETA = 3, 4, 5, 6, 7, 8, 9, 10
    arrows = [
        (0, 1, "psi"), (1, 0, "phi"), (1, 1, "eta"), (0, 2, "rho1"),
        (2, 1, "rho2"), (2, 0, "tau"), (1, 2, "sigma"), (2, 2, "zeta"),
    ]
    comp = {
        (PSI, PHI): 0, (PSI, ETA): PSI, (PSI, SIGMA): RHO1,
        (PHI, PSI): ETA, (PHI, RHO1): SIGMA,
        (ETA, PHI): PHI, (ETA, ETA): ETA, (ETA, SIGMA): SIGMA,
        (RHO1, RHO2): PSI, (RHO1, TAU): 0, (RHO1, ZETA): RHO1,
        (RHO2, PHI): TAU, (RHO2, ETA): RHO2, (RHO2, SIGMA): ZETA,
        (TAU, PSI): RHO2, (TAU, RHO1): ZETA,
        (SIGMA, RHO2): ETA, (SIGMA, TAU): PHI, (SIGMA, ZETA): SIGMA,
        (ZETA, RHO2): RHO2, (ZETA, TAU): TAU, (ZETA, ZETA): ZETA,
    }
    cat = build_category(3, arrows, comp)
    return Metric1Space.from_weights(cat, [0, 0, 0, 5, 5, 4, 2, 3, 2, 7, 4])


def monoid_space(k: int, product, weight) -> Metric1Space:
    """One object with arrows 0..k-1, arrow 0 the identity; non-identity
    arrows a, b compose to product(a, b) and arrow a weighs weight(a)."""
    comp = {(a, b): product(a, b) for a in range(1, k) for b in range(1, k)}
    cat = build_category(1, [(0, 0)] * (k - 1), comp)
    return Metric1Space.from_weights(cat, [0] + [weight(a) for a in range(1, k)])


def max_monoid_space(k: int) -> Metric1Space:
    """Arrows compose by max and arrow a weighs a: the identity is its only
    dagger."""
    return monoid_space(k, max, lambda a: a)


def null_product_space(k: int) -> Metric1Space:
    """Every product of two non-identity arrows is the last arrow, a zero;
    its daggers are the involutions of arrows 1..k-2."""
    return monoid_space(k, lambda a, b: k - 1, lambda a: 1)


def cyclic_groupoid_space(n: int, m: int) -> Metric1Space:
    """n objects with hom(x, y) = Z/m for every pair, composing by addition;
    arrow (x, y, g) has id (x * n + y) * m + g.  Every off-diagonal hom-set
    has m arrows, and for m >= 3 some daggers pair them by m-cycles."""
    arrows = [(x, y) for x in range(n) for y in range(n) for _ in range(m)]
    comp = {
        ((x * n + y) * m + g, (y * n + z) * m + h): (x * n + z) * m + (g + h) % m
        for x in range(n) for y in range(n) for z in range(n)
        for g in range(m) for h in range(m)
    }
    identities = {x: (x * n + x) * m for x in range(n)}
    cat = build_category(n, arrows, comp, identities)
    return Metric1Space.from_weights(cat, [0 if a in identities.values() else 1 for a in range(len(arrows))])


def halving_fixture():
    """Indiscrete space on the line points 0, 1/3, 1 with the halve-then-
    snap-down-to-grid self map (1 -> 1/3 -> 0 -> 0): contraction factor
    exactly 1/2, fixed point at 0."""
    space = line_space([0, Fraction(1, 3), 1])
    return space, indiscrete_endofunctor(space, [0, 0, 1])


def indiscrete_endofunctor(space: Metric1Space, point_map) -> Functor:
    return indiscrete_functor(space, space, point_map)


def indiscrete_functor(src: Metric1Space, dst: Metric1Space, point_map) -> Functor:
    """The functor an arbitrary point map induces between indiscrete
    categories (arrow images are forced)."""
    n_dst = len(dst.category.objects)
    obj_map = {i: point_map[i] for i in range(len(src.category.objects))}
    arr_map = {
        a.id: point_map[a.dom] * n_dst + point_map[a.cod]
        for a in src.category.arrows
    }
    return Functor(src.category, dst.category, obj_map, arr_map)


def bimetric_fixture(a1, a2, h) -> Metric1Space:
    n = 2
    t1 = {(x, y): Fraction(a1) for x in range(n) for y in range(n) if x != y}
    t2 = {(x, y): Fraction(a2) for x in range(n) for y in range(n) if x != y}
    return bimetric_space(n, t1, t2, Fraction(h))  # raises when the gate fails


def functor_json(fun: Functor) -> dict:
    return {
        "objMap": {str(k): v for k, v in fun.obj_map.items()},
        "arrMap": {str(k): v for k, v in fun.arr_map.items()},
    }


def cli_documents() -> dict[str, tuple[list[str], dict]]:
    """One request per CLI subcommand that ends in exit 0: its argument
    list, which reads the input from stdin ('-'), and the JSON document."""
    pair = jsonio.space_to_json(indiscrete_space([[0, 1], [1, 0]]))
    z2 = jsonio.space_to_json(z2_space(1))
    line = line_space([0, 1])
    halving, halve = halving_fixture()
    point = {"points": ["p"], "d": [[0]]}
    u = {"points": ["a", "b"], "d": [[0, 1], [1, 0]]}
    v = {"points": ["c", "d"], "d": [[0, "5/2"], ["5/2", 0]]}
    identity = indiscrete_endofunctor(indiscrete_space([[0, 1], [1, 0]]), [0, 1])
    return {
        "validate": (["validate", "-"], pair),
        "lawvere": (["lawvere", "-"], pair),
        "metrize": (["metrize", "-"], {
            "category": jsonio.category_to_json(indiscrete(2)),
            "generators": {"list": [[1]], "constantFrom": 0},
        }),
        "map-space": (["map-space", "-"], {"source": z2, "target": z2}),
        "dagger": (["dagger", "-v", "-"], jsonio.space_to_json(max_monoid_space(4))),
        "continuity": (["continuity", "-"], {
            "source": pair, "target": pair, "functor": functor_json(identity),
        }),
        "fixed-point": (["fixed-point", "-"], {
            "space": jsonio.space_to_json(halving), "functor": functor_json(halve),
            "start": 2, "contraction": 0,
        }),
        "limits": (["limits", "-"], {
            "space": jsonio.space_to_json(line),
            "base": 0,
            "sequence": {"preperiod": [], "period": [line.category.hom(0, 1)[0]]},
            "cone": {"apex": 1, "startIndex": 0, "legs": {"period": [line.category.identity[1]]}},
        }),
        "gh": (["gh", "-"], {"x": point, "y": v}),
        "lipschitz": (["lipschitz", "-"], {"x": u, "y": v}),
        "demo": (["demo", "bimetric", "-"], {
            "n": 2, "a1": {"0,1": 1, "1,0": 1}, "a2": {"0,1": 2, "1,0": 2}, "h": 1,
        }),
    }


DELETE = object()


def replaced(doc, path, value):
    """A copy of a JSON document with `value` at `path` (a tuple of keys
    and list indices; () is the whole document), or with that position
    deleted when `value` is DELETE."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


# --- seeded random generators --------------------------------------------------

def rand_metric(rng: random.Random, n: int, max_num: int = 12) -> FiniteMetricSpace:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(1, max_num), rng.choice((1, 2, 3)))
            m[i][j] = m[j][i] = v
    m = shortest_path_repair(m)
    return FiniteMetricSpace.from_matrix([f"p{i}" for i in range(n)], m)


def rand_reflexive_restricted(rng: random.Random, n: int, symmetric: bool):
    """A reflexive matrix satisfying the restricted triangle inequality,
    symmetric on demand (asymmetric attempts may still come out symmetric;
    callers should test the matrix, not the intent)."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = Fraction(rng.randint(0, 9), rng.choice((1, 2)))
            m[i][j] = v
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                m[j][i] = m[i][j]
    return shortest_path_repair(m)


SPACE_KINDS = (
    "indiscrete",
    "indiscrete_degenerate",
    "z2",
    "free_arrow",
    "parallel",
    "chain",
    "bimetric",
    "one_sided",
)


def rand_space(rng: random.Random, kinds=SPACE_KINDS) -> Metric1Space:
    """A random valid metric 1-space (at most 4 objects, 16 arrows)."""
    kind = rng.choice(kinds)
    if kind == "indiscrete":
        return from_metric_space(rand_metric(rng, rng.randint(1, 3)))
    if kind == "indiscrete_degenerate":
        base = rand_metric(rng, 2)
        dup = rng.randint(0, 1)
        pts = list(base.points) + ["dup"]
        d = [list(row) + [row[dup]] for row in base.d]
        d.append(list(base.d[dup]) + [Fraction(0)])
        return indiscrete_space(d)
    if kind == "z2":
        return z2_space(rng.choice((0, 1, Fraction(3, 2), 2)))
    if kind == "free_arrow":
        return free_arrow_space(rng.choice((0, 1, Fraction(5, 2))))
    if kind == "parallel":
        return parallel_pair_space(rng.randint(0, 4), rng.randint(0, 4))
    if kind == "chain":
        k = rng.randint(1, 3)
        return chain_space([Fraction(rng.randint(0, 6)) for _ in range(k)])
    if kind == "bimetric":
        base = Fraction(rng.randint(1, 5))
        delta = Fraction(rng.randint(0, 3))
        extra = Fraction(rng.randint(0, 2))
        return bimetric_fixture(base, base + delta, delta + extra)
    if kind == "one_sided":
        return one_sided_space()
    raise ValueError(kind)


def rand_contraction(rng: random.Random):
    """A random indiscrete space with a contraction endofunctor (factor
    strictly below 1); rejection sampling over downward point maps."""
    from metricat.fixedpoint import contraction_factor

    for _ in range(200):
        n = rng.randint(2, 4)
        coords = sorted(rng.sample(range(25), n))
        space = line_space([Fraction(c - coords[0]) for c in coords])
        point_map = [0] + [rng.randint(0, max(0, i - 1)) for i in range(1, n)]
        fun = indiscrete_endofunctor(space, point_map)
        cert = contraction_factor(space, fun)
        if cert.holds:
            return space, fun, cert
    raise AssertionError("rejection sampling failed to find a contraction")
