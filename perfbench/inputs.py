"""Seeded, stdlib-only input documents for the perfbench workloads.

Nothing here imports metricat: the program under test only ever sees the
JSON-shaped documents built below, in the formats `metricat.jsonio`
documents.  Every expectation an operation is checked against is computed
here too, from the same seeded data, independently of the library.

A workload is a list of rounds.  Each round has a fixed shape (which sizes
and which defect slots it holds, see the `*_ROUND` tables) so that every run
measures the same mix; the seed draws the distances, the defective arrow or
pair, and the order of operations inside the round.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

INF = "inf"


# --- metric data -------------------------------------------------------------

def shortest_paths(matrix: list[list[int]]) -> list[list[int]]:
    """Floyd-Warshall closure: the largest matrix below the input that
    satisfies the triangle inequality."""
    n = len(matrix)
    d = [list(row) for row in matrix]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return d


def rand_metric(rng: random.Random, n: int, max_num: int = 12) -> list[list[Fraction]]:
    """A metric on n points with positive distances k/1, k/2 or k/3,
    k <= max_num (closed in sixths, where the arithmetic is integral)."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.randint(1, max_num) * 6 // rng.choice((1, 2, 3))
    return [[Fraction(v, 6) for v in row] for row in shortest_paths(m)]


def rand_pseudometric(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A metric on n - 1 points plus a copy of one of them at distance 0."""
    base = rand_metric(rng, n - 1)
    dup = rng.randrange(n - 1)
    rows = [row + [row[dup]] for row in base]
    rows.append(list(base[dup]) + [Fraction(0)])
    return rows


def permuted(matrix: list[list[Fraction]], perm: list[int]) -> list[list[Fraction]]:
    """The isometric copy whose point i is the input's point perm[i]."""
    return [[matrix[perm[i]][perm[j]] for j in range(len(perm))] for i in range(len(perm))]


def diameter(matrix: list[list[Fraction]]) -> Fraction:
    return max((v for row in matrix for v in row), default=Fraction(0))


# --- documents -----------------------------------------------------------------

def category_doc(n_objects: int, arrows: list[tuple[int, int]], identities: list[int],
                 compose: dict[tuple[int, int], int]) -> dict:
    return {
        "objects": [{"id": i} for i in range(n_objects)],
        "arrows": [{"id": i, "dom": d, "cod": c} for i, (d, c) in enumerate(arrows)],
        "identities": {str(x): a for x, a in enumerate(identities)},
        "compose": [[f, g, h] for (f, g), h in sorted(compose.items())],
    }


def space_doc(cat: dict, weights: list) -> dict:
    return {"category": cat, "weights": {str(i): str(w) for i, w in enumerate(weights)}}


def indiscrete_doc(matrix: list[list[Fraction]]) -> dict:
    """One arrow x -> y (id x * n + y) per ordered pair, weighing d(x, y)."""
    n = len(matrix)
    arrows = [(x, y) for x in range(n) for y in range(n)]
    compose = {
        (x * n + y, y * n + z): x * n + z
        for x in range(n) for y in range(n) for z in range(n)
    }
    cat = category_doc(n, arrows, [x * n + x for x in range(n)], compose)
    return space_doc(cat, [matrix[x][y] for x, y in arrows])


def bimetric_doc(d: list[list[Fraction]], c: Fraction, h: Fraction) -> dict:
    """Two arrows of each sign x -> y, composing by sign multiplication.

    +1 x -> y weighs d(x, y), -1 x -> y weighs d(x, y) + c off the diagonal
    and h on it.  The full triangle inequality then holds exactly when
    c <= h <= 2 * min d + c.
    """
    n = len(d)
    ids = {}
    arrows = []
    for x in range(n):
        for y in range(n):
            for s in (1, -1):
                ids[(s, x, y)] = len(arrows)
                arrows.append((x, y))
    compose = {
        (f, g): ids[(s1 * s2, x, z)]
        for (s1, x, y), f in ids.items()
        for (s2, y2, z), g in ids.items()
        if y == y2
    }
    weights = []
    for x in range(n):
        for y in range(n):
            weights.append(Fraction(0) if x == y else d[x][y])
            weights.append(h if x == y else d[x][y] + c)
    cat = category_doc(n, arrows, [ids[(1, x, x)] for x in range(n)], compose)
    return space_doc(cat, weights)


def chain_doc(steps: list[Fraction]) -> dict:
    """Free path category of 0 -> 1 -> ... -> k-1: identities first, then
    one arrow [i, j) per i < j weighing the sum of the steps it spans."""
    k = len(steps) + 1
    arrows = [(i, i) for i in range(k)]
    index = {}
    for i in range(k):
        for j in range(i + 1, k):
            index[(i, j)] = len(arrows)
            arrows.append((i, j))
    compose = {}
    for a, (i, j) in enumerate(arrows):
        compose[(i, a)] = a
        compose[(a, j)] = a
    for (i, j), f in index.items():
        for (j2, l), g in index.items():
            if j == j2:
                compose[(f, g)] = index[(i, l)]
    weights = [Fraction(0)] * k + [sum(steps[i:j], Fraction(0)) for i, j in arrows[k:]]
    return space_doc(category_doc(k, arrows, list(range(k)), compose), weights)


def max_monoid_doc(values: list[Fraction]) -> dict:
    """One object whose arrows 0 < 1 < ... compose by max; arrow 0 is the
    identity and arrow a weighs values[a] (increasing, values[0] == 0)."""
    k = len(values)
    compose = {(a, b): max(a, b) for a in range(k) for b in range(k)}
    return space_doc(category_doc(1, [(0, 0)] * k, [0], compose), values)


def metric_doc(matrix: list[list[Fraction]], labels: list[str]) -> dict:
    return {"points": labels, "d": [[str(v) for v in row] for row in matrix]}


def indiscrete_functor_doc(point_map: list[int], n_target: int) -> dict:
    n = len(point_map)
    return {
        "objMap": {str(x): point_map[x] for x in range(n)},
        "arrMap": {
            str(x * n + y): point_map[x] * n_target + point_map[y]
            for x in range(n) for y in range(n)
        },
    }


def lawvere_of(doc: dict) -> list[list[str]]:
    """Least arrow weight per ordered pair of objects, "inf" for an empty
    hom-set, formatted the way metricat emits weights."""
    cat = doc["category"]
    n = len(cat["objects"])
    best: dict[tuple[int, int], Fraction] = {}
    for a in cat["arrows"]:
        key = (a["dom"], a["cod"])
        w = Fraction(doc["weights"][str(a["id"])])
        if key not in best or w < best[key]:
            best[key] = w
    return [[str(best[(x, y)]) if (x, y) in best else INF for y in range(n)] for x in range(n)]


# --- injected defects ------------------------------------------------------------

def perturb_weight(rng: random.Random, doc: dict) -> int:
    """Raise the weight of one arrow between distinct objects far enough
    that the lower triangle against a reverse or neighbouring arrow fails.
    Returns the arrow id."""
    arrows = doc["category"]["arrows"]
    candidates = [a["id"] for a in arrows if a["dom"] != a["cod"]]
    aid = rng.choice(candidates)
    top = max(Fraction(w) for w in doc["weights"].values())
    doc["weights"][str(aid)] = str(Fraction(doc["weights"][str(aid)]) + 2 * top + 1)
    return aid


def wrong_composite(rng: random.Random, doc: dict) -> tuple[int, int]:
    """Redirect the composite of one pair f: x -> y, g: y -> z (x != z,
    neither an identity) to the identity of x.  Returns (f, g)."""
    cat = doc["category"]
    ends = {a["id"]: (a["dom"], a["cod"]) for a in cat["arrows"]}
    idents = set(cat["identities"].values())
    entries = [
        e for e in cat["compose"]
        if e[0] not in idents and e[1] not in idents and ends[e[0]][0] != ends[e[1]][1]
    ]
    entry = rng.choice(entries)
    entry[2] = cat["identities"][str(ends[entry[0]][0])]
    return entry[0], entry[1]


# --- workloads -------------------------------------------------------------------

# (kind, size, defect).  Sizes and defect slots are fixed per round so that
# every run measures the same mix; at least 10% of each round is its
# heaviest shape, so the 90th percentile falls inside one cluster.
KERNEL_ROUND = (
    [("indiscrete", n, None) for n in (8, 9, 11, 13, 14, 15, 20, 20, 30)]
    + [("indiscrete", 10, "composite"), ("indiscrete", 12, "weight")]
    + [("bimetric", n, None) for n in (3, 4, 6, 7)] + [("bimetric", 5, "weight")]
    + [("chain", n, None) for n in (6, 8, 13, 16)] + [("chain", 10, "composite")]
)


def kernel_op(rng: random.Random, kind: str, size: int, defect: str | None) -> dict:
    if kind == "indiscrete":
        doc = indiscrete_doc(rand_metric(rng, size))
    elif kind == "bimetric":
        d = rand_metric(rng, size)
        c = Fraction(rng.randint(0, 4), 2)
        low = min(d[x][y] for x in range(size) for y in range(size) if x != y)
        h = c + 2 * low * Fraction(rng.randint(0, 4), 4)
        doc = bimetric_doc(d, c, h)
    else:
        doc = chain_doc([Fraction(rng.randint(1, 9), rng.choice((1, 2))) for _ in range(size - 1)])
    expect: dict = {"defect": defect}
    if defect == "weight":
        expect["arrow"] = perturb_weight(rng, doc)
    elif defect == "composite":
        expect["pair"] = list(wrong_composite(rng, doc))
    expect["lawvere"] = lawvere_of(doc)
    expect["identities"] = sorted(doc["category"]["identities"].values())
    label = f"{kind} n={size}" + (f" {defect} defect" if defect else "")
    return {"kind": kind, "label": label, "doc": doc, "expect": expect}


def mapping_expect(dx: list[list[Fraction]], dy: list[list[Fraction]], chain: bool) -> dict:
    """Objects, arrows and sorted arrow weights of [X, Y] for an indiscrete
    (or chain) X into an indiscrete Y.

    Functors are the object maps sending zero-distance pairs of X to
    zero-distance pairs of Y (uniform continuity; a chain with positive
    steps has none).  Between two functors into an indiscrete category
    there is exactly one transformation, weighing max_x d(Fx, Gx)."""
    a, b = len(dx), len(dy)
    zero = [] if chain else [(p, q) for p in range(a) for q in range(a) if p != q and dx[p][q] == 0]
    maps = [
        m for m in itertools.product(range(b), repeat=a)
        if all(dy[m[p]][m[q]] == 0 for p, q in zero)
    ]
    weights = sorted(max(dy[f[x]][g[x]] for x in range(a)) for f in maps for g in maps)
    return {"objects": len(maps), "arrows": len(maps) ** 2,
            "weights": [str(w) for w in weights]}


def enumerate_mapping_op(rng: random.Random, shape: str) -> dict:
    if shape.startswith("chain"):
        k, b = {"chain2->3": (2, 3), "chain3->2": (3, 2)}[shape]
        steps = [Fraction(rng.randint(1, 9)) for _ in range(k - 1)]
        x_doc = chain_doc(steps)
        dx = [[Fraction(0)] * k for _ in range(k)]
        chain = True
    else:
        a, b = int(shape[-4]), int(shape[-1])
        dx = rand_pseudometric(rng, a) if shape.startswith("pseudo") else rand_metric(rng, a)
        x_doc = indiscrete_doc(dx)
        chain = False
    dy = rand_metric(rng, b)
    return {
        "kind": "mapping", "label": f"map {shape}",
        "doc": {"source": x_doc, "target": indiscrete_doc(dy)},
        "expect": mapping_expect(dx, dy, chain),
    }


def dagger_op(rng: random.Random, k: int) -> dict:
    steps = sorted(rng.sample(range(1, 40), k - 1))
    values = [Fraction(0)] + [Fraction(s, 2) for s in steps]
    return {"kind": "dagger", "label": f"dagger max-monoid k={k}",
            "doc": max_monoid_doc(values), "expect": {"class": "iso"}}


def contraction_op(rng: random.Random, n: int) -> dict:
    """A line space with a point map of contraction factor < 1 that moves
    every point down towards point 0 (rejection sampled)."""
    while True:
        coords = sorted(rng.sample(range(40), n))
        coords = [Fraction(c - coords[0]) for c in coords]
        pmap = [0] + [rng.randint(0, i - 1) for i in range(1, n)]
        factor = max(
            abs(coords[pmap[i]] - coords[pmap[j]]) / (coords[j] - coords[i])
            for i in range(n) for j in range(i + 1, n)
        )
        if factor < 1:
            break
    x0 = n - 1
    steps, x = 0, x0
    while pmap[x] != x:
        x, steps = pmap[x], steps + 1
    matrix = [[abs(s - t) for t in coords] for s in coords]
    return {
        "kind": "contraction", "label": f"contraction n={n}",
        "doc": {"space": indiscrete_doc(matrix), "functor": indiscrete_functor_doc(pmap, n),
                "start": x0},
        "expect": {"fixed": x, "steps": steps, "arrow": x0 * n + x},
    }


# The 3->3 pairs are a fifth of the round, so the 90th percentile falls in
# the middle of their cluster rather than on its edge.
ENUMERATE_ROUND = (
    ["3->3"] * 4
    + ["2->2"] * 2 + ["2->3"] * 2 + ["3->2"] * 2 + ["chain2->3", "chain3->2"]
    + ["pseudo3->3", "pseudo3->2"]
    + [("dagger", k) for k in (6, 8, 10)]
    + [("contraction", n) for n in (3, 4, 6)]
)


def gh_op(rng: random.Random, kind: str, a: int, b: int, iso: bool) -> dict:
    dx = rand_metric(rng, a)
    if iso:
        perm = list(range(a))
        rng.shuffle(perm)
        dy = permuted(dx, perm)
    else:
        dy = rand_metric(rng, b)
    doc = {"x": metric_doc(dx, [f"x{i}" for i in range(a)]),
           "y": metric_doc(dy, [f"y{i}" for i in range(b)])}
    diam_x, diam_y = diameter(dx), diameter(dy)
    if kind == "gh":
        expect = {"low": str(abs(diam_x - diam_y) / 2), "high": str(max(diam_x, diam_y) / 2)}
    else:
        min_x = min(dx[i][j] for i in range(a) for j in range(a) if i != j)
        min_y = min(dy[i][j] for i in range(b) for j in range(b) if i != j)
        expect = {"low": str(max(diam_x / diam_y, diam_y / diam_x)),
                  "high": str(max(diam_y / min_x, diam_x / min_y))}
    expect["iso"] = iso
    label = f"{kind} {a}x{b}" + (" isometric" if iso else "")
    return {"kind": kind, "label": label, "doc": doc, "expect": expect}


# (kind, |X|, |Y|, isometric copy): a third of the pairs are isometric.  The
# 4-point Lipschitz pairs fill the middle of the latency order and the
# 5-point ones its top tenth, so both percentiles fall inside one shape.
GH_ROUND = (
    [("gh", 3, 3, False)] * 3 + [("gh", 3, 3, True)]
    + [("lipschitz", 4, 4, False)] * 4 + [("lipschitz", 4, 4, True)] * 2
    + [("gh", 3, 4, False)] * 2
    + [("gh", 4, 4, False)] * 2 + [("gh", 4, 4, True)] * 2
    + [("lipschitz", 5, 5, False)] * 2 + [("lipschitz", 5, 5, True)]
)


def build_round(workload: str, seed: int, index: int) -> list[dict]:
    rng = random.Random(f"perfbench:{workload}:{seed}:{index}")
    if workload == "kernel":
        ops = [kernel_op(rng, *shape) for shape in KERNEL_ROUND]
    elif workload == "enumerate":
        ops = []
        for shape in ENUMERATE_ROUND:
            if shape[0] == "dagger":
                ops.append(dagger_op(rng, shape[1]))
            elif shape[0] == "contraction":
                ops.append(contraction_op(rng, shape[1]))
            else:
                ops.append(enumerate_mapping_op(rng, shape))
    elif workload == "gh":
        ops = [gh_op(rng, *shape) for shape in GH_ROUND]
    elif workload == "cli":
        from cli_requests import cli_round

        ops = cli_round(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"r{index}.{i}"
    return ops


# Distinct rounds generated per run; longer runs cycle through them again.
ROUNDS = {"kernel": 4, "enumerate": 2, "gh": 24, "cli": 4}


def build(workload: str, seed: int) -> list[list[dict]]:
    return [build_round(workload, seed, i) for i in range(ROUNDS[workload])]


def digest(rounds: list[list[dict]]) -> str:
    h = hashlib.sha256()
    for ops in rounds:
        for op in ops:
            h.update(json.dumps([op["label"], op["doc"], op["expect"]], sort_keys=True).encode())
    return h.hexdigest()
