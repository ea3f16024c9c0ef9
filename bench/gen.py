"""Seeded input generators for the three workloads.

Everything here is plain data built from a ``random.Random`` and never
imports steincalc, so the program only ever sees the generated inputs.
Each generator also records the input properties its op depends on
(vertex count, definiteness, genus, block multiset, entry bits).
"""

from __future__ import annotations

from fractions import Fraction

# -- Laurent polynomials as {exponent: coefficient} dicts ----------------------


def poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_t_squared(p: dict) -> dict:
    return {2 * e: c for e, c in p.items()}


def parse_laurent(text: str) -> dict:
    """Inverse of the program's printed form, e.g. ``t^2 - 3 + 2*t^-1``."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "t" not in term:
            coeff, exp = int(term), 0
        else:
            head, _, power = term.partition("t")
            coeff = int(head.rstrip("*")) if head else 1
            exp = int(power[1:]) if power else 1
        out[exp] = out.get(exp, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


# -- fibered knot blocks --------------------------------------------------------

# Seifert matrices of the bundled blocks (trefoil, figure-eight and the two
# genus-2 chain forms) with their normalized Alexander polynomials, written
# out here so the output checks do not lean on the code under test.
BLOCKS = {
    "T": ([[-1, 1], [0, -1]], {-1: 1, 0: -1, 1: 1}),
    "E": ([[1, 1], [0, -1]], {-1: 1, 0: -3, 1: 1}),
    "C1": ([[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]], {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}),
    "C2": ([[-1, 1, 0, 0], [0, -1, 2, 0], [0, 0, -1, 1], [0, 0, 0, -1]], {-2: 1, -1: 2, 0: -5, 1: 2, 2: 1}),
}
BLOCK_GENUS = {name: len(rows) // 2 for name, (rows, _) in BLOCKS.items()}


def block_multisets(k: int) -> list:
    """Every multiset of blocks with total genus k, as sorted name tuples."""
    names = sorted(BLOCKS)
    out = []

    def rec(i, left, acc):
        if left == 0:
            out.append(tuple(acc))
        elif i < len(names):
            g = BLOCK_GENUS[names[i]]
            for count in range(left // g + 1):
                rec(i + 1, left - count * g, acc + [names[i]] * count)

    rec(0, k, [])
    return sorted(out)


def golden_delta(multiset) -> dict:
    acc = {0: 1}
    for name in multiset:
        acc = poly_mul(acc, BLOCKS[name][1])
    return acc


def _block_sum(multiset) -> list:
    n = sum(len(BLOCKS[b][0]) for b in multiset)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for name in multiset:
        block = BLOCKS[name][0]
        for i, row in enumerate(block):
            rows[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    return rows


def unimodular(rng, n: int, steps: int) -> list:
    """Product of ``steps`` random row operations row_i += +-row_j (det 1)."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        P[i] = [a + s * b for a, b in zip(P[i], P[j])]
    return P


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def congruent_seifert(rng, multiset) -> list:
    """P.B.P^T for the block sum B: same Alexander polynomial, det(V - V^T) = 1."""
    B = _block_sum(multiset)
    P = unimodular(rng, len(B), 5 * len(B))
    return _matmul(_matmul(P, B), [list(c) for c in zip(*P)])


def entry_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def density(rows) -> float:
    n = len(rows)
    return sum(1 for row in rows for x in row if x) / (n * n) if n else 0.0


def seifert_family(rng, k: int) -> dict:
    """Five genus-k members with distinct block multisets, hence distinct Delta."""
    members = []
    for i, ms in enumerate(rng.sample(block_multisets(k), 5)):
        members.append({"name": f"m{i}", "matrix": congruent_seifert(rng, ms), "blocks": ms})
    return {
        "members": members,
        "props": {
            "genus": k,
            "blocks": [m["blocks"] for m in members],
            "entry_bits": max(entry_bits(m["matrix"]) for m in members),
            "density_min": min(density(m["matrix"]) for m in members),
        },
    }


# -- plumbing trees ---------------------------------------------------------------


def resolution_tree(rng, n: int) -> dict:
    """Negative-definite tree: weight -(max(deg, 2) + extra), a few genus-1 vertices.

    Every row is weakly diagonally dominant and the leaves strictly so; a
    connected tree is irreducible, so the form is negative definite.
    """
    parents = [rng.randrange(i) for i in range(1, n)]
    deg = [0] * n
    for child, parent in enumerate(parents, start=1):
        deg[child] += 1
        deg[parent] += 1
    verts = [
        (v, -(max(deg[v], 2) + rng.choice((0, 0, 0, 1, 1, 2))), 1 if rng.random() < 0.1 else 0)
        for v in range(n)
    ]
    edges = [(p, c) for c, p in enumerate(parents, start=1)]
    return {"vertices": verts, "edges": edges, "definite": True}


def indefinite_tree(rng, n: int, weight_bound: int = 4, max_genus: int = 2) -> dict:
    """The distribution of the test suite's random_tree oracle."""
    verts = [(i, rng.randint(-weight_bound, weight_bound), rng.randint(0, max_genus)) for i in range(n)]
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return {"vertices": verts, "edges": edges, "definite": False}


def tree_props(tree) -> dict:
    return {
        "vertices": len(tree["vertices"]),
        "definite": tree["definite"],
        "genus": sum(g for _, _, g in tree["vertices"]),
    }


def graph_dict(tree) -> dict:
    return {
        "vertices": [{"id": v, "weight": w, "genus": g} for v, w, g in tree["vertices"]],
        "edges": [list(e) for e in tree["edges"]],
    }


def positive_star(h: int, ps) -> dict:
    verts = [(0, 0, h)] + [(i, p, 0) for i, p in enumerate(ps, start=1)]
    return {"vertices": verts, "edges": [(0, i) for i in range(1, len(ps) + 1)], "definite": False}


def reduction_script(ps) -> list:
    """Blow-up/blow-down witness from the positive star to the reduced star."""
    moves = []
    fresh = len(ps) + 1
    for leaf, p in enumerate(ps, start=1):
        prev = 0
        for _ in range(p - 1):
            moves.append({"op": "blow_up_on_edge", "edge": [prev, leaf], "sign": -1})
            prev = fresh
            fresh += 1
        moves.append({"op": "blow_down", "vertex": leaf})
    return moves


def round_trip_script(rng, tree, count: int) -> list:
    """``count`` random blow-ups, then blow-downs in reverse order.

    Blowing down the newest remaining vertex undoes its blow-up, so every
    move is valid and the script ends on the starting graph.
    """
    edges = [tuple(e) for e in tree["edges"]]
    fresh = max(v for v, _, _ in tree["vertices"]) + 1
    ids = [v for v, _, _ in tree["vertices"]]
    ups, added = [], []
    for _ in range(count):
        sign = rng.choice((-1, 1))
        if edges and rng.random() < 0.5:
            a, b = edges.pop(rng.randrange(len(edges)))
            ups.append({"op": "blow_up_on_edge", "edge": [a, b], "sign": sign})
            edges += [(a, fresh), (fresh, b)]
        else:
            v = rng.choice(ids)
            ups.append({"op": "blow_up_at_vertex", "vertex": v, "sign": sign})
            edges.append((v, fresh))
        ids.append(fresh)
        added.append(fresh)
        fresh += 1
    return ups + [{"op": "blow_down", "vertex": v} for v in reversed(added)]


def negative_cf(values) -> Fraction:
    acc = Fraction(values[-1])
    for a in reversed(values[:-1]):
        acc = a - 1 / acc
    return acc


def reduced_star(rng, h: int, legs: int) -> dict:
    """Star with chains of weights <= -2 and its expected Euler number."""
    e0 = -rng.randint(1, 3)
    verts = [(0, e0, h)]
    edges = []
    euler = Fraction(e0)
    for _ in range(legs):
        chain = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
        prev = 0
        for a in chain:
            vid = len(verts)
            verts.append((vid, -a, 0))
            edges.append((prev, vid))
            prev = vid
        frac = negative_cf(chain)
        euler += Fraction(frac.denominator, frac.numerator)
    return {"vertices": verts, "edges": edges, "definite": False, "euler": euler}


def half_word_text(g: int) -> str:
    up = [f"c{i}" for i in range(1, 2 * g + 1)]
    return " ".join(up + [f"c{2 * g + 1}^2"] + up[::-1])


def figure1_powers(rng) -> tuple:
    """One instance of the acceptance sweep: h <= 3, r <= 4, 2 <= p_i <= 6."""
    return rng.randint(0, 3), tuple(sorted(rng.randint(2, 6) for _ in range(rng.randint(1, 4))))
