"""Independent oracles and generators for the test suite.

Everything here deliberately avoids the code paths under test: cofactor
expansion instead of Bareiss, characteristic-polynomial root counting and
leaf pruning on trees (inertia and determinant) instead of symmetric
elimination, Laplace expansion instead of Kronecker substitution for
polynomial determinants, dense transvection products instead of sparse
column updates for twist words, a dense n x n build instead of the sparse
one for intersection matrices, a whole rebuild per plumbing move instead
of in-place edits, whole-row scaling instead of per-entry stamps in the
symmetric pivot pass.  The dense matrix builders and products that the
library does not need live here too.
"""

import random
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush

from steincalc.exactmat import IntMatrix
from steincalc.knots import LaurentPoly, SeifertMatrixK
from steincalc.mcg import SurfaceSpec, TwistWord
from steincalc.plumbing import BLOW_DOWN, BLOW_UP_AT_VERTEX, BLOW_UP_ON_EDGE, MoveError, PlumbingGraph


def zeros(nrows: int, ncols: int) -> IntMatrix:
    return IntMatrix([[0] * ncols for _ in range(nrows)])


def diagonal(entries) -> IntMatrix:
    entries = list(entries)
    n = len(entries)
    return IntMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def matmul(*factors) -> IntMatrix:
    """Dense product of the factors, left to right."""

    def product(A, B):
        if A.ncols != B.nrows:
            raise ValueError(f"shape mismatch {A.nrows}x{A.ncols} @ {B.nrows}x{B.ncols}")
        cols = list(zip(*B.to_lists()))
        return IntMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A.to_lists()])

    return reduce(product, factors)


def dense_intersection_matrix(G: PlumbingGraph) -> list:
    """The n x n list of lists: weights on the diagonal, 1 for each edge."""
    ids = G.vertex_ids
    idx = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    M = [[0] * n for _ in range(n)]
    for v in ids:
        M[idx[v]][idx[v]] = G.weight(v)
    for a, b in G.edges:
        M[idx[a]][idx[b]] = 1
        M[idx[b]][idx[a]] = 1
    return M


def reverse_orientation(G: PlumbingGraph) -> PlumbingGraph:
    """Negate all weights; genera and edges are untouched."""
    return PlumbingGraph([(v, -w, g) for v, w, g in G.vertices()], G.edges)


def blow_up_at_vertex(G: PlumbingGraph, v: int, sign: int = -1) -> PlumbingGraph:
    """Attach a new (sign)-leaf at v; the weight of v changes by sign."""
    if sign not in (-1, 1):
        raise MoveError("blow-up sign must be +1 or -1")
    if v not in G.vertex_ids:
        raise MoveError(f"no vertex {v}")
    nid = max(G.vertex_ids) + 1
    verts = [(u, w + (sign if u == v else 0), g) for u, w, g in G.vertices()]
    verts.append((nid, sign, 0))
    return PlumbingGraph(verts, list(G.edges) + [(v, nid)])


def blow_up_on_edge(G: PlumbingGraph, a: int, b: int, sign: int = -1) -> PlumbingGraph:
    """Insert a (sign)-vertex on the edge (a, b); both endpoint weights change by sign."""
    if sign not in (-1, 1):
        raise MoveError("blow-up sign must be +1 or -1")
    if b not in G.neighbors(a):
        raise MoveError(f"no edge ({a},{b})")
    nid = max(G.vertex_ids) + 1
    verts = [(u, w + (sign if u in (a, b) else 0), g) for u, w, g in G.vertices()]
    verts.append((nid, sign, 0))
    edges = [(x, y) for x, y in G.edges if frozenset((x, y)) != frozenset((a, b))]
    edges += [(a, nid), (nid, b)]
    return PlumbingGraph(verts, edges)


def blow_down(G: PlumbingGraph, v: int) -> PlumbingGraph:
    """Remove a (+-1)-vertex of genus 0 and degree <= 2, joining its two neighbours."""
    if v not in G.vertex_ids:
        raise MoveError(f"no vertex {v}")
    w = G.weight(v)
    if w not in (-1, 1):
        raise MoveError(f"vertex {v} has weight {w}; blow-down needs weight +1 or -1")
    if G.genus(v) != 0:
        raise MoveError(f"vertex {v} has positive genus")
    nbrs = G.neighbors(v)
    if len(nbrs) > 2:
        raise MoveError(f"vertex {v} has degree {len(nbrs)} > 2")
    if len(G.vertex_ids) == 1:
        raise MoveError("cannot blow down the last vertex")
    verts = [(u, wt - (w if u in nbrs else 0), g) for u, wt, g in G.vertices() if u != v]
    edges = [(x, y) for x, y in G.edges if v not in (x, y)]
    if len(nbrs) == 2:
        edges.append(tuple(nbrs))
    return PlumbingGraph(verts, edges)


def rebuild_replay(G: PlumbingGraph, moves) -> PlumbingGraph:
    """Replay by building and checking a whole new graph for every move."""
    for k, m in enumerate(moves):
        try:
            if m.op == BLOW_UP_AT_VERTEX:
                G = blow_up_at_vertex(G, m.vertex, m.sign)
            elif m.op == BLOW_UP_ON_EDGE:
                G = blow_up_on_edge(G, m.edge[0], m.edge[1], m.sign)
            elif m.op == BLOW_DOWN:
                G = blow_down(G, m.vertex)
            else:
                raise MoveError(f"unknown move op {m.op!r}")
        except MoveError as exc:
            raise MoveError(f"move {k} ({m.op}) failed: {exc}") from exc
    return G


def cofactor_det(rows) -> int:
    """Plain recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * entry * cofactor_det(minor)
    return total


def _charpoly(rows):
    # Faddeev-LeVerrier over Fractions: monic coefficients of det(xI - M).
    n = len(rows)
    M = [[Fraction(x) for x in r] for r in rows]
    cs = [Fraction(1)]
    Mcur = [row[:] for row in M]
    cs.append(-sum(Mcur[i][i] for i in range(n)))
    for k in range(2, n + 1):
        for i in range(n):
            Mcur[i][i] += cs[-1]
        Mcur = [
            [sum(M[i][t] * Mcur[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        cs.append(-sum(Mcur[i][i] for i in range(n)) / k)
    return cs


def charpoly_signature(rows) -> int:
    """Signature via Descartes' rule on the (real-rooted) characteristic polynomial."""
    if not rows:
        return 0

    def variations(seq):
        seq = [s for s in seq if s != 0]
        return sum(1 for a, b in zip(seq, seq[1:]) if (a > 0) != (b > 0))

    cs = _charpoly(rows)
    pos = variations(cs)
    neg = variations([c if i % 2 == 0 else -c for i, c in enumerate(cs)])
    return pos - neg


def _leaf_pruning(G: PlumbingGraph):
    """Split a plumbing forest's form into blocks by leaf pruning.

    Neumann 1981 (Trans. AMS 268): a leaf v of nonzero weight w splits off
    as <w>, adding -1/w to its neighbour's weight (a Schur complement); a
    leaf of weight 0 spans a hyperbolic plane with its neighbour u, and u's
    other edges decouple; an isolated vertex splits off as <w>.  Yields w
    (a Fraction) for each <w> and None for each hyperbolic plane.  Linear
    in the number of vertices.
    """
    w = {v: Fraction(G.weight(v)) for v in G.vertex_ids}
    nbrs = {v: set() for v in w}
    for a, b in G.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    stack = [v for v in w if len(nbrs[v]) <= 1]
    done = set()
    while stack:
        v = stack.pop()
        if v in done or len(nbrs[v]) > 1:
            continue
        done.add(v)
        if not nbrs[v]:
            yield w[v]
            continue
        (u,) = nbrs.pop(v)
        nbrs[u].discard(v)
        if w[v] != 0:
            yield w[v]
            w[u] -= 1 / w[v]
            freed = [u]
        else:
            yield None
            done.add(u)
            freed = nbrs.pop(u)
            for x in freed:
                nbrs[x].discard(u)
        stack.extend(x for x in freed if len(nbrs[x]) <= 1)


def tree_inertia(G: PlumbingGraph) -> tuple:
    """(n_plus, n_minus, n_zero) of a plumbing forest's form by leaf pruning."""
    counts = [0, 0, 0]
    for d in _leaf_pruning(G):
        if d is None:
            counts[0] += 1
            counts[1] += 1
        else:
            counts[0 if d > 0 else 1 if d < 0 else 2] += 1
    return tuple(counts)


def tree_det(G: PlumbingGraph) -> int:
    """Determinant of a plumbing forest's form by leaf pruning over Fractions.

    The product of the split-off weights, times -1 for each hyperbolic plane.
    """
    det = Fraction(1)
    for d in _leaf_pruning(G):
        det *= -1 if d is None else d
    assert det.denominator == 1
    return int(det)


def row_scaled_pivots(M: IntMatrix):
    """The pivots of ``exactmat._pivots``, with that pass's earlier bookkeeping.

    Same heap, pivot order and pair congruence as the library pass.  Each
    row keeps one scale, the pivot at[i] of the step at which it was last
    updated, and the whole row is scaled by D_k / D_s when next read; so a
    row with many neighbours is rescaled once per neighbour pivot.
    """
    R = {i: dict(r) for i, r in enumerate(M._nonzeros)}
    at = [1] * M.nrows  # row i holds minors as of the step whose pivot was at[i]
    prev = 1
    heap = [(len(r), i) for i, r in R.items() if i in r]
    heapify(heap)

    def current(i):
        if at[i] != prev:
            R[i] = {j: v * prev // at[i] for j, v in R[i].items()}
            at[i] = prev
        return R[i]

    while R:
        while heap:
            length, p = heappop(heap)
            r = R.get(p)
            if r is not None and p in r and len(r) == length:
                break
        else:
            p = next((i for i, r in R.items() if r), None)
            if p is None:
                return
            rp = current(p)
            q = next(iter(rp))
            for j, v in current(q).items():
                if j != p:
                    rj, w = R[j], rp.get(j, 0) + v
                    if w:
                        rp[j] = w
                        rj[p] = rj.get(p, 0) + rj[q]
                    else:
                        del rp[j], rj[p]
            rp[p] = 2 * rp[q]
        rp = current(p)
        del R[p]
        a = rp.pop(p)
        yield a
        for i in rp:
            ri = current(i)
            c = ri.pop(p)
            for j, v in ri.items():
                if j not in rp:
                    ri[j] = v * a // prev
            for j, w in rp.items():
                x = (ri.get(j, 0) * a - c * w) // prev
                if x:
                    ri[j] = x
                else:
                    ri.pop(j, None)
            at[i] = a
            if i in ri:
                heappush(heap, (len(ri), i))
        prev = a


def naive_laurent_det(rows) -> LaurentPoly:
    """Unmemoized cofactor determinant over Laurent polynomials."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    if n == 1:
        return rows[0][0]
    total = LaurentPoly()
    for j, entry in enumerate(rows[0]):
        if entry.is_zero:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = entry * naive_laurent_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def intersection_form(S: SurfaceSpec) -> IntMatrix:
    """J with <a_i, b_i> = +1 blocks; boundary classes pair trivially."""
    n = S.h1_rank
    J = [[0] * n for _ in range(n)]
    for i in range(S.genus):
        J[2 * i][2 * i + 1] = 1
        J[2 * i + 1][2 * i] = -1
    return IntMatrix(J)


def dense_word_action(w: TwistWord) -> IntMatrix:
    """Product of dense transvections I + p c (c^T J), leftmost letter first."""
    n = w.surface.h1_rank
    J = intersection_form(w.surface)
    M = IntMatrix.identity(n)
    for name, p in w.letters:
        c = w.curves[name].homology_class
        ctj = [sum(c[k] * J[k, j] for k in range(n)) for j in range(n)]
        T = IntMatrix([[(1 if i == j else 0) + p * c[i] * ctj[j] for j in range(n)] for i in range(n)])
        M = matmul(T, M)
    return M


def random_symmetric(rng: random.Random, n: int, bound: int = 9) -> IntMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = v
    return IntMatrix(rows)


def random_matrix(rng: random.Random, nrows: int, ncols: int, bound: int = 9) -> IntMatrix:
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)])


def random_tree(rng: random.Random, n: int, weight_bound: int = 4, max_genus: int = 2) -> PlumbingGraph:
    """Random decorated tree on vertex ids 0..n-1."""
    verts = [(i, rng.randint(-weight_bound, weight_bound), rng.randint(0, max_genus)) for i in range(n)]
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return PlumbingGraph(verts, edges)


def resolution_tree(rng: random.Random, n: int, max_genus: int = 1) -> PlumbingGraph:
    """Negative-definite tree on ids 0..n-1: weight -(max(degree, 2) + 0..2).

    Every row is weakly and every leaf row strictly diagonally dominant, and
    a tree is connected, so the form is negative definite.
    """
    parents = [rng.randrange(i) for i in range(1, n)]
    deg = [0] * n
    for child, parent in enumerate(parents, start=1):
        deg[child] += 1
        deg[parent] += 1
    verts = [(v, -max(deg[v], 2) - rng.randint(0, 2), rng.randint(0, max_genus)) for v in range(n)]
    return PlumbingGraph(verts, [(p, c) for c, p in enumerate(parents, start=1)])


def random_seifert_matrix(rng: random.Random, genus: int, bound: int = 3) -> SeifertMatrixK:
    """U + symmetric, where U - U^T is the standard unimodular skew form."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(genus):
        rows[2 * i][2 * i + 1] = 1
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-bound, bound)
            rows[i][j] += v
            if j > i:
                rows[j][i] += v
    return SeifertMatrixK(f"random-{rng.random():.6f}", IntMatrix(rows))
