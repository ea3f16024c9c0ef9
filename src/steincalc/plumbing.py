"""Plumbing trees of disk/circle bundles and their calculus.

A plumbing graph here is a connected tree whose vertices carry an Euler
weight and a base genus; every edge is a +1 plumbing.  The boundary
3-manifold data we extract (first homology, negative-definiteness) only
depends on the intersection matrix: diagonal = weights, 1 per edge.

Moves: a vertex of weight +1 or -1, genus 0 and degree <= 2 can be blown
down; blow-ups insert such a vertex at a vertex or on an edge.  Both
signs preserve the boundary 3-manifold.  The sign -1 moves additionally
stay within blow-ups of the same 4-manifold; -1 is the default
everywhere.

Vertex ids are stable across moves and fresh ids (max + 1) are assigned
to inserted vertices, so a recorded MoveScript replays deterministically.
"""

from __future__ import annotations

import json
import warnings

from .exactmat import IntMatrix, _as_int, _Record, is_negative_definite, smith_diagonal


class MoveError(ValueError):
    """A plumbing move was applied where its preconditions fail."""


class PlumbingGraph:
    """Decorated tree: vertices (id, weight, genus) plus unordered edges.

    Vertex insertion order is significant: it fixes the row order of the
    intersection matrix.  Instances are immutable; moves return new graphs.
    """

    __slots__ = ("_order", "_verts", "_edges", "_edge_set", "_adj")

    def __init__(self, vertices, edges):
        order = []
        verts = {}
        for vid, weight, genus in vertices:
            vid = _as_int(vid, "vertex id")
            weight = _as_int(weight, f"vertex {vid}: weight")
            genus = _as_int(genus, f"vertex {vid}: genus")
            if vid in verts:
                raise ValueError(f"duplicate vertex id {vid}")
            if genus < 0:
                raise ValueError(f"vertex {vid}: genus must be >= 0")
            order.append(vid)
            verts[vid] = (weight, genus)
        edge_list = []
        edge_set = set()
        adj = {v: [] for v in order}  # filled in edge order, so neighbors keep it
        for a, b in edges:
            a, b = _as_int(a, "edge endpoint"), _as_int(b, "edge endpoint")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a not in verts or b not in verts:
                raise ValueError(f"edge ({a},{b}) references a missing vertex")
            key = frozenset((a, b))
            if key in edge_set:
                raise ValueError(f"multi-edge ({a},{b})")
            edge_set.add(key)
            edge_list.append((a, b))
            adj[a].append(b)
            adj[b].append(a)
        self._order = tuple(order)
        self._verts = verts
        self._edges = tuple(edge_list)
        self._edge_set = frozenset(edge_set)
        self._adj = {v: tuple(us) for v, us in adj.items()}
        self._check_tree()

    def _check_tree(self):
        n = len(self._order)
        if n == 0:
            raise ValueError("empty graph")
        if len(self._edges) != n - 1:
            raise ValueError("not a tree: edge count != vertex count - 1")
        seen = {self._order[0]}
        frontier = [self._order[0]]
        while frontier:
            v = frontier.pop()
            for u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if len(seen) != n:
            raise ValueError("not a tree: graph is disconnected")

    # -- accessors ---------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple:
        return self._order

    @property
    def edges(self) -> tuple:
        return self._edges

    def weight(self, v: int) -> int:
        return self._verts[v][0]

    def genus(self, v: int) -> int:
        return self._verts[v][1]

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._edge_set

    def degree(self, v: int) -> int:
        return len(self._adj.get(v, ()))

    def neighbors(self, v: int) -> tuple:
        """Neighbours of v in the order of the edge list."""
        return self._adj.get(v, ())

    def total_genus(self) -> int:
        return sum(g for (_, g) in self._verts.values())

    def vertices(self) -> tuple:
        return tuple((v, *self._verts[v]) for v in self._order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlumbingGraph)
            and self.vertices() == other.vertices()
            and self._edge_set == other._edge_set
        )

    def __hash__(self):
        return hash((self.vertices(), self._edge_set))

    def __repr__(self):
        vs = ", ".join(f"{v}:({w},{g})" for v, w, g in self.vertices())
        return f"PlumbingGraph({vs}; edges={list(self._edges)})"

    # -- JSON --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "weight": w, "genus": g} for v, w, g in self.vertices()],
            "edges": [[a, b] for a, b in self._edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlumbingGraph":
        try:
            verts = [(v["id"], v["weight"], v.get("genus", 0)) for v in data["vertices"]]
            edges = [(a, b) for a, b in data["edges"]]
        except (TypeError, AttributeError, KeyError, ValueError):  # ValueError: an edge that is no pair
            raise ValueError(
                "a graph is {'vertices': [{'id', 'weight', 'genus'}, ...], 'edges': [[a, b], ...]}"
            ) from None
        return cls(verts, edges)

    @classmethod
    def from_json(cls, text: str) -> "PlumbingGraph":
        return cls.from_dict(json.loads(text))


def star_graph_left(h: int, ps) -> PlumbingGraph:
    """Positive star: central vertex (weight 0, genus h) with leaves p_1..p_r.

    This is the circle-bundle presentation of the boundary with central
    piece a genus-h surface times S^1.
    """
    ps = tuple(_as_int(p, "leg multiplicity") for p in ps)
    if not ps:
        raise ValueError("at least one leg is required")
    if any(p < 1 for p in ps):
        raise ValueError("leg multiplicities must be positive")
    if h < 0:
        raise ValueError("genus must be >= 0")
    verts = [(0, 0, h)] + [(i, p, 0) for i, p in enumerate(ps, start=1)]
    edges = [(0, i) for i in range(1, len(ps) + 1)]
    return PlumbingGraph(verts, edges)


def star_graph_right(h: int, ps) -> PlumbingGraph:
    """Reduced star: central vertex (-r, genus h); leg i a chain of p_i - 1 (-2)-vertices.

    A p_i = 1 entry yields an empty leg; the central weight still counts
    it, which is flagged with a warning.
    """
    ps = tuple(_as_int(p, "leg multiplicity") for p in ps)
    if not ps:
        raise ValueError("at least one leg is required")
    if any(p < 1 for p in ps):
        raise ValueError("leg multiplicities must be positive")
    if h < 0:
        raise ValueError("genus must be >= 0")
    if any(p == 1 for p in ps):
        warnings.warn(
            "p_i = 1 legs are empty chains; the central weight still counts them",
            stacklevel=2,
        )
    verts = [(0, -len(ps), h)]
    edges = []
    nxt = 1
    for p in ps:
        prev = 0
        for _ in range(p - 1):
            verts.append((nxt, -2, 0))
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return PlumbingGraph(verts, edges)


def intersection_matrix(G: PlumbingGraph) -> IntMatrix:
    """Symmetric matrix: weights on the diagonal, 1 for each edge.

    Built in O(n) from the graph's nonzeros, column by column, so every
    row's dict lists its columns in ascending order, the order in which
    the kernels' pivot tie-breaks read them.
    """
    idx = {v: i for i, v in enumerate(G.vertex_ids)}
    rows = [{} for _ in idx]
    for i, v in enumerate(G.vertex_ids):
        if G.weight(v):
            rows[i][i] = G.weight(v)
        for u in G.neighbors(v):
            rows[idx[u]][i] = 1
    return IntMatrix._from_nonzeros(rows, len(idx))


def _fresh_id(G: PlumbingGraph) -> int:
    return max(G.vertex_ids) + 1


def blow_up_at_vertex(G: PlumbingGraph, v: int, sign: int = -1) -> PlumbingGraph:
    """Attach a new (sign)-leaf at v; the weight of v changes by sign."""
    if sign not in (-1, 1):
        raise MoveError("blow-up sign must be +1 or -1")
    if v not in G.vertex_ids:
        raise MoveError(f"no vertex {v}")
    nid = _fresh_id(G)
    verts = [(u, w + (sign if u == v else 0), g) for u, w, g in G.vertices()]
    verts.append((nid, sign, 0))
    return PlumbingGraph(verts, list(G.edges) + [(v, nid)])


def blow_up_on_edge(G: PlumbingGraph, a: int, b: int, sign: int = -1) -> PlumbingGraph:
    """Insert a (sign)-vertex on the edge (a, b); both endpoint weights change by sign."""
    if sign not in (-1, 1):
        raise MoveError("blow-up sign must be +1 or -1")
    if not G.has_edge(a, b):
        raise MoveError(f"no edge ({a},{b})")
    nid = _fresh_id(G)
    verts = [(u, w + (sign if u in (a, b) else 0), g) for u, w, g in G.vertices()]
    verts.append((nid, sign, 0))
    edges = [(x, y) for x, y in G.edges if frozenset((x, y)) != frozenset((a, b))]
    edges += [(a, nid), (nid, b)]
    return PlumbingGraph(verts, edges)


def blow_down(G: PlumbingGraph, v: int) -> PlumbingGraph:
    """Remove a (+-1)-vertex of genus 0 and degree <= 2.

    Degree 0: delete.  Degree 1: delete, neighbor weight -= sign.
    Degree 2: delete, join the neighbors, both weights -= sign.
    """
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
    if len(nbrs) == 2:
        a, b = nbrs
        if a == b:
            raise MoveError("blow-down would create a loop")
        if G.has_edge(a, b):
            raise MoveError("blow-down would create a multi-edge")
    verts = [(u, wt - (w if u in nbrs else 0), g) for u, wt, g in G.vertices() if u != v]
    edges = [(x, y) for x, y in G.edges if v not in (x, y)]
    if len(nbrs) == 2:
        edges.append(tuple(nbrs))
    return PlumbingGraph(verts, edges)


def boundary_homology(G: PlumbingGraph):
    """(rank, torsion) of H_1 of the plumbing boundary.

    H_1 = Z^(2 * total genus) + coker(intersection matrix): the rank gains
    one per zero SNF diagonal entry and the torsion is the diagonal
    entries > 1.
    """
    diag = smith_diagonal(intersection_matrix(G))
    rank = 2 * G.total_genus() + sum(1 for d in diag if d == 0)
    torsion = tuple(d for d in diag if d > 1)
    return rank, torsion


def grauert_check(G: PlumbingGraph) -> bool:
    """Negative-definite intersection form: the boundary is a singularity link."""
    return is_negative_definite(intersection_matrix(G))


# -- move scripts ------------------------------------------------------------

BLOW_UP_AT_VERTEX = "blow_up_at_vertex"
BLOW_UP_ON_EDGE = "blow_up_on_edge"
BLOW_DOWN = "blow_down"


class Move(_Record):
    __slots__ = ("op", "vertex", "edge", "sign")

    def __init__(self, op, vertex=None, edge=None, sign=-1):
        self.op, self.vertex, self.edge, self.sign = op, vertex, edge, sign

    def apply(self, G: PlumbingGraph) -> PlumbingGraph:
        if self.op == BLOW_UP_AT_VERTEX:
            return blow_up_at_vertex(G, self.vertex, self.sign)
        if self.op == BLOW_UP_ON_EDGE:
            return blow_up_on_edge(G, self.edge[0], self.edge[1], self.sign)
        if self.op == BLOW_DOWN:
            return blow_down(G, self.vertex)
        raise MoveError(f"unknown move op {self.op!r}")

    def to_dict(self) -> dict:
        d = {"op": self.op}
        if self.vertex is not None:
            d["vertex"] = self.vertex
        if self.edge is not None:
            d["edge"] = list(self.edge)
        if self.op != BLOW_DOWN and self.sign != -1:
            d["sign"] = self.sign
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Move":
        shape = "a move is {'op': ..., 'vertex': id | 'edge': [a, b], 'sign': +-1}"
        if not isinstance(d, dict) or "op" not in d:
            raise ValueError(shape)
        edge = d.get("edge")
        if "edge" in d or d["op"] == BLOW_UP_ON_EDGE:
            if not isinstance(edge, list) or len(edge) != 2:
                raise ValueError(shape)
            edge = tuple(_as_int(v, "move edge endpoint") for v in edge)
        vertex = _as_int(d["vertex"], "move vertex") if "vertex" in d else None
        sign = _as_int(d.get("sign", -1), "move sign")
        return cls(op=d["op"], vertex=vertex, edge=edge, sign=sign)


class MoveScript:
    """An ordered move list; replay validates each move against the running graph."""

    def __init__(self, moves):
        self.moves = tuple(moves)

    def replay(self, G: PlumbingGraph) -> PlumbingGraph:
        for k, move in enumerate(self.moves):
            try:
                G = move.apply(G)
            except MoveError as exc:
                raise MoveError(f"move {k} ({move.op}) failed: {exc}") from exc
        return G

    def to_json(self) -> str:
        return json.dumps([m.to_dict() for m in self.moves], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MoveScript":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("a move script is a list of moves")
        return cls([Move.from_dict(d) for d in data])

    def __len__(self):
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)


def positive_star_reduction(h: int, ps) -> MoveScript:
    """Move witness taking star_graph_left(h, ps) to the reduced negative star.

    Per leg with leaf v of weight p: blow up (-1) on the center-to-v edge,
    then repeatedly on the newest-vertex-to-v edge until v has weight +1,
    and blow v down (a +1 blow-down, which pushes the adjacent chain vertex
    to -2).  The center loses 1 per leg either way, ending at -r; each leg
    becomes p-1 vertices of weight -2, matching star_graph_right(h, ps) up
    to vertex ids.
    """
    ps = tuple(_as_int(p, "leg multiplicity") for p in ps)
    if not ps or any(p < 1 for p in ps):
        raise ValueError("leg multiplicities must be positive")
    moves = []
    next_id = len(ps) + 1  # fresh ids continue after the left graph's leaves
    for leaf, p in enumerate(ps, start=1):
        prev = 0
        for _ in range(p - 1):
            moves.append(Move(op=BLOW_UP_ON_EDGE, edge=(prev, leaf), sign=-1))
            prev = next_id
            next_id += 1
        moves.append(Move(op=BLOW_DOWN, vertex=leaf))
    return MoveScript(moves)
