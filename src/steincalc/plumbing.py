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

from .exactmat import IntMatrix, _as_int, _Record, is_negative_definite, smith_diagonal


_GRAPH_SHAPE = "a graph is {'vertices': [{'id', 'weight', 'genus'}, ...], 'edges': [[a, b], ...]}"
_VERTEX_KEYS = frozenset(("id", "weight", "genus"))


class MoveError(ValueError):
    """A plumbing move was applied where its preconditions fail."""


class PlumbingGraph:
    """Decorated tree: vertices (id, weight, genus) plus unordered edges.

    Three insertion-ordered dicts are the storage: ``_verts`` maps an id to
    (weight, genus), ``_edges`` maps frozenset((a, b)) to (a, b), and
    ``_adj`` maps an id to {neighbour: None} in edge order.  Vertex order
    is significant: it fixes the row order of the intersection matrix.
    Instances are immutable; ``MoveScript.replay`` edits a private copy.
    """

    __slots__ = ("_verts", "_edges", "_adj")

    def __init__(self, vertices, edges):
        verts = {}
        for vid, weight, genus in vertices:
            vid = _as_int(vid, "vertex id")
            weight = _as_int(weight, f"vertex {vid}: weight")
            genus = _as_int(genus, f"vertex {vid}: genus")
            if vid in verts:
                raise ValueError(f"duplicate vertex id {vid}")
            if genus < 0:
                raise ValueError(f"vertex {vid}: genus must be >= 0")
            verts[vid] = (weight, genus)
        edge_map = {}
        adj = {v: {} for v in verts}  # filled in edge order, so neighbors keep it
        for a, b in edges:
            a, b = _as_int(a, "edge endpoint"), _as_int(b, "edge endpoint")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a not in verts or b not in verts:
                raise ValueError(f"edge ({a},{b}) references a missing vertex")
            key = frozenset((a, b))
            if key in edge_map:
                raise ValueError(f"multi-edge ({a},{b})")
            edge_map[key] = (a, b)
            adj[a][b] = adj[b][a] = None
        self._verts, self._edges, self._adj = verts, edge_map, adj
        self._check_tree()

    def _check_tree(self):
        n = len(self._verts)
        if n == 0:
            raise ValueError("empty graph")
        if len(self._edges) != n - 1:
            raise ValueError("not a tree: edge count != vertex count - 1")
        frontier = [next(iter(self._verts))]
        seen = set(frontier)
        while frontier:
            v = frontier.pop()
            for u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if len(seen) != n:
            raise ValueError("not a tree: graph is disconnected")

    def _copy(self) -> "PlumbingGraph":
        G = PlumbingGraph.__new__(PlumbingGraph)
        G._verts = dict(self._verts)
        G._edges = dict(self._edges)
        G._adj = {v: dict(us) for v, us in self._adj.items()}
        return G

    # -- accessors ---------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple:
        return tuple(self._verts)

    @property
    def edges(self) -> tuple:
        return tuple(self._edges.values())

    def weight(self, v: int) -> int:
        return self._verts[v][0]

    def genus(self, v: int) -> int:
        return self._verts[v][1]

    def degree(self, v: int) -> int:
        return len(self._adj.get(v, ()))

    def neighbors(self, v: int) -> tuple:
        """Neighbours of v in the order of the edge list."""
        return tuple(self._adj.get(v, ()))

    def total_genus(self) -> int:
        return sum(g for (_, g) in self._verts.values())

    def vertices(self) -> tuple:
        return tuple((v, w, g) for v, (w, g) in self._verts.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlumbingGraph)
            and self.vertices() == other.vertices()
            and self._edges.keys() == other._edges.keys()
        )

    def __hash__(self):
        return hash((self.vertices(), frozenset(self._edges)))

    def __repr__(self):
        vs = ", ".join(f"{v}:({w},{g})" for v, w, g in self.vertices())
        return f"PlumbingGraph({vs}; edges={list(self.edges)})"

    # -- JSON --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vertices": [{"id": v, "weight": w, "genus": g} for v, w, g in self.vertices()],
            "edges": [[a, b] for a, b in self._edges.values()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlumbingGraph":
        """The graph a file's dict describes; a key no reader knows is an error, never dropped."""
        try:
            verts = [(v["id"], v["weight"], v.get("genus", 0)) for v in data["vertices"]]
            edges = [(a, b) for a, b in data["edges"]]
            shape_ok = data.keys() <= {"vertices", "edges"} and all(v.keys() <= _VERTEX_KEYS for v in data["vertices"])
        except (TypeError, AttributeError, KeyError, ValueError):  # ValueError: an edge that is no pair
            shape_ok = False
        if not shape_ok:
            raise ValueError(_GRAPH_SHAPE)
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

    A p_i = 1 entry yields an empty leg; the central weight still counts it.
    """
    ps = tuple(_as_int(p, "leg multiplicity") for p in ps)
    if not ps:
        raise ValueError("at least one leg is required")
    if any(p < 1 for p in ps):
        raise ValueError("leg multiplicities must be positive")
    if h < 0:
        raise ValueError("genus must be >= 0")
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
    idx = {v: i for i, v in enumerate(G._verts)}
    rows = [{} for _ in idx]
    for i, (v, (w, _)) in enumerate(G._verts.items()):
        if w:
            rows[i][i] = w
        for u in G._adj[v]:
            rows[idx[u]][i] = 1
    return IntMatrix._from_nonzeros(rows, len(idx))


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


_ABSENT = object()  # a field a move does not give; a file's null is no such field
_MOVE_SHAPE = "a move is {'op': ..., 'vertex': id | 'edge': [a, b], 'sign': +-1}"


class Move(_Record):
    """One blow-up or blow-down.  The fields are checked here: a vertex op
    needs ``vertex``, an edge blow-up needs ``edge``, only blow-ups take a
    ``sign`` (default -1), and no op takes another's field.  The op and the
    sign's value are checked on replay, where the move index is known."""

    __slots__ = ("op", "vertex", "edge", "sign")

    def __init__(self, op, vertex=_ABSENT, edge=_ABSENT, sign=_ABSENT):
        if op in (BLOW_UP_AT_VERTEX, BLOW_DOWN):
            shape_ok = vertex is not _ABSENT and edge is _ABSENT and (op != BLOW_DOWN or sign is _ABSENT)
        else:
            shape_ok = op != BLOW_UP_ON_EDGE or (edge is not _ABSENT and vertex is _ABSENT)
        if not shape_ok:
            raise ValueError(_MOVE_SHAPE)
        if edge is not _ABSENT:
            if type(edge) not in (list, tuple) or len(edge) != 2:
                raise ValueError(_MOVE_SHAPE)
            edge = tuple(_as_int(v, "move edge endpoint") for v in edge)
        self.op = op
        self.vertex = None if vertex is _ABSENT else _as_int(vertex, "move vertex")
        self.edge = None if edge is _ABSENT else edge
        self.sign = -1 if sign is _ABSENT else _as_int(sign, "move sign")

    def _edit(self, G: PlumbingGraph, top: int) -> int:
        """Apply the move to G's dicts in place, in the order a rebuild would give.

        ``top`` is G's greatest vertex id, and the greatest id after the
        move is returned: a blow-up takes the fresh id top + 1, and only a
        blow-down of top itself looks for the new greatest.  A blow-down
        joins the two neighbours of a degree-2 vertex; on a tree they share
        no edge.
        """
        verts, edges, adj = G._verts, G._edges, G._adj
        if self.op == BLOW_DOWN:
            v = self.vertex
            if v not in verts:
                raise MoveError(f"no vertex {v}")
            w, g = verts[v]
            if w not in (-1, 1):
                raise MoveError(f"vertex {v} has weight {w}; blow-down needs weight +1 or -1")
            if g != 0:
                raise MoveError(f"vertex {v} has positive genus")
            if len(adj[v]) > 2:
                raise MoveError(f"vertex {v} has degree {len(adj[v])} > 2")
            if len(verts) == 1:
                raise MoveError("cannot blow down the last vertex")
            del verts[v]
            if v == top:
                top = max(verts)
            ends, shift = tuple(adj.pop(v)), -w
            for u in ends:
                del edges[frozenset((v, u))], adj[u][v]
            joins = (ends,) if len(ends) == 2 else ()
        elif self.op in (BLOW_UP_AT_VERTEX, BLOW_UP_ON_EDGE):
            shift = self.sign
            if shift not in (-1, 1):
                raise MoveError("blow-up sign must be +1 or -1")
            top = nid = top + 1
            if self.op == BLOW_UP_AT_VERTEX:
                v = self.vertex
                if v not in verts:
                    raise MoveError(f"no vertex {v}")
                ends, joins = (v,), ((v, nid),)
            else:
                a, b = ends = self.edge
                if frozenset(ends) not in edges:
                    raise MoveError(f"no edge ({a},{b})")
                del edges[frozenset(ends)], adj[a][b], adj[b][a]
                joins = ((a, nid), (nid, b))
            verts[nid] = (shift, 0)
            adj[nid] = {}
        else:
            raise MoveError(f"unknown move op {self.op!r}")
        for u in ends:
            uw, ug = verts[u]
            verts[u] = (uw + shift, ug)
        for a, b in joins:
            edges[frozenset((a, b))] = (a, b)
            adj[a][b] = adj[b][a] = None
        return top

    def to_dict(self) -> dict:
        d = {"op": self.op}
        if self.vertex is not None:
            d["vertex"] = self.vertex
        if self.edge is not None:
            d["edge"] = list(self.edge)
        if self.sign != -1:
            d["sign"] = self.sign
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Move":
        if not isinstance(d, dict) or "op" not in d or d.keys() - cls._fields:
            raise ValueError(_MOVE_SHAPE)
        return cls(**d)


class MoveScript:
    """An ordered move list; replay validates each move against the running graph."""

    def __init__(self, moves):
        self.moves = tuple(moves)

    def replay(self, G: PlumbingGraph) -> PlumbingGraph:
        """The graph after every move, built by editing one copy of G in place."""
        G = G._copy()
        top = max(G._verts)
        for k, move in enumerate(self.moves):
            try:
                top = move._edit(G, top)
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
