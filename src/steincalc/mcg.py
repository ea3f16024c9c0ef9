"""Dehn twist words and their action on surface homology.

The homological (symplectic) representation: a right twist along a curve
with class c acts by the transvection x -> x + <c, x> c, where <,> is the
intersection pairing in the fixed basis a_1, b_1, ..., a_g, b_g (with
<a_i, b_i> = +1) followed by the boundary classes d_1..d_{r-1}, which lie
in the radical.  The form is encoded once, as the sparse functional <c, ->;
word_action applies t_c^p to each column x of the running matrix as
x + p <c, x> c, touching only the nonzeros of c, so a letter costs
O(nnz(c) g).  Words act leftmost letter first, so word_action returns
M_k @ ... @ M_1 in the column-vector convention.

Passing word_action == identity certifies a relation at the homology
level only; reports downstream label it a "homological certificate".

Two twist catalogs are built in:

* the genus-g hyperelliptic chain word over curves c1..c_{2g+1}
  (consecutive intersection one), whose half word must act by -I;
* the genus 2m+1 word (b0 b1 ... bg a^2 b^2)^2 over b0..bg, a, b.  No
  homology classes for those curves ship with the package; supply a
  curve-data file to enable word_action on it.
"""

from __future__ import annotations

import json

from .exactmat import IntMatrix, _as_int, _parse_int, _Record


class SurfaceSpec(_Record):
    __slots__ = ("genus", "boundary_count")

    def __init__(self, genus, boundary_count=0):
        self.genus, self.boundary_count = _as_int(genus, "genus"), _as_int(boundary_count, "boundary count")
        if genus < 0 or boundary_count < 0:
            raise ValueError("genus and boundary count must be >= 0")

    @property
    def h1_rank(self) -> int:
        return 2 * self.genus + max(self.boundary_count - 1, 0)


class Curve(_Record):
    __slots__ = ("name", "homology_class")

    def __init__(self, name, homology_class):
        self.name = name
        self.homology_class = tuple(_as_int(x, f"curve {name!r}: coefficient") for x in homology_class)


class TwistWord(_Record):
    """Ordered (curve name, exponent) letters over a named curve table.

    ``curves`` may be None for counting-only words (no homology classes
    available); word_action then refuses to run.
    """

    __slots__ = ("surface", "letters", "curves")

    def __init__(self, surface, letters, curves=None):
        self.surface, self.curves = surface, curves
        self.letters = tuple((str(n), _as_int(e, f"letter {n!r}: exponent")) for n, e in letters)
        if curves is not None:
            for name, _ in self.letters:
                if name not in curves:
                    raise ValueError(f"letter {name!r} missing from the curve table")
            for c in curves.values():
                if len(c.homology_class) != surface.h1_rank:
                    raise ValueError(
                        f"curve {c.name!r} class has length {len(c.homology_class)}; "
                        f"surface needs {surface.h1_rank}"
                    )

    def _value(self) -> tuple:
        return self.surface, self.letters  # the curve table is not part of the word's value

    @property
    def letter_count(self) -> int:
        return sum(abs(e) for _, e in self.letters)


def _functional(c, genus: int) -> list:
    """Nonzero terms (k, coefficient) with <c, x> = sum of coefficient * x[k].

    <c, x> = sum_i (c[2i] x[2i+1] - c[2i+1] x[2i]); boundary coordinates pair to zero.
    """
    return [(k + 1, v) if k % 2 == 0 else (k - 1, -v) for k, v in enumerate(c[: 2 * genus]) if v]


def pairing(S: SurfaceSpec, x, y) -> int:
    n = S.h1_rank
    if len(x) != n or len(y) != n:
        raise ValueError("class length does not match the surface H1 rank")
    return sum(coef * y[k] for k, coef in _functional(x, S.genus))


def word_action(w: TwistWord) -> IntMatrix:
    """Action on H1 by sparse column updates, leftmost letter applied first."""
    if w.letters and w.curves is None:
        raise ValueError("word has no curve table; word_action is unavailable")
    n = w.surface.h1_rank
    columns = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    for name, p in w.letters:
        c = w.curves[name].homology_class
        terms, support = _functional(c, w.surface.genus), [(k, v) for k, v in enumerate(c) if v]
        for x in columns:
            s = sum(coef * x[k] for k, coef in terms)
            if s:
                for k, v in support:
                    x[k] += p * s * v
    return IntMatrix(columns).transpose()


# -- hyperelliptic chain catalog ----------------------------------------------


def chain_curves(g: int) -> dict:
    """Curves c1..c_{2g+1} of the standard genus-g chain.

    Classes: c_{2j-1} = a_j, c_{2j} = b_j - b_{j+1}, c_{2g} = b_g, and
    c_{2g+1} = -(a_1 + ... + a_g) (the odd curves bound a half-surface
    together).  Consecutive curves meet once and all other pairs are
    disjoint; both facts are asserted here as a self-consistency gate.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    S = SurfaceSpec(g, 0)
    n = S.h1_rank
    curves = {}
    for j in range(1, g + 1):
        v = [0] * n
        v[2 * (j - 1)] = 1
        curves[f"c{2 * j - 1}"] = Curve(f"c{2 * j - 1}", tuple(v))
    for j in range(1, g + 1):
        v = [0] * n
        v[2 * (j - 1) + 1] = 1
        if j < g:
            v[2 * j + 1] = -1
        curves[f"c{2 * j}"] = Curve(f"c{2 * j}", tuple(v))
    v = [0] * n
    for j in range(g):
        v[2 * j] = -1
    curves[f"c{2 * g + 1}"] = Curve(f"c{2 * g + 1}", tuple(v))

    names = [f"c{i}" for i in range(1, 2 * g + 2)]
    blocks = [{k // 2 for k, v in enumerate(curves[m].homology_class) if v} for m in names]
    for i, ni in enumerate(names):
        for j in range(i + 1, len(names)):
            if j > i + 1 and blocks[i].isdisjoint(blocks[j]):
                continue  # the form is block diagonal, so these pair to zero
            nj, want = names[j], 1 if j == i + 1 else 0
            p = pairing(S, curves[ni].homology_class, curves[nj].homology_class)
            if abs(p) != want:
                raise AssertionError(f"chain gate: <{ni},{nj}> = {p}, want {'+-' * want}{want}")
    return curves


def hyperelliptic_half_word(g: int, curves: dict | None = None) -> TwistWord:
    """c1 c2 ... c_{2g} c_{2g+1}^2 c_{2g} ... c2 c1 (4g + 2 letters).

    Counting-only by default, as for korkmaz_word; pass chain_curves(g),
    which costs O(g^2), to enable word_action.
    """
    if _as_int(g, "genus") < 1:
        raise ValueError("genus must be >= 1")
    letters = (
        [(f"c{i}", 1) for i in range(1, 2 * g + 1)]
        + [(f"c{2 * g + 1}", 2)]
        + [(f"c{i}", 1) for i in range(2 * g, 0, -1)]
    )
    return TwistWord(SurfaceSpec(g, 0), tuple(letters), curves)


def hyperelliptic_word(g: int, curves: dict | None = None) -> TwistWord:
    """The full relator word: the half word squared, 8g + 4 letters."""
    half = hyperelliptic_half_word(g, curves)
    return TwistWord(half.surface, half.letters + half.letters, half.curves)


# -- odd-genus two-holder catalog ---------------------------------------------


def korkmaz_word(m: int, curves: dict | None = None) -> TwistWord:
    """(b0 b1 ... bg a^2 b^2)^2 with g = 2m + 1, giving 2g + 10 letters.

    The homology classes of b0..bg, a, b are not derivable from the word;
    pass a vetted curve table (see load_curves) to enable word_action.
    """
    if _as_int(m, "m") < 1:
        raise ValueError("m must be >= 1")
    g = 2 * m + 1
    block = [(f"b{i}", 1) for i in range(g + 1)] + [("a", 2), ("b", 2)]
    return TwistWord(SurfaceSpec(g, 0), tuple(block + block), curves)


def lf_euler_characteristic(g: int, n: int) -> int:
    """Euler characteristic 4 - 4g + n of a genus-g fibration over the sphere
    with n nodal fibers."""
    g, n = _as_int(g, "genus"), _as_int(n, "fiber count")
    if g < 0 or n < 0:
        raise ValueError("genus and fiber count must be >= 0")
    return 4 - 4 * g + n


# -- word DSL and curve files --------------------------------------------------

MAX_WORD_LETTERS = 10**6  # longest letter sequence a group power may expand to


def parse_word(text: str, surface: SurfaceSpec, curves: dict | None = None) -> TwistWord:
    """Parse tokens like ``c1 c2 c3^2 (c2 c1)^-1`` into a TwistWord.

    A group raised to a negative power is inverted: reversed order,
    negated exponents.  A power that would take its sequence past
    MAX_WORD_LETTERS letters is rejected before it is expanded.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").replace("^", " ^ ").split()
    pos = 0

    def parse_seq(depth):
        nonlocal pos
        letters = []
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == ")":
                if depth == 0:
                    raise ValueError("unbalanced ')'")
                return letters
            if tok == "(":
                pos += 1
                group = parse_seq(depth + 1)
                if pos >= len(tokens) or tokens[pos] != ")":
                    raise ValueError("unbalanced '('")
                pos += 1
                exp = _maybe_exponent()
                if len(letters) + len(group) * abs(exp) > MAX_WORD_LETTERS:
                    raise ValueError(f"a group power expands the word past {MAX_WORD_LETTERS} letters")
                letters.extend(_power(group, exp))
            elif tok == "^":
                raise ValueError("dangling '^'")
            else:
                pos += 1
                exp = _maybe_exponent()
                if exp != 0:
                    letters.append((tok, exp))
        return letters

    def _maybe_exponent():
        nonlocal pos
        if pos < len(tokens) and tokens[pos] == "^":
            pos += 1
            if pos >= len(tokens):
                raise ValueError("dangling '^'")
            exp = _parse_int(tokens[pos], "exponent")
            pos += 1
            return exp
        return 1

    def _power(group, exp):
        if exp == 0 or not group:
            return []
        if exp > 0:
            return group * exp
        inverse = [(n, -e) for n, e in reversed(group)]
        return inverse * (-exp)

    letters = parse_seq(0)
    return TwistWord(surface, tuple(letters), curves)


def load_curves(text: str, surface: SurfaceSpec) -> dict:
    """Curve table from JSON {name: [coefficients]}."""
    data = json.loads(text)
    if not isinstance(data, dict) or not all(isinstance(v, list) for v in data.values()):
        raise ValueError("a curve file is {name: [coefficients], ...}")
    table = {name: Curve(name, tuple(coeffs)) for name, coeffs in data.items()}
    for c in table.values():
        if len(c.homology_class) != surface.h1_rank:
            raise ValueError(
                f"curve {c.name!r} has class length {len(c.homology_class)}; "
                f"surface needs {surface.h1_rank}"
            )
    return table
