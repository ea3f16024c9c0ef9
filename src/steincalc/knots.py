"""Integer Laurent polynomials, Seifert matrices, and Alexander polynomials.

A valid Seifert matrix V is a square integer matrix of even size 2k with
det(V - V^T) = 1, so V - V^T is the (unimodular, skew) intersection form
of a genus-k spanning surface.  The Alexander polynomial is
det(V - t V^T), normalized to the symmetric Laurent representative
(coefficient of t^j equals that of t^-j) with positive leading
coefficient; equality of polynomials always means equality of normalized
forms.

The fiberedness certificate is the necessary monic + full-span condition
only; this module never claims to decide fiberedness.
"""

from __future__ import annotations

import json
from math import isqrt

from .exactmat import IntMatrix, _as_int, _dense_det, _Record


class NonSymmetricPolynomial(ValueError):
    """A Laurent polynomial that admits no symmetric centering."""


class LaurentPoly:
    """Immutable integer Laurent polynomial, stored as exponent -> coefficient."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        items = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if type(c) is not int:  # _as_int raises; the guard saves a call per term
                    _as_int(c, "coefficient")
                if c:
                    if type(e) is not int:
                        _as_int(e, "exponent")
                    items[e] = c
        self._coeffs = dict(sorted(items.items()))

    @classmethod
    def _of(cls, coeffs: dict) -> "LaurentPoly":
        """Wrap coeffs, whose coefficients are nonzero ints and exponents ints in ascending order.

        Nothing is checked or copied: the caller builds coeffs from a checked polynomial.
        """
        p = cls.__new__(cls)
        p._coeffs = coeffs
        return p

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def items(self):
        return self._coeffs.items()

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    @property
    def span(self) -> int:
        """max exponent minus min exponent; 0 for constants and zero."""
        if self.is_zero:
            return 0
        return self.max_exp - self.min_exp

    @property
    def leading_coefficient(self) -> int:
        if self.is_zero:
            return 0
        return self._coeffs[self.max_exp]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if type(k) is not int:
            _as_int(k, "shift")
        return LaurentPoly._of({e + k: c for e, c in self._coeffs.items()})

    def evaluate_at_one(self) -> int:
        return sum(self._coeffs.values())

    def substitute_power(self, k: int) -> "LaurentPoly":
        """t -> t^k; at k = 0 every term lands on t^0, so the coefficients add up."""
        out = {}
        for e, c in self._coeffs.items():
            out[e * k] = out.get(e * k, 0) + c
        return LaurentPoly(out)

    @property
    def is_symmetric(self) -> bool:
        return all(self.coefficient(-e) == c for e, c in self._coeffs.items())

    def normalized(self) -> "LaurentPoly":
        """The symmetric representative with positive leading coefficient.

        Multiplies by +-t^k only; raises NonSymmetricPolynomial when no
        such representative exists.
        """
        if self.is_zero:
            return self
        total = self.min_exp + self.max_exp
        if total % 2 != 0:
            raise NonSymmetricPolynomial(f"odd exponent span in {self}")
        centered = self.shift(-total // 2)
        if not centered.is_symmetric:
            raise NonSymmetricPolynomial(f"{self} has no symmetric representative")
        if centered.leading_coefficient < 0:
            centered = -centered
        return centered

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(self._coeffs.items()))

    def to_dict(self) -> dict:
        return {str(e): c for e, c in self._coeffs.items()}

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                tpow = "t" if e == 1 else f"t^{e}"
                term = tpow if mag == 1 else f"{mag}*{tpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self._coeffs})"


class SeifertMatrixK(_Record):
    """A knot's Seifert matrix: even size, det(V - V^T) = 1."""

    __slots__ = ("name", "matrix")

    def __init__(self, name, matrix):
        self.name = name
        self.matrix = V = matrix
        if not V.is_square:
            raise ValueError("Seifert matrix must be square")
        if V.nrows % 2 != 0:
            raise ValueError("Seifert matrix must have even size")
        if V.nrows > 0:
            rows = V.to_lists()
            if _dense_det([[a - b for a, b in zip(r, c)] for r, c in zip(rows, zip(*rows))]) != 1:
                raise ValueError(f"{name}: det(V - V^T) != 1, not a knot Seifert pairing")

    @property
    def genus(self) -> int:
        return self.matrix.nrows // 2

    def to_dict(self) -> dict:
        return {"name": self.name, "matrix": self.matrix.to_lists()}

    @classmethod
    def from_dict(cls, data: dict) -> "SeifertMatrixK":
        if not isinstance(data, dict) or not isinstance(data.get("name"), str) or "matrix" not in data:
            raise ValueError("a Seifert matrix is {'name': str, 'matrix': [[int, ...], ...]}")
        return cls(name=data["name"], matrix=IntMatrix(data["matrix"]))

    @classmethod
    def from_json(cls, text: str) -> "SeifertMatrixK":
        return cls.from_dict(json.loads(text))


def load_family(text: str) -> list:
    """Family file: JSON list of {name, matrix}."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("a family file is a JSON list of Seifert matrices")
    return [SeifertMatrixK.from_dict(d) for d in data]


def _ceil_norm(v) -> int:
    """Ceiling of the Euclidean norm of an integer vector."""
    sq = sum(x * x for x in v)
    r = isqrt(sq)
    return r + (r * r < sq)


def alexander(V: SeifertMatrixK) -> LaurentPoly:
    """Normalized det(V - t V^T); the empty matrix gives 1.

    Kronecker substitution: one integer determinant at t = B, read back as
    balanced base-B digits.  On |t| = 1 Hadamard bounds |det| by
    H = prod_i (|row i of V| + |col i of V|), and by Cauchy's estimate so
    is every coefficient; B = 2H + 1 makes the digits exact.
    """
    rows = V.matrix.to_lists()
    cols = list(zip(*rows))
    H = 1
    for r, c in zip(rows, cols):
        H *= _ceil_norm(r) + _ceil_norm(c)
    B = 2 * H + 1
    x = _dense_det([[a - B * b for a, b in zip(r, c)] for r, c in zip(rows, cols)])
    coeffs = {}
    for e in range(len(rows) + 1):
        d = x % B
        if d > H:
            d -= B
        coeffs[e] = d
        x = (x - d) // B
    return LaurentPoly(coeffs).normalized()


class FiberednessCheck(_Record):
    __slots__ = ("passes", "monic", "span_matches", "reasons")

    def __init__(self, passes, monic, span_matches, reasons):
        self.passes, self.monic, self.span_matches, self.reasons = passes, monic, span_matches, reasons


def fibered_certificate(delta: LaurentPoly, genus: int) -> FiberednessCheck:
    """Necessary conditions only: the caller's Delta is monic and of span 2 * genus."""
    monic = abs(delta.leading_coefficient) == 1
    span_ok = delta.span == 2 * genus
    reasons = []
    if not monic:
        reasons.append(f"leading coefficient {delta.leading_coefficient} is not +-1")
    if not span_ok:
        reasons.append(f"span {delta.span} != 2*genus = {2 * genus}")
    return FiberednessCheck(
        passes=monic and span_ok, monic=monic, span_matches=span_ok, reasons=tuple(reasons)
    )


def connected_sum(V1: SeifertMatrixK, V2: SeifertMatrixK) -> SeifertMatrixK:
    """Block-diagonal sum; genus adds, Alexander polynomials multiply."""
    rows1, rows2 = V1.matrix.to_lists(), V2.matrix.to_lists()
    n1, n2 = len(rows1), len(rows2)
    rows = [r + [0] * n2 for r in rows1] + [[0] * n1 + r for r in rows2]
    return SeifertMatrixK(name=f"{V1.name} # {V2.name}", matrix=IntMatrix(rows))


def substitute_t_squared(p: LaurentPoly) -> LaurentPoly:
    """Double every exponent (the knot-surgery multiplier convention)."""
    return p.substitute_power(2)


class FamilyReport(_Record):
    __slots__ = ("deltas", "genus_failures", "fibered_failures")

    def __init__(self, deltas, genus_failures, fibered_failures):
        self.deltas = deltas  # each member's normalized Delta, in member order
        self.genus_failures, self.fibered_failures = genus_failures, fibered_failures


def family_report(family, k: int) -> FamilyReport:
    """Gate a family: every member has genus k and passes the certificate.

    Each member's Delta is computed once; the certificate reads it, and the
    report keeps it (``deltas``) for knot surgery.  Distinctness is judged
    later, on the surgered distinguishers Delta(t^2), which are distinct
    exactly when the Deltas are.
    """
    family = list(family)
    if not family:
        raise ValueError("family required")
    genus_failures = tuple(V.name for V in family if V.genus != k)
    deltas = tuple(alexander(V) for V in family)
    certs = [fibered_certificate(delta, V.genus) for V, delta in zip(family, deltas)]
    fibered_failures = tuple((V.name, c.reasons) for V, c in zip(family, certs) if not c.passes)
    return FamilyReport(
        deltas=deltas,
        genus_failures=genus_failures,
        fibered_failures=fibered_failures,
    )


# -- bundled blocks and demo families ------------------------------------------

TREFOIL = SeifertMatrixK("trefoil", IntMatrix([[-1, 1], [0, -1]]))
FIGURE_EIGHT = SeifertMatrixK("figure-eight", IntMatrix([[1, 1], [0, -1]]))
UNKNOT = SeifertMatrixK("unknot", IntMatrix([]))


def chain_seifert_matrix(c: int, name: str | None = None) -> SeifertMatrixK:
    """Genus-2 chain-form matrix with middle coupling c; c = 1 is the (2,5) torus knot."""
    rows = [[-1, 1, 0, 0], [0, -1, c, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
    if name is None:
        name = "torus(2,5)" if c == 1 else f"chain({c})"
    return SeifertMatrixK(name, IntMatrix(rows))


def demo_family(k: int) -> list:
    """Five genus-k matrices with pairwise distinct Alexander polynomials.

    Built from the trefoil/figure-eight blocks plus two chain-form genus-2
    matrices; their Alexander factors are distinct irreducibles, so the
    five products below stay pairwise distinct for every k >= 2.
    """
    if k < 2:
        raise ValueError("demo families exist for genus >= 2")

    def power(block, count, base=None):
        acc = base
        for _ in range(count):
            acc = block if acc is None else connected_sum(acc, block)
        return acc

    v1 = chain_seifert_matrix(1)
    v2 = chain_seifert_matrix(2)
    members = [
        power(TREFOIL, k),
        power(FIGURE_EIGHT, 1, base=power(TREFOIL, k - 1)),
        power(FIGURE_EIGHT, k),
        power(TREFOIL, k - 2, base=v1) if k > 2 else v1,
        power(FIGURE_EIGHT, k - 2, base=v2) if k > 2 else v2,
    ]
    return members
