"""Exact integer linear algebra.

Everything here runs on arbitrary-precision Python integers; no float or
fraction ever enters.  An ``IntMatrix`` stores only each row's dict of
nonzeros; dense rows are made when read (``to_lists``).  The sparse kernels
start from copies of those dicts, and ``is_symmetric`` compares them in
O(nnz), so a plumbing form with 3n - 2 nonzeros is built and read in
O(n), never densely.
Two fraction-free Bareiss eliminations do the work:

* ``_pivots``: a sparse symmetric pass (fewest-nonzeros pivot taken from a
  heap of (row length, row index); each entry carries the pivot at which
  it was last exact and is scaled to the current one only when read)
  whose pivots are the leading principal minors D_1, D_2, ... of matrices
  congruent to M by unimodular moves.  It is the one kernel of symmetric forms:
  ``signature`` counts the pivot signs (Jacobi), ``is_negative_definite``
  stops at the first pivot of the wrong sign, and ``determinant`` of a
  symmetric matrix is the last pivot D_n (0 if a kernel is left);
  ``_det_inertia`` reads det and the sign counts off one pass;
* ``_dense_det``, a dense pass with row swaps on a list of int rows.  It
  serves ``determinant`` of a non-symmetric matrix, and ``knots`` hands
  it the rows it builds from an already-checked Seifert matrix (the
  Kronecker substitution V - B V^T and the skew form V - V^T), so those
  never pass through ``IntMatrix``.

``smith_diagonal`` gives the Smith normal form diagonal (homology
cokernels) without the unimodular transforms, by one sparse elimination
on least-|entry| pivots (Markowitz cost breaks ties) and a final
pairwise gcd/lcm pass.

Signature convention: number of positive minus number of negative
eigenvalues; zero eigenvalues contribute nothing.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def _as_int(x, what: str) -> int:
    """x itself if it is an int; floats, bools, None and strings are errors, never truncated."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def _parse_int(text, what: str) -> int:
    """The int written in text: optional surrounding whitespace, an optional sign, ASCII digits.

    ``int`` alone would also take '1_0' and non-ASCII digits; those, and
    anything that is not a string, are errors.
    """
    s = text.strip() if type(text) is str else ""
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} {text!r} is not an integer")
    return int(s)


class _Record:
    """Value record whose fields are the ``__slots__`` along its MRO, base class first.

    It equals a record of its own type with equal ``_value()`` (the field values,
    unless a record narrows it), hashes that, and prints like a dataclass.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for c in reversed(cls.__mro__) for f in vars(c).get("__slots__", ()))

    def _value(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._value() == other._value() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class IntMatrix:
    """Immutable integer matrix, stored as each row's dict of nonzeros {column: value}.

    The dicts are the only storage.  ``__init__`` builds them in the loop
    that type-checks the entries, in ascending column order; the builders
    ``identity``, ``transpose`` and ``plumbing.intersection_matrix`` hand
    checked rows straight to ``_from_nonzeros``.  The sparse kernels start
    from copies of these dicts and never mutate them.  Dense rows are made
    only when read (``to_lists``); ``M[i, j]`` is a dict lookup.  A matrix
    with no rows is 0x0.  Symmetry is decided on first read of
    ``is_symmetric``, in O(nnz), and kept.
    """

    __slots__ = ("_nonzeros", "_symmetric", "nrows", "ncols")

    def __init__(self, rows):
        try:
            rows = tuple(tuple(r) for r in rows)
        except TypeError:
            raise ValueError("a matrix is a list of rows") from None
        nonzeros = []
        for r in rows:
            nz = {}
            for j, x in enumerate(r):
                if type(x) is not int:  # _as_int raises; the guard saves a call per entry
                    _as_int(x, "matrix entry")
                if x:
                    nz[j] = x
            nonzeros.append(nz)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self._nonzeros = tuple(nonzeros)
        self._symmetric = None
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def _from_nonzeros(cls, rows, ncols: int) -> "IntMatrix":
        """A matrix from rows of nonzero ints {column: value}, keys ascending and below ncols.

        Nothing is checked: the caller builds the rows from checked ints.
        """
        M = cls.__new__(cls)
        M._nonzeros = tuple(rows)
        M._symmetric = None
        M.nrows = len(M._nonzeros)
        M.ncols = ncols if M._nonzeros else 0
        return M

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._from_nonzeros([{i: 1} for i in range(n)], n)

    def __getitem__(self, key) -> int:
        i, j = key
        return self._nonzeros[i].get(range(self.ncols)[j], 0)

    def to_lists(self):
        rows = []
        for r in self._nonzeros:
            row = [0] * self.ncols
            for j, v in r.items():
                row[j] = v
            rows.append(row)
        return rows

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        if self._symmetric is None:
            nz = self._nonzeros
            self._symmetric = self.is_square and all(
                nz[j].get(i) == v for i, r in enumerate(nz) for j, v in r.items()
            )
        return self._symmetric

    def transpose(self) -> "IntMatrix":
        cols = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._nonzeros):
            for j, v in r.items():
                cols[j][i] = v
        return IntMatrix._from_nonzeros(cols, self.nrows)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and (self.ncols, self._nonzeros) == (other.ncols, other._nonzeros)

    def __hash__(self):
        return hash((self.ncols, tuple(frozenset(r.items()) for r in self._nonzeros)))

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols}, nonzeros={list(self._nonzeros)})"


def smith_diagonal(M: IntMatrix) -> tuple:
    """Smith normal form diagonal d_1, ..., d_min(m,n).

    Every d_i >= 0, each nonzero d_i divides its successor and zeros come
    last.  One sparse elimination on dict rows: the pivot is the nonzero of
    least |value|, ties broken by least Markowitz cost (r-1)(c-1), then by
    first found.  Floor-quotient row operations clear its column; once the
    column is clear, column operations reduce its row modulo the pivot
    (touching that row alone).  A remainder is a new least entry, so the
    pivot is chosen again; a pivot alone in its row and column is recorded.
    A pairwise (gcd, lcm) pass turns the recorded diagonal into Smith form.
    """
    rows = {i: dict(r) for i, r in enumerate(M._nonzeros)}
    cols = {j: set() for j in range(M.ncols)}
    for i, r in rows.items():
        for j in r:
            cols[j].add(i)
    diag = []
    while True:
        best = None
        for i, r in rows.items():
            for j, v in r.items():
                a = v if v > 0 else -v
                if best is None or a <= best[0]:
                    cost = (len(r) - 1) * (len(cols[j]) - 1)
                    if best is None or a < best[0] or cost < best[1]:
                        best = (a, cost, i, j)
                        if a == 1 and cost == 0:
                            break
            else:
                continue
            break
        if best is None:
            break
        _, _, p, c = best
        rp = rows[p]
        u = rp[c]
        for i in cols[c] - {p}:
            ri = rows[i]
            q = ri[c] // u
            for j, v in rp.items():
                w = ri.get(j, 0) - q * v
                if w:
                    ri[j] = w
                    cols[j].add(i)
                else:
                    del ri[j]
                    cols[j].discard(i)
        if len(cols[c]) > 1:
            continue
        for j in [j for j in rp if j != c]:
            w = rp[j] % u
            if w:
                rp[j] = w
            else:
                del rp[j]
                cols[j].discard(p)
        if len(rp) == 1:
            diag.append(abs(u))
            del rows[p], cols[c]
    d = [x for x in diag if x != 1]  # the pass would only move the 1s to the front
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return (1,) * (len(diag) - len(d)) + tuple(d) + (0,) * (min(M.nrows, M.ncols) - len(diag))


def determinant(M: IntMatrix) -> int:
    """Exact determinant.

    A symmetric M is read off the sparse pivot pass of ``_pivots``: its
    last pivot D_n is det M, and a pass that pivots fewer than n rows
    leaves a kernel, so det M = 0.  Non-symmetric input takes the dense
    pass ``_dense_det`` on its rows; ``knots`` calls that pass directly on
    the V - B V^T and V - V^T it builds as lists.
    """
    if not M.is_square:
        raise ValueError("determinant requires a square matrix")
    if M.is_symmetric:
        return _det_inertia(M)[0]
    return _dense_det(M.to_lists())


def _dense_det(A) -> int:
    """Determinant of a square list of int rows by fraction-free Bareiss with row swaps.

    The rows are consumed (eliminated in place); no rows give 1.  Nothing
    is checked: the caller builds the rows from checked ints.
    """
    n = len(A)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def _require_symmetric(M: IntMatrix, op: str) -> None:
    if not M.is_symmetric:
        raise ValueError(f"{op} requires a symmetric matrix")


def _entry(r: dict, j: int, prev: int) -> int:
    """Entry j of a stamped row r at the step whose pivot is prev (0 if absent); see ``_pivots``."""
    v, s = r.get(j, (0, 1))
    return v if s == prev else v * prev // s


def _pivots(M: IntMatrix):
    """Yield the pivots D_1, D_2, ... of a symmetric matrix, by sparse symmetric Bareiss.

    Each step pivots on the live row with a nonzero diagonal and the fewest
    nonzeros, least index first (on a forest, a leaf: no fill-in).  That
    row comes off a heap of (row length, row index): a neighbour update
    pushes the row it changes, and an entry whose row is gone, whose
    diagonal is zero or whose length has changed since is dropped when
    popped, so the pivot is the least (len, i) among the live rows, exactly
    as a scan would pick.  When the heap runs dry the live diagonal is all
    zero, and the congruence row_p += row_q, col_p += col_q first makes the
    pivot 2 A[p][q]; it changes no other diagonal, so it pushes nothing.
    Symmetric swaps and that congruence are unimodular, and entries are
    bordered minors of the congruent matrices, so divisions are exact,
    pivot k is the leading minor D_k, and D_n = det M when every row
    pivots.  What never pivots is the kernel.

    Rows are dicts {column: (value, stamp)}, made from the matrix's stored
    nonzeros with stamp D_0 = 1.  The stamp is the pivot D_s of the step
    at which the value was last exact.  A step that leaves an entry's row
    or column out of the pivot's neighbours scales it by D_k / D_{k-1}, so
    at pivot D_k its value is v * D_k // D_s, an exact division done when
    the entry is read (Bareiss 1968).  A neighbour update, made after the
    pivot is yielded, reads and writes only the pivot row's columns; the
    rest of the row keeps its stamps, so a star's centre row is never
    rescaled as a whole.
    """
    R = {i: {j: (v, 1) for j, v in r.items()} for i, r in enumerate(M._nonzeros)}
    prev = 1
    heap = [(len(r), i) for i, r in R.items() if i in r]
    heapify(heap)
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
            rp = R[p]
            q = next(iter(rp))
            rq = R[q]
            for j in rq:
                if j != p:
                    rj, w = R[j], _entry(rp, j, prev) + _entry(rq, j, prev)
                    if w:
                        rp[j] = (w, prev)
                        rj[p] = (_entry(rj, p, prev) + _entry(rj, q, prev), prev)
                    else:
                        del rp[j], rj[p]
            rp[p] = (2 * _entry(rp, q, prev), prev)
        rp = {}
        for j, (v, s) in R.pop(p).items():
            rp[j] = v if s == prev else v * prev // s
        a = rp.pop(p)
        yield a
        for i in rp:
            ri = R[i]
            v, s = ri.pop(p)
            c = v if s == prev else v * prev // s
            for j, w in rp.items():
                v, s = ri.get(j, (0, 1))
                if s != prev:
                    v = v * prev // s
                x = (v * a - c * w) // prev
                if x:
                    ri[j] = (x, a)
                else:
                    ri.pop(j, None)
            if i in ri:
                heappush(heap, (len(ri), i))
        prev = a


def _det_inertia(M: IntMatrix) -> tuple:
    """(det, n_plus, n_minus, n_zero) of a symmetric matrix, from one pass of ``_pivots``.

    Jacobi's rule counts the pivots: D_k / D_{k-1} > 0 is a positive
    eigenvalue, < 0 a negative one; rows that never pivot are the kernel.
    det M is the last pivot D_n when every row pivots, and 0 otherwise.
    """
    pos = neg = 0
    prev = 1
    for a in _pivots(M):
        if (a > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        prev = a
    zero = M.nrows - pos - neg
    return (0 if zero else prev), pos, neg, zero


def signature(M: IntMatrix) -> int:
    """Number of positive minus number of negative eigenvalues."""
    _require_symmetric(M, "signature")
    pos, neg, _ = _det_inertia(M)[1:]
    return pos - neg


def is_negative_definite(M: IntMatrix) -> bool:
    """True iff every eigenvalue is negative (the empty form included)."""
    _require_symmetric(M, "is_negative_definite")
    k = 0
    for k, d in enumerate(_pivots(M), 1):
        if (d > 0) != (k % 2 == 0):  # D_k of a negative-definite form has sign (-1)^k
            return False
    return k == M.nrows
