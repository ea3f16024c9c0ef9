"""Exact integer linear algebra.

Everything here runs on arbitrary-precision Python integers; no float or
fraction ever enters.  Two fraction-free Bareiss eliminations do the work:

* ``determinant``: the general pass with row swaps;
* ``_inertia``: a symmetric pass whose pivots are leading principal minors
  of congruent matrices, giving signature and negative-definiteness.

``smith_diagonal`` gives the Smith normal form diagonal (homology
cokernels) without the unimodular transforms.

Signature convention: number of positive minus number of negative
eigenvalues; zero eigenvalues contribute nothing.
"""

from __future__ import annotations


class IntMatrix:
    """Immutable integer matrix stored row-major."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        for r in rows:
            for x in r:
                if type(x) is not int:
                    raise ValueError(f"matrix entry {x!r} is not an integer")
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self._rows = rows
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key) -> int:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int):
        return self._rows[i]

    def to_lists(self):
        return [list(r) for r in self._rows]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self._rows)) if self._rows else IntMatrix([])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        bt = list(zip(*other._rows)) if other._rows else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self._rows]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self._rows]})"


def smith_diagonal(M: IntMatrix) -> tuple:
    """Smith normal form diagonal d_1, ..., d_min(m,n).

    Every d_i >= 0, each nonzero d_i divides its successor and zeros come
    last.  The pivot is the smallest nonzero absolute value, ties broken by
    lowest (row, col).
    """
    m, n = M.nrows, M.ncols
    A = M.to_lists()

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]

    for t in range(min(m, n)):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                v = A[i][j]
                if v != 0 and (piv is None or abs(v) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        A[t], A[piv[0]] = A[piv[0]], A[t]
        swap_cols(t, piv[1])
        while True:
            # Clear column t below the pivot, trading places on nonzero
            # remainders until the pivot is the column gcd.
            restart = False
            for i in range(t + 1, m):
                if A[i][t] == 0:
                    continue
                q = A[i][t] // A[t][t]
                Ai, At = A[i], A[t]
                for j in range(n):
                    Ai[j] -= q * At[j]
                if A[i][t] != 0:
                    A[t], A[i] = A[i], A[t]
                    restart = True
            if restart:
                continue
            for j in range(t + 1, n):
                if A[t][j] == 0:
                    continue
                q = A[t][j] // A[t][t]
                for r in A:
                    r[j] -= q * r[t]
                if A[t][j] != 0:
                    swap_cols(t, j)
                    restart = True
            if restart:
                continue
            # Divisibility sweep: the pivot must divide the rest of the block.
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if A[i][j] % A[t][t] != 0),
                None,
            )
            if offender is None:
                break
            At, Ao = A[t], A[offender]
            for j in range(n):
                At[j] += Ao[j]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]

    return tuple(A[i][i] for i in range(min(m, n)))


def determinant(M: IntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if not M.is_square:
        raise ValueError("determinant requires a square matrix")
    n = M.nrows
    if n == 0:
        return 1
    A = M.to_lists()
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
    if not M.is_square or not M.is_symmetric:
        raise ValueError(f"{op} requires a symmetric matrix")


def _inertia(M: IntMatrix) -> tuple:
    """(n_plus, n_minus, n_zero) of a symmetric matrix, by symmetric Bareiss.

    Step k pivots on a nonzero diagonal entry of the remaining block, moved
    into place by a symmetric swap.  If that diagonal is all zero but some
    A[p][j] is not, the unimodular congruence row_p += row_j, col_p += col_j
    first makes the pivot 2 A[p][j].  Every working entry stays a bordered
    minor of a matrix congruent to M, so the divisions are exact and pivot k
    is the leading minor D_k; it counts by the sign of D_k / D_{k-1}
    (Jacobi).  Once the remaining block is zero the rest is the kernel.
    """
    n = M.nrows
    A = M.to_lists()
    pos = neg = 0
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if A[i][i] != 0), None)
        if p is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if A[i][j] != 0), None)
            if pair is None:
                break
            p, q = pair
            Ap, Aq = A[p], A[q]
            for j in range(k, n):
                Ap[j] += Aq[j]
            for r in A[k:]:
                r[p] += r[q]
        if p != k:
            A[k], A[p] = A[p], A[k]
            for r in A[k:]:
                r[k], r[p] = r[p], r[k]
        a = A[k][k]
        if (a > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        Ak = A[k]
        for i in range(k + 1, n):
            Ai = A[i]
            c = Ai[k]
            for j in range(k + 1, n):
                Ai[j] = (Ai[j] * a - c * Ak[j]) // prev
        prev = a
    return pos, neg, n - pos - neg


def signature(M: IntMatrix) -> int:
    """Number of positive minus number of negative eigenvalues."""
    _require_symmetric(M, "signature")
    pos, neg, _ = _inertia(M)
    return pos - neg


def is_negative_definite(M: IntMatrix) -> bool:
    """True iff every eigenvalue is negative (the empty form included)."""
    _require_symmetric(M, "is_negative_definite")
    return _inertia(M)[1] == M.nrows
