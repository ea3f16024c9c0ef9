import math
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    charpoly_signature,
    cofactor_det,
    diagonal,
    matmul,
    random_matrix,
    random_symmetric,
    random_tree,
    resolution_tree,
    row_scaled_pivots,
    tree_det,
    tree_inertia,
    zeros,
)
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.domains import ZZ

from steincalc import exactmat
from steincalc.exactmat import (
    IntMatrix,
    _dense_det,
    _det_inertia,
    _parse_int,
    determinant,
    is_negative_definite,
    signature,
    smith_diagonal,
)
from steincalc.plumbing import PlumbingGraph, boundary_homology, grauert_check, intersection_matrix, star_graph_right
from steincalc.smooth4 import _excised_star


def sympy_smith_diagonal(M):
    """Invariant factors from sympy, zero-padded to min(m, n)."""
    k = min(M.nrows, M.ncols)
    if k == 0:
        return ()
    d = tuple(int(x) for x in invariant_factors(Matrix(M.to_lists()), domain=ZZ))
    return d + (0,) * (k - len(d))


def check_snf(M):
    d = smith_diagonal(M)
    assert d == sympy_smith_diagonal(M)
    return d


class TestSmithNormalForm:
    def test_coprime_diagonal(self):
        assert smith_diagonal(diagonal([2, 3])) == (1, 6)

    def test_diagonal_needs_gcd_lcm_pass(self):
        assert check_snf(diagonal([4, 6, 1, 0, 10])) == (1, 2, 2, 60, 0)

    def test_zero_matrix(self):
        assert smith_diagonal(zeros(2, 2)) == (0, 0)

    def test_hyperbolic_block(self):
        # hand row-reduction: [[0,1],[1,2]] ~ diag(1,1)
        assert check_snf(IntMatrix([[0, 1], [1, 2]])) == (1, 1)

    def test_random_against_invariant_factors(self):
        rng = random.Random(20240)
        for _ in range(150):
            m = rng.randint(1, 8)
            n = rng.randint(1, 8)
            check_snf(random_matrix(rng, m, n))

    def test_singular_against_invariant_factors(self):
        # rank-deficient products and repeated rows force zeros onto the diagonal
        rng = random.Random(8080)
        for _ in range(60):
            m, n, r = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 3)
            A = random_matrix(rng, m, r, bound=4)
            B = random_matrix(rng, r, n, bound=4)
            d = check_snf(matmul(A, B))
            assert sum(1 for x in d if x != 0) <= r
        check_snf(IntMatrix([[1, 2, 3], [1, 2, 3], [2, 4, 6]]))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_sparse_forms_against_invariant_factors(self, data):
        # forms of forests with weights in [-2, 2] or [-4, 4] (parent -1
        # starts a new component); dropping a few rows and columns leaves a
        # rectangular sparse block
        n = data.draw(st.integers(10, 40))
        bound = data.draw(st.sampled_from((2, 4)))
        weights = data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
        genus = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        parents = [data.draw(st.integers(-1, i - 1)) for i in range(1, n)]
        rows = [[0] * n for _ in range(n)]
        for i, w in enumerate(weights):
            rows[i][i] = w
        for i, p in enumerate(parents, start=1):
            if p >= 0:
                rows[i][p] = rows[p][i] = 1
        d = check_snf(IntMatrix(rows))
        if -1 not in parents:
            G = PlumbingGraph([(i, weights[i], genus[i]) for i in range(n)], [(p, i) for i, p in enumerate(parents, start=1)])
            assert boundary_homology(G) == (2 * sum(genus) + d.count(0), tuple(x for x in d if x > 1))
        drop_rows = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        drop_cols = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
        check_snf(IntMatrix([[x for j, x in enumerate(r) if j not in drop_cols] for i, r in enumerate(rows) if i not in drop_rows]))

    def test_rectangular(self):
        assert check_snf(IntMatrix([[2, 4, 6]])) == (2,)
        assert check_snf(IntMatrix([[2], [4], [6]])) == (2,)

    def test_deterministic(self):
        rng = random.Random(5)
        M = random_matrix(rng, 6, 6)
        assert smith_diagonal(M) == smith_diagonal(M)
        check_snf(M)

    def test_hundred_vertex_resolution_trees_in_under_a_second(self):
        rng = random.Random(100)
        for _ in range(15):
            M = intersection_matrix(resolution_tree(rng, 100))
            start = time.perf_counter()
            d = smith_diagonal(M)
            assert time.perf_counter() - start < 1.0
            assert math.prod(d) == abs(determinant(M))

    def test_det_is_product_of_diagonal(self):
        rng = random.Random(77)
        for _ in range(80):
            n = rng.randint(1, 4)
            M = random_matrix(rng, n, n)
            d = smith_diagonal(M)
            prod = 1
            for x in d:
                prod *= x
            det = cofactor_det(M.to_lists())
            assert abs(det) == prod
            assert determinant(M) == det


class TestDeterminant:
    def test_identity(self):
        assert determinant(IntMatrix.identity(3)) == 1

    def test_hand_cofactors(self):
        assert determinant(IntMatrix([[0, 1], [1, 2]])) == -1
        assert determinant(IntMatrix([[-2, 1, 1], [1, -2, 0], [1, 0, -2]])) == -4

    def test_empty(self):
        assert determinant(IntMatrix([])) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(IntMatrix([[1, 2]]))

    def test_against_cofactor_oracle(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(1, 6)
            M = random_matrix(rng, n, n)
            assert determinant(M) == cofactor_det(M.to_lists())

    def test_symmetric_against_cofactor_oracle(self):
        # the sparse pivot pass: dense, sparse, zero-diagonal and low-rank forms
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(1, 8)
            entries = rng.choice([(0, 0, 0, 1, -1, 2, -3), tuple(range(-4, 5))])
            zero_diagonal = rng.random() < 0.4
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if i != j or not zero_diagonal:
                        rows[i][j] = rows[j][i] = rng.choice(entries)
            u = [rng.randint(-2, 2) for _ in range(n)]
            v = [rng.randint(-2, 2) for _ in range(n)]
            singular = [[u[i] * u[j] - v[i] * v[j] for j in range(n)] for i in range(n)]
            for form in (rows, singular):
                assert determinant(IntMatrix(form)) == cofactor_det(form)

    def test_non_symmetric_against_cofactor_oracle(self):
        rng = random.Random(32)
        for _ in range(80):
            n = rng.randint(2, 8)
            rows = random_matrix(rng, n, n, bound=rng.choice((1, 4))).to_lists()
            if all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i)):
                rows[0][1] += 1
            assert not IntMatrix(rows).is_symmetric
            assert determinant(IntMatrix(rows)) == cofactor_det(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_dense_det_against_cofactor_oracle(self, data):
        # half the draws zero the first column or the leading entry, so a row swap runs
        # (or none can, and det is 0); a third copy one row's multiple into another
        n = data.draw(st.integers(0, 7))
        entry = st.one_of(st.integers(-4, 4), st.sampled_from((2**70, -(3**45))))
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        if n:
            zero = data.draw(st.sampled_from((None, None, "column", "lead")))
            if zero == "column":
                for r in rows:
                    r[0] = 0
            elif zero == "lead":
                rows[0][0] = 0
            if n > 1 and data.draw(st.integers(0, 2)) == 0:
                i, j = data.draw(st.permutations(range(n)))[:2]
                c = data.draw(st.integers(-3, 3))
                rows[j] = [c * x for x in rows[i]]
        want = cofactor_det(rows)
        assert determinant(IntMatrix(rows)) == want
        assert _dense_det([r[:] for r in rows]) == want

    def test_dense_det_empty_is_one(self):
        assert _dense_det([]) == 1

    def test_trees_against_leaf_pruning(self):
        # weight_bound 0 and 2 leave all-zero live diagonals, so the pair congruence runs
        rng = random.Random(1206)
        for n in (1, 2, 3, 5, 8, 13, 30, 100, 300, 1000):
            graphs = [random_tree(rng, n, weight_bound=b) for b in (0, 2, 4)] + [resolution_tree(rng, n)]
            for G in graphs:
                assert determinant(intersection_matrix(G)) == tree_det(G)
        for _ in range(300):
            G = random_tree(rng, rng.randint(1, 12), weight_bound=rng.choice((0, 1, 2)))
            assert determinant(intersection_matrix(G)) == tree_det(G)


class TestSignature:
    def test_diagonal(self):
        assert signature(diagonal([-2, -2])) == -2

    def test_hyperbolic_pair(self):
        # congruence diagonalization: one positive, one negative
        assert signature(IntMatrix([[0, 1], [1, -2]])) == 0

    def test_three_by_three(self):
        assert signature(IntMatrix([[-2, 1, 1], [1, -2, 0], [1, 0, -2]])) == -3

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            signature(IntMatrix([[0, 1], [2, 0]]))

    def test_against_charpoly_oracle(self):
        rng = random.Random(1234)
        for _ in range(250):
            M = random_symmetric(rng, rng.randint(1, 7), bound=5)
            assert signature(M) == charpoly_signature(M.to_lists())

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_property_against_charpoly(self, data):
        # half the draws have a zero diagonal, forcing the hyperbolic pivot;
        # half are sparse, so the congruence meets rows the lazy scaling left behind
        sparse = data.draw(st.booleans())
        n = data.draw(st.integers(1, 10 if sparse else 7))
        hyperbolic = data.draw(st.booleans())
        entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3)) if sparse else st.integers(-6, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j and hyperbolic:
                    continue
                rows[i][j] = rows[j][i] = data.draw(entry)
        M = IntMatrix(rows)
        sig = charpoly_signature(rows)
        assert signature(M) == sig
        assert is_negative_definite(M) == (sig == -n)
        pos, neg, zero = _det_inertia(M)[1:]
        assert pos - neg == sig
        assert n - zero == sum(1 for d in smith_diagonal(M) if d != 0)

    def test_hyperbolic_blocks(self):
        H = [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        assert _det_inertia(IntMatrix(H))[1:] == (1, 1, 2)
        # zero diagonal throughout elimination: pairs (0,1) and (2,3) plus a coupling
        Z = [[0, 1, 0, 3], [1, 0, 0, 0], [0, 0, 0, -1], [3, 0, -1, 0]]
        assert signature(IntMatrix(Z)) == charpoly_signature(Z)
        assert _det_inertia(IntMatrix(Z))[1:] == (2, 2, 0)

    def test_signature_bounded_by_rank(self):
        rng = random.Random(4321)
        for _ in range(100):
            M = random_symmetric(rng, rng.randint(1, 6))
            rank = sum(1 for d in smith_diagonal(M) if d != 0)
            assert abs(signature(M)) <= rank


class TestNegativeDefinite:
    def test_alternating_minors(self):
        # minors -2, 3, -4 alternate
        assert is_negative_definite(IntMatrix([[-2, 1, 1], [1, -2, 0], [1, 0, -2]]))

    def test_zero_diagonal_entry(self):
        assert not is_negative_definite(IntMatrix([[0, 1], [1, 2]]))

    def test_single_entry(self):
        assert is_negative_definite(diagonal([-1]))

    def test_zero_leading_minor_fallback(self):
        assert not is_negative_definite(IntMatrix([[0, 1], [1, 0]]))
        assert not is_negative_definite(IntMatrix([[0, 0], [0, -1]]))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            is_negative_definite(IntMatrix([[1, 2], [0, 1]]))

    def test_stops_at_first_wrong_pivot(self, monkeypatch):
        drawn = []
        pivots = exactmat._pivots

        def counted(M):
            for d in pivots(M):
                drawn.append(d)
                yield d

        monkeypatch.setattr(exactmat, "_pivots", counted)
        # the leaf of weight 1 pivots first and settles the answer
        chain = PlumbingGraph([(0, 1, 0)] + [(v, -3, 0) for v in range(1, 50)], [(v - 1, v) for v in range(1, 50)])
        M = intersection_matrix(chain)
        assert not is_negative_definite(M)
        assert drawn == [1]

    def test_implies_signature_and_det_sign(self):
        rng = random.Random(2718)
        found = 0
        for _ in range(300):
            n = rng.randint(1, 5)
            M = random_symmetric(rng, n, bound=3)
            if is_negative_definite(M):
                found += 1
                assert signature(M) == -n
                det = determinant(M)
                assert det != 0 and (det > 0) == (n % 2 == 0)
        assert found > 5

    def test_agrees_with_signature_everywhere(self):
        rng = random.Random(606)
        for _ in range(200):
            n = rng.randint(1, 5)
            M = random_symmetric(rng, n, bound=3)
            assert is_negative_definite(M) == (signature(M) == -n)


class TestTreeInertia:
    def test_small_trees_against_leaf_pruning(self):
        # weights in [-2, 2]: many zero-weight leaves and hyperbolic planes
        rng = random.Random(11)
        for _ in range(300):
            G = random_tree(rng, rng.randint(1, 10), weight_bound=2)
            assert _det_inertia(intersection_matrix(G))[1:] == tree_inertia(G)

    def test_large_trees_against_leaf_pruning(self):
        rng = random.Random(1981)
        for n in (200, 240, 500, 1000):
            G = random_tree(rng, n)
            assert _det_inertia(intersection_matrix(G))[1:] == tree_inertia(G)
        # resolution trees are definite; zero weights leave an all-zero live
        # diagonal, so the pair congruence runs
        for n in (500, 1000):
            for G in (resolution_tree(rng, n), random_tree(rng, n, weight_bound=2), random_tree(rng, n, weight_bound=0)):
                assert _det_inertia(intersection_matrix(G))[1:] == tree_inertia(G)

    def test_thousand_vertex_tree_in_under_a_second(self):
        rng = random.Random(1000)
        for G in (random_tree(rng, 1000, weight_bound=2), resolution_tree(rng, 1000)):
            M = intersection_matrix(G)
            pos, neg, _ = tree_inertia(G)
            kernels = ((signature, pos - neg), (is_negative_definite, neg == 1000), (determinant, tree_det(G)))
            for kernel, expected in kernels:
                start = time.perf_counter()
                assert kernel(M) == expected
                assert time.perf_counter() - start < 1.0

    def test_leaf_pruning_at_a_thousand_vertices(self):
        # weight <= -degree - 1 is strictly diagonally dominant: negative definite;
        # reversing orientation swaps n_plus and n_minus
        rng = random.Random(1000)
        for n in (500, 1000):
            G = random_tree(rng, n)
            pos, neg, zero = tree_inertia(G)
            assert pos + neg + zero == n
            flipped = PlumbingGraph([(v, -G.weight(v), 0) for v in G.vertex_ids], G.edges)
            assert tree_inertia(flipped) == (neg, pos, zero)
            deg = {v: 0 for v in G.vertex_ids}
            for a, b in G.edges:
                deg[a] += 1
                deg[b] += 1
            definite = PlumbingGraph([(v, -deg[v] - 1 - rng.randint(0, 2), 0) for v in G.vertex_ids], G.edges)
            assert tree_inertia(definite) == (0, n, 0)


class TestPivotHeap:
    # rows pushed with one length and later changed must never be chosen by
    # the stale entry; the pivots are those of a scan for the least (len, i),
    # recorded from the scan chooser the heap replaced
    STALE = {
        # zero diagonal: the first pivot comes from the congruence, and the
        # second congruence changes the lengths of rows already pushed
        "zero_diagonal": (
            [[0, 0, -1, 1, 2], [0, 0, 1, -1, 0], [-1, 1, 0, 0, 1], [1, -1, 0, 0, -1], [2, 0, 1, -1, 0]],
            [-2, -1, 4, 4],
        ),
        # a neighbour update cancels entries, so a row is popped at its old length
        "cancellation": (
            [[-1, 1, 1, 0, 1, 0], [1, 2, 1, 1, 0, -1], [1, 1, 1, 1, 0, 2], [0, 1, 1, 0, 1, 0], [1, 0, 0, 1, 1, 1], [0, -1, 2, 0, 1, 1]],
            [-1, -1, -2, 1, -8, -17],
        ),
    }

    @pytest.mark.parametrize("name", sorted(STALE))
    def test_stale_entries_against_oracles(self, monkeypatch, name):
        rows, scan_pivots = self.STALE[name]
        popped = []
        heappop = exactmat.heappop

        def counted(heap):
            popped.append(heappop(heap))
            return popped[-1]

        monkeypatch.setattr(exactmat, "heappop", counted)
        M = IntMatrix(rows)
        pivots = list(exactmat._pivots(M))
        assert len(popped) > len(pivots)  # some popped entries were stale and dropped
        assert pivots == scan_pivots
        assert determinant(M) == cofactor_det(rows)
        assert signature(M) == charpoly_signature(rows)
        assert _det_inertia(M)[3] == len(rows) - len(pivots)



class TestPivotStamps:
    # each entry keeps the pivot at which it was last exact; the whole-row
    # scaling it replaced is the oracle, pivot for pivot

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_same_pivots_as_row_scaling(self, data):
        n = data.draw(st.integers(1, 9))
        entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5, -9))
        upper = iter(data.draw(st.lists(entry, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(upper)
        if data.draw(st.booleans()):  # zero diagonal: the pair congruence runs
            for i in range(n):
                rows[i][i] = 0
        if n > 1 and data.draw(st.booleans()):  # singular: row and column l repeat k
            k, l = data.draw(st.permutations(range(n)))[:2]
            rows[l] = rows[k][:]
            for r in rows:
                r[l] = r[k]
        M = IntMatrix(rows)
        assert list(exactmat._pivots(M)) == list(row_scaled_pivots(M))

    def test_tree_corpus_same_pivots_as_row_scaling(self):
        rng = random.Random(2028)
        forms = [resolution_tree(random.Random(1000), 1000)]
        for n in range(1, 301, 23):
            forms += [resolution_tree(rng, n), random_tree(rng, n), random_tree(rng, n, weight_bound=0)]
        for G in forms:
            M = intersection_matrix(G)
            assert list(exactmat._pivots(M)) == list(row_scaled_pivots(M))

    def test_many_legged_star_in_linear_time(self):
        # the centre row was once rescaled at every leg: 3 s for figure1's 1000-fiber reduced star
        G = star_graph_right(1, [2 + 5 * i % 8 for i in range(1000)])
        start = time.perf_counter()
        assert grauert_check(G)
        assert time.perf_counter() - start < 0.5

    def test_excised_star_signature_in_linear_time(self):
        # thm44 at g = 250, r = 1003 once spent 0.43 s here
        G = _excised_star(250, 1003, 2)
        M = intersection_matrix(G)
        start = time.perf_counter()
        sigma = signature(M)
        elapsed = time.perf_counter() - start
        pos, neg, _ = tree_inertia(G)
        assert sigma == pos - neg
        assert elapsed < 0.1


class TestParseInt:
    @pytest.mark.parametrize("text, value", [("7", 7), ("-7", -7), ("+7", 7), (" 7\n", 7), ("007", 7), ("-0", 0)])
    def test_ascii_digits_with_sign_and_padding(self, text, value):
        assert _parse_int(text, "n") == value

    @pytest.mark.parametrize("text", ["1_0", "١٠", "٣", "²", "3.0", "", " ", "0x3", "1e3", "1 0", "+-1", "--1", "+", 7, None])
    def test_anything_else_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(f"n {text!r} is not an integer")):
            _parse_int(text, "n")


class TestIntMatrix:
    @pytest.mark.parametrize("entry", [-1.7, 2.0, True, False, None, "3", 1 + 0j])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="not an integer"):
            IntMatrix([[entry, 1], [0, -1]])

    @pytest.mark.parametrize("entry", [True, 1.0, None, "1"])
    @pytest.mark.parametrize("at", [(0, 0), (1, 1), (2, 2)], ids=["first", "middle", "last"])
    def test_non_integer_entry_rejected_anywhere(self, entry, at):
        rows = [[1, 0, -2], [0, 3, 0], [-2, 0, 5]]
        rows[at[0]][at[1]] = entry
        with pytest.raises(ValueError, match=re.escape(f"matrix entry {entry!r} is not an integer")):
            IntMatrix(rows)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_is_symmetric_is_transpose_equality(self, data):
        # square draws are symmetrized half the time; 0x0, 0xn and nx0 included
        m = data.draw(st.integers(0, 5))
        n = m if data.draw(st.booleans()) else data.draw(st.integers(0, 5))
        rows = [[data.draw(st.sampled_from((0, 0, 1, -1, 3))) for _ in range(n)] for _ in range(m)]
        if m == n and data.draw(st.booleans()):
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        M = IntMatrix(rows)
        assert M.is_symmetric == (M == M.transpose())
        assert M.is_symmetric == (M == M.transpose())  # decided once, read again

    @pytest.mark.parametrize(
        "M, symmetric",
        [
            (IntMatrix([]), True),
            (zeros(0, 3), True),  # no rows, so it is stored as 0x0
            (zeros(3, 0), False),
            (IntMatrix([[0, 0, 0]]), False),
            (IntMatrix([[1, 2, 3], [2, 5, 6]]), False),
            (IntMatrix([[2, 1], [1, 2]]), True),
            (IntMatrix([[2, 1], [0, 2]]), False),
        ],
    )
    def test_is_symmetric_edge_shapes(self, M, symmetric):
        assert M.is_symmetric == (M == M.transpose()) == symmetric

    def test_stored_nonzeros_match_dense_rows(self):
        rng = random.Random(404)
        for _ in range(100):
            M = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=rng.choice((1, 3)))
            assert [dict(r) for r in M._nonzeros] == [{j: v for j, v in enumerate(r) if v} for r in M.to_lists()]
        for M in (IntMatrix([]), IntMatrix([[], []]), zeros(2, 3), intersection_matrix(resolution_tree(rng, 30))):
            assert [dict(r) for r in M._nonzeros] == [{j: v for j, v in enumerate(r) if v} for r in M.to_lists()]

    def test_kernels_leave_stored_nonzeros_alone(self):
        rows = [[0, 1, 0, 3], [1, 0, 0, 0], [0, 0, 0, -1], [3, 0, -1, 0]]
        M = IntMatrix(rows)
        before = [dict(r) for r in M._nonzeros]
        determinant(M), signature(M), is_negative_definite(M), smith_diagonal(M)
        assert [dict(r) for r in M._nonzeros] == before
        assert M.to_lists() == rows

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_sparse_storage_against_dense_reference(self, data):
        # 0x0, nx0 and [[], []] included; a matrix with no rows is 0x0
        m = data.draw(st.integers(0, 5))
        n = data.draw(st.integers(0, 5))
        rows = [[data.draw(st.sampled_from((0, 0, 0, 1, -1, 7, -(2**70)))) for _ in range(n)] for _ in range(m)]
        M = IntMatrix(rows)
        assert (M.nrows, M.ncols) == (m, n if m else 0)
        assert M.to_lists() == rows
        assert IntMatrix(M.to_lists()) == M
        for i in range(-m, m):
            for j in range(-n, n):
                assert M[i, j] == rows[i][j]
        for i, j in ((m, 0), (0, n), (-m - 1, 0), (0, -n - 1)):
            with pytest.raises(IndexError):
                M[i, j]
        dense_t = [list(c) for c in zip(*rows)]
        T = M.transpose()
        assert T == IntMatrix(dense_t)
        assert T.to_lists() == dense_t
        assert T.transpose() == (M if n else IntMatrix([]))
        other = IntMatrix([[data.draw(st.sampled_from((0, 1, 7))) for _ in range(n)] for _ in range(m)])
        assert (M == other) == (M.to_lists() == other.to_lists())
        if M == other:
            assert hash(M) == hash(other)
        assert hash(M) == hash(IntMatrix(rows))

    def test_transpose_roundtrip(self):
        M = IntMatrix([[1, 2, 3], [4, 5, 6]])
        assert M.transpose().transpose() == M
