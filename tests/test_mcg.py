import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_word_action, diagonal, intersection_form, matmul

from steincalc.exactmat import IntMatrix
from steincalc.mcg import (
    MAX_WORD_LETTERS,
    Curve,
    SurfaceSpec,
    TwistWord,
    chain_curves,
    hyperelliptic_half_word,
    hyperelliptic_word,
    korkmaz_word,
    lf_euler_characteristic,
    load_curves,
    pairing,
    parse_word,
    word_action,
)


def random_class(rng, n):
    return tuple(rng.randint(-3, 3) for _ in range(n))


def twist(c, S):
    """Action of the one-letter word t_c."""
    return word_action(TwistWord(S, (("c", 1),), {"c": Curve("c", c)}))


class TestTransvection:
    def test_twist_along_a_sends_b(self):
        S = SurfaceSpec(1, 0)
        T = twist((1, 0), S)
        # t_{a1}(b1) = b1 + a1 in the (a1, b1) basis
        assert [T[0, 1], T[1, 1]] == [1, 1]
        assert [T[0, 0], T[1, 0]] == [1, 0]

    def test_fixes_its_own_curve(self):
        rng = random.Random(3)
        for g in (1, 2, 3):
            S = SurfaceSpec(g, 0)
            c = random_class(rng, S.h1_rank)
            T = twist(c, S)
            image = [sum(T[i, j] * c[j] for j in range(S.h1_rank)) for i in range(S.h1_rank)]
            assert tuple(image) == c

    def test_boundary_parallel_is_identity(self):
        S = SurfaceSpec(2, 1)  # one boundary component: its class is zero
        assert twist((0,) * S.h1_rank, S) == IntMatrix.identity(S.h1_rank)

    def test_preserves_pairing(self):
        rng = random.Random(12)
        for _ in range(60):
            g = rng.randint(1, 5)
            r = rng.choice((0, 0, 2, 3))
            S = SurfaceSpec(g, r)
            J = intersection_form(S)
            T = twist(random_class(rng, S.h1_rank), S)
            assert matmul(T.transpose(), J, T) == J

    def test_inverse(self):
        rng = random.Random(13)
        for _ in range(30):
            g = rng.randint(1, 4)
            S = SurfaceSpec(g, 0)
            c = Curve("c", random_class(rng, S.h1_rank))
            w = TwistWord(S, (("c", 1), ("c", -1)), {"c": c})
            assert word_action(w) == IntMatrix.identity(S.h1_rank)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="class has length"):
            twist((1, 0), SurfaceSpec(2, 0))

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, None, "1"])
    def test_non_integer_class_rejected(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            Curve("c", (bad, 0))

    @pytest.mark.parametrize("bad", [1.9, 1.0, True, None, "1"])
    def test_non_integer_exponent_rejected(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            TwistWord(SurfaceSpec(1, 0), (("c1", bad),))


@st.composite
def curve_words(draw):
    g = draw(st.integers(0, 4))
    S = SurfaceSpec(g, draw(st.sampled_from((0, 1, 2, 3))))
    n = S.h1_rank
    entries = st.integers(-3, 3) | st.just(0)
    names = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    table = {name: Curve(name, tuple(draw(st.lists(entries, min_size=n, max_size=n)))) for name in names}
    names.append("zero")
    table["zero"] = Curve("zero", (0,) * n)
    letters = draw(st.lists(st.tuples(st.sampled_from(names), st.integers(-2, 3)), max_size=8))
    vectors = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return TwistWord(S, tuple(letters), table), draw(vectors), draw(vectors)


@settings(max_examples=300, deadline=None)
@given(curve_words())
def test_word_action_against_dense_oracle(case):
    w, x, y = case
    M = word_action(w)
    assert M == dense_word_action(w)
    n = w.surface.h1_rank
    Mx = [sum(M[i, j] * x[j] for j in range(n)) for i in range(n)]
    My = [sum(M[i, j] * y[j] for j in range(n)) for i in range(n)]
    assert pairing(w.surface, Mx, My) == pairing(w.surface, x, y)


class TestWordAction:
    def test_empty_word(self):
        S = SurfaceSpec(2, 0)
        w = TwistWord(S, (), {})
        assert word_action(w) == IntMatrix.identity(4)

    def test_half_word_is_minus_identity(self):
        for g in (1, 2, 3):
            M = word_action(hyperelliptic_half_word(g, chain_curves(g)))
            minus = IntMatrix([[-1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)])
            assert M == minus

    def test_full_word_is_identity(self):
        for g in (1, 2, 3):
            assert word_action(hyperelliptic_word(g, chain_curves(g))) == IntMatrix.identity(2 * g)

    def test_genus_100_half_word_in_under_a_second(self):
        start = time.perf_counter()
        M = word_action(hyperelliptic_half_word(100, chain_curves(100)))
        elapsed = time.perf_counter() - start
        assert M == diagonal([-1] * 200)
        assert elapsed < 1.0, f"genus-100 half word took {elapsed:.2f}s"

    def test_missing_curve_rejected(self):
        S = SurfaceSpec(1, 0)
        with pytest.raises(ValueError):
            TwistWord(S, (("zz", 1),), chain_curves(1))


class TestHyperellipticWord:
    def test_letter_counts(self):
        for g in (1, 2, 3, 4, 5):
            assert hyperelliptic_word(g).letter_count == 8 * g + 4
            assert hyperelliptic_half_word(g).letter_count == 4 * g + 2
            counting = hyperelliptic_word(g)
            assert counting.curves is None
            assert counting.letters == hyperelliptic_word(g, chain_curves(g)).letters

    def test_g1_count(self):
        assert hyperelliptic_word(1).letter_count == 12

    def test_chain_gate_runs(self):
        for g in range(1, 6):
            curves = chain_curves(g)
            assert len(curves) == 2 * g + 1

    def test_chain_classes_pair_as_a_chain(self):
        # every pair through the dense form; the gate skips disjoint supports
        for g in range(1, 8):
            J = intersection_form(SurfaceSpec(g, 0))
            curves = chain_curves(g)
            rows = [IntMatrix([list(curves[f"c{i}"].homology_class)]) for i in range(1, 2 * g + 2)]
            for i, x in enumerate(rows):
                for j, y in enumerate(rows):
                    assert abs(matmul(x, J, y.transpose())[0, 0]) == (1 if abs(i - j) == 1 else 0)


class TestKorkmazWord:
    def test_letter_counts(self):
        for m in (1, 2, 3, 4):
            g = 2 * m + 1
            assert korkmaz_word(m).letter_count == 2 * g + 10

    def test_m1_m2(self):
        assert korkmaz_word(1).letter_count == 16
        assert korkmaz_word(2).letter_count == 20

    def test_counting_only_without_curves(self):
        w = korkmaz_word(1)
        with pytest.raises(ValueError, match="unavailable"):
            word_action(w)

    def test_with_curve_file(self):
        # any table with the right names and lengths enables the action
        m = 1
        g = 2 * m + 1
        S = SurfaceSpec(g, 0)
        names = [f"b{i}" for i in range(g + 1)] + ["a", "b"]
        rng = random.Random(5)
        table = {n: Curve(n, random_class(rng, S.h1_rank)) for n in names}
        w = korkmaz_word(m, curves=table)
        M = word_action(w)
        J = intersection_form(S)
        assert matmul(M.transpose(), J, M) == J


class TestEulerCharacteristic:
    def test_hyperelliptic_double_count(self):
        for g in range(1, 6):
            assert lf_euler_characteristic(g, 8 * g + 4) == 4 * g + 8 == 2 + 1 + (4 * g + 5)

    def test_odd_genus_double_count(self):
        for m in range(1, 5):
            g = 2 * m + 1
            assert lf_euler_characteristic(g, 2 * g + 10) == 14 - 2 * g == 12 - 4 * m

    def test_sphere_bundle(self):
        assert lf_euler_characteristic(0, 0) == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lf_euler_characteristic(-1, 0)


class TestWordDSL:
    def test_plain_tokens(self):
        S = SurfaceSpec(1, 0)
        w = parse_word("c1 c2 c3^2 c2 c1", S, chain_curves(1))
        assert w.letters == (("c1", 1), ("c2", 1), ("c3", 2), ("c2", 1), ("c1", 1))

    def test_group_power(self):
        S = SurfaceSpec(1, 0)
        w = parse_word("(c1 c2)^2", S, chain_curves(1))
        assert w.letters == (("c1", 1), ("c2", 1), ("c1", 1), ("c2", 1))

    def test_group_inverse(self):
        S = SurfaceSpec(1, 0)
        w = parse_word("(c1 c2^2)^-1", S, chain_curves(1))
        assert w.letters == (("c2", -2), ("c1", -1))

    def test_word_times_inverse_is_identity(self):
        S = SurfaceSpec(2, 0)
        curves = chain_curves(2)
        w = parse_word("c1 c2 c3 (c1 c2 c3)^-1", S, curves)
        assert word_action(w) == IntMatrix.identity(4)

    def test_unbalanced(self):
        with pytest.raises(ValueError):
            parse_word("(c1", SurfaceSpec(1, 0))
        with pytest.raises(ValueError):
            parse_word("c1)", SurfaceSpec(1, 0))

    def test_group_power_up_to_the_bound(self):
        w = parse_word(f"c1 c2 (c1 c2)^{MAX_WORD_LETTERS // 2 - 1}", SurfaceSpec(1, 0))
        assert len(w.letters) == MAX_WORD_LETTERS

    def test_empty_group_any_power(self):
        # [] * 10**20 raises OverflowError, so an empty group never expands
        w = parse_word("()^99999999999999999999 c1", SurfaceSpec(1, 0))
        assert w.letters == (("c1", 1),)

    def test_load_curves_checks_rank(self):
        with pytest.raises(ValueError):
            load_curves('{"x": [1, 0, 0]}', SurfaceSpec(1, 0))

    @pytest.mark.parametrize("text", ['{"x": 5}', "[1, 2]", '{"x": "10"}', '{"x": [1.9, 0]}'])
    def test_load_curves_rejects_wrong_shapes(self, text):
        with pytest.raises(ValueError):
            load_curves(text, SurfaceSpec(1, 0))


class TestSurfaceSpec:
    def test_rank(self):
        assert SurfaceSpec(2, 0).h1_rank == 4
        assert SurfaceSpec(2, 1).h1_rank == 4
        assert SurfaceSpec(2, 3).h1_rank == 6

    @pytest.mark.parametrize("genus, boundary_count", [(1.5, 0), (2.0, 0), (True, 0), (1, 1.0), (1, False), (1, None)])
    def test_non_integer_rejected(self, genus, boundary_count):
        with pytest.raises(ValueError, match="not an integer"):
            SurfaceSpec(genus, boundary_count)

    def test_pairing_on_degenerate_part(self):
        S = SurfaceSpec(1, 3)
        d1 = (0, 0, 1, 0)
        d2 = (0, 0, 0, 1)
        assert pairing(S, d1, d2) == 0
        assert pairing(S, (1, 0, 0, 0), (0, 1, 0, 0)) == 1
