import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import matmul, naive_laurent_det, random_seifert_matrix

from steincalc.exactmat import IntMatrix
from steincalc.knots import (
    FIGURE_EIGHT,
    TREFOIL,
    UNKNOT,
    LaurentPoly,
    NonSymmetricPolynomial,
    SeifertMatrixK,
    alexander,
    chain_seifert_matrix,
    connected_sum,
    demo_family,
    family_report,
    fibered_certificate,
    load_family,
    substitute_t_squared,
)

TREFOIL_DELTA = LaurentPoly({1: 1, 0: -1, -1: 1})
FIG8_DELTA = LaurentPoly({1: 1, 0: -3, -1: 1})


class TestLaurentPoly:
    def test_arithmetic(self):
        p = LaurentPoly({1: 2, 0: -1})
        q = LaurentPoly({-1: 3})
        assert (p + q) == LaurentPoly({1: 2, 0: -1, -1: 3})
        assert (p * q) == LaurentPoly({0: 6, -1: -3})
        assert (p - p).is_zero

    def test_normalize_centers_and_fixes_sign(self):
        raw = LaurentPoly({2: -1, 1: 3, 0: -1})  # -t^2 + 3t - 1
        assert raw.normalized() == LaurentPoly({1: 1, 0: -3, -1: 1})

    def test_normalize_rejects_odd_span(self):
        with pytest.raises(NonSymmetricPolynomial):
            LaurentPoly({1: 1, 0: 1}).normalized()

    def test_normalize_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricPolynomial):
            LaurentPoly({2: 1, 1: 5, 0: 2}).normalized()

    def test_str(self):
        assert str(LaurentPoly({2: 1, 0: -1, -2: 1})) == "t^2 - 1 + t^-2"
        assert str(LaurentPoly()) == "0"

    @pytest.mark.parametrize("coeffs", [{0: 1.7, 1: 2}, {0: 2.0}, {1.2: 2}, {0: True}, {"1": 1}, {0: None}])
    def test_non_integer_rejected(self, coeffs):
        with pytest.raises(ValueError, match="not an integer"):
            LaurentPoly(coeffs)

    def test_json_roundtrip(self):
        # the alexander_coefficients object that `knots alexander` prints rebuilds the polynomial
        p = LaurentPoly({3: -2, 0: 5, -3: -2})
        assert LaurentPoly({int(e): c for e, c in json.loads(json.dumps(p.to_dict())).items()}) == p

    @pytest.mark.parametrize("coeffs", [{1: 1.0}, {1: True}, {1.0: 1}, {"1": 1}])
    def test_constructor_checks_kept(self, coeffs):
        with pytest.raises(ValueError, match="not an integer"):
            LaurentPoly(coeffs)

    def test_shift_rejects_non_integer(self):
        with pytest.raises(ValueError, match="not an integer"):
            TREFOIL_DELTA.shift(1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(st.integers(-6, 6), st.integers(-5, 5) | st.just(2**80)),
        st.integers(-8, 8),
        st.dictionaries(st.integers(0, 5), st.integers(-5, 5).filter(bool), min_size=1),
        st.booleans(),
    )
    def test_property_unchecked_paths_match_public_constructor(self, coeffs, k, half, negate):
        # shift and negation build through _of; each must equal, term for term and
        # in the same order, the polynomial the public constructor builds
        p = LaurentPoly(coeffs)
        for got, terms in (
            (p.shift(k), {e + k: c for e, c in coeffs.items()}),
            (-p, {e: -c for e, c in coeffs.items()}),
        ):
            want = LaurentPoly(terms)
            assert got == want and list(got.items()) == list(want.items())
        # normalized: a symmetric polynomial with positive leading coefficient, moved by -+t^k
        top = max(half)
        sym = dict(half) | {-e: c for e, c in half.items()}
        if sym[top] < 0:
            sym = {e: -c for e, c in sym.items()}
        want = LaurentPoly(sym)
        raw = LaurentPoly({e + k: -c if negate else c for e, c in sym.items()})
        got = raw.normalized()
        assert got == want and list(got.items()) == list(want.items())


class TestAlexander:
    def test_trefoil(self):
        # det(V - tV^T) for [[-1,1],[0,-1]] is t^2 - t + 1, centered
        assert alexander(TREFOIL) == TREFOIL_DELTA

    def test_figure_eight(self):
        # raw determinant is -(t - 3 + 1/t) up to units; normalization fixes the sign
        assert alexander(FIGURE_EIGHT) == FIG8_DELTA

    def test_unknot(self):
        assert alexander(UNKNOT) == LaurentPoly.one()

    def test_torus_2_5_chain(self):
        assert alexander(chain_seifert_matrix(1)) == LaurentPoly(
            {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
        )

    def test_against_naive_determinant(self):
        rng = random.Random(2024)
        t = LaurentPoly({1: 1})
        for _ in range(40):
            V = random_seifert_matrix(rng, rng.randint(1, 3))
            M = V.matrix
            rows = [
                [
                    LaurentPoly({0: M[i, j]}) - t * LaurentPoly({0: M[j, i]})
                    for j in range(M.ncols)
                ]
                for i in range(M.nrows)
            ]
            assert alexander(V) == naive_laurent_det(rows).normalized()

    def test_large_entries_against_naive_determinant(self):
        # entries up to 50 push the Kronecker base B far past the coefficients
        rng = random.Random(5050)
        t = LaurentPoly({1: 1})
        for bound in (10, 25, 50):
            for _ in range(8):
                V = random_seifert_matrix(rng, rng.randint(1, 3), bound=bound)
                M = V.matrix
                rows = [
                    [
                        LaurentPoly({0: M[i, j]}) - t * LaurentPoly({0: M[j, i]})
                        for j in range(M.ncols)
                    ]
                    for i in range(M.nrows)
                ]
                assert alexander(V) == naive_laurent_det(rows).normalized()

    def test_dense_genus_ten_trefoil_sum(self):
        V = TREFOIL
        for _ in range(9):
            V = connected_sum(V, TREFOIL)
        n = V.matrix.nrows
        rng = random.Random(10)
        P = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(5 * n):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            P[i] = [a + s * b for a, b in zip(P[i], P[j])]
        P = IntMatrix(P)
        dense = matmul(P, V.matrix, P.transpose())
        assert sum(1 for i in range(n) for j in range(n) if dense[i, j] != 0) > n * n // 2
        expected = LaurentPoly.one()
        for _ in range(10):
            expected = expected * TREFOIL_DELTA
        start = time.perf_counter()
        assert alexander(SeifertMatrixK("dense", dense)) == expected
        assert time.perf_counter() - start < 1.0

    def test_symmetric_and_unit_at_one(self):
        rng = random.Random(31337)
        for _ in range(120):
            V = random_seifert_matrix(rng, rng.randint(1, 3))
            delta = alexander(V)
            assert delta.is_symmetric
            assert delta.evaluate_at_one() in (1, -1)
            assert delta.span <= 2 * V.genus


class TestSeifertMatrixValidation:
    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            SeifertMatrixK("bad", IntMatrix([[1]]))

    def test_invalid_pairing_rejected(self):
        with pytest.raises(ValueError):
            SeifertMatrixK("bad", IntMatrix([[0, 2], [0, 0]]))

    def test_genus(self):
        assert TREFOIL.genus == 1
        assert UNKNOT.genus == 0
        assert chain_seifert_matrix(2).genus == 2

    def test_json_roundtrip(self):
        again = SeifertMatrixK.from_json(json.dumps(TREFOIL.to_dict()))
        assert again == TREFOIL


class TestFiberedCertificate:
    def test_trefoil_passes(self):
        cert = fibered_certificate(alexander(TREFOIL), TREFOIL.genus)
        assert cert.passes and cert.monic and cert.span_matches

    def test_non_monic_fails(self):
        V = SeifertMatrixK("twist", IntMatrix([[-1, 1], [0, 2]]))
        delta = alexander(V)
        assert delta == LaurentPoly({1: 2, 0: -5, -1: 2})
        cert = fibered_certificate(delta, V.genus)
        assert not cert.passes and not cert.monic
        assert any("monic" in r or "coefficient" in r for r in cert.reasons)

    def test_unknot_passes(self):
        assert fibered_certificate(alexander(UNKNOT), UNKNOT.genus).passes

    def test_span_short_of_genus_fails(self):
        cert = fibered_certificate(TREFOIL_DELTA, 2)
        assert not cert.passes and cert.monic and not cert.span_matches
        assert cert.reasons == ("span 2 != 2*genus = 4",)


class TestConnectedSum:
    def test_trefoil_square(self):
        VV = connected_sum(TREFOIL, TREFOIL)
        assert VV.genus == 2
        assert alexander(VV) == (TREFOIL_DELTA * TREFOIL_DELTA).normalized()

    def test_unknot_neutral(self):
        assert alexander(connected_sum(TREFOIL, UNKNOT)) == alexander(TREFOIL)

    def test_mixed_product(self):
        V = connected_sum(TREFOIL, FIGURE_EIGHT)
        assert V.genus == 2
        assert alexander(V) == (TREFOIL_DELTA * FIG8_DELTA).normalized()

    def test_multiplicative_on_randoms(self):
        rng = random.Random(808)
        for _ in range(40):
            V1 = random_seifert_matrix(rng, rng.randint(1, 2))
            V2 = random_seifert_matrix(rng, rng.randint(1, 2))
            assert alexander(connected_sum(V1, V2)) == (
                alexander(V1) * alexander(V2)
            ).normalized()


class TestSubstitution:
    def test_examples(self):
        assert substitute_t_squared(TREFOIL_DELTA) == LaurentPoly({2: 1, 0: -1, -2: 1})
        assert substitute_t_squared(LaurentPoly.one()) == LaurentPoly.one()
        assert substitute_t_squared(LaurentPoly({1: -1, 0: 3, -1: -1})) == LaurentPoly(
            {2: -1, 0: 3, -2: -1}
        )

    def test_ring_homomorphism(self):
        rng = random.Random(55)
        for _ in range(60):
            p = LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})
            q = LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})
            assert substitute_t_squared(p + q) == substitute_t_squared(p) + substitute_t_squared(q)
            assert substitute_t_squared(p * q) == substitute_t_squared(p) * substitute_t_squared(q)

    def test_power_zero_evaluates_at_one(self):
        # t -> t^0 sends every term to t^0: figure-eight t - 3 + t^-1 once gave 1, not Delta(1) = -1
        assert FIG8_DELTA.substitute_power(0) == LaurentPoly({0: -1})
        assert TREFOIL_DELTA.substitute_power(0) == LaurentPoly.one()
        assert LaurentPoly({1: 1, -1: -1}).substitute_power(0).is_zero
        rng = random.Random(56)
        for _ in range(60):
            p = LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})
            assert p.substitute_power(0) == LaurentPoly({0: p.evaluate_at_one()})

    def test_power_minus_one_mirrors(self):
        assert LaurentPoly({2: 1, 1: -1, 0: 4}).substitute_power(-1) == LaurentPoly({-2: 1, -1: -1, 0: 4})
        assert FIG8_DELTA.substitute_power(-1) == FIG8_DELTA
        rng = random.Random(57)
        for _ in range(60):
            p = LaurentPoly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})
            assert p.substitute_power(-1).substitute_power(-1) == p
            assert p.substitute_power(-1) == LaurentPoly({-e: c for e, c in p.items()})


class TestFamilies:
    def test_demo_family_genus_two(self):
        fam = demo_family(2)
        assert len(fam) == 5
        report = family_report(fam, 2)
        assert not report.genus_failures and not report.fibered_failures
        assert len(set(report.deltas)) == 5

    def test_demo_family_higher_genus(self):
        for k in (3, 4):
            report = family_report(demo_family(k), k)
            assert not report.genus_failures and not report.fibered_failures
            assert len(set(report.deltas)) == 5

    def test_demo_family_needs_genus_two(self):
        with pytest.raises(ValueError):
            demo_family(1)

    def test_sum_pair_distinct(self):
        fam = [connected_sum(TREFOIL, TREFOIL), connected_sum(TREFOIL, FIGURE_EIGHT)]
        report = family_report(fam, 2)
        assert not report.genus_failures and not report.fibered_failures
        assert report.deltas[0] != report.deltas[1]

    def test_duplicate_collision(self):
        # the gate passes a duplicate; the report's distinguisher check fails it
        # (tests/test_reports.py::TestThm44::test_duplicate_family_fails_verdict)
        report = family_report([TREFOIL, TREFOIL], 1)
        assert not report.genus_failures and not report.fibered_failures
        assert report.deltas[0] == report.deltas[1]

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            family_report([], 2)

    def test_genus_gate(self):
        report = family_report([TREFOIL], 2)
        assert report.genus_failures
        assert report.genus_failures == ("trefoil",)

    def test_family_file_roundtrip(self):
        fam = demo_family(2)
        text = json.dumps([V.to_dict() for V in fam])
        again = load_family(text)
        assert [V.name for V in again] == [V.name for V in fam]
        assert all(a == b for a, b in zip(again, fam))
