import random
from fractions import Fraction

import pytest
from oracles import random_seifert_matrix

from steincalc.knots import FIGURE_EIGHT, TREFOIL, UNKNOT, LaurentPoly, alexander, connected_sum, demo_family
from steincalc.mcg import hyperelliptic_word, korkmaz_word, lf_euler_characteristic
from steincalc.seifert import SeifertData
from steincalc.smooth4 import (
    PI1_PRODUCT_SURFACE,
    PI1_TRIVIAL,
    PI1_UNKNOWN,
    PI1_Z_PLUS_ZN,
    ManifoldRecord,
    Pi1Tag,
    distinguisher_distinct,
    excise_fillings,
    fiber_sum,
    knot_surgery,
    make_W,
    make_X_g1,
)

GENUS2 = connected_sum(TREFOIL, TREFOIL)


NON_INTEGERS = [2.0, 2.5, True, None, "2"]


class TestIntegerParameters:
    @pytest.mark.parametrize("bad", NON_INTEGERS)
    @pytest.mark.parametrize(
        "build",
        [
            make_X_g1,
            make_W,
            lambda x: excise_fillings([fiber_sum(make_X_g1(2), make_X_g1(2))], x),
            hyperelliptic_word,
            korkmaz_word,
            lambda x: lf_euler_characteristic(x, 3),
            lambda x: lf_euler_characteristic(2, x),
        ],
        ids=["make_X_g1", "make_W", "excise_filling-r", "hyperelliptic_word", "korkmaz_word", "lf-chi-g", "lf-chi-n"],
    )
    def test_non_integer_parameter_rejected(self, build, bad):
        with pytest.raises(ValueError, match="not an integer"):
            build(bad)

    @pytest.mark.parametrize("bad", [x for x in NON_INTEGERS if x is not None])  # None: the untwisted sum
    def test_non_integer_twist_rejected(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            fiber_sum(make_W(1), make_W(1), twist=bad)

    @pytest.mark.parametrize("bad", [x for x in NON_INTEGERS if x is not None])  # None: no parameter
    def test_non_integer_pi1_parameter_rejected(self, bad):
        with pytest.raises(ValueError, match="not an integer"):
            Pi1Tag(PI1_Z_PLUS_ZN, bad)


class TestBaseRecords:
    def test_X_g1_values(self):
        rec = make_X_g1(2)
        assert (rec.euler_char, rec.signature) == (16, -12)
        assert rec.fiber_genus == 2
        assert rec.sections == ((-1, 12),)
        assert rec.pi1.kind == PI1_TRIVIAL
        assert rec.sw_distinguisher == LaurentPoly.one()

    def test_X_g1_genus_one(self):
        assert (make_X_g1(1).euler_char, make_X_g1(1).signature) == (12, -8)

    def test_X_chi_double_count(self):
        for g in range(1, 6):
            assert make_X_g1(g).euler_char == lf_euler_characteristic(g, 8 * g + 4)

    def test_W_values(self):
        rec = make_W(1)
        assert (rec.euler_char, rec.signature) == (8, -8)
        assert rec.fiber_genus == 3
        assert rec.pi1.kind == PI1_PRODUCT_SURFACE and rec.pi1.param == 1
        rec = make_W(2)
        assert (rec.euler_char, rec.signature) == (4, -8)
        assert rec.fiber_genus == 5

    def test_W_chi_double_count(self):
        for m in range(1, 5):
            g = 2 * m + 1
            assert make_W(m).euler_char == lf_euler_characteristic(g, 2 * g + 10)


class TestFiberSum:
    def test_untwisted_double(self):
        for g in (2, 3):
            X2 = fiber_sum(make_X_g1(g), make_X_g1(g))
            assert (X2.euler_char, X2.signature) == (12 * g + 12, -8 * g - 8)
            assert X2.sections == ((-2, 4 * g + 4),)
            assert X2.fiber_genus == g
            assert X2.pi1.kind == PI1_UNKNOWN
            assert X2.sw_distinguisher == LaurentPoly.one()

    def test_twisted_double(self):
        for m in (1, 2, 3, 4):
            for n in (1, 3):
                Wn = fiber_sum(make_W(m), make_W(m), twist=n)
                assert (Wn.euler_char, Wn.signature) == (24, -16)
                assert Wn.fiber_genus == 2 * m + 1
                assert Wn.sections == ((-2, 2),)
                assert Wn.pi1.kind == PI1_Z_PLUS_ZN and Wn.pi1.param == n
                assert Wn.pi1.citation is not None

    def test_torus_fiber_adds_chi(self):
        X2 = fiber_sum(make_X_g1(1), make_X_g1(1))
        assert X2.euler_char == 2 * make_X_g1(1).euler_char

    def test_genus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fiber_sum(make_X_g1(1), make_X_g1(2))

    def test_commutative_and_associative_in_chi_sigma(self):
        a, b, c = make_X_g1(2), make_W(1), make_W(1)
        b = fiber_sum(b, c)  # genus 3
        a3 = make_X_g1(3)
        ab = fiber_sum(a3, b)
        ba = fiber_sum(b, a3)
        assert (ab.euler_char, ab.signature) == (ba.euler_char, ba.signature)
        w = make_W(1)
        left = fiber_sum(fiber_sum(a3, w), w)
        right = fiber_sum(a3, fiber_sum(w, w))
        assert (left.euler_char, left.signature) == (right.euler_char, right.signature)

    def test_twisted_sum_of_non_W_stays_unknown(self):
        Xn = fiber_sum(make_X_g1(2), make_X_g1(2), twist=2)
        assert Xn.pi1.kind == PI1_UNKNOWN


class TestKnotSurgery:
    def test_requires_fiber_sum(self):
        with pytest.raises(ValueError):
            knot_surgery(make_X_g1(2), TREFOIL, alexander(TREFOIL))

    def test_unknot_only_renames(self):
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        M = knot_surgery(X2, UNKNOT, alexander(UNKNOT))
        assert (M.euler_char, M.signature) == (36, -24)
        assert M.fiber_genus == X2.fiber_genus
        assert M.sw_distinguisher == LaurentPoly.one()
        assert M.sections == X2.sections

    def test_trefoil_on_double(self):
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        M = knot_surgery(X2, TREFOIL, alexander(TREFOIL))
        assert (M.euler_char, M.signature) == (36, -24)
        assert M.fiber_genus == 4
        assert M.sw_distinguisher == LaurentPoly({2: 1, 0: -1, -2: 1})

    def test_genus_two_knot(self):
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        assert knot_surgery(X2, GENUS2, alexander(GENUS2)).fiber_genus == 6

    def test_null_homotopic_flag(self):
        Wn = fiber_sum(make_W(1), make_W(1), twist=5)
        assert knot_surgery(Wn, TREFOIL, alexander(TREFOIL), torus_null_homotopic=True).pi1.kind == PI1_Z_PLUS_ZN
        assert knot_surgery(Wn, TREFOIL, alexander(TREFOIL), torus_null_homotopic=False).pi1.kind == PI1_UNKNOWN

    def test_composition_multiplies(self):
        rng = random.Random(606)
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        for _ in range(30):
            K1 = random_seifert_matrix(rng, rng.randint(1, 2))
            K2 = random_seifert_matrix(rng, rng.randint(1, 2))
            M = knot_surgery(knot_surgery(X2, K1, alexander(K1)), K2, alexander(K2))
            assert (M.euler_char, M.signature) == (36, -24)
            want = (
                alexander(K1).substitute_power(2) * alexander(K2).substitute_power(2)
            ).normalized()
            assert M.sw_distinguisher == want


class TestExciseFilling:
    def pipeline(self, g, k_matrix, r):
        X2 = fiber_sum(make_X_g1(g), make_X_g1(g))
        return excise_fillings([knot_surgery(X2, k_matrix, alexander(k_matrix))], r)[0]

    def test_reference_instance(self):
        # g = 2, genus-2 knot, r = 1: chi = 36 - (2 - 12) - 1 = 45, sigma unchanged
        V = self.pipeline(2, GENUS2, 1)
        assert (V.euler_char, V.signature) == (45, -24)
        assert V.boundary == SeifertData(6, -1, ((2, 1),))
        assert V.boundary.euler_number == Fraction(-1, 2)
        assert V.stein_flag
        assert V.simply_connected is True
        assert V.pi1.kind == PI1_TRIVIAL
        assert V.det_intersection_form == 0

    def test_fiber_only_rejected(self):
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        with pytest.raises(ValueError, match="r must be >= 1"):
            excise_fillings([X2], 0)

    def test_twisted_pipeline_boundary(self):
        for m, k_mat in ((1, GENUS2), (2, GENUS2)):
            Wn = fiber_sum(make_W(m), make_W(m), twist=4)
            [V] = excise_fillings([knot_surgery(Wn, k_mat, alexander(k_mat))], 1)
            h = 2 * (m + 2) + 1
            assert V.boundary == SeifertData(h, -1, ((2, 1),))
            assert V.pi1.kind == PI1_Z_PLUS_ZN
            assert V.simply_connected is False

    def test_too_few_sections(self):
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        with pytest.raises(ValueError, match="retained"):
            excise_fillings([X2], 12)  # only 12 sections: r = 12 keeps none

    def test_sections_retained_count(self):
        V = self.pipeline(2, GENUS2, 3)
        assert V.sections == ((-2, 9),)

    def test_constant_across_family(self):
        fam = demo_family(2)
        values = set()
        for K in fam:
            V = self.pipeline(2, K, 1)
            values.add((V.euler_char, V.signature, V.boundary))
        assert len(values) == 1

    def test_negative_r_rejected(self):
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        with pytest.raises(ValueError):
            excise_fillings([X2], -1)

    def test_mixed_section_squares_rejected(self):
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        mixed = ManifoldRecord(
            X2.name, X2.euler_char, X2.signature, X2.fiber_genus, ((-2, 3), (-1, 3)), X2.pi1, X2.sw_distinguisher, X2.provenance
        )
        with pytest.raises(ValueError, match="mixed"):
            excise_fillings([mixed], 1)

    def test_stein_flag_only_after_excision(self):
        V = self.pipeline(2, GENUS2, 1)
        assert V.provenance[-1]["op"] == "excise_filling"
        assert V.stein_flag

    def test_surgery_step_records_the_knot_name(self):
        V = self.pipeline(2, GENUS2, 1)
        assert V.provenance[-2] == {"op": "knot_surgery", "knot": GENUS2.name, "torus_null_homotopic": True}

    def test_det_flag_needs_positive_boundary_rank(self):
        # genus-0 pages give lens-space-like boundaries with finite H1: no det claim
        X2 = fiber_sum(make_X_g1(2), make_X_g1(2))
        squashed = ManifoldRecord(
            X2.name, X2.euler_char, X2.signature, 0, X2.sections, X2.pi1, X2.sw_distinguisher, X2.provenance
        )
        [V] = excise_fillings([squashed], 1)
        assert V.det_intersection_form is None


class TestExciseFillings:
    DOUBLES = {
        "X(2,2)": lambda: fiber_sum(make_X_g1(2), make_X_g1(2)),
        "X(3,2)": lambda: fiber_sum(make_X_g1(3), make_X_g1(3)),
        "W_3(1)": lambda: fiber_sum(make_W(1), make_W(1), twist=3),
    }

    def surgered(self, double, k):
        return [knot_surgery(self.DOUBLES[double](), V, alexander(V)) for V in demo_family(k)]

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("double", sorted(DOUBLES))
    def test_equal_to_one_at_a_time_excision(self, double, k):
        records = self.surgered(double, k)
        for r in range(1, min(3, records[0].sections[0][1])):  # W_3(1) has two sections, so r = 1 only
            assert excise_fillings(records, r) == [excise_fillings([M], r)[0] for M in records]

    def test_empty_list_excises_nothing(self):
        assert excise_fillings([], 1) == []

    @pytest.mark.parametrize("bad_at", [0, 2, 4])
    def test_mixed_section_squares_rejected_for_each_record(self, bad_at):
        records = self.surgered("X(2,2)", 2)
        M = records[bad_at]
        records[bad_at] = ManifoldRecord(
            M.name, M.euler_char, M.signature, M.fiber_genus, ((-2, 3), (-1, 3)), M.pi1, M.sw_distinguisher, M.provenance
        )
        with pytest.raises(ValueError, match="mixed"):
            excise_fillings(records, 1)

    @pytest.mark.parametrize("bad_at", [0, 2, 4])
    def test_too_few_sections_rejected_for_each_record(self, bad_at):
        records = self.surgered("X(2,2)", 2)
        M = records[bad_at]
        records[bad_at] = ManifoldRecord(
            M.name, M.euler_char, M.signature, M.fiber_genus, ((-2, 2),), M.pi1, M.sw_distinguisher, M.provenance
        )
        with pytest.raises(ValueError, match="retained"):
            excise_fillings(records, 2)
        assert len(excise_fillings(records, 1)) == len(records)


class TestDistinguishers:
    def double(self):
        return fiber_sum(make_X_g1(2), make_X_g1(2))

    def test_distinct_pair(self):
        X2 = self.double()
        fam = [knot_surgery(X2, TREFOIL, alexander(TREFOIL)), knot_surgery(X2, FIGURE_EIGHT, alexander(FIGURE_EIGHT))]
        rep = distinguisher_distinct(fam)
        assert rep.all_distinct and rep.pairs_total == 1
        assert "non-diffeomorphic" in rep.verdict

    def test_collision(self):
        X2 = self.double()
        fam = [knot_surgery(X2, TREFOIL, alexander(TREFOIL)), knot_surgery(X2, TREFOIL, alexander(TREFOIL))]
        rep = distinguisher_distinct(fam)
        assert not rep.all_distinct
        assert len(rep.collisions) == 1

    def test_unknot_vs_trefoil(self):
        X2 = self.double()
        fam = [knot_surgery(X2, UNKNOT, alexander(UNKNOT)), knot_surgery(X2, TREFOIL, alexander(TREFOIL))]
        assert distinguisher_distinct(fam).all_distinct

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distinguisher_distinct([])

