import json
import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from steincalc.plumbing import (
    PlumbingGraph,
    boundary_homology,
    star_graph_left,
    star_graph_right,
)
from steincalc.seifert import (
    AmbiguousCenterError,
    OpenBookDesc,
    SeifertData,
    canonical_contact_flag,
    is_singularity_link,
    negative_continued_fraction,
    openbook_homology,
    openbook_manifold,
    star_to_seifert,
)


class TestContinuedFraction:
    def test_values(self):
        assert negative_continued_fraction([2]) == 2
        assert negative_continued_fraction([2, 2]) == Fraction(3, 2)
        assert negative_continued_fraction([3, 2]) == Fraction(5, 2)
        assert negative_continued_fraction([2, 2, 2]) == Fraction(4, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            negative_continued_fraction([])


class TestStarToSeifert:
    def test_single_leg(self):
        for h in (0, 1, 3):
            sd = star_to_seifert(star_graph_right(h, (2,)))
            assert sd == SeifertData(h, -1, ((2, 1),))
            assert sd.euler_number == Fraction(-1, 2)

    def test_two_legs(self):
        sd = star_to_seifert(star_graph_right(1, (2, 3)))
        assert sd == SeifertData(1, -2, ((2, 1), (3, 2)))
        assert sd.euler_number == Fraction(-5, 6)

    def test_bare_vertex(self):
        sd = star_to_seifert(PlumbingGraph([(0, -1, 0)], []))
        assert sd == SeifertData(0, -1, ())
        assert sd.euler_number == -1

    def test_heavy_leg_rejected(self):
        G = PlumbingGraph([(0, -2, 0), (1, -1, 0)], [(0, 1)])
        with pytest.raises(ValueError, match="reduce"):
            star_to_seifert(G, center=0)

    def test_non_star_rejected(self):
        # two branch vertices
        G = PlumbingGraph(
            [(0, -2, 0), (1, -2, 0), (2, -2, 0), (3, -2, 0), (4, -2, 0), (5, -2, 0)],
            [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)],
        )
        with pytest.raises(ValueError, match="star"):
            star_to_seifert(G)

    def test_ambiguous_path_needs_center(self):
        G = star_graph_right(0, (2, 2))  # all-(-2) path of length 3
        with pytest.raises(AmbiguousCenterError):
            star_to_seifert(G)
        sd = star_to_seifert(G, center=0)
        assert sd == SeifertData(0, -2, ((2, 1), (2, 1)))

    def test_center_inference_by_genus(self):
        sd = star_to_seifert(star_graph_right(2, (2, 2)))
        assert sd.base_genus == 2

    def test_center_inference_by_weight(self):
        sd = star_to_seifert(star_graph_right(0, (4,)))
        assert sd == SeifertData(0, -1, ((4, 3),))


class TestEulerNumber:
    def test_single_leg(self):
        assert star_to_seifert(star_graph_right(0, (2,))).euler_number == Fraction(-1, 2)

    def test_reciprocal_sum_identity(self):
        for r in (1, 2, 3):
            for ps in product(range(2, 8), repeat=r):
                sd = star_to_seifert(star_graph_right(0, ps), center=0)
                assert sd.euler_number == -sum(Fraction(1, p) for p in ps)

    def test_no_legs(self):
        assert SeifertData(1, 0, ()).euler_number == 0


class TestSingularityLink:
    def test_negative(self):
        assert is_singularity_link(star_to_seifert(star_graph_right(1, (2,))))

    def test_zero(self):
        assert not is_singularity_link(SeifertData(2, 0, ()))

    def test_positive(self):
        assert not is_singularity_link(SeifertData(2, 1, ()))


class TestContactFlag:
    def test_negative_euler(self):
        flags = canonical_contact_flag(star_to_seifert(star_graph_right(3, (2,))))
        assert flags.milnor_fillable and flags.unique_transverse_invariant_class

    def test_zero_euler(self):
        flags = canonical_contact_flag(SeifertData(1, 0, ()))
        assert not flags.milnor_fillable and not flags.unique_transverse_invariant_class

    def test_five_sixths(self):
        sd = star_to_seifert(star_graph_right(0, (2, 3)), center=0)
        assert sd.euler_number == Fraction(-5, 6)
        assert canonical_contact_flag(sd).milnor_fillable


class TestOpenBook:
    def test_manifold_single(self):
        assert openbook_manifold(OpenBookDesc(2, (2,))) == SeifertData(2, -1, ((2, 1),))

    def test_manifold_pair(self):
        sd = openbook_manifold(OpenBookDesc(1, (2, 3)))
        assert sd == SeifertData(1, -2, ((2, 1), (3, 2)))
        assert sd.euler_number == Fraction(-5, 6)

    def test_unit_power(self):
        sd = openbook_manifold(OpenBookDesc(0, (1,)))
        assert sd == SeifertData(0, -1, ())
        assert sd.euler_number == -1
        # the plumbing route: SNF of [[0,1],[1,1]] is trivial
        assert boundary_homology(star_graph_left(0, (1,))) == (0, ())
        assert openbook_homology(OpenBookDesc(0, (1,))) == (0, ())

    def test_homology_single(self):
        for h in (0, 1, 3):
            assert openbook_homology(OpenBookDesc(h, (2,))) == (2 * h, ())

    def test_homology_two_twos(self):
        assert openbook_homology(OpenBookDesc(0, (2, 2))) == (0, (4,))

    def test_validation(self):
        with pytest.raises(ValueError):
            OpenBookDesc(1, ())
        with pytest.raises(ValueError):
            OpenBookDesc(1, (0,))

    @pytest.mark.parametrize(
        "genus, powers", [(2.5, (2, 3)), (2, (2.7, 3)), (1, (3.0,)), (1, (True,)), (1, (None,)), (1, ("3",))]
    )
    def test_non_integer_rejected(self, genus, powers):
        with pytest.raises(ValueError, match="not an integer"):
            OpenBookDesc(genus, powers)

    def test_json_roundtrip(self):
        # the open_book object that `seifert open-book` prints rebuilds the description
        ob = OpenBookDesc(2, (2, 3, 5))
        assert OpenBookDesc(**json.loads(json.dumps(ob.to_dict()))) == ob


class TestCrossChecks:
    """Open book vs both plumbing presentations on a medium sweep."""

    def test_three_route_agreement(self):
        for h in range(0, 3):
            for r in (1, 2):
                for ps in product((2, 3, 5), repeat=r):
                    ob = OpenBookDesc(h, ps)
                    sd_ob = openbook_manifold(ob)
                    sd_star = star_to_seifert(star_graph_right(h, ps), center=0)
                    assert sd_ob == sd_star
                    hom = openbook_homology(ob)
                    assert hom == boundary_homology(star_graph_left(h, ps))
                    assert hom == boundary_homology(star_graph_right(h, ps))
                    assert sd_ob.euler_number < 0


    def test_many_fiber_stars_in_under_a_second(self):
        # e = -(1/p_1 + ... + 1/p_r) on the reduced star, so the torsion
        # order |e| * prod p_i is sum_i prod_{j != i} p_j (Orlik)
        rng = random.Random(20)
        for legs in (12, 20):
            for _ in range(5):
                ps = tuple(rng.randint(2, 9) for _ in range(legs))
                start = time.perf_counter()
                rank, torsion = boundary_homology(star_graph_right(1, ps))
                assert time.perf_counter() - start < 1.0
                assert (rank, torsion) == openbook_homology(OpenBookDesc(1, ps))
                assert rank == 2
                assert math.prod(torsion) == sum(math.prod(ps) // p for p in ps)


class TestSeifertDataValidation:
    def test_bad_leg(self):
        with pytest.raises(ValueError):
            SeifertData(0, -1, ((2, 2),))
        with pytest.raises(ValueError):
            SeifertData(0, -1, ((1, 0),))

    @pytest.mark.parametrize(
        "base_genus, e0, legs",
        [
            (0.5, -1, ()),
            (True, -1, ()),
            (0, -1.0, ()),
            (0, False, ()),
            (0, -1, ((3, 1.5),)),
            (0, -1, ((3.0, 1),)),
            (0, -1, ((2, True),)),
        ],
    )
    def test_non_integer_rejected(self, base_genus, e0, legs):
        with pytest.raises(ValueError, match="not an integer"):
            SeifertData(base_genus, e0, legs)

    def test_euler_number_recomputes(self):
        sd = SeifertData(2, -3, ((5, 2), (3, 1)))
        assert sd.euler_number == -3 + Fraction(2, 5) + Fraction(1, 3)
