import random
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from polytnn import (
    FVector,
    GVector,
    HVector,
    euler_check,
    f_to_g,
    f_to_h,
    g_to_f,
    h_to_g,
    is_m_sequence,
    is_polytopal,
)
from oracles import binomial_sum_h, face_counts, mcmullen_product

# boundary complexes of three small 3-polytopes, given by their facets;
# the face counts below are derived by subset counting, not by transforms
TETRAHEDRON = list(combinations(range(4), 3))
OCTAHEDRON = [
    # vertices 0-5 with 0/1, 2/3, 4/5 the antipodal pairs
    (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
]
TRIANGLE_BIPYRAMID = [
    (0, 1, 3), (1, 2, 3), (0, 2, 3),
    (0, 1, 4), (1, 2, 4), (0, 2, 4),
]


class TestFaceCountOracles:
    def test_tetrahedron(self):
        assert face_counts(TETRAHEDRON) == (4, 6, 4)

    def test_octahedron(self):
        assert face_counts(OCTAHEDRON) == (6, 12, 8)

    def test_bipyramid(self):
        assert face_counts(TRIANGLE_BIPYRAMID) == (5, 9, 6)


class TestTransforms:
    def test_tetrahedron_h_and_g(self):
        f = FVector(3, face_counts(TETRAHEDRON))
        assert f_to_h(f).values == (1, 1, 1, 1)
        assert f_to_g(f).values == (1, 0)

    def test_octahedron_h_and_g(self):
        f = FVector(3, face_counts(OCTAHEDRON))
        assert f_to_h(f).values == (1, 3, 3, 1)
        assert f_to_g(f).values == (1, 2)

    def test_bipyramid_g(self):
        f = FVector(3, face_counts(TRIANGLE_BIPYRAMID))
        assert f_to_g(f).values == (1, 1)

    def test_g_to_f_octahedron(self):
        assert g_to_f(GVector(3, (1, 2))).counts == (6, 12, 8)

    def test_round_trip_on_real_polytopes(self):
        for facets, d in ((TETRAHEDRON, 3), (OCTAHEDRON, 3), (TRIANGLE_BIPYRAMID, 3)):
            f = FVector(d, face_counts(facets))
            assert g_to_f(f_to_g(f)) == f

    def test_augmented_form_prepends_one(self):
        g = GVector(3, (1, 2))
        assert g_to_f(g, augmented=True) == (1, 6, 12, 8)

    def test_augmented_first_entry_echoes_leading_value(self):
        # column 0 of the augmented matrix is a unit vector, so the first
        # output coordinate reproduces g_0 whatever it is
        for d in range(1, 9):
            size = d // 2 + 1
            for tail in product(range(4), repeat=size - 1):
                for lead in (1, 2):
                    g = GVector(d, (lead,) + tail)
                    aug = g_to_f(g, augmented=True)
                    assert aug[0] == lead
                    if lead == 1:
                        assert aug[1:] == g_to_f(g).counts

    def test_image_satisfies_euler(self):
        # the alternating-sum cancellation is baked into the matrix, so it
        # holds for every starting vector with leading entry 1, not just
        # for those passing the full feasibility test
        for d in range(1, 13):
            size = d // 2 + 1
            for tail in product(range(6), repeat=size - 1):
                assert euler_check(g_to_f(GVector(d, (1,) + tail)))

    def test_g1_recovered_from_image_counts_surplus_vertices(self):
        for d in range(2, 13):
            size = d // 2 + 1
            for tail in product(range(3), repeat=size - 1):
                f = g_to_f(GVector(d, (1,) + tail))
                assert f_to_g(f).values[1] == f.counts[0] - d - 1

    def test_h_palindrome_for_polytopes(self):
        # Dehn-Sommerville: boundary h-vectors read the same both ways
        for facets in (TETRAHEDRON, OCTAHEDRON, TRIANGLE_BIPYRAMID):
            h = f_to_h(FVector(3, face_counts(facets))).values
            assert h == h[::-1]

    def test_h_to_g_is_differencing(self):
        h = HVector(4, (1, 3, 5, 3, 1))
        assert h_to_g(h).values == (1, 2, 2)

    def test_g1_counts_vertices_beyond_simplex(self):
        # boundary of the d-simplex: d+1 vertices, f_j = C(d+1, j+1)
        for d in range(2, 9):
            simplex = tuple(
                sum(1 for s in combinations(range(d + 1), j + 1))
                for j in range(d)
            )
            g = f_to_g(FVector(d, simplex))
            assert g.values[1] == simplex[0] - d - 1 == 0

    def test_g0_is_always_one(self):
        # h_0 = 1 for every f, so the leading g entry can never differ
        for counts in ((4, 6, 4), (9, 9, 9), (3, 3, 2), (100, 300, 17)):
            assert f_to_g(FVector(3, counts)).values[0] == 1


def assert_matches_definitions(d, counts, g):
    """f_to_h against the binomial sum; g_to_f, plain and augmented, against g . W.

    Where the product has a face count below 1, g_to_f must refuse it with
    the same ValueError that FVector raises for the product's counts."""
    assert f_to_h(FVector(d, counts)).values == binomial_sum_h(d, counts)
    raw = mcmullen_product(d, g)
    assert g_to_f(GVector(d, g), augmented=True) == raw
    try:
        want = FVector(d, raw[1:])
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            g_to_f(GVector(d, g))
        assert str(got.value) == str(exc)
    else:
        assert g_to_f(GVector(d, g)) == want


class TestHornerAgainstDefinitions:
    def test_every_dimension_up_to_60(self):
        r = random.Random(26)
        for d in range(1, 61):
            half = d // 2 + 1
            simplex = tuple(comb(d + 1, j + 1) for j in range(d))
            assert_matches_definitions(d, simplex, (1,) + (0,) * (half - 1))
            counts = tuple(r.randint(1, 10**6) for _ in range(d))
            assert_matches_definitions(d, counts, tuple(r.randint(-(10**6), 10**6) for _ in range(half)))
            assert_matches_definitions(d, counts, tuple(r.randint(0, 10**6) for _ in range(half)))

    def test_face_count_below_one_is_refused_like_the_product(self):
        # g . W at d = 3 is (1, 4 + g_1, 6 + 3 g_1, 4 + 2 g_1): f_0 = 0 for g_1 = -4
        assert mcmullen_product(3, (1, -4)) == (1, 0, -6, -4)
        with pytest.raises(ValueError, match="FVector: face counts must be integers >= 1, got 0"):
            g_to_f(GVector(3, (1, -4)))
        assert_matches_definitions(3, (4, 6, 4), (1, -4))

    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_random_vectors(self, d, data):
        # face counts must be >= 1 to make an FVector; g entries may have either sign
        counts = data.draw(st.lists(st.integers(1, 10**6), min_size=d, max_size=d))
        g = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=d // 2 + 1, max_size=d // 2 + 1))
        assert_matches_definitions(d, tuple(counts), tuple(g))


class TestEulerCheck:
    def test_polytopes_pass(self):
        for facets in (TETRAHEDRON, OCTAHEDRON, TRIANGLE_BIPYRAMID):
            assert euler_check(FVector(3, face_counts(facets)))

    def test_off_by_one_fails(self):
        assert not euler_check(FVector(3, (4, 6, 5)))

    def test_even_dimension(self):
        # boundary of the 4-simplex: 5 vertices
        f = tuple(
            sum(1 for s in combinations(range(5), j + 1)) for j in range(4)
        )
        assert f == (5, 10, 10, 5)
        assert euler_check(FVector(4, f))
        assert not euler_check(FVector(4, (5, 10, 10, 6)))

    def test_segment(self):
        assert euler_check(FVector(1, (2,)))
        assert not euler_check(FVector(1, (3,)))


class TestIsPolytopal:
    def test_real_polytopes_pass(self):
        for facets in (TETRAHEDRON, OCTAHEDRON, TRIANGLE_BIPYRAMID):
            verdict = is_polytopal(FVector(3, face_counts(facets)))
            assert verdict
            assert verdict.failed_condition is None

    def test_euler_failure(self):
        verdict = is_polytopal(FVector(3, (4, 6, 5)))
        assert not verdict
        assert verdict.failed_condition == "euler"

    def test_negative_g_failure(self):
        # Euler holds but there are too few vertices for dimension 3
        verdict = is_polytopal(FVector(3, (3, 3, 2)))
        assert not verdict
        assert verdict.failed_condition == "nonneg"

    def test_msequence_failure_carries_witness(self):
        # g = (1, 2, 4) is not an M-sequence; pushing it through the
        # transfer matrix gives an f that passes every earlier condition
        f = g_to_f(GVector(4, (1, 2, 4)))
        assert f.counts == (7, 22, 30, 15)
        verdict = is_polytopal(f)
        assert not verdict
        assert verdict.failed_condition == "msequence"
        assert verdict.witness is not None
        assert verdict.witness.k == 2
        assert verdict.witness.boundary_value == 3
        assert verdict.witness.bound == 2

    def test_msequence_failure_with_zero_bound(self):
        # g = (1, 0, 2) jumps from 0 straight to 2, which no multicomplex
        # allows; the second-level boundary of 2 is 2 against a bound of 0
        f = g_to_f(GVector(5, (1, 0, 2)))
        assert f.counts == (6, 17, 28, 25, 10)
        verdict = is_polytopal(f)
        assert not verdict
        assert verdict.failed_condition == "msequence"
        assert verdict.witness is not None
        assert verdict.witness.k == 2
        assert verdict.witness.boundary_value == 2
        assert verdict.witness.bound == 0

    def test_reconstruction_failure(self):
        # passes Euler, nonnegativity, and the M-test, but no g maps to it:
        # the transform forgets f_1 in dimension 3 and the round trip
        # exposes the mismatch
        verdict = is_polytopal(FVector(3, (4, 7, 5)))
        assert not verdict
        assert verdict.failed_condition == "reconstruction"

    def test_verdict_json_shape(self):
        verdict = is_polytopal(FVector(3, (6, 12, 8)))
        assert verdict.to_json_obj() == {
            "pass": True,
            "d": 3,
            "n": 6,
            "g": [1, 2],
            "failed_condition": None,
            "witness": None,
        }

    def test_failed_verdict_json_carries_witness(self):
        f = g_to_f(GVector(4, (1, 2, 4)))
        obj = is_polytopal(f).to_json_obj()
        assert obj["pass"] is False
        assert obj["failed_condition"] == "msequence"
        assert obj["witness"] == {"k": 2, "boundary": 3, "bound": 2}

    def test_cross_polytopes(self):
        # hyperoctahedra in each dimension: f_j = 2^(j+1) C(d, j+1)
        for d in range(2, 10):
            counts = tuple(
                2 ** (j + 1) * sum(1 for s in combinations(range(d), j + 1))
                for j in range(d)
            )
            assert is_polytopal(FVector(d, counts)), (d, counts)


class TestValidation:
    def test_f_vector_length_checked(self):
        with pytest.raises(ValueError, match="3"):
            FVector(3, (4, 6))

    def test_f_vector_positive_entries(self):
        with pytest.raises(ValueError):
            FVector(2, (0, 3))

    def test_f_vector_bool_rejected(self):
        # bool is an int subclass; ExactMatrix refuses it as an entry too
        with pytest.raises(ValueError, match="True"):
            FVector(2, (True, True))
        with pytest.raises(ValueError):
            FVector(3, (4, 6, True))

    def test_g_vector_length_checked(self):
        with pytest.raises(ValueError, match="3"):
            GVector(4, (1, 2))

    def test_h_vector_length_checked(self):
        with pytest.raises(ValueError):
            HVector(3, (1, 1, 1))

    def test_g_and_h_entries_are_ints_not_bools(self):
        with pytest.raises(ValueError, match=r"GVector: entries must be integers, got 1\.5"):
            GVector(3, (1.5, "x"))
        with pytest.raises(ValueError, match="GVector: entries must be integers, got True"):
            g_to_f(GVector(3, (True, True)))
        with pytest.raises(ValueError, match="HVector: entries must be integers, got '1'"):
            HVector(1, (1, "1"))
        with pytest.raises(ValueError, match="HVector: entries must be integers, got False"):
            HVector(1, (1, False))

    def test_g_and_h_entries_may_be_negative(self):
        # f_to_g of a non-polytopal f can go negative; is_polytopal reports it
        assert GVector(3, (1, -2)).values == (1, -2)
        assert HVector(2, (1, -1, 0)).values == (1, -1, 0)
        verdict = is_polytopal(FVector(3, (3, 3, 2)))
        assert (verdict.failed_condition, verdict.g) == ("nonneg", GVector(3, (1, -1)))


@given(st.integers(1, 12), st.data())
def test_round_trip_property(d, data):
    size = d // 2 + 1
    values = [1] + [data.draw(st.integers(0, 6)) for _ in range(size - 1)]
    if not is_m_sequence(values):
        return
    g = GVector(d, tuple(values))
    f = g_to_f(g)
    assert f_to_g(f) == g
    assert euler_check(f)
