"""Property-based tests for resource-vector algebra."""

from collections.abc import Mapping

import pytest
from hypothesis import example, given, strategies as st

from repro.resources.vectors import ResourceVector, weighted_magnitude

amounts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
names = st.sampled_from(["memory", "cpu", "disk", "gpu"])
vectors = st.dictionaries(names, amounts, max_size=4).map(ResourceVector)


class TestAdditionAlgebra:
    @given(vectors, vectors)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(vectors, vectors, vectors)
    def test_addition_associative_approximately(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        for name in set(left.names()) | set(right.names()):
            assert left.get(name, 0.0) == pytest.approx(right.get(name, 0.0))

    @given(vectors)
    def test_zero_is_identity(self, a):
        assert a + ResourceVector() == a

    @given(vectors, vectors)
    def test_sum_dominates_parts(self, a, b):
        total = a + b
        assert a.fits_within(total)
        assert b.fits_within(total)


class TestFitsWithinOrder:
    @given(vectors)
    def test_reflexive(self, a):
        assert a.fits_within(a)

    @given(vectors, vectors, vectors)
    def test_transitive(self, a, b, c):
        if a.fits_within(b) and b.fits_within(c):
            assert a.fits_within(c)

    @given(vectors, vectors)
    def test_addition_monotone(self, a, b):
        # Adding demand never makes a vector fit where it did not.
        combined = a + b
        big = ResourceVector({name: 1e7 for name in combined.names()})
        assert combined.fits_within(big)
        if not a.fits_within(b + a):
            raise AssertionError("a must fit within a + b")

    @given(vectors, vectors)
    def test_subtraction_result_fits_original(self, a, b):
        assert (a - b).fits_within(a)


class TestWeightedMagnitude:
    @given(vectors, vectors)
    def test_additive_over_vectors(self, a, b):
        weights = {"memory": 0.5, "cpu": 0.3, "disk": 0.1, "gpu": 0.1}
        assert weighted_magnitude(a + b, weights) == pytest.approx(
            weighted_magnitude(a, weights) + weighted_magnitude(b, weights)
        )

    @given(vectors)
    def test_non_negative(self, a):
        assert weighted_magnitude(a) >= 0.0


# -- the trusted fast path against the reference formulas ---------------------
#
# The arithmetic builds its results without re-validating them. These
# reference copies evaluate each formula the way the validating
# constructor-based implementation did, on plain dicts, so the fast path
# can be held to exactly the same floats (``repr`` tells ``-0.0`` from
# ``0.0``; only the iteration order of the result may differ).

edge_amounts = st.one_of(
    st.floats(min_value=0.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e-300, 5e-324, 1e308]),
    st.integers(min_value=0, max_value=2**60),
)
edge_vectors = st.dictionaries(names, edge_amounts, max_size=4).map(ResourceVector)
factors = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.sampled_from([0, 1, 2, 0.0, -0.0, 0.5, 3.7]),
)

NEG_ZERO = ResourceVector(cpu=-0.0)
NEG_ZERO_BOTH = ResourceVector(memory=-0.0, cpu=-0.0)


def raw(vector):
    """The vector's contents via ``__iter__``/``__getitem__`` only."""
    return {name: vector[name] for name in vector}


def validated(amounts):
    """What the validating constructor stores for ``amounts``."""
    stored = {}
    for name, value in amounts.items():
        value = float(value)
        if value < 0:
            raise ValueError(f"resource amounts must be non-negative, got {name}={value}")
        stored[name] = value
    return stored


def ref_add(a, b):
    names_ = set(a) | set(b)
    return validated({n: a.get(n, 0.0) + b.get(n, 0.0) for n in names_})


def ref_sub(a, b):
    names_ = set(a) | set(b)
    return validated({n: max(0.0, a.get(n, 0.0) - b.get(n, 0.0)) for n in names_})


def ref_mul(a, factor):
    return validated({n: v * factor for n, v in a.items()})


def ref_scaled(a, scale):
    return validated({n: v * scale.get(n, 1.0) for n, v in a.items()})


def ref_sum(vectors_):
    total = {}
    for v in vectors_:
        total = ref_add(total, v)
    return total


def ref_fits_within(a, availability):
    for name, required in a.items():
        if required > 0 and required > availability.get(name, 0.0):
            return False
    return True


def assert_same_floats(result, expected):
    assert isinstance(result, ResourceVector)
    got = raw(result)
    assert set(got) == set(expected)
    for name, value in expected.items():
        assert type(got[name]) is float
        assert repr(got[name]) == repr(value), name


class TestTrustedArithmeticMatchesReference:
    @given(edge_vectors, edge_vectors)
    @example(ResourceVector(), NEG_ZERO)
    @example(NEG_ZERO, ResourceVector())
    @example(NEG_ZERO_BOTH, NEG_ZERO)
    def test_add(self, a, b):
        assert_same_floats(a + b, ref_add(raw(a), raw(b)))

    @given(edge_vectors, edge_vectors)
    @example(ResourceVector(), NEG_ZERO)
    @example(NEG_ZERO, ResourceVector())
    @example(ResourceVector(cpu=float("inf")), ResourceVector(cpu=float("inf")))
    def test_sub(self, a, b):
        assert_same_floats(a - b, ref_sub(raw(a), raw(b)))

    @given(edge_vectors, factors)
    def test_mul(self, a, factor):
        assert_same_floats(a * factor, ref_mul(raw(a), factor))
        assert_same_floats(factor * a, ref_mul(raw(a), factor))

    @given(edge_vectors, st.dictionaries(names, factors, max_size=4))
    def test_scaled(self, a, scale):
        assert_same_floats(a.scaled(scale), ref_scaled(raw(a), scale))

    @given(st.lists(edge_vectors, max_size=6))
    @example([NEG_ZERO])
    @example([NEG_ZERO_BOTH, NEG_ZERO, ResourceVector(memory=1.0)])
    def test_sum(self, parts):
        assert_same_floats(
            ResourceVector.sum(parts), ref_sum([raw(v) for v in parts])
        )

    @given(edge_vectors, edge_vectors)
    def test_fits_within(self, a, b):
        assert a.fits_within(b) == ref_fits_within(raw(a), raw(b))

    @given(edge_vectors, st.dictionaries(names, edge_amounts, max_size=4))
    def test_fits_within_plain_dict_availability(self, a, availability):
        assert a.fits_within(availability) == ref_fits_within(raw(a), availability)

    @given(edge_vectors, edge_vectors)
    def test_results_equal_and_hash_like_validated_vectors(self, a, b):
        for result in (a + b, a - b, a * 2, ResourceVector.sum([a, b])):
            rebuilt = ResourceVector(raw(result))
            assert result == rebuilt
            assert hash(result) == hash(rebuilt)


class TestResultOrderFollowsOperands:
    """Names come out in operand order, never in string-hash order.

    Callers fold vector items into running float totals, which are not
    associative, so a hash-seeded order would make costs differ in the
    last bit between processes.
    """

    @given(edge_vectors, edge_vectors)
    def test_add_and_sub(self, a, b):
        expected = list(a) + [n for n in b if n not in a]
        assert list(a + b) == expected
        assert list(a - b) == expected

    @given(st.lists(edge_vectors, max_size=5))
    def test_sum(self, parts):
        expected = []
        for part in parts:
            expected += [n for n in part if n not in expected]
        assert list(ResourceVector.sum(parts)) == expected


class TestTrustedResultsNeverNegative:
    @given(edge_vectors, edge_vectors, factors)
    def test_arithmetic_results(self, a, b, factor):
        results = (
            a + b,
            a - b,
            b - a,
            a * factor,
            a.scaled({"memory": factor, "cpu": factor}),
            ResourceVector.sum([a, b, a]),
        )
        for result in results:
            assert all(not value < 0 for value in result.values())

    def test_scaled_by_a_negative_factor_still_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(memory=1.0).scaled({"memory": -2.0})

    def test_mul_by_a_negative_factor_still_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(memory=1.0) * -1

    def test_sum_rejects_non_vectors(self):
        with pytest.raises(TypeError):
            ResourceVector.sum([ResourceVector(memory=1.0), {"memory": 1.0}])


class TestPublicConstructorStillValidates:
    @given(names, st.floats(max_value=-1e-300, allow_nan=False))
    def test_rejects_negative_amounts(self, name, amount):
        with pytest.raises(ValueError):
            ResourceVector({name: amount})
        with pytest.raises(ValueError):
            ResourceVector(**{name: amount})

    @given(st.dictionaries(names, st.integers(min_value=0, max_value=2**70), max_size=4))
    def test_coerces_ints_to_floats(self, amounts):
        vector = ResourceVector(amounts)
        for name, amount in amounts.items():
            assert type(vector[name]) is float
            assert vector[name] == float(amount)


class TestMappingMethodsMatchMixins:
    missing = st.sampled_from(["memory", "cpu", "disk", "gpu", "energy", ""])

    @given(edge_vectors, missing)
    def test_get(self, a, name):
        assert repr(a.get(name)) == repr(Mapping.get(a, name))
        assert repr(a.get(name, 7.5)) == repr(Mapping.get(a, name, 7.5))

    def test_get_missing_returns_none(self):
        assert ResourceVector(cpu=1.0).get("memory") is None

    @given(edge_vectors, missing)
    def test_contains(self, a, name):
        assert (name in a) == Mapping.__contains__(a, name)

    @given(edge_vectors)
    def test_views(self, a):
        assert list(a.keys()) == list(Mapping.keys(a))
        assert list(a.items()) == list(Mapping.items(a))
        assert [repr(v) for v in a.values()] == [repr(v) for v in Mapping.values(a)]
        assert a.keys() == Mapping.keys(a)
        assert a.items() == Mapping.items(a)

    def test_contains_unhashable_raises_like_the_mixin(self):
        with pytest.raises(TypeError):
            [] in ResourceVector(cpu=1.0)
