"""Instance and scheme layer tests, built around the seven-receiver
demonstration instance whose broadcast code is the [7, 4] Hamming code."""

import pytest
from hypothesis import given, settings, strategies as st

from icsisec.algebra import DimensionMismatchError, Field, Vector, unit_vector
from icsisec.code import EmptyInputError, LinearCode
from icsisec.icsi import (
    ConfinementViolationError,
    EmptyDemandError,
    IcsiInstance,
    MalformedInstanceError,
    NotDecodableError,
    Scheme,
    build_scheme,
    decode_receiver,
    decoding_plan,
    default_choice_vectors,
    encode,
    split_multi_request,
    validate,
)
from icsisec.rng import Rng

F2 = Field(2)
F3 = Field(3)

SIDES = ({6, 7}, {5, 7}, {5, 6}, {5, 6, 7}, {1, 2, 6}, {1, 3, 4}, {2, 3, 6})


def example_instance():
    return IcsiInstance(F2, 7, tuple(frozenset(s) for s in SIDES), (1, 2, 3, 4, 5, 6, 7))


def example():
    instance = example_instance()
    return build_scheme(instance, default_choice_vectors(instance, "indicator"))


class TestInstanceValidation:
    def test_accepts_example(self):
        instance = example_instance()
        assert instance.m == 7
        assert instance.trivially_satisfied() == ()
        assert validate(instance) == ()

    def test_rejects_bad_shapes(self):
        with pytest.raises(MalformedInstanceError):
            IcsiInstance(F2, 0, (frozenset(),), (1,))
        with pytest.raises(MalformedInstanceError):
            IcsiInstance(F2, 2, (frozenset(),), (1, 2))
        with pytest.raises(MalformedInstanceError):
            IcsiInstance(F2, 2, (), ())
        with pytest.raises(MalformedInstanceError):
            IcsiInstance(F2, 2, (frozenset({3}),), (1,))
        with pytest.raises(MalformedInstanceError):
            IcsiInstance(F2, 2, (frozenset(),), (3,))

    def test_trivial_receivers_reported(self):
        instance = IcsiInstance(F2, 3, (frozenset({1, 2}), frozenset()), (1, 2))
        assert instance.trivially_satisfied() == (1,)
        notes = validate(instance)
        assert any("receiver 1" in note for note in notes)
        assert any("receiver 2" in note for note in notes)


class TestNormalization:
    def test_split_multi_request(self):
        instance = split_multi_request(
            F2, 4, [{4}, {1}], [(3, 1, 3), (2,)]
        )
        assert instance.demands == (1, 3, 2)
        assert instance.side_info == (frozenset({4}), frozenset({4}), frozenset({1}))

    def test_split_rejects_empty_demand(self):
        with pytest.raises(EmptyDemandError):
            split_multi_request(F2, 3, [{1}], [()])


class TestChoiceVectors:
    def test_indicator(self):
        instance = example_instance()
        vectors = default_choice_vectors(instance, "indicator")
        assert vectors[0].entries == (0, 0, 0, 0, 0, 1, 1)
        assert vectors[4].entries == (1, 1, 0, 0, 0, 1, 0)

    def test_zero(self):
        instance = example_instance()
        vectors = default_choice_vectors(instance, "zero")
        assert all(v.entries == (0,) * 7 for v in vectors)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            default_choice_vectors(example_instance(), "random")


class TestBuildScheme:
    def test_example_code_is_hamming(self):
        scheme = example()
        assert scheme.code.generator.entries == (
            (1, 0, 0, 0, 0, 1, 1),
            (0, 1, 0, 0, 1, 0, 1),
            (0, 0, 1, 0, 1, 1, 0),
            (0, 0, 0, 1, 1, 1, 1),
        )

    def test_zero_policy_gives_identity(self):
        instance = example_instance()
        scheme = build_scheme(instance, default_choice_vectors(instance, "zero"))
        assert scheme.code.dimension == 7
        assert scheme.code.min_distance == 1

    def test_trivial_receivers_add_no_rows(self):
        instance = IcsiInstance(
            F2, 3, (frozenset({1, 2}), frozenset({2, 3})), (1, 1)
        )
        scheme = build_scheme(instance, default_choice_vectors(instance))
        assert scheme.code.dimension == 1
        assert scheme.code.generator.entries == ((1, 1, 1),)

    def test_all_trivial_is_an_error(self):
        instance = IcsiInstance(F2, 2, (frozenset({1}),), (1,))
        with pytest.raises(EmptyInputError):
            build_scheme(instance, default_choice_vectors(instance))

    def test_confinement_enforced(self):
        instance = IcsiInstance(F2, 3, (frozenset({2}),), (1,))
        stray = (Vector(F2, (0, 0, 1)),)
        with pytest.raises(ConfinementViolationError):
            build_scheme(instance, stray)

    def test_vector_count_checked(self):
        instance = example_instance()
        with pytest.raises(DimensionMismatchError):
            build_scheme(instance, default_choice_vectors(instance)[:3])

    def test_field_checked(self):
        instance = IcsiInstance(F2, 2, (frozenset({2}),), (1,))
        with pytest.raises(Exception):
            build_scheme(instance, (Vector(F3, (0, 1)),))


class TestEncodeDecode:
    def test_encode_unit_message(self):
        scheme = example()
        assert encode(scheme, unit_vector(5, 7, F2)).entries == (0, 1, 1, 1)

    def test_encode_checks_arity(self):
        scheme = example()
        with pytest.raises(DimensionMismatchError):
            encode(scheme, Vector(F2, (1, 0)))

    def test_receiver5_plan(self):
        # the unique combination for receiver 5: s_1 + s_2 minus x_1 + x_2 + x_6
        y, u = decoding_plan(example(), 5)
        assert y.entries == (1, 1, 0, 0)
        assert u.entries == (1, 1, 0, 0, 0, 1, 0)

    def test_trivial_receiver_plan_is_direct_lookup(self):
        instance = IcsiInstance(
            F2, 3, (frozenset({1, 2}), frozenset({2, 3})), (1, 1)
        )
        scheme = build_scheme(instance, default_choice_vectors(instance))
        y, u = decoding_plan(scheme, 1)
        assert y.entries == (0,)
        assert u.entries == (1, 0, 0)
        broadcast = encode(scheme, Vector(F2, (1, 1, 0)))
        assert decode_receiver(scheme, 1, broadcast, {1: 1, 2: 1}) == 1

    def test_all_receivers_decode_seeded_messages(self):
        scheme = example()
        rng = Rng(2024)
        for _ in range(100):
            x = Vector(F2, tuple(rng.below(2) for _ in range(7)))
            s = encode(scheme, x)
            for j in range(1, 8):
                side = {i: x.at(i) for i in scheme.instance.side_info[j - 1]}
                assert decode_receiver(scheme, j, s, side) == x.at(
                    scheme.instance.demands[j - 1]
                )

    def test_missing_side_values_rejected(self):
        scheme = example()
        s = encode(scheme, Vector(F2, (0,) * 7))
        with pytest.raises(ValueError):
            decode_receiver(scheme, 5, s, {1: 0, 2: 0})

    def test_receiver_number_checked(self):
        scheme = example()
        s = encode(scheme, Vector(F2, (0,) * 7))
        with pytest.raises(Exception):
            decode_receiver(scheme, 8, s, {})

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_random_instances_decode(self, data):
        field = data.draw(st.sampled_from((F2, F3)))
        n = data.draw(st.integers(2, 5))
        m = data.draw(st.integers(1, 4))
        sides = []
        demands = []
        for _ in range(m):
            side = frozenset(
                data.draw(st.sets(st.integers(1, n), max_size=n - 1))
            )
            demand = data.draw(st.integers(1, n))
            sides.append(side)
            demands.append(demand)
        instance = IcsiInstance(field, n, tuple(sides), tuple(demands))
        policy = data.draw(st.sampled_from(("indicator", "zero")))
        try:
            scheme = build_scheme(instance, default_choice_vectors(instance, policy))
        except EmptyInputError:
            return
        x = Vector(
            field, tuple(data.draw(st.integers(0, field.q - 1)) for _ in range(n))
        )
        s = encode(scheme, x)
        for j in range(1, m + 1):
            side_values = {i: x.at(i) for i in sides[j - 1]}
            assert decode_receiver(scheme, j, s, side_values) == x.at(demands[j - 1])


class TestFeasibility:
    def test_built_schemes_serve_every_receiver(self):
        scheme = example()
        for j in range(1, 8):
            decoding_plan(scheme, j)

    def test_unserved_receiver_detected(self):
        # hand-assembled scheme whose code ignores the receiver's needs
        instance = IcsiInstance(F2, 3, (frozenset(),), (1,))
        code = LinearCode.from_rows([Vector(F2, (1, 1, 1))])
        scheme = Scheme(instance, (Vector(F2, (0, 0, 0)),), code)
        with pytest.raises(NotDecodableError):
            decoding_plan(scheme, 1)

    def test_trivial_receiver_always_feasible(self):
        instance = IcsiInstance(
            F2, 3, (frozenset({1, 2}), frozenset({2, 3})), (1, 1)
        )
        scheme = build_scheme(instance, default_choice_vectors(instance))
        y, u = decoding_plan(scheme, 1)
        assert y == Vector.zero(F2, scheme.code.dimension)
        assert u.support() == frozenset({1})
