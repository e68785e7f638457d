import pytest

from qtsym.partitions import (
    Compare,
    EMPTY,
    LengthExceedsN,
    Partition,
    add_box_positions,
    append_one,
    box_added_index,
    conjugate,
    dominates,
    enumerate_partitions,
    format_partition,
    grevlex_key,
    horizontal_strip,
    natural_compare,
    parse_partition,
    partitions_up_to,
    remove_box_positions,
    stats,
    t_factors,
)
from qtsym.ratfun import parse_ratfun


def test_partition_validation():
    assert Partition((3, 1)) == (3, 1)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_of_a_partition_is_itself():
    # a Partition is already validated; any other input is validated again
    p = Partition((3, 1))
    assert Partition(p) is p
    assert Partition(EMPTY) is EMPTY
    assert Partition([3, 1]) == p and type(Partition([3, 1])) is Partition
    for bad in ((1, 2), (2, 0), (0,), [3, 1, 2], (2, -1)):
        with pytest.raises(ValueError):
            Partition(bad)


def test_partition_weight():
    assert Partition((4, 2, 1)).weight == 7
    assert EMPTY.weight == 0
    assert all(lam.weight == 6 for lam in enumerate_partitions(6))


def test_enumerate_weight_4():
    got = enumerate_partitions(4)
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_constraints():
    assert enumerate_partitions(3, exact_length=2) == [(2, 1)]
    assert enumerate_partitions(0) == [EMPTY]
    assert enumerate_partitions(4, max_length=2) == [(4,), (3, 1), (2, 2)]
    assert enumerate_partitions(2, exact_length=5) == []


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, count in enumerate(expected):
        assert len(enumerate_partitions(n)) == count


def test_conjugate():
    assert conjugate(Partition((3, 1))) == (2, 1, 1)
    assert conjugate(Partition((2, 2))) == (2, 2)
    assert conjugate(EMPTY) == EMPTY
    for p in partitions_up_to(10):
        assert conjugate(conjugate(p)) == p


def test_natural_compare():
    assert natural_compare(Partition((2, 2)), Partition((2, 1, 1))) is Compare.GREATER
    assert natural_compare(Partition((3, 1, 1, 1)), Partition((2, 2, 2))) is Compare.INCOMPARABLE
    assert natural_compare(Partition((2, 1)), Partition((2, 1))) is Compare.EQUAL
    assert natural_compare(Partition((2, 1)), Partition((2,))) is Compare.DIFFERENT_WEIGHT


def test_compare_antisymmetry_and_conjugation():
    for n in range(7):
        ps = enumerate_partitions(n)
        for a in ps:
            for b in ps:
                ab = natural_compare(a, b)
                ba = natural_compare(b, a)
                assert (ab is Compare.LESS) == (ba is Compare.GREATER)
                # conjugation reverses dominance
                cmp_conj = natural_compare(conjugate(b), conjugate(a))
                assert ab is (cmp_conj if ab in (Compare.LESS, Compare.GREATER) else ab)


def test_dominance_implies_shorter():
    for n in range(8):
        ps = enumerate_partitions(n)
        for a in ps:
            for b in ps:
                if a != b and dominates(a, b):
                    assert len(a) <= len(b)


def test_stats():
    s = stats(Partition((2, 1, 1)))
    assert (s.c, s.z, s.n_stat) == (2, 4, 3)
    s = stats(Partition((2, 1)))
    assert (s.c, s.z, s.n_stat) == (1, 2, 1)
    s = stats(EMPTY)
    assert (s.c, s.z, s.n_stat) == (1, 1, 0)
    for p in partitions_up_to(8):
        s = stats(p)
        assert s.z % s.c == 0
        assert s.n_stat >= 0


def test_t_factors_b():
    tf = t_factors(Partition((2, 2, 1)))
    assert tf.b == parse_ratfun("(1-t)*((1-t)*(1-t^2))")
    assert tf.v is None


def test_t_factors_v_empty():
    tf = t_factors(EMPTY, N=2)
    assert tf.v == parse_ratfun("1+t")


def test_t_factors_z():
    tf = t_factors(Partition((2,)))
    assert tf.z_t == parse_ratfun("2/(1-t^2)")


def test_t_factors_b_divides_v():
    # v * (1-t)^len / b is the factor indexed by the zero-part multiplicity
    one_minus_t = parse_ratfun("1-t")
    for p in partitions_up_to(5):
        for N in range(len(p), len(p) + 3):
            tf = t_factors(p, N=N)
            k0 = N - len(p)
            expected = parse_ratfun("1")
            for j in range(1, k0 + 1):
                expected = expected * parse_ratfun("(1-t^%d)/(1-t)" % j)
            assert tf.v * one_minus_t ** len(p) / tf.b == expected


def test_t_factors_length_error():
    with pytest.raises(LengthExceedsN):
        t_factors(Partition((2, 1)), N=1)


def test_append_one():
    assert append_one(Partition((3, 1))) == (3, 1, 1)
    assert append_one(EMPTY) == (1,)
    assert append_one(Partition((1, 1))) == (1, 1, 1)


def test_parse_format():
    assert parse_partition("2,1,1") == (2, 1, 1)
    assert parse_partition("") == EMPTY
    assert format_partition(Partition((2, 1, 1))) == "2,1,1"
    assert format_partition(EMPTY) == ""


def test_horizontal_strip():
    assert horizontal_strip((2,), (1,))
    assert horizontal_strip((2, 1), (1, 1))
    assert not horizontal_strip((2, 2), (1,))
    assert horizontal_strip((3, 1), (2,))
    assert not horizontal_strip((1, 1, 1), (1,))


def test_box_moves():
    assert box_added_index((3, 1, 1), (3, 1)) == 3
    assert box_added_index((4, 1), (3, 1)) == 1
    assert box_added_index((3, 2), (3, 1)) == 2
    assert box_added_index((3, 3), (3, 1)) is None
    ups = add_box_positions(Partition((2, 2)))
    assert ups == [((3, 2), 1), ((2, 2, 1), 3)]
    downs = remove_box_positions(Partition((2, 2)))
    assert downs == [((2, 1), 2)]
    for mu in partitions_up_to(5):
        for lam, i in add_box_positions(mu):
            assert box_added_index(lam, mu) == i


def test_grevlex_order_is_linear_extension_of_dominance():
    for n in range(8):
        ps = enumerate_partitions(n)
        assert ps == sorted(ps, key=grevlex_key)
        for a in ps:
            for b in ps:
                if a != b and dominates(a, b):
                    assert grevlex_key(a) < grevlex_key(b)
