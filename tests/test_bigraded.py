from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.bigraded import BigradedDims, Window


def table(entries):
    return BigradedDims(entries)


def test_shift_identity():
    d = table({(0, 0): 1, (2, -2): 3})
    assert d.shift(0, 0) == d


def test_shift_convention():
    # [1]<2> moves a class at (0, 0) to (-1, 2)
    d = table({(0, 0): 1})
    assert d.shift(1, 2) == table({(-1, 2): 1})


def test_shift_inverse():
    d = table({(0, 0): 1, (-1, 2): 2, (3, -4): 1})
    assert d.shift(2, -3).shift(-2, 3) == d


def test_dual_fixes_symmetric():
    d = table({(1, -1): 2, (-1, 1): 2})
    assert d.dual() == d


def test_dual_flips():
    assert table({(2, -2): 1}).dual() == table({(-2, 2): 1})


def test_dual_involution():
    d = table({(0, 1): 1, (2, -3): 4})
    assert d.dual().dual() == d


bds = st.dictionaries(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.integers(1, 9),
    max_size=6,
)
shifts = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(bds, shifts, shifts)
def test_shift_group_action(entries, s1, s2):
    d = table(entries)
    a1, b1 = s1
    a2, b2 = s2
    assert d.shift(a1, b1).shift(a2, b2) == d.shift(a1 + a2, b1 + b2)


@settings(max_examples=60, deadline=None)
@given(bds, shifts)
def test_dual_intertwines_shift(entries, s):
    d = table(entries)
    a, b = s
    assert d.shift(a, b).dual() == d.dual().shift(-a, -b)


def test_serialization_sorted_triples():
    d = table({(1, 0): 2, (-1, 3): 1, (1, -2): 5})
    assert d.to_triples() == [[-1, 3, 1], [1, -2, 5], [1, 0, 2]]
    assert BigradedDims({(i, j): dim for i, j, dim in d.to_triples()}) == d


def test_window_contains_and_restrict():
    w = Window(-1, 1, -2, 2)
    d = table({(0, 0): 1, (5, 5): 2})
    assert d.restrict(w) == table({(0, 0): 1})
    assert w.contains((1, -2)) and not w.contains((2, 0))


def test_window_negate_union():
    w = Window(0, 2, -4, 0)
    assert w.negate().as_tuple() == (-2, 0, 0, 4)
    assert w.union(w.negate()).as_tuple() == (-2, 2, -4, 4)
