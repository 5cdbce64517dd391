import random

import pytest
from hypothesis import given, settings, strategies as st

from towertrees import intlinalg
from towertrees.intlinalg import IntegerLattice, integer_rank, smith_normal_form

from oracles import snf_by_minors


def test_snf_identity():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == ((1, 1, 1), 3)


def test_snf_rank_one_torsion():
    assert smith_normal_form([[2, 0], [0, 0]]) == ((2,), 1)


def test_snf_textbook():
    factors, rank = smith_normal_form([[12, 6, 4], [3, 9, 6], [2, 16, 14]])
    assert factors == (1, 10, 30) and rank == 3


def test_snf_empty():
    assert smith_normal_form([]) == ((), 0)
    assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)


def test_snf_sparse_rows():
    # [[2,0,0,4],[0,0,0,2]]: determinant divisors 2 and 4, factors (2, 2)
    assert smith_normal_form([{0: 2, 3: 4}, {3: 2}]) == ((2, 2), 2)


def test_snf_random_vs_minors_oracle():
    rng = random.Random(20240)
    for _ in range(120):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        assert smith_normal_form(m)[0] == snf_by_minors(m, r, c), m


def test_snf_wide_random():
    rng = random.Random(7)
    for _ in range(20):
        m = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(6)]
        factors, rank = smith_normal_form(m)
        assert factors == snf_by_minors(m, 6, 8)
        assert rank == len(factors)
        # divisibility chain
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


@st.composite
def integer_matrices(draw):
    """Up to 5 x 6, from dense to mostly zero, with a common factor and
    some rows and columns zeroed."""
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entry = st.one_of(*[st.just(0)] * draw(st.integers(0, 3)), st.integers(-6, 6))
    scale = draw(st.integers(1, 4))
    m = [[scale * draw(entry) for _ in range(c)] for _ in range(r)]
    for i in draw(st.sets(st.integers(0, r - 1))) if r else ():
        m[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1))) if c else ():
        for row in m:
            row[j] = 0
    return m


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_snf_matches_minors_oracle(m):
    r, c = len(m), len(m[0]) if m else 0
    factors, rank = smith_normal_form(m)
    assert factors == snf_by_minors(m, r, c)
    assert rank == len(factors)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in m]
    assert smith_normal_form(sparse) == (factors, rank)


@pytest.mark.parametrize("m, snf, lattices", [
    # the first pivot, 2, does not divide its row (2, 3): the column pass
    # shrinks it to gcd 1, and the next row pass isolates it
    ([[2, 3], [0, 6]], ((1, 12), 2), 3),
    # the first pivot, 5, divides its row (5, -5): the column pass
    # isolates it; fed in descending column order, the passes cycle
    ([[0, -5], [5, -5]], ((5, 5), 2), 2),
    ([[4, 0, 2, -2], [0, -4, 3, -2], [0, -2, 1, 3]], ((1, 1, 4), 3), 5),
])
def test_snf_passes_follow_the_feed_order(monkeypatch, m, snf, lattices):
    # each pass builds one echelon lattice; feeding the transposed rows
    # by ascending column is what makes each pass isolate or shrink the
    # first pivot not yet alone in its row and column
    built = []

    class Counting(IntegerLattice):
        def __init__(self, track=False):
            built.append(self)
            assert len(built) <= 20, "smith_normal_form is not converging"
            super().__init__(track)

    monkeypatch.setattr(intlinalg, "IntegerLattice", Counting)
    assert smith_normal_form(m) == snf
    assert len(built) == lattices


def test_lattice_membership():
    lat = IntegerLattice()
    lat.add({0: 2})
    lat.add({1: 3, 2: 1})
    assert lat.contains({0: 4})
    assert not lat.contains({0: 1})
    assert lat.contains({1: 3, 2: 1})
    assert lat.contains({})
    assert not lat.contains({2: 1})


def test_lattice_reduce_is_canonical_coset_rep():
    lat = IntegerLattice()
    lat.add({0: 3})
    r1 = lat.reduce({0: 7, 1: 1})
    r2 = lat.reduce({0: -2, 1: 1})
    assert r1 == r2 == {0: 1, 1: 1}


@given(st.integers(0, 2 ** 30))
@settings(max_examples=60, deadline=None)
def test_lattice_solve_roundtrip(seed):
    rng = random.Random(seed)
    rows = {}
    lat = IntegerLattice(track=True)
    for t in range(rng.randint(1, 5)):
        row = {c: rng.randint(-3, 3) for c in range(rng.randint(1, 5))}
        row = {c: v for c, v in row.items() if v}
        rows[t] = row
        lat.add(row)
    coeffs = {t: rng.randint(-4, 4) for t in rows}
    target = {}
    for t, k in coeffs.items():
        for c, v in rows[t].items():
            target[c] = target.get(c, 0) + k * v
    target = {c: v for c, v in target.items() if v}
    combo = lat.solve(target)
    assert combo is not None
    rebuilt = {}
    for t, k in combo.items():
        for c, v in rows[t].items():
            rebuilt[c] = rebuilt.get(c, 0) + k * v
    assert {c: v for c, v in rebuilt.items() if v} == target


def test_solve_outside_lattice():
    lat = IntegerLattice(track=True)
    lat.add({0: 2})
    lat.add({0: 4, 1: 2})
    assert lat.solve({0: 3}) is None
    assert lat.solve({1: 1}) is None
    # rows are named by the order they were added in
    assert lat.solve({0: -6}) == {0: -3}
    assert lat.solve({0: 4, 1: 2}) == {1: 1}


def test_integer_rank():
    assert integer_rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert integer_rank([]) == 0
