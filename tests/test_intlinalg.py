import random

import pytest
from hypothesis import given, settings, strategies as st

from towertrees import intlinalg
from towertrees.intlinalg import IntegerLattice, integer_rank, smith_normal_form

from oracles import snf_by_minors


def sparse(m):
    """A dense matrix as the sparse rows (dicts column -> value) that
    every function of intlinalg takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def test_snf_identity():
    assert smith_normal_form(sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == ((1, 1, 1), 3)


def test_snf_rank_one_torsion():
    assert smith_normal_form(sparse([[2, 0], [0, 0]])) == ((2,), 1)


def test_snf_textbook():
    factors, rank = smith_normal_form(sparse([[12, 6, 4], [3, 9, 6], [2, 16, 14]]))
    assert factors == (1, 10, 30) and rank == 3


def test_snf_empty():
    assert smith_normal_form([]) == ((), 0)
    assert smith_normal_form(sparse([[0, 0], [0, 0]])) == ((), 0)
    assert smith_normal_form([{0: 0}, {}]) == ((), 0)


def test_snf_sparse_rows():
    # [[2,0,0,4],[0,0,0,2]]: determinant divisors 2 and 4, factors (2, 2)
    assert smith_normal_form([{0: 2, 3: 4}, {3: 2}]) == ((2, 2), 2)


def test_snf_random_vs_minors_oracle():
    rng = random.Random(20240)
    for _ in range(120):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        assert smith_normal_form(sparse(m))[0] == snf_by_minors(m, r, c), m


def test_snf_wide_random():
    rng = random.Random(7)
    for _ in range(20):
        m = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(6)]
        factors, rank = smith_normal_form(sparse(m))
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
    factors, rank = smith_normal_form(sparse(m))
    assert factors == snf_by_minors(m, r, c)
    assert rank == len(factors)


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
    # each Kannan-Bachem pass builds one echelon lattice; feeding the
    # transposed rows by ascending column is what makes each pass
    # isolate or shrink the first pivot not yet alone in its row and
    # column.  The helper is called alone: smith_normal_form splits the
    # +-1 pivots off first, so it builds fewer lattices for the third
    # matrix, which has a +-1 entry
    built = []

    class Counting(IntegerLattice):
        def __init__(self, rows=(), track=False):
            built.append(self)
            assert len(built) <= 20, "smith_normal_form is not converging"
            super().__init__(rows, track)

    monkeypatch.setattr(intlinalg, "IntegerLattice", Counting)
    assert intlinalg._kannan_bachem(sparse(m)) == snf
    assert len(built) == lattices


@st.composite
def unit_rich_matrices(draw):
    """Up to 6 x 5, entries mostly 0 and +-1 as in an IHX presentation,
    with repeated and negated rows, doubling rows 2 e_j and zero rows,
    in any order."""
    c = draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 1, -1, 1, -1, 2, -2, 3))
    m = draw(st.lists(st.lists(entry, min_size=c, max_size=c), max_size=3))
    for kind in draw(st.lists(st.sampled_from(("copy", "negated", "double", "zero")), max_size=3)):
        if kind in ("copy", "negated") and m:
            row = draw(st.sampled_from(m))
            m.append(row[:] if kind == "copy" else [-x for x in row])
        elif kind == "double":
            j = draw(st.integers(0, c - 1))
            m.append([2 if k == j else 0 for k in range(c)])
        else:
            m.append([0] * c)
    return draw(st.permutations(m))


@given(unit_rich_matrices())
@settings(max_examples=300, deadline=None)
def test_snf_of_unit_rich_rows_matches_minors_oracle(m):
    r, c = len(m), len(m[0]) if m else 0
    factors, rank = smith_normal_form(sparse(m))
    assert factors == snf_by_minors(m, r, c)
    assert rank == len(factors)


@given(st.one_of(integer_matrices(), unit_rich_matrices()))
@settings(max_examples=300, deadline=None)
def test_integer_rank_matches_the_smith_form_rank(m):
    # the column-keyed echelon basis of the lattice against the
    # unit-pivot split before Kannan-Bachem, on the same sparse rows
    rows = sparse(m)
    assert integer_rank(rows) == smith_normal_form(rows)[1]


def test_snf_reduces_set_aside_rows_against_later_pivots():
    # (2, 2) has no +-1 entry and is set aside; (1, 3) then pivots on
    # column 0, which the set-aside row meets: only (2, 2) - 2 (1, 3) =
    # (0, -4) is left to the Smith form, and the determinant is 4
    assert intlinalg._unit_pivots([{0: 2, 1: 2}, {0: 1, 1: 3}]) == (1, [{1: -4}])
    assert smith_normal_form([{0: 2, 1: 2}, {0: 1, 1: 3}]) == ((1, 4), 2)


def test_lattice_membership():
    lat = IntegerLattice([{0: 2}, {1: 3, 2: 1}])
    assert not lat.reduce({0: 4})
    assert lat.reduce({0: 1})
    assert not lat.reduce({1: 3, 2: 1})
    assert not lat.reduce({})
    assert lat.reduce({2: 1})
    # a lattice built from its rows is the one they build added in turn
    grown = IntegerLattice()
    assert [grown.add(row) for row in ({0: 2}, {1: 3, 2: 1}, {0: 4})] == [True, True, False]
    assert grown.basis == lat.basis == {0: {0: 2}, 1: {1: 3, 2: 1}}


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
    assert integer_rank(sparse([[1, 2], [2, 4], [0, 1]])) == 2
    assert integer_rank([]) == 0
