import hashlib
import inspect
import itertools
import json
import operator
import random
import re
from functools import reduce
from math import factorial, gcd
from pathlib import Path

import pytest

from towertrees import groups, intlinalg, trees as trees_module
from towertrees.groups import (
    AbelianGroupStructure,
    RelationMatrix,
    group_structure,
    group_table,
    ihx_triples,
    is_zero,
    normal_form,
    presentation,
    reduce_to_simple,
    relator_combination,
    relator_solver,
    relator_sum,
)
from towertrees.intlinalg import IntegerLattice, smith_normal_form
from towertrees.sums import TreeSum
from towertrees.trees import (
    BoundsError,
    CanonicalTree,
    SignedTree,
    all_trees,
    block_trees,
    canonicalize,
    cell_multisets,
    is_simple,
    parse_tree,
    representative_blocks,
)

from oracles import (
    cell_lattice,
    closed_form_counts,
    closed_form_sizes,
    decode,
    graph_explicit_code,
    lie_dimension_oracle,
    nonrepeating_presentation,
    raw_generators,
    raw_presentation,
)


def canon(text):
    return canonicalize(SignedTree(1, parse_tree(text)))[0]


# ------------------------------------------------------------ IHX relators

def test_no_interior_edges_at_order_one():
    assert [relator_sum(ct, e) for ct, e in ihx_triples(1, 4)] == []


def test_distinct_label_relator_has_three_terms():
    # among the order-2 relators on 4 distinct labels there is one whose
    # three terms are the I, H, X trees
    rels = [relator_sum(ct, e) for ct, e in ihx_triples(2, 4)]
    distinct = [r for r in rels
                if len(r) == 3 and all(t.labels == (1, 2, 3, 4) for t in r.trees())]
    assert distinct
    r = distinct[0]
    coeffs = sorted(c for _, c in r.items())
    assert coeffs == [-1, 1, 1]


def test_relator_count_matches_direct_enumeration():
    # an order-n tree has 2n+1 edges of which exactly n-1 are interior,
    # so the relator count is (n-1) * (number of canonical trees)
    for n, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        assert len(ihx_triples(n, m)) == (n - 1) * len(all_trees(n, m)), (n, m)


def test_relators_vanish():
    for n in range(4):
        for m in range(1, 5):
            for r in [relator_sum(ct, e) for ct, e in ihx_triples(n, m)]:
                assert is_zero(r, n, m), (n, m, r.text())


# ------------------------------------------------------------ presentation

def test_presentation_order0():
    mat = presentation(0, 1)
    assert len(mat.generators) == 1
    assert mat.rows == ()


def test_presentation_forces_two_torsion():
    mat = presentation(1, 1)
    assert len(mat.generators) == 1
    assert mat.rows == (((0, 2),),)


def test_presentation_matches_golden_hashes():
    # SHA-256 of repr(rows) and of repr(generator codes), recorded when
    # the rows were still built from decoded layout trees; (2,6), (3,4),
    # (3,5) and (4,3), where many trees have a unique least label, were
    # recorded while every IHX companion was still canonicalized through
    # canonicalize
    golden = json.loads((Path(__file__).parent / "fixtures" / "presentation_sha256.json")
                        .read_text())
    assert len(golden) == 12
    for cell, want in golden.items():
        n, m = map(int, cell.split(","))
        mat = presentation(n, m)
        codes = tuple(ct.code for ct in mat.generators)
        assert hashlib.sha256(repr(mat.rows).encode()).hexdigest() == want["rows"], cell
        assert hashlib.sha256(repr(codes).encode()).hexdigest() == want["generators"], cell


@pytest.mark.parametrize("n, m", [(n, m) for n in range(6) for m in range(1, 5)] + [(2, 6), (6, 3)])
def test_presentation_row_counts(n, m):
    # the canonical trees are the generators; one IHX row per (canonical
    # tree, interior edge) pair, in that order, then one doubling row per
    # 2-torsion tree.  The IHX rows, which _rows writes by table lookup,
    # are the relator sums, whose H and X go through canonicalize_rewrite:
    # for the whole cell and for every block
    cell = all_trees(n, m)
    assert presentation(n, m).generators == cell
    for trees in (cell, *map(block_trees, cell_multisets(n, m))):
        mat = groups._matrix(trees)
        index = {t.code: i for i, t in enumerate(trees)}
        triples = groups._triples(trees)
        ihx = [tuple(sorted((index[t.code], c) for t, c in relator_sum(ct, edge).items()))
               for ct, edge in triples]
        torsion = [((i, 2),) for i, t in enumerate(trees) if t.two_torsion]
        assert mat.generators == trees
        assert mat.ihx_count == len(ihx) == max(n - 1, 0) * len(trees)
        assert list(mat.rows) == ihx + torsion


def test_presentation_sizes():
    mat = presentation(2, 3)
    assert (mat.ncols, len(mat.rows)) == (21, 36)
    # nonrepeating keeps the trees with distinct labels, none of them 2-torsion
    mat = nonrepeating_presentation(2, 4)
    assert mat.generators == tuple(t for t in all_trees(2, 4) if t.nonrepeating)
    assert mat.ihx_count == len(mat.rows) == len(
        [(ct, edge) for ct, edge in ihx_triples(2, 4) if ct.nonrepeating])


def test_rows_take_no_canonicalization(monkeypatch):
    # every IHX row is written by lookup in the trees' reading table
    cell = all_trees(4, 3)

    def refuse(*args):
        raise AssertionError("canonicalized while writing rows")

    for module, name in [(trees_module, "canonicalize"), (trees_module, "canonicalize_rewrite"),
                         (trees_module, "_least_rooting"), (groups, "canonicalize_rewrite")]:
        monkeypatch.setattr(module, name, refuse)
    rows = groups._rows(cell, groups._triples(cell))
    monkeypatch.undo()
    assert rows == presentation(4, 3).rows


def test_raw_generators_are_orientation_explicit():
    gens = raw_generators(1, 2)
    # Y(1,2,3)-style classes split by orientation only when labels
    # distinguish the flip; with labels from {1,2} the four AS classes
    # have representatives with a flip partner inside the list
    assert len(gens) >= len(all_trees(1, 2))


# ---------------------------------------------------------- group structure

def test_group_structure_smallest():
    assert group_structure(0, 1).text() == "Z"
    assert group_structure(1, 1).text() == "Z/2"


def test_order0_rank_formula():
    for m in range(1, 5):
        gs = group_structure(0, m)
        assert gs.free_rank == m * (m + 1) // 2
        assert gs.torsion == ()


def test_nonrepeating_torsion_free():
    for n in range(3):
        gs = group_structure(n, n + 2, nonrepeating=True)
        assert gs.torsion == (), (n, gs)


def test_known_structures():
    # computed values, cross-checked by the Lie oracle rank equalities
    assert group_structure(1, 2).text() == "Z/2 + Z/2 + Z/2 + Z/2"
    assert group_structure(2, 2).text() == "Z"
    assert group_structure(2, 3).free_rank == 6
    assert group_structure(2, 4).free_rank == 20
    assert group_structure(2, 4).torsion == ()


def test_label_permutation_invariance():
    # relabeling 1..m by any permutation preserves the isomorphism type;
    # check by restricting label multisets is not possible at the group
    # level, so compare via a relabeled zero test instead
    base = group_structure(2, 3)
    # the group only sees the label count, so this is a determinism
    # check plus an explicit relabeled-relator membership sweep
    for perm in itertools.permutations([1, 2, 3]):
        for ct, edge in ihx_triples(2, 3)[:6]:
            rel = relator_sum(ct, edge)
            relabeled = TreeSum([
                (canonicalize(SignedTree(c, _relabel(t, perm)))) for t, c in rel.items()
            ])
            assert is_zero(relabeled, 2, 3)
    assert group_structure(2, 3) == base


def _relabel(ct, perm):
    from towertrees.trees import DecoratedTree, Leaf, Node

    def go(sub):
        if isinstance(sub, Leaf):
            return Leaf(perm[sub.label - 1], sub.word)
        return Node(go(sub.left), go(sub.right), sub.word)

    layout = decode(ct)
    return DecoratedTree(go(layout.left), go(layout.right), layout.word)


# ------------------------------------------------------------ the zero test

def test_single_nonrepeating_tree_nonzero():
    t = canon("inner((1,2),(3,4),)")
    assert not is_zero(TreeSum({t: 1}), 2, 4)


def test_torsion_pair_is_zero():
    y = canon("inner(1,(1,1),)")
    assert is_zero(TreeSum([(y, 1), (y, 1)]), 1, 1)


def test_is_zero_rejects_wrong_order():
    t = canon("inner(1,2,)")
    with pytest.raises(ValueError):
        is_zero(TreeSum({t: 1}), 1, 2)


def test_normal_form_rejects_wrong_order_like_is_zero():
    ts = TreeSum({canon("inner((1,2),(3,(4,1)),)"): 1})
    for query in (is_zero, normal_form, relator_combination):
        with pytest.raises(ValueError, match=r"^sum has order 3, expected 2$"):
            query(ts, 2, 4)


def test_zero_test_refuses_decorated_trees_before_labels_past_m():
    # a decorated tree lies in no block even when its labels fit; the
    # decoration is named first, then the first tree labelled past m
    plain = canon("inner((1,2),(3,4),)")
    decorated = canon("inner((1,2),(3,4),a)")
    past = canon("inner((1,2),(3,5),)")
    cases = [([plain, decorated], "^zero test supports the trivial group alphabet only$"),
             ([past, decorated], "^zero test supports the trivial group alphabet only$"),
             ([plain, past], r"^tree inner\(1,\(2,\(3,5\)\),\) is not an order-2 tree on labels 1..4$")]
    for trees, message in cases:
        for query in (is_zero, normal_form, relator_combination):
            with pytest.raises(ValueError, match=message):
                query(TreeSum({t: 1 for t in trees}), 2, 4)


def test_zero_test_names_a_tree_not_in_canonical_form():
    # labels of a block but a code that is none of the block's canonical
    # codes: named after any tree labelled past m, not a StopIteration
    swapped = CanonicalTree((1, (1, (0, 3, ""), (0, 2, ""))), False, 1, (1, 2, 3))
    past = canon("inner(1,(2,4),)")
    for trees, message in [([swapped], r"^tree inner\(1,\(3,2\),\) is not in canonical form$"),
                           ([swapped, past], r"^tree inner\(1,\(2,4\),\) is not an order-1 tree "
                                             r"on labels 1..3$")]:
        for query in (is_zero, normal_form, relator_combination):
            with pytest.raises(ValueError, match=message):
                query(TreeSum({t: 1 for t in trees}), 1, 3)


def test_zero_test_refuses_labels_of_no_block_of_the_cell():
    # a block exists iff the labels are n + 2 sorted labels in 1..m:
    # unsorted labels, a label 0 or a wrong number of labels name the
    # tree as not of the cell, for all three queries, and cache nothing
    unsorted = CanonicalTree((2, (1, (0, 1, ""), (0, 3, ""))), False, 1, (2, 1, 3))
    zero = CanonicalTree((0, (1, (0, 1, ""), (0, 2, ""))), False, 1, (0, 1, 2))
    short = CanonicalTree((1, (0, 2, "")), False, 1, (1, 2))
    plain = canon("inner(1,(2,3),)")
    relator_solver(1, 3, (1, 2, 3))
    before = groups._block.cache_info().currsize
    for bad in (unsorted, zero, short):
        message = rf"^tree {re.escape(bad.text())} is not an order-1 tree on labels 1\.\.3$"
        for query in (is_zero, normal_form, relator_combination):
            for trees in ([bad], [plain, bad]):
                with pytest.raises(ValueError, match=message):
                    query(TreeSum({t: 1 for t in trees}), 1, 3)
        with pytest.raises(ValueError, match=r"^no order-1 tree on labels 1\.\.3 has the label"):
            relator_solver(1, 3, bad.labels)
    assert groups._block.cache_info().currsize == before


def test_cached_tree_labels_cannot_be_changed():
    # a tree's labels are shared by every caller of the cached cell, and
    # the zero test finds a term's block by them
    t = next(ct for ct in all_trees(2, 3) if ct.text() == "inner(1,(2,(1,2)),)")
    with pytest.raises(AttributeError):
        t.labels.reverse()
    assert t.labels == (1, 1, 2, 2)
    assert not is_zero(TreeSum({t: 1}), 2, 3)


def test_cells_hand_out_the_same_block_tuples():
    # a block is enumerated once, by its multiset: the cells holding it,
    # their representative blocks and the zero test's block share its
    # tuple and its trees
    for n, m in [(2, 3), (2, 4), (3, 3)]:
        cell = all_trees(n, m)
        for mu in cell_multisets(n, m):
            block = block_trees(mu)
            assert groups._block(mu).trees is block
            in_cell = [ct for ct in cell if ct.labels == mu]
            assert len(in_cell) == len(block) and all(map(operator.is_, in_cell, block)), mu
        for _, trees in representative_blocks(n, m):
            assert trees is block_trees(trees[0].labels)
    assert group_structure(2, 3).text() == "Z^6"


def test_cached_functions_refuse_keywords():
    # a keyword call would key a second cache entry for the same cell
    from towertrees import groups, trees

    for fn, args in [(trees.all_trees, (3, 3)), (trees.block_trees, ((1, 1, 2, 2, 3),)),
                     (trees.representative_blocks, (3, 3)),
                     (groups._block, ((1, 1, 2, 2, 3),))]:
        fn(*args)
        before = fn.cache_info().currsize
        with pytest.raises(TypeError):
            fn(**dict(zip(inspect.signature(fn).parameters, args)))
        assert fn.cache_info().currsize == before, fn.__name__


def test_normal_form_deterministic_and_reduced():
    t = canon("inner((1,2),(3,4),)")
    nf = normal_form(TreeSum({t: 1}), 2, 4)
    assert not nf.is_empty()
    assert normal_form(nf, 2, 4) == nf
    # the representative differs from t by a lattice element
    assert is_zero(nf - TreeSum({t: 1}), 2, 4)


# --------------------------------------------------------- reduce_to_simple

def test_reduce_identity_on_low_order():
    for n in range(4):
        for ct in all_trees(n, 3):
            assert reduce_to_simple(ct) == TreeSum({ct: 1})


def test_reduce_star():
    star = canon("inner((1,2),((3,4),(1,2)),)")
    assert not is_simple(star)
    ts = reduce_to_simple(star)
    assert all(is_simple(t) for t in ts.trees())
    diff = ts - TreeSum({star: 1})
    assert is_zero(diff, 4, 4)


def test_reduce_identity_on_order5_caterpillar():
    cat = canon("inner(1,(2,(3,(4,(5,(6,7))))),)")
    assert reduce_to_simple(cat) == TreeSum({cat: 1})


def test_reduce_matches_golden_hashes():
    # SHA-256 of the texts of reduce_to_simple(t), one line per tree of
    # the cell in all_trees order, recorded when the rewrite still ran
    # on decoded Leaf/Node layouts
    golden = json.loads((Path(__file__).parent / "fixtures" / "reduce_sha256.json").read_text())
    assert sorted(golden) == ["4,4", "5,3", "6,2"]
    for cell, want in golden.items():
        trees = all_trees(*map(int, cell.split(",")))
        text = "\n".join(reduce_to_simple(t).text() for t in trees)
        assert len(trees) == want["trees"], cell
        assert hashlib.sha256(text.encode()).hexdigest() == want["sha256"], cell


# ------------------------------------------------- raw-route cross checks

def _raw_zero_test(ts, n, m):
    """Zero test straight from the raw presentation: express the sum
    over orientation-explicit generators and test membership in the
    integer span of the AS and IHX rows."""
    gens, rows = raw_presentation(n, m)
    index = {graph_explicit_code(g): i for i, g in enumerate(gens)}
    lat = IntegerLattice(rows)
    vec = {}
    for t, c in ts.items():
        # any raw representative works; representatives differ by AS rows
        g = decode(t)
        ct, s = canonicalize(SignedTree(1, g))
        assert ct == t
        i = index[graph_explicit_code(g)]
        vec[i] = vec.get(i, 0) + c * s
    return not lat.reduce(vec)


def test_zero_test_agrees_with_raw_presentation():
    import random
    rng = random.Random(99)
    for n, m in [(1, 2), (2, 2), (2, 3)]:
        trees = all_trees(n, m)
        agree_zero = agree_nonzero = 0
        for _ in range(40):
            ts = TreeSum([(rng.choice(trees), rng.randint(-2, 2)) for _ in range(3)])
            a = is_zero(ts, n, m)
            b = _raw_zero_test(ts, n, m)
            assert a == b, (n, m, ts.text())
            if a:
                agree_zero += 1
            else:
                agree_nonzero += 1
        assert agree_nonzero  # the sample is not degenerate
        for r in [relator_sum(ct, e) for ct, e in ihx_triples(n, m)]:
            assert _raw_zero_test(r, n, m)


def test_cokernels_agree_between_presentations():
    # SNF of the orientation-explicit AS + IHX presentation against the
    # library's canonical one: equal free rank, equal invariant factors
    cells = [(0, 3, False), (1, 1, False), (1, 2, False), (1, 3, False), (2, 2, False),
             (2, 3, False), (3, 2, False), (3, 3, False),
             (0, 2, True), (1, 3, True), (2, 4, True), (3, 5, True)]
    for n, m, nonrepeating in cells:
        gens, rows = raw_presentation(n, m, nonrepeating)
        factors, rank = smith_normal_form(rows)
        raw = AbelianGroupStructure(len(gens) - rank, tuple(d for d in factors if d > 1))
        assert group_structure(n, m, nonrepeating) == raw, (n, m, nonrepeating)


def test_cokernel_takes_each_row_once_up_to_sign():
    # the Smith form of the distinct rows up to sign against that of every
    # row, on cells where rows repeat and where they repeat negated
    repeated = negated = 0
    for n, m in [(1, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        mat = presentation(n, m)
        factors, rank = smith_normal_form(mat.row_dicts())
        assert mat.cokernel() == AbelianGroupStructure(
            mat.ncols - rank, tuple(d for d in factors if d > 1)), (n, m)
        rows = set(mat.rows)
        repeated += len(mat.rows) - len(rows)
        negated += sum(tuple((j, -c) for j, c in r) in rows for r in rows)
    assert repeated and negated
    # rows equal up to the sign of one entry are not the same row
    mat = RelationMatrix(all_trees(0, 2)[:2], (((0, 1), (1, 1)), ((0, 1), (1, -1))), 2)
    assert mat.cokernel() == AbelianGroupStructure(0, (2,))


def test_unit_pivots_leave_the_smith_form_of_every_block_unchanged():
    # smith_normal_form splits the +-1 pivots off first; Kannan-Bachem
    # alone must give the same factors, on the raw rows of each
    # representative block and on its rows taken once up to sign
    cells = [(n, m) for n in range(6) for m in range(1, 5)] + [(6, 3)]
    for n, m in cells:
        for _, trees in trees_module.representative_blocks(n, m):
            rows = groups._matrix(trees).rows
            distinct = {r if r[0][1] > 0 else tuple((j, -c) for j, c in r): None
                        for r in rows if r}
            for matrix in (rows, distinct):
                matrix = [dict(r) for r in matrix]
                assert smith_normal_form(matrix) == intlinalg._kannan_bachem(matrix), (n, m)


def _closed_form(n, m):
    """The order-n group on m labels (Conant-Schneiderman-Teichner, Tree
    homology and a conjecture of Levine): free rank m L_{n+1} - L_{n+2},
    with L_k the Witt dimensions, plus (Z/2)^{m L_{(n+1)/2}} at odd n."""
    free = m * lie_dimension_oracle(m, n + 1) - lie_dimension_oracle(m, n + 2)
    torsion = (2,) * (m * lie_dimension_oracle(m, (n + 1) // 2)) if n % 2 else ()
    return AbelianGroupStructure(free, torsion)


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(1, 5)]
                         + [(5, 2), (5, 3), (5, 4), (6, 3)])
def test_group_structure_matches_closed_form(n, m):
    assert group_structure(n, m) == _closed_form(n, m)


@pytest.fixture
def recording(monkeypatch):
    """Every (lattice, row) the groups module adds to a lattice; blocks
    built while patched are dropped after the test."""
    from towertrees import groups

    added = []

    class Recording(IntegerLattice):
        def add(self, vec):
            added.append((self, dict(vec)))
            return super().add(vec)

    monkeypatch.setattr(groups, "IntegerLattice", Recording)
    groups._block.cache_clear()
    yield added
    groups._block.cache_clear()


def _block_trees(n, m, mu):
    return [ct for ct in all_trees(n, m) if tuple(ct.labels) == mu]


def _block_triples(n, m, mu):
    return [(ct, edge) for ct, edge in ihx_triples(n, m) if tuple(ct.labels) == mu]


def test_negative_order_is_refused_and_caches_nothing():
    from towertrees import groups

    trees_cached = all_trees.cache_info().currsize
    blocks_cached = groups._block.cache_info().currsize
    with pytest.raises(BoundsError, match=r"^order must be at least 0, not -1$"):
        relator_solver(-1, 4, (1, 2))
    with pytest.raises(BoundsError, match=r"^order must be at least 0, not -1$"):
        all_trees(-1, 3)
    with pytest.raises(BoundsError, match=r"^label count must be at least 1, not 0$"):
        all_trees(2, 0)
    assert all_trees.cache_info().currsize == trees_cached
    assert groups._block.cache_info().currsize == blocks_cached


def test_first_zero_test_builds_only_the_touched_block(recording):
    # one Jacobi triple ((1,2),3)-d + ((2,3),1)-d + ((3,1),2)-d at (4,4)
    # lies in one label-multiset block; its first zero test enumerates
    # that block alone, not the whole cell, and adds its rows alone.
    # The block is keyed by its multiset, so the cell (4,5) shares it.
    for fn in (all_trees, block_trees, representative_blocks):
        fn.cache_clear()
    d = "(4,(1,2))"
    jacobi = TreeSum([canonicalize(SignedTree(1, parse_tree(f"inner({j},{d},)")))
                      for j in ("((1,2),3)", "((2,3),1)", "((3,1),2)")])
    mu = (1, 1, 2, 2, 3, 4)
    assert len(jacobi) == 3 and {tuple(t.labels) for t in jacobi.trees()} == {mu}
    assert is_zero(jacobi, 4, 4)
    assert (all_trees.cache_info().currsize, block_trees.cache_info().currsize) == (0, 1)
    assert is_zero(jacobi, 4, 5)
    assert relator_solver(4, 4, mu)[1] is relator_solver(4, 5, mu)[1]
    assert (all_trees.cache_info().currsize, block_trees.cache_info().currsize,
            groups._block.cache_info().currsize) == (0, 1, 1)
    rows = len(_block_triples(4, 4, mu)) + sum(ct.two_torsion for ct in _block_trees(4, 4, mu))
    assert len({id(lattice) for lattice, _ in recording}) == 1
    assert len(recording) == rows < len(presentation(4, 4).rows)


def test_relator_lattice_adds_ihx_rows_first_then_torsion_rows(recording):
    # the solver names a row by the order it entered its block's lattice,
    # and its combination depends on that order: the block's IHX rows
    # come first, in relative ihx_triples order, then its doubling rows
    # in ascending column
    from towertrees import groups

    n, m, mu = 3, 2, (1, 1, 1, 2, 2)
    trees = _block_trees(n, m, mu)
    index = {ct: i for i, ct in enumerate(trees)}
    triples = _block_triples(n, m, mu)
    torsion = [i for i, ct in enumerate(trees) if ct.two_torsion]
    assert triples and torsion and len(triples) < len(ihx_triples(n, m))
    assert groups.relator_solver(n, m, mu)[0] == tuple(triples)
    added = [row for _, row in recording]
    assert len(added) == len(triples) + len(torsion)
    for row, (ct, edge) in zip(added, triples):
        assert row == {index[t]: c for t, c in relator_sum(ct, edge).items()}
    assert added[len(triples):] == [{i: 2} for i in torsion]


@pytest.mark.parametrize("mu", [(9, 9, 9, 9), (9, 9, 9, 12), (1, 2), (1, 2, 3, 4, 4)])
def test_relator_solver_refuses_a_multiset_of_no_block(mu):
    # labels past m, or too few or too many leaves for order 2: a
    # ValueError naming the multiset, and no empty block cached for it
    from towertrees import groups

    relator_solver(2, 4, (1, 2, 3, 4))
    before = groups._block.cache_info().currsize
    with pytest.raises(ValueError, match=rf"^no order-2 tree on labels 1\.\.4 "
                                         rf"has the label multiset {re.escape(repr(mu))}$"):
        relator_solver(2, 4, mu)
    assert groups._block.cache_info().currsize == before


def _seeded_sums(n, m, rng):
    """Zero sums of relators from three blocks, the same plus one tree
    or one 2-torsion tree, and random four-term sums."""
    trees = all_trees(n, m)
    by_block = {}
    for ct, edge in ihx_triples(n, m):
        by_block.setdefault(tuple(ct.labels), []).append((ct, edge))
    torsion = [ct for ct in trees if ct.two_torsion]
    sums = []
    for _ in range(8):
        zero = TreeSum()
        for mu in rng.sample(sorted(by_block), 3):
            zero = zero + relator_sum(*rng.choice(by_block[mu])).scale(rng.choice((1, -1, 2, 3)))
        sums += [zero, zero + TreeSum({rng.choice(trees): rng.choice((1, -1, 2))}),
                 zero + TreeSum({rng.choice(torsion): 1}),
                 TreeSum({t: rng.choice((1, -1, 2)) for t in rng.sample(trees, 4)})]
    return sums


@pytest.mark.parametrize("n, m", [(2, 4), (3, 3), (3, 4), (4, 2), (4, 4)])
def test_block_queries_match_the_whole_cell_lattice(n, m):
    # per-block lattices answer as one tracked lattice of the cell's
    # whole presentation does: the same zero test, residue and relators
    generators, triples, lattice = cell_lattice(n, m)
    index = {ct: i for i, ct in enumerate(generators)}
    seen = set()
    for ts in _seeded_sums(n, m, random.Random(13 * n + m)):
        vec = {index[t]: c for t, c in ts.items()}
        zero = not lattice.reduce(vec)
        assert is_zero(ts, n, m) == zero
        residue = TreeSum([(generators[i], c) for i, c in lattice.reduce(vec).items()])
        assert normal_form(ts, n, m).text() == residue.text()
        combo = lattice.solve(vec)
        assert relator_combination(ts, n, m) == (None if combo is None else [
            (*triples[k], c) for k, c in sorted(combo.items()) if k < len(triples)])
        blocks = {tuple(t.labels) for t in ts.trees()}
        seen.add((zero, len(blocks) >= 3, any(t.two_torsion for t in ts.trees())))
    assert {(True, True), (False, True)} <= {(z, wide) for z, wide, _ in seen}
    assert any(torsion for _, _, torsion in seen)


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _witt(nu):
    """The multigraded Witt dimension L_nu, nu a vector of label
    multiplicities: (1/|nu|) sum over d | gcd(nu) of
    mobius(d) (|nu|/d)! / prod (nu_i/d)!."""
    size, g = sum(nu), reduce(gcd, nu)
    total = 0
    for d in range(1, g + 1):
        if g % d == 0:
            term = factorial(size // d)
            for k in nu:
                term //= factorial(k // d)
            total += _mobius(d) * term
    return total // size


def _block_free_rank(nu):
    """Sum over i of L_{nu - e_i}, minus L_nu: the multigraded form of
    Levine's conjecture (Conant-Schneiderman-Teichner, Tree homology and
    a conjecture of Levine)."""
    return sum(_witt(nu[:i] + (k - 1,) + nu[i + 1:]) for i, k in enumerate(nu) if k) - _witt(nu)


def _block_torsion_count(nu):
    """k with block nu's torsion (Z/2)^k, observed on every block below:
    the sum of L_{(nu - e_i)/2} over the i where nu - e_i is all even,
    so 0 at even order, where |nu - e_i| is odd."""
    return sum(_witt(tuple(j // 2 for j in nu[:i] + (k - 1,) + nu[i + 1:]))
               for i, k in enumerate(nu)
               if k and all(j % 2 == 0 for j in nu[:i] + (k - 1,) + nu[i + 1:]))


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(1, 5)]
                         + [(5, 1), (5, 2), (5, 3)])
def test_block_free_ranks_match_closed_form(n, m):
    from towertrees import groups

    blocks = {mu: block_trees(mu) for mu in cell_multisets(n, m)}
    assert list(blocks) == list(itertools.combinations_with_replacement(range(1, m + 1), n + 2))
    total = torsion = 0
    for mu, trees in blocks.items():
        nu = tuple(mu.count(i) for i in range(1, m + 1))
        rank = len(trees) - groups.relator_solver(n, m, mu)[1].rank
        assert rank == _block_free_rank(nu), mu
        expected = AbelianGroupStructure(rank, (2,) * _block_torsion_count(nu))
        assert groups._matrix(trees).cokernel() == expected, mu
        total += rank
        torsion += len(expected.torsion)
    assert group_structure(n, m) == AbelianGroupStructure(total, (2,) * torsion)


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(1, 5)] + [(5, 3)])
def test_group_structure_matches_the_whole_cell_presentation(n, m):
    # the sum over representative blocks against one Smith normal form
    # of the whole cell's rows, or of those on its nonrepeating trees
    for nonrepeating, mat in ((False, presentation(n, m)), (True, nonrepeating_presentation(n, m))):
        assert group_table(n, m, nonrepeating) == (mat.cokernel(), mat.ncols, len(mat.rows))
        assert group_structure(n, m, nonrepeating) == mat.cokernel()


@pytest.mark.parametrize("n, m", [(n, m) for n in range(7) for m in range(1, 5)]
                         + [(3, 5), (4, 5), (2, 6)])
def test_closed_form_counts_match_every_block(n, m):
    # Otter's count and its signed version against the enumeration, block
    # by block: the trees and the 2-torsion trees of each label multiset
    assert closed_form_counts(n, m) == {
        mu: (len(trees), sum(ct.two_torsion for ct in trees))
        for mu in cell_multisets(n, m) for trees in [block_trees(mu)]}


@pytest.mark.parametrize("n, m", [(8, 3), (7, 4)])
def test_closed_form_counts_match_the_representative_blocks_of_large_cells(n, m):
    # the blocks that the groups verb enumerates at the cells CI pins,
    # with no whole-cell enumeration to compare them with
    counts = closed_form_counts(n, m)
    reps = representative_blocks(n, m)
    for _, trees in reps:
        assert counts[trees[0].labels] == (len(trees), sum(ct.two_torsion for ct in trees))
    assert sum(count * len(trees) for count, trees in reps) == closed_form_sizes(n, m)[0]


@pytest.mark.parametrize("n, m", [(n, m) for n in range(6) for m in range(1, 5)]
                         + [(6, 3), (6, 4), (3, 5), (4, 5)])
def test_group_table_sizes_match_closed_form(n, m):
    table = group_table(n, m)
    assert (table.generator_count, table.relator_count) == closed_form_sizes(n, m)


def test_closed_form_sizes_of_the_large_cells():
    # the sizes that the groups verb prints at (7,3), (6,4), (8,3) and
    # (3,6), which CI pins, and those it printed at (7,4) and (6,5)
    assert closed_form_sizes(7, 3) == (17_790, 122_331)
    assert closed_form_sizes(6, 4) == (31_420, 180_648)
    assert closed_form_sizes(8, 3) == (85_536, 675_000)
    assert closed_form_sizes(3, 6) == (1_386, 3_528)
    assert closed_form_sizes(7, 4) == (190_360, 1_290_092)
    assert closed_form_sizes(6, 5) == (165_510, 937_150)


def test_block_torsion_merges_into_invariant_factors(monkeypatch):
    # only Z/2 occurs in the cells, but the sum must not assume it: at
    # (0,2) the block (1,1) counts twice and (1,2) once, so blocks read
    # as Z/2 and Z/3 + Z/12 sum to Z/2 + Z/6 + Z/12
    from towertrees import groups

    fake = {(1, 1): AbelianGroupStructure(0, (2,)), (1, 2): AbelianGroupStructure(1, (3, 12))}
    monkeypatch.setattr(groups.RelationMatrix, "cokernel",
                        lambda mat: fake[tuple(mat.generators[0].labels)])
    assert group_structure(0, 2) == AbelianGroupStructure(1, (2, 6, 12))


def test_relator_combination_sums_back_to_the_input():
    # an integer combination of relators comes back as relators, in
    # ihx_triples order, that sum to it; a nonzero class has none
    rng = random.Random(11)
    for n, m in [(2, 4), (3, 3), (4, 2)]:
        triples = ihx_triples(n, m)
        order = {triple: k for k, triple in enumerate(triples)}
        ts = TreeSum()
        for _ in range(6):
            ts = ts + relator_sum(*rng.choice(triples)).scale(rng.choice((1, -1, 2)))
        combo = relator_combination(ts, n, m)
        assert [order[ct, edge] for ct, edge, _ in combo] == \
            sorted(order[ct, edge] for ct, edge, _ in combo)
        assert all(c for _, _, c in combo)
        total = TreeSum()
        for ct, edge, c in combo:
            total = total + relator_sum(ct, edge).scale(c)
        assert total == ts, (n, m)
    assert relator_combination(TreeSum(), 2, 4) == []
    assert relator_combination(TreeSum({canon("inner((1,2),(3,4),)"): 1}), 2, 4) is None
