"""The graded abelian groups of decorated trees.

For trivial decorations and labels in 1..m, the order-n group is
generated by the canonical order-n trees, which already identify trees
related by antisymmetry (AS), modulo the IHX rows I - H + X and a
doubling row 2t for each 2-torsion tree t.  Each row keeps a tree's
label multiset, so the group is the direct sum of its label-multiset
blocks, and a label permutation carries one block onto another.
``group_table`` (the structure and the presentation's sizes) sums over
the representative blocks of ``trees.representative_blocks``, each
counted once per arrangement of its multiplicities: one Smith normal
form per block, of its distinct rows up to sign, then one of their
invariant factors' diagonal; it keeps no answer cache.  ``presentation``
is the whole cell's rows, in one matrix.  The zero test, normal forms
and relator combinations use one tracked lattice per multiset, built
on first use and cached by the multiset alone, for every cell.
``reduce_to_simple`` rewrites the canonical code itself.

Every IHX row is built by ``_rows``, for ``presentation``,
``group_table`` and the zero test's blocks alike, and every relator sum
by ``_relator_terms``.  A companion H or X keeps its tree's root and
labels, and differs from it only on the path from the rewritten vertex
up to the root.  ``_rows`` canonicalizes neither: the one descent to
the edge, ``trees._ihx``, sorts that path as it climbs back, and
``_rows`` looks the sorted reading up in one
``trees.reading_table`` of its trees, which holds every reading of each
tree from a leaf of its least label, with its column and sign.  The
representative blocks make label 1 the rarest, which keeps that table
small.  ``_relator_terms``, like the combs of ``reduce_to_simple``,
canonicalizes H and X through ``trees.canonicalize_rewrite``.

Every function here computes whatever cell it is asked for, with no
upper cap: an order below 0 or a label count below 1 is a
``BoundsError`` from ``trees.cell_multisets``, for the empty sum too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .intlinalg import IntegerLattice, smith_normal_form
from .sums import TreeSum
from .trees import (
    _ihx,
    CanonicalTree,
    all_trees,
    block_trees,
    canonicalize_rewrite,
    cell_multisets,
    ihx_at,
    interior_edge_paths,
    is_simple,
    is_trivially_decorated,
    reading_table,
    representative_blocks,
)


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Isomorphism type of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...]  # invariant factors > 1, each dividing the next

    def text(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianGroupStructure({self.text()})"


@dataclass(frozen=True)
class RelationMatrix:
    """Presentation of an order-n tree group: the canonical trees as
    generators (columns), then one sparse row per IHX relator, in
    ``ihx_triples`` order, then a row 2t per 2-torsion tree t, in tree
    order."""

    generators: tuple[CanonicalTree, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    ihx_count: int

    @property
    def ncols(self):
        return len(self.generators)

    def row_dicts(self):
        return [dict(r) for r in self.rows]

    def cokernel(self):
        """The group presented, via Smith normal form of the rows, each
        taken once up to sign: a repeated or negated row spans nothing
        new, and most IHX relations are written once from each of their
        trees."""
        rows = {r if r[0][1] > 0 else tuple((j, -c) for j, c in r): None for r in self.rows if r}
        factors, rank = smith_normal_form([dict(r) for r in rows])
        return AbelianGroupStructure(self.ncols - rank, tuple(d for d in factors if d > 1))


# ------------------------------------------------------------- IHX relators

def _relator_terms(tree, h, x):
    """I - H + X as (CanonicalTree, coefficient) terms, H and X the codes from ``ihx_at``."""
    ch, sh = _rewritten(tree, h)
    cx, sx = _rewritten(tree, x)
    return [(tree, 1), (ch, -sh), (cx, sx)]


def _rewritten(tree, code):
    """``canonicalize(SignedTree(1, code))`` for a layout code that
    rewrites ``tree`` with its root and labels, the CanonicalTree built
    with ``tree``'s order and labels."""
    code, sign, torsion = canonicalize_rewrite(code, tree.labels)
    return CanonicalTree(code, torsion, tree.order, tree.labels), sign


def relator_sum(tree: CanonicalTree, edge: str) -> TreeSum:
    """I - H + X at an interior edge, in canonical coordinates."""
    return TreeSum(_relator_terms(tree, *ihx_at(tree, edge)))


def ihx_triples(order, labels):
    """Every (canonical tree, interior edge) pair in a fixed order."""
    return _triples(all_trees(order, labels))


def _triples(trees):
    # interior_edge_paths lists a tree's edges in sorted order
    return tuple((ct, edge) for ct in trees for edge in interior_edge_paths(ct))


# ------------------------------------------------------------- presentation

def presentation(order, labels):
    """The presentation of the order-n group on labels 1..m, whole cell."""
    return _matrix(all_trees(order, labels))


def _matrix(trees):
    """The presentation on the given trees, closed under IHX: a cell or one block."""
    triples = _triples(trees)
    return RelationMatrix(trees, _rows(trees, triples), len(triples))


def _rows(trees, triples):
    """The IHX row of each triple, then a row 2t per 2-torsion tree t,
    as sorted (column, coefficient) pairs, a tree's column its index.
    H and X keep their tree's root and labels and differ from it only on
    the path above the edge: ``_ihx`` sorts that path on its one climb,
    and the trees' ``reading_table``, dropped on return, gives the column
    and the sign of the sorted reading."""
    table = reading_table(trees)
    torsion = [ct.two_torsion for ct in trees]
    rows, tree = [], None
    for ct, edge in triples:
        if ct is not tree:  # a tree's triples are consecutive
            tree, i = ct, table[ct.code][0]
        (h, hsign), (x, xsign) = _ihx(ct, edge)
        row = {i: 1}
        for (j, s), c in ((table[h], -hsign), (table[x], xsign)):
            # as in a TreeSum: 2-torsion coefficients mod 2, zeros dropped
            c = c * s + row.get(j, 0)
            row[j] = c % 2 if torsion[j] else c
        rows.append(tuple(sorted(jc for jc in row.items() if jc[1])))
    rows.extend(((i, 2),) for i, ct in enumerate(trees) if ct.two_torsion)
    return tuple(rows)


class GroupTable(NamedTuple):
    structure: AbelianGroupStructure
    generator_count: int      # the columns of its presentation
    relator_count: int        # the rows of its presentation


def group_table(order, labels, nonrepeating=False):
    """The order-n group and the size of its presentation, restricted to
    trees with pairwise distinct labels when ``nonrepeating``: a sum over
    the representative blocks, each block's presentation built, reduced
    and dropped."""
    free = generators = relators = 0
    torsion = []
    for count, trees in representative_blocks(order, labels):
        if nonrepeating and not trees[0].nonrepeating:
            continue
        mat = _matrix(trees)
        gs = mat.cokernel()
        free += count * gs.free_rank
        torsion += gs.torsion * count
        generators += count * mat.ncols
        relators += count * len(mat.rows)
    # the invariant factors of a direct sum of cyclic groups: the Smith
    # form of their diagonal, whose gcd/lcm sweep merges prime powers
    factors, _ = smith_normal_form([{i: d} for i, d in enumerate(torsion)])
    return GroupTable(AbelianGroupStructure(free, tuple(d for d in factors if d > 1)),
                      generators, relators)


def group_structure(order, labels, nonrepeating=False):
    """Free rank and invariant factors of the order-n group; for the
    whole cell, those of ``presentation(order, labels).cokernel()``."""
    return group_table(order, labels, nonrepeating).structure


# ---------------------------------------------------------- the zero test

class _Block(NamedTuple):
    trees: tuple              # the block's canonical trees, in tree order
    index: dict               # canonical tree code -> column of the block
    triples: tuple            # its (tree, edge) pairs, in ihx_triples order
    lattice: IntegerLattice   # tracked; added row k < len(triples) is triples[k]'s


@lru_cache(maxsize=None)
def _block(multiset, /):
    """One label multiset's relator block, for every cell holding it:
    ``IntegerLattice.add`` reduces a row only against pivots in its support,
    so other blocks' rows would change none of its basis, residues or solutions."""
    trees = block_trees(multiset)
    triples = _triples(trees)
    lattice = IntegerLattice(map(dict, _rows(trees, triples)), track=True)
    return _Block(trees, {ct.code: i for i, ct in enumerate(trees)}, triples, lattice)


def _in_cell(multiset, order, labels):
    """Whether a label tuple is a multiset of the order-n cell on labels
    1..m, the one rule for having a block: n + 2 sorted labels in 1..m."""
    return (len(multiset) == order + 2 and 1 <= multiset[0] <= multiset[-1] <= labels
            and tuple(sorted(multiset)) == multiset)


def _vectors(ts: TreeSum, order, labels):
    """(multiset, block, column vector) for each label multiset of ts's
    terms, none for the empty sum, after checking its order, decorations
    and labels: a term has a block iff its labels are ``_in_cell``, and no
    tree's are in a cell below order 0 or label count 1.  So the cell is
    checked only for the empty sum and on the error path."""
    if ts.is_empty():
        cell_multisets(order, labels)  # refuses an order below 0 or m below 1
        return []
    if ts.order != order:
        raise ValueError(f"sum has order {ts.order}, expected {order}")
    by_block = {}
    for t, c in ts.items():
        by_block.setdefault(t.labels, []).append((t.code, c))
    out = [(mu, block, {block.index.get(code): c for code, c in terms})
           for mu, terms in by_block.items() if _in_cell(mu, order, labels)
           for block in [_block(mu)]]
    if len(out) == len(by_block) and all(None not in vec for _, _, vec in out):
        return out
    # a term has no block when decorated, not _in_cell or not canonical, or when m < 1
    cell_multisets(order, labels)
    terms = ts.items()
    if not all(is_trivially_decorated(t) for t, _ in terms):
        raise ValueError("zero test supports the trivial group alphabet only")
    outside = [t for t, _ in terms if not _in_cell(t.labels, order, labels)]
    if outside:
        raise ValueError(f"tree {outside[0].text()} is not an order-{order} tree "
                         f"on labels 1..{labels}")
    bad = next(t for t, _ in terms if t.code not in _block(t.labels).index)
    raise ValueError(f"tree {bad.text()} is not in canonical form")


def is_zero(ts: TreeSum, order, labels):
    """Exact zero test in the order-n group: true iff the coefficient
    vector lies in the integer relator lattice, block by block."""
    return not any(block.lattice.reduce(vec) for _, block, vec in _vectors(ts, order, labels))


def normal_form(ts: TreeSum, order, labels):
    """Canonical coset representative of ts modulo the relator lattice."""
    out = []
    for _, block, vec in _vectors(ts, order, labels):
        out.extend((block.trees[i], c) for i, c in block.lattice.reduce(vec).items())
    return TreeSum(out)


def relator_solver(order, labels, multiset):
    """The (tree, edge) pairs of one label multiset's block, in
    ``ihx_triples`` order, and the block's tracked relator lattice,
    whose ``solve`` names the IHX row of triples[k] by k.  A multiset
    of no block is refused, and nothing is cached for it."""
    cell_multisets(order, labels)  # refuses an order below 0 or m below 1
    if not _in_cell(multiset, order, labels):
        raise ValueError(f"no order-{order} tree on labels 1..{labels} "
                         f"has the label multiset {multiset!r}")
    block = _block(multiset)
    return block.triples, block.lattice


def relator_combination(ts: TreeSum, order, labels):
    """ts as an integer combination of IHX relators I - H + X: the
    (tree, edge, coefficient) triples with nonzero coefficient, in
    ``ihx_triples`` order, or None when ts is not zero.  The doubling
    rows are left out, as a sum's 2-torsion coefficients are mod 2."""
    out = []
    for mu, _, vec in _vectors(ts, order, labels):
        # by the public name, which the benchmark's tracer wraps for the lattice rank
        triples, lattice = relator_solver(order, labels, mu)
        combo = lattice.solve(vec)
        if combo is None:
            return None
        out.extend((*triples[k], c) for k, c in combo.items() if k < len(triples))
    return sorted(out, key=lambda tec: (tec[0].code, tec[1]))


# ------------------------------------------------------- spanning by simple

def reduce_to_simple(tree: CanonicalTree) -> TreeSum:
    """Rewrite a canonical tree as a combination of simple trees.

    Simple trees are returned unchanged.  Otherwise the rest of the
    code (root, rest), a rooted code, is right-normed by the classical
    rewrite

        ((U1, U2), V)  ->  (U1, (U2, V)) - (U2, (U1, V))

    each step one IHX move at an interior edge, so the difference from
    the input lies in the relator lattice.  Terminates because the left
    argument shrinks at the top and the rewrite recurses into smaller
    subtrees.  Each comb (root, comb) keeps the root and labels, so it
    is canonicalized by ``canonicalize_rewrite``.
    """
    if is_simple(tree):
        return TreeSum({tree: 1})
    if not is_trivially_decorated(tree):
        raise ValueError("reduction supports the trivial group alphabet only")
    root, rest = tree.code
    out = []
    for comb, coeff in _right_norm(rest).items():
        ct, sign = _rewritten(tree, (root, comb))
        out.append((ct, coeff * sign))
    return TreeSum(out)


def _right_norm(c) -> dict:
    """A rooted code as a combination of right-normed codes."""
    if c[0] == 0:
        return {c: 1}
    _, a, v = c
    if a[0] == 0:
        return {(1, a, comb): k for comb, k in _right_norm(v).items()}
    _, u1, u2 = a
    acc = _right_norm((1, u1, (1, u2, v)))
    for comb, k in _right_norm((1, u2, (1, u1, v))).items():
        acc[comb] = acc.get(comb, 0) - k
    return {comb: k for comb, k in acc.items() if k}
