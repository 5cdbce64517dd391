"""The graded abelian groups of decorated trees.

For trivial decorations and labels in 1..m, the order-n group is
presented by raw orientation-explicit trees modulo the antisymmetry
rows t + t^flip and the IHX rows I - H + X.  Working over canonical
trees instead, antisymmetry is already folded in and the group is the
quotient of the free part (with a Z/2 for each 2-torsion tree) by the
IHX relator lattice; membership in that lattice is the exact zero test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .intlinalg import IntegerLattice, smith_normal_form
from .sums import TreeSum
from .trees import (
    CanonicalTree,
    DecoratedTree,
    Leaf,
    Node,
    SignedTree,
    _all_trees_cached,
    canonicalize,
    check_bounds,
    decode_code,
    explicit_code,
    flip_at,
    ihx_at,
    internal_paths,
    interior_edge_paths,
    is_simple,
    is_trivially_decorated,
    iter_raw_trees,
    labels_of,
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
    """Raw presentation: orientation-explicit tree generators and one
    sparse row per AS or IHX relator."""

    generators: tuple[DecoratedTree, ...]
    rows: tuple[tuple[tuple[int, int], ...], ...]
    as_count: int
    ihx_count: int

    @property
    def ncols(self):
        return len(self.generators)

    def row_dicts(self):
        return [dict(r) for r in self.rows]


# ------------------------------------------------------------- IHX relators

def ihx_triple(tree: CanonicalTree, edge: str):
    """The raw (I, H, X) trees of the local move at an interior edge of
    a canonical layout; I is the layout itself."""
    h, x = ihx_at(tree, edge)
    return tree.decode(), h, x


def relator_sum(tree: CanonicalTree, edge: str) -> TreeSum:
    """I - H + X at an interior edge, in canonical coordinates."""
    h, x = ihx_at(tree, edge)
    ch, sh = canonicalize(SignedTree(1, h))
    cx, sx = canonicalize(SignedTree(1, x))
    return TreeSum([(tree, 1), (ch, -sh), (cx, sx)])


def ihx_triples(order, labels, nonrepeating=False, bounds=None):
    """Every (canonical tree, interior edge) pair in a fixed order."""
    check_bounds(order, labels, bounds)
    return _ihx_triples(order, labels, nonrepeating)


def _ihx_triples(order, labels, nonrepeating=False):
    out = []
    for ct in _all_trees_cached(order, labels):
        if nonrepeating and not ct.nonrepeating:
            continue
        for edge in sorted(interior_edge_paths(ct)):
            out.append((ct, edge))
    return tuple(out)


def ihx_relators(order, labels, nonrepeating=False, bounds=None):
    """All IHX relator sums for the order-n trees on labels 1..m."""
    return [relator_sum(ct, e) for ct, e in ihx_triples(order, labels, nonrepeating, bounds)]


# ------------------------------------------------------------- presentation

@lru_cache(maxsize=None)
def _raw_generators(order, labels, nonrepeating):
    seen = {}
    for t in iter_raw_trees(order, labels):
        if nonrepeating:
            labs = labels_of(t)
            if len(set(labs)) != len(labs):
                continue
        code = explicit_code(t)
        if code not in seen:
            seen[code] = True
    return tuple(sorted(seen))


def raw_generators(order, labels, nonrepeating=False, bounds=None):
    """Orientation-explicit trees (no AS identification), one layout
    representative per isomorphism class, sorted."""
    check_bounds(order, labels, bounds)
    return tuple(decode_code(c) for c in _raw_generators(order, labels, nonrepeating))


def presentation(order, labels, nonrepeating=False, bounds=None):
    """Raw presentation of the order-n group on labels 1..m."""
    check_bounds(order, labels, bounds)
    return _presentation(order, labels, nonrepeating)


def _presentation(order, labels, nonrepeating):
    codes = _raw_generators(order, labels, nonrepeating)
    index = {c: i for i, c in enumerate(codes)}
    gens = tuple(decode_code(c) for c in codes)

    rows = []
    for i, g in enumerate(gens):
        for path in internal_paths(g):
            flipped = explicit_code(flip_at(g, path))
            row = {i: 1}
            j = index[flipped]
            row[j] = row.get(j, 0) + 1
            rows.append(tuple(sorted(row.items())))
    as_count = len(rows)

    for ct, edge in _ihx_triples(order, labels, nonrepeating):
        i_raw, h_raw, x_raw = ihx_triple(ct, edge)
        row = {}
        for t, coeff in ((i_raw, 1), (h_raw, -1), (x_raw, 1)):
            j = index[explicit_code(t)]
            row[j] = row.get(j, 0) + coeff
        row = {j: v for j, v in row.items() if v}
        rows.append(tuple(sorted(row.items())))
    ihx_count = len(rows) - as_count

    return RelationMatrix(gens, tuple(rows), as_count, ihx_count)


@lru_cache(maxsize=None)
def _group_structure_cached(order, labels, nonrepeating):
    mat = _presentation(order, labels, nonrepeating)
    factors, rank = smith_normal_form(mat.row_dicts())
    torsion = tuple(d for d in factors if d > 1)
    return AbelianGroupStructure(mat.ncols - rank, torsion)


def group_structure(order, labels, nonrepeating=False, bounds=None):
    """Free rank and invariant factors of the order-n group, computed
    as the cokernel of the raw presentation via Smith normal form."""
    check_bounds(order, labels, bounds)
    return _group_structure_cached(order, labels, nonrepeating)


# ---------------------------------------------------------- the zero test

@lru_cache(maxsize=None)
def tree_basis(order, labels):
    """Index of every canonical order-n tree over labels 1..m."""
    return {ct.code: i for i, ct in enumerate(_all_trees_cached(order, labels))}


def ts_to_vec(ts: TreeSum, order, labels):
    basis = tree_basis(order, labels)
    vec = {}
    for t, c in ts.items():
        if t.code not in basis:
            raise ValueError(f"tree {t.text()} is not an order-{order} tree on labels 1..{labels}")
        vec[basis[t.code]] = c
    return vec


@lru_cache(maxsize=None)
def _relator_lattice(order, labels):
    """Lattice of consequences of the relations among canonical trees:
    2t for each 2-torsion tree plus every IHX relator."""
    trees = _all_trees_cached(order, labels)
    basis = tree_basis(order, labels)
    lat = IntegerLattice()
    for i, ct in enumerate(trees):
        if ct.two_torsion:
            lat.add({i: 2})
    for ct, edge in _ihx_triples(order, labels):
        vec = {basis[t.code]: c for t, c in relator_sum(ct, edge).items()}
        lat.add(vec)
    return lat


def _check_trivial(ts: TreeSum):
    for t, _ in ts.items():
        if not is_trivially_decorated(t):
            raise ValueError("zero test supports the trivial group alphabet only")


def is_zero(ts: TreeSum, order, labels, bounds=None):
    """Exact zero test in the order-n group: true iff the coefficient
    vector lies in the integer relator lattice."""
    if ts.is_empty():
        return True
    if ts.order != order:
        raise ValueError(f"sum has order {ts.order}, expected {order}")
    check_bounds(order, labels, bounds)
    _check_trivial(ts)
    return _relator_lattice(order, labels).contains(ts_to_vec(ts, order, labels))


def normal_form(ts: TreeSum, order, labels, bounds=None):
    """Canonical coset representative of ts modulo the relator lattice."""
    if ts.is_empty():
        return TreeSum()
    check_bounds(order, labels, bounds)
    _check_trivial(ts)
    residue = _relator_lattice(order, labels).reduce(ts_to_vec(ts, order, labels))
    trees = _all_trees_cached(order, labels)
    return TreeSum([(trees[i], c) for i, c in residue.items()])


@lru_cache(maxsize=None)
def relator_solver(order, labels):
    """Tracked lattice for expressing zero classes as explicit relator
    combinations.  Tags: ("ihx", k) for the k-th entry of
    ihx_triples(order, labels), ("tors", i) for the doubling row of the
    i-th canonical tree."""
    trees = _all_trees_cached(order, labels)
    basis = tree_basis(order, labels)
    lat = IntegerLattice(track=True)
    triples = _ihx_triples(order, labels)
    for k, (ct, edge) in enumerate(triples):
        vec = {basis[t.code]: c for t, c in relator_sum(ct, edge).items()}
        lat.add(vec, tag=("ihx", k))
    for i, ct in enumerate(trees):
        if ct.two_torsion:
            lat.add({i: 2}, tag=("tors", i))
    return triples, lat


# ------------------------------------------------------- spanning by simple

def reduce_to_simple(tree: CanonicalTree) -> TreeSum:
    """Rewrite a canonical tree as a combination of simple trees.

    Simple trees are returned unchanged.  Otherwise the layout bracket
    is right-normed by the classical rewrite

        ((U1, U2), V)  ->  (U1, (U2, V)) - (U2, (U1, V))

    each step one IHX move at an interior edge, so the difference from
    the input lies in the relator lattice.  Terminates because the left
    argument shrinks at the top and the rewrite recurses into smaller
    subtrees.
    """
    if is_simple(tree):
        return TreeSum({tree: 1})
    if not is_trivially_decorated(tree):
        raise ValueError("reduction supports the trivial group alphabet only")
    layout = tree.decode()
    out = []
    for comb, coeff in _right_norm(layout.right).items():
        ct, sign = canonicalize(SignedTree(1, DecoratedTree(layout.left, comb, "")))
        out.append((ct, coeff * sign))
    return TreeSum(out)


def _right_norm(b) -> dict:
    if isinstance(b, Leaf):
        return {b: 1}
    if isinstance(b.left, Leaf):
        return {Node(b.left, m): c for m, c in _right_norm(b.right).items()}
    u1, u2 = b.left.left, b.left.right
    v = b.right
    acc: dict = {}
    for term, c in _right_norm(Node(u1, Node(u2, v))).items():
        acc[term] = acc.get(term, 0) + c
    for term, c in _right_norm(Node(u2, Node(u1, v))).items():
        acc[term] = acc.get(term, 0) - c
    return {t: c for t, c in acc.items() if c}
