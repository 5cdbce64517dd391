"""Independent brute-force oracles the tests check the library against.

Nothing here reuses the library's canonicalization search, Smith normal
form elimination or Lie bracket; where an oracle needs tree plumbing it
sticks to the raw building blocks (explicit codes and single-vertex
flips).  ``graph_leaf_views`` is the reference for the
library's leaf views: it builds the adjacency graph of a tree and walks
it from every leaf, carrying the holonomy edge by edge, and the
explicit codes and canonical forms here are read off it.
``raw_presentation`` is the reference for the library's one
presentation of the tree groups: it keeps every vertex orientation and
imposes antisymmetry by explicit rows.  ``cell_lattice`` is the
reference for the zero test's per-block lattices: one tracked lattice
of a whole cell's presentation; ``nonrepeating_presentation`` is the
reference for the nonrepeating groups: that presentation restricted to
the trees with distinct labels.  ``layout_ihx_at`` is the
reference for ``trees.ihx_at``: it takes the IHX move on the decoded
Leaf/Node layout and returns H and X as DecoratedTrees.  ``bracket_eta`` is the
reference for ``lie.eta``: it expands every bracket of every graph-walk
view afresh, one dict word -> coefficient per bracket, summed by its
own helper here, sharing nothing with ``lie``.  ``hall_basis`` (the
Lyndon basis, bracketed by its standard factorization) and
``lie_dimension_oracle`` (Witt's necklace count) check the bracket's
dimensions, on that same helper; ``lie_dim_by_rank`` is a third count,
the rank of every bracketing of every word.  ``closed_form_counts``
and ``closed_form_sizes`` count the canonical trees, the 2-torsion
trees and the presentation's rows by generating functions, with no
enumeration at all.  ``random_raw_tower`` is
the seeded generator of well-formed raw towers for the randomized
suites and the demos, and ``object_extract_model`` the reference for
``towers.extract_model``: it builds the towers' trees as ``Leaf``/``Node``
objects with whisker words on their edges, and only then hands them to
the library's ``canonicalize``, since what it checks is how the words
and orientations reach the trees.  ``decode`` gives the
``Leaf``/``Node`` layout of a layout code, for the tests that compare
with the object form.  ``range_trees`` is the reference for
``trees.all_trees``: the whole-cell enumeration that builds the sorted
rests by order over a range of labels, with no label multisets; it
keeps the library's candidate filter, ``canonicalize_rewrite``, since
what it checks is how the candidates are built.  ``certificate_json``
is the reference for ``towers.certificate_to_json``: the move records
as dicts, written by ``json.dumps(records, indent=2)``.
"""

import json
from itertools import combinations, product
from math import gcd

from towertrees.groups import RelationMatrix, ihx_triples, presentation
from towertrees.intlinalg import IntegerLattice
from towertrees.towers import (IhxInsert, RawDisk, RawPoint, RawTower, _leaf_labels, make_model,
                               validate_raw)
from towertrees.trees import (CanonicalTree, DecoratedTree, Leaf, Node, SignedTree, canonicalize,
                              canonicalize_rewrite, labels_of, to_text)
from towertrees.words import winv, wmul


def _rooted(code):
    """The ``Leaf``/``Node`` tree of a rooted code."""
    if code[0] == 0:
        return Leaf(code[1], code[2])
    return Node(_rooted(code[1]), _rooted(code[2]))


def decode(tree):
    """The layout DecoratedTree of a layout code (root label, rest) or
    of a CanonicalTree's code."""
    root, rest = tree.code if isinstance(tree, CanonicalTree) else tree
    return DecoratedTree(Leaf(root), _rooted(rest), "")


class _Graph:
    """Adjacency form of a DecoratedTree.

    nbr[v] lists (edge, neighbor) pairs; for a trivalent vertex the list
    order realizes the cyclic orientation.  edges[e] = (tail, head, word)
    with the word read along tail -> head.
    """

    def __init__(self):
        self.labels = []   # label int for leaves, None for trivalent
        self.nbr = []
        self.edges = []
        self.leaves = []

    def vertex(self, label=None):
        self.labels.append(label)
        self.nbr.append([])
        if label is not None:
            self.leaves.append(len(self.labels) - 1)
        return len(self.labels) - 1

    def link(self, tail, head, word):
        e = len(self.edges)
        self.edges.append((tail, head, word))
        self.nbr[tail].append((e, head))
        self.nbr[head].append((e, tail))


def _build_side(g, rt):
    if isinstance(rt, Leaf):
        return g.vertex(rt.label)
    v = g.vertex()
    # children first, the parent entry last: cyclic order (l, r, parent)
    g.link(v, _build_side(g, rt.left), rt.left.word)
    g.link(v, _build_side(g, rt.right), rt.right.word)
    return v


def _graph(t):
    g = _Graph()
    lv = _build_side(g, t.left)
    rv = _build_side(g, t.right)
    g.link(lv, rv, wmul(winv(t.left.word), t.word, t.right.word))
    return g


def _cross(g, v, entry, hol):
    e, u = entry
    tail, _, word = g.edges[e]
    return u, wmul(hol, word if tail == v else winv(word))


def _view(g, v, e_in, hol):
    """Rooted view: (0, label, holonomy) or (1, left, right)."""
    if g.labels[v] is not None:
        return (0, g.labels[v], hol)
    ns = g.nbr[v]
    k = next(i for i, (e, _) in enumerate(ns) if e == e_in)
    c1, c2 = ns[(k + 1) % 3], ns[(k + 2) % 3]
    u1, h1 = _cross(g, v, c1, hol)
    u2, h2 = _cross(g, v, c2, hol)
    return (1, _view(g, u1, c1[0], h1), _view(g, u2, c2[0], h2))


def graph_leaf_views(tree):
    """(label, view) of a DecoratedTree rooted at each of its leaves,
    walked on its adjacency graph."""
    g = _graph(tree)
    out = []
    for r in g.leaves:
        entry = g.nbr[r][0]
        u, h = _cross(g, r, entry, "")
        out.append((g.labels[r], _view(g, u, entry[0], h)))
    return out


def _accumulate(poly, word, c):
    """poly[word] += c on a dict word -> coefficient, the entry dropped
    when it reaches zero."""
    c += poly.pop(word, 0)
    if c:
        poly[word] = c


def _element_bracket(a, b):
    """ab - ba of two polynomials, accumulated term by term."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            _accumulate(out, wa + wb, ca * cb)
            _accumulate(out, wb + wa, -ca * cb)
    return out


def _view_element(view):
    if view[0] == 0:
        if view[2]:
            raise ValueError("decorated trees have no Lie image")
        return {(view[1],): 1}
    return _element_bracket(_view_element(view[1]), _view_element(view[2]))


def bracket_eta(tree):
    """eta of a tree: the bracket read off each graph-walk leaf view,
    added to the component of that leaf's label."""
    if isinstance(tree, CanonicalTree):
        tree = decode(tree)
    out = {}
    for label, view in graph_leaf_views(tree):
        poly = out.setdefault(label, {})
        for w, c in _view_element(view).items():
            _accumulate(poly, w, c)
    return {label: poly for label, poly in out.items() if poly}


def bracket_eta_sum(pairs):
    """eta of a tree sum given as (tree, coefficient) pairs."""
    out = {}
    for tree, coeff in pairs:
        for label, el in bracket_eta(tree).items():
            poly = out.setdefault(label, {})
            for w, c in el.items():
                _accumulate(poly, w, coeff * c)
    return {label: poly for label, poly in out.items() if poly}


def bracket_eta_vector(tree):
    """eta of a tree as one dict (label, *word) -> coefficient: a row of
    the rank computation."""
    return {(label,) + w: c for label, el in bracket_eta(tree).items()
            for w, c in el.items()}


def lyndon_words(m, length):
    """Lyndon words of the given length over 1..m (Duval iteration)."""
    out = []
    w = [1]
    while True:
        if len(w) == length:
            out.append(tuple(w))
        k = len(w)
        while len(w) < length:
            w.append(w[len(w) - k])
        while w and w[-1] == m:
            w.pop()
        if not w:
            return out
        w[-1] += 1


def _standard_bracketing(word):
    if len(word) == 1:
        return {word: 1}
    # standard factorization: the longest proper Lyndon suffix (a
    # single letter is one, so the search always ends)
    for i in range(1, len(word)):
        suffix = word[i:]
        if all(suffix < suffix[j:] + suffix[:j] for j in range(1, len(suffix))):
            return _element_bracket(_standard_bracketing(word[:i]), _standard_bracketing(suffix))


def hall_basis(m, length):
    """A Hall family (Lyndon basis) of the degree-``length`` part of the
    free Lie algebra on m generators, expanded; ``length`` is at least 1."""
    if length < 1:
        raise ValueError(f"length {length} out of bounds (at least 1)")
    return [_standard_bracketing(w) for w in lyndon_words(m, length)]


def lie_dimension_oracle(m, length):
    """Necklace-count dimension of the degree-``length`` part (Witt)."""
    if length < 1:
        raise ValueError(f"length {length} out of bounds (at least 1)")
    def mobius(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result

    return sum(mobius(d) * m ** (length // d)
               for d in range(1, length + 1) if length % d == 0) // length


def _min_orientation(view):
    """Minimal code over vertex orientation states, with sign and tie flag."""
    if view[0] == 0:
        return view, 1, False
    ca, sa, aa = _min_orientation(view[1])
    cb, sb, ab = _min_orientation(view[2])
    if cb < ca:
        return (1, cb, ca), -sa * sb, aa or ab
    return (1, ca, cb), sa * sb, aa or ab or ca == cb


def graph_explicit_code(tree):
    """Least (root label, view) over all rootings: the tree up to
    isomorphism and OR/HOL gauge, vertex orientations kept."""
    return min(graph_leaf_views(tree))


def graph_canonicalize(tree):
    """(code, sign, two_torsion) of +tree, minimized over every rooting
    and every orientation state of the graph walk."""
    best, signs, torsion = None, set(), False
    for label, view in graph_leaf_views(tree):
        code, sign, amb = _min_orientation(view)
        full = (label, code)
        if best is None or full < best:
            best, signs, torsion = full, {sign}, amb
        elif full == best:
            signs.add(sign)
            torsion = torsion or amb
    torsion = torsion or len(signs) == 2
    return best, (1 if torsion else min(signs)), torsion


def planar_rooted(order, labels):
    """Every planar rooted tree with `order` vertices and leaf labels
    in 1..m, trivially decorated."""
    if order == 0:
        return [Leaf(lab) for lab in range(1, labels + 1)]
    return [Node(left, right)
            for k in range(order)
            for left in planar_rooted(k, labels)
            for right in planar_rooted(order - 1 - k, labels)]


def all_planar_trees(order, labels):
    """Every planar presentation of the order-n trees on labels 1..m:
    all root labels times all planar rooted rests, with no pruning."""
    rests = planar_rooted(order, labels)
    return [DecoratedTree(Leaf(root), rest, "")
            for root, rest in product(range(1, labels + 1), rests)]


def flip_at(tree, path):
    """Swap the two children of the internal vertex at a layout path
    (a single AS move on a layout-form DecoratedTree)."""

    def go(sub, rest):
        if not isinstance(sub, Node):
            raise ValueError(f"no internal vertex at path {path!r}")
        if not rest:
            return Node(sub.right, sub.left, sub.word)
        if rest[0] == "L":
            return Node(go(sub.left, rest[1:]), sub.right, sub.word)
        return Node(sub.left, go(sub.right, rest[1:]), sub.word)

    return DecoratedTree(tree.left, go(tree.right, path), tree.word)


def edge_paths(tree):
    """Paths of every edge of a layout-form DecoratedTree, in preorder:
    the edge above the subtree at path p is p, and "" is the edge at the
    root leaf, so an order-n tree has 2n + 1 of them."""

    def walk(sub, path):
        yield path
        if isinstance(sub, Node):
            yield from walk(sub.left, path + "L")
            yield from walk(sub.right, path + "R")

    return list(walk(tree.right, ""))


def internal_paths(tree):
    """Paths of the internal vertices of a layout-form DecoratedTree,
    in preorder."""

    def walk(sub, path):
        if isinstance(sub, Node):
            yield path
            yield from walk(sub.left, path + "L")
            yield from walk(sub.right, path + "R")

    return list(walk(tree.right, ""))


def _subtree_at(rest, path):
    for step in path:
        rest = rest.left if step == "L" else rest.right
    return rest


def _replace_at(rest, path, new):
    if not path:
        return new
    if path[0] == "L":
        return Node(_replace_at(rest.left, path[1:], new), rest.right, rest.word)
    return Node(rest.left, _replace_at(rest.right, path[1:], new), rest.word)


def layout_ihx_at(ct, path):
    """H and X of a canonical tree at an interior edge, built on the
    decoded layout: the subtree pairs (A, B) below the edge and the
    sibling S above it give (A,S | B) and (B,S | A) at a left edge,
    (B,S | A) and (A,S | B) at a right one."""
    if not path:
        raise ValueError("the root-leaf edge is not interior")
    layout = decode(ct)
    rest = layout.right
    sub = _subtree_at(rest, path)
    if not isinstance(sub, Node):
        raise ValueError(f"edge {path!r} is not interior")
    parent = _subtree_at(rest, path[:-1])
    a, b = sub.left, sub.right
    if path[-1] == "L":
        s = parent.right
        h_sub = Node(Node(a, s), b)
        x_sub = Node(Node(b, s), a)
    else:
        s = parent.left
        h_sub = Node(Node(b, s), a)
        x_sub = Node(Node(a, s), b)
    h = DecoratedTree(layout.left, _replace_at(rest, path[:-1], h_sub), "")
    x = DecoratedTree(layout.left, _replace_at(rest, path[:-1], x_sub), "")
    return h, x


def raw_generators(order, labels, nonrepeating=False):
    """Orientation-explicit trees (no AS identification): one planar
    representative per explicit code, sorted by code."""
    seen = {}
    for t in all_planar_trees(order, labels):
        labs = labels_of(t)
        if not nonrepeating or len(set(labs)) == len(labs):
            seen.setdefault(graph_explicit_code(t), t)
    return [seen[c] for c in sorted(seen)]


def raw_presentation(order, labels, nonrepeating=False):
    """(generators, rows) of the order-n tree group over orientation-
    explicit generators: an AS row t + flip(t) per generator and
    internal vertex, then an IHX row I - H + X per IHX triple.  Rows
    are sparse dicts over generator indices."""
    gens = raw_generators(order, labels, nonrepeating)
    index = {graph_explicit_code(g): i for i, g in enumerate(gens)}
    rows = []
    for i, g in enumerate(gens):
        for path in internal_paths(g):
            row = {i: 1}
            j = index[graph_explicit_code(flip_at(g, path))]
            row[j] = row.get(j, 0) + 1
            rows.append(row)
    for ct, edge in ihx_triples(order, labels):
        if nonrepeating and not ct.nonrepeating:
            continue
        h, x = layout_ihx_at(ct, edge)
        row = {}
        for t, coeff in ((decode(ct), 1), (h, -1), (x, 1)):
            j = index[graph_explicit_code(t)]
            row[j] = row.get(j, 0) + coeff
        rows.append({j: v for j, v in row.items() if v})
    return gens, rows


def cell_lattice(order, labels):
    """The whole cell's tracked relator lattice, the reference for the
    library's per-block lattices: ``presentation``'s rows added in
    order, so added row k < len(triples) is the IHX row of triples[k]
    and later rows double 2-torsion trees.  Returns (generators,
    triples, lattice)."""
    mat = presentation(order, labels)
    lattice = IntegerLattice(mat.row_dicts(), track=True)
    return mat.generators, ihx_triples(order, labels), lattice


def nonrepeating_presentation(order, labels):
    """The whole cell's ``presentation`` restricted to its trees with
    pairwise distinct labels and to the nonempty rows supported on
    them, columns renumbered: the reference for ``group_table``'s
    nonrepeating block filter.  Those trees fill whole label-multiset
    blocks, and every row keeps a tree's multiset."""
    mat = presentation(order, labels)
    keep = [i for i, ct in enumerate(mat.generators) if ct.nonrepeating]
    column = {i: j for j, i in enumerate(keep)}
    kept = [k for k, row in enumerate(mat.rows) if row and all(i in column for i, _ in row)]
    return RelationMatrix(tuple(mat.generators[i] for i in keep),
                          tuple(tuple((column[i], c) for i, c in mat.rows[k]) for k in kept),
                          sum(k < mat.ihx_count for k in kept))


def is_simple_by_graph(tree):
    """Caterpillar test on the adjacency of the trivalent vertices of a
    DecoratedTree.  They span a subtree, so they lie on one path iff
    none has more than two trivalent neighbours."""
    degree = []

    def walk(sub, parent):
        if isinstance(sub, Leaf):
            return None
        v = len(degree)
        degree.append(0)
        if parent is not None:
            degree[v] += 1
            degree[parent] += 1
        walk(sub.left, v)
        walk(sub.right, v)
        return v

    ends = [walk(tree.left, None), walk(tree.right, None)]
    if None not in ends:  # the fused edge joins two trivalent vertices
        for v in ends:
            degree[v] += 1
    return all(d <= 2 for d in degree)


def gauge_orbit(layout_tree):
    """All (explicit code, sign) pairs reachable by single vertex flips.

    The explicit code already identifies trees up to relabeling and
    edge/holonomy gauge, so the orbit enumerates exactly the vertex
    orientation states modulo isomorphism.
    """
    seen = {}
    frontier = [(layout_tree, 1)]
    while frontier:
        t, sign = frontier.pop()
        code = graph_explicit_code(t)
        signs = seen.setdefault(code, set())
        if sign in signs:
            continue
        signs.add(sign)
        for path in internal_paths(t):
            frontier.append((flip_at(t, path), -sign))
    return seen


def brute_canonical(layout_tree):
    """(min code, sign at the min, torsion flag) by exhaustive search
    over all orientation states and self-maps."""
    orbit = gauge_orbit(layout_tree)
    code = min(orbit)
    signs = orbit[code]
    torsion = any(len(s) == 2 for s in orbit.values())
    return code, (1 if torsion else min(signs)), torsion


def count_classes(raw_trees):
    """Number of trees modulo isomorphism and sign flips, by union-find
    over explicit codes linked through single flips."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    reps = {}
    for t in raw_trees:
        code = graph_explicit_code(t)
        if code not in parent:
            parent[code] = code
            reps[code] = t
    for code, t in reps.items():
        for path in internal_paths(t):
            other = graph_explicit_code(flip_at(t, path))
            if other not in parent:
                parent[other] = other
            union(code, other)
    return len({find(c) for c in parent})


def _degree_part(a, b, d):
    """The degree-d part of the product of the series a and b; a series
    is a list, by degree, of {exponent vector: coefficient} dicts."""
    out = {}
    for i in range(d + 1):
        for ea, ca in a[i].items():
            for eb, cb in b[d - i].items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return out


def _substitute(a, k, top):
    """The series a(x_1^k, ..., x_m^k), up to degree ``top``."""
    out = [{} for _ in range(top + 1)]
    for d in range(top // k + 1):
        out[k * d] = {tuple(k * x for x in e): c for e, c in a[d].items()}
    return out


def _combine(*terms):
    """The sum of k * poly over the (k, poly) pairs."""
    out = {}
    for k, poly in terms:
        for e, c in poly.items():
            out[e] = out.get(e, 0) + k * c
    return out


def _unrooted_count(m, top, twist):
    """The degree-``top`` part of Otter's count of unrooted trivalent
    trees by leaf labels, on the variables x_1..x_m: with X = sum x_i and
    R = X + (R^2 + R(x^2))/2 the rooted trees, the count is

        X R + (R^3 + 3 R(x^2) R + 2 R(x^3))/6 - (R^2 - R(x^2))/2,

    the trees rooted at a leaf or at a trivalent vertex, less those
    rooted at an edge that no symmetry reverses (Otter's dissimilarity
    theorem).  ``twist`` = -1 weights each tree by the orientation character
    instead: a swap at a vertex reverses its cyclic order, so the rooted
    series and the vertex term take the sign of each transposition, while
    the edge term stays as it is."""
    x = [{}] * (top + 1)
    x[1] = {tuple(int(i == j) for j in range(m)): 1 for i in range(m)}
    rooted = list(x)
    for d in range(2, top + 1):
        half = _combine((1, _degree_part(rooted, rooted, d)),
                        (twist, _substitute(rooted, 2, d)[d]))
        assert all(c % 2 == 0 for c in half.values())
        rooted[d] = {e: c // 2 for e, c in half.items() if c}
    square = [_degree_part(rooted, rooted, d) for d in range(top + 1)]
    r2, r3 = _substitute(rooted, 2, top), _substitute(rooted, 3, top)
    sixfold = _combine((6, _degree_part(x, rooted, top)),
                       (1, _degree_part(square, rooted, top)),
                       (3 * twist, _degree_part(r2, rooted, top)),
                       (2, r3[top]), (-3, square[top]), (3, r2[top]))
    assert all(c % 6 == 0 for c in sixfold.values())
    return {e: c // 6 for e, c in sixfold.items() if c}


def closed_form_counts(order, labels):
    """{label multiset: (trees, 2-torsion trees)} for the canonical
    order-n trees on labels 1..m, a multiset the sorted leaf labels, by
    the unlabelled-tree counting of Otter, *The number of trees*, Ann. of
    Math. 49 (1948), with the cycle indices of Harary-Palmer, *Graphical
    Enumeration* (1973).  The trees are counted by ``_unrooted_count``
    and the trees that are not 2-torsion by its signed version, since a
    tree is 2-torsion iff a symmetry reverses an odd number of vertex
    orientations.  The unsigned count is the classical one; the signed
    one is checked here against the enumeration, not proved."""
    plain = _unrooted_count(labels, order + 2, 1)
    signed = _unrooted_count(labels, order + 2, -1)
    counts = {tuple(i for i, k in enumerate(e, 1) for _ in range(k)): (c, c - signed.get(e, 0))
              for e, c in plain.items()}
    return dict(sorted(counts.items()))


def closed_form_sizes(order, labels):
    """(generators, relators) of the presentation of the order-n group on
    labels 1..m: the trees, then n - 1 IHX rows per tree, one per
    interior edge, and a doubling row per 2-torsion tree."""
    counts = closed_form_counts(order, labels).values()
    trees = sum(c for c, _ in counts)
    return trees, max(order - 1, 0) * trees + sum(t for _, t in counts)


def snf_by_minors(rows, nrows, ncols):
    """Invariant factors through determinant divisors: the k-th divisor
    is the gcd of all k x k minors.  The minors are exponentially many,
    so this is for small dense matrices only."""

    def det(m):
        # fraction-free Bareiss elimination: every division is exact
        a = [row[:] for row in m]
        n = len(a)
        sign, prev = 1, 1
        for k in range(n - 1):
            if not a[k][k]:
                swap = next((i for i in range(k + 1, n) if a[i][k]), None)
                if swap is None:
                    return 0
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[-1][-1] if n else 1

    divisors = [1]
    k = 1
    while k <= min(nrows, ncols):
        g = 0
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det(sub))
        if g == 0:
            break
        divisors.append(g)
        k += 1
    return tuple(divisors[i] // divisors[i - 1] for i in range(1, len(divisors)))


def lie_dim_by_rank(m, length):
    """Dimension of the degree-``length`` Lie piece by expanding every
    bracketing of every word and row reducing over the rationals."""
    from fractions import Fraction

    def bracketings(word):
        if len(word) == 1:
            return [{word: 1}]
        return [_element_bracket(a, b)
                for i in range(1, len(word))
                for a in bracketings(word[:i])
                for b in bracketings(word[i:])]

    rows = []
    for word in product(range(1, m + 1), repeat=length):
        rows.extend(bracketings(word))

    index = {}
    dense = []
    for row in rows:
        if row:
            dense.append({index.setdefault(w, len(index)): Fraction(c) for w, c in row.items()})
    rank = 0
    pivots = {}
    for row in dense:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                rank += 1
                break
            lead = pivots[c]
            f = row[c] / lead[c]
            for cc, vv in lead.items():
                w = row.get(cc, Fraction(0)) - f * vv
                if w:
                    row[cc] = w
                else:
                    row.pop(cc, None)
    return rank


def random_raw_tower(rng):
    """A random well-formed raw tower on 2 to 4 surfaces, for randomized
    suites and demos: one to three top brackets of order at most 2, a
    Whitney disk for every non-leaf bracket under them, and one to three
    unpaired points."""
    m = rng.randint(2, 4)

    def random_word(maxlen=2):
        letters = []
        for _ in range(rng.randint(0, maxlen)):
            ch = rng.choice("ab")
            letters.append(ch if rng.random() < 0.5 else ch.upper())
        return wmul(*letters)

    def random_bracket(max_order):
        if max_order == 0 or rng.random() < 0.4:
            return (0, rng.randint(1, m), "")
        k = rng.randint(0, max_order - 1)
        return (1, random_bracket(k), random_bracket(max_order - 1 - k))

    needed = {}  # every Whitney disk under a top one, in preorder

    def add_disks(b):
        if b[0]:
            needed[b] = True
            add_disks(b[1])
            add_disks(b[2])

    tops = []
    for _ in range(rng.randint(1, 3)):
        b = random_bracket(2)
        tops.append(b)
        add_disks(b)

    disks = [RawDisk(b, random_word(), rng.choice((1, -1))) for b in needed]
    if rng.random() < 0.5:  # optional order-0 surface data
        disks.append(RawDisk((0, rng.randint(1, m), ""), random_word(), rng.choice((1, -1))))

    points = []
    for b in needed:
        s = rng.choice((1, -1))
        points.append(RawPoint(s, b[1], b[2], random_word(), b))
        points.append(RawPoint(-s, b[1], b[2], random_word(), b))

    surfaces = [(0, i, "") for i in range(1, m + 1)] + list(needed)
    unpaired = []
    for _ in range(rng.randint(1, 3)):
        left = rng.choice(tops + surfaces)
        right = rng.choice(surfaces)
        unpaired.append(RawPoint(rng.choice((1, -1)), left, right, random_word()))
    points.extend(unpaired)

    order = min(p.order for p in unpaired)
    return RawTower(m, order, tuple(disks), tuple(points))


def object_extract_model(raw):
    """``towers.extract_model`` on ``Leaf``/``Node`` objects: each side of
    an unpaired point is built as a rooted tree whose edge from W_I down
    to W_J carries the word w_I^-1 w_J, a disk of orientation -1 swapping
    the children at its vertex, and the two sides are fused by the word
    w_I^-1 g w_J into a DecoratedTree, which is canonicalized."""
    unpaired = validate_raw(raw)
    whisker = {d.bracket: d.whisker for d in raw.disks}
    orient = {d.bracket: d.orientation for d in raw.disks}

    def build(b, parent):
        word = wmul(winv(whisker[parent]), whisker.get(b, "")) if parent is not None else ""
        if b[0] == 0:
            return Leaf(b[1], word)
        left, right = build(b[1], b), build(b[2], b)
        if orient[b] * orient.get(b[1], 1) * orient.get(b[2], 1) == -1:
            left, right = right, left
        return Node(left, right, word)

    pairs = []
    for p in unpaired:
        fused = wmul(winv(whisker.get(p.left, "")), p.word, whisker.get(p.right, ""))
        tree = DecoratedTree(build(p.left, None), build(p.right, None), fused)
        sign = p.sign * orient.get(p.left, 1) * orient.get(p.right, 1)
        pairs.append(canonicalize(SignedTree(sign, tree)))
    order = min(ct.order for ct, _ in pairs) if pairs else raw.order
    return make_model(raw.m, order, [(sign, ct) for ct, sign in pairs])


def _range_rests(order, low, high):
    """Trivially decorated rooted codes with ``order`` vertices, leaf
    labels in low..high and the children of every vertex in code order,
    built up by order."""
    by_order = [[(0, label, "") for label in range(low, high + 1)]]
    for n in range(1, order + 1):
        by_order.append([(1, a, b) for k in range(n)
                         for a in by_order[k] for b in by_order[n - 1 - k] if a <= b])
    return by_order[order]


def range_trees(order, labels):
    """The canonical order-n trees on labels 1..m, sorted by code: every
    candidate (root, rest) with the rest's labels in root..m, kept iff
    ``canonicalize_rewrite`` returns it unchanged."""
    out = []
    for root in range(1, labels + 1):
        for rest in _range_rests(order, root, labels):
            labs = (root, *sorted(_leaf_labels(rest, [])))
            code, _, torsion = canonicalize_rewrite((root, rest), labs)
            if code == (root, rest):
                out.append(CanonicalTree(code, torsion, order, labs))
    return tuple(sorted(out, key=lambda ct: ct.code))


def certificate_json(cert):
    """A certificate's move records as dicts, through ``json.dumps`` at
    ``indent=2``; it checks no field, so a bool or a list is written as
    JSON writes it."""
    return json.dumps([{"move": "ihx_insert", "i": mv.tree.text(), "h": to_text(mv.h),
                        "x": to_text(mv.x), "edge": mv.edge, "sign": mv.sign}
                       if isinstance(mv, IhxInsert) else
                       {"move": "cancel_pair", "p": mv.p, "q": mv.q} for mv in cert], indent=2)
