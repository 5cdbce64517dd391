"""Independent brute-force oracles the tests check the library against.

Nothing here reuses the library's canonicalization search, Smith normal
form elimination or Lie dimension formula; where an oracle needs tree
plumbing it sticks to the raw building blocks (explicit codes and
single-vertex flips).  ``graph_leaf_views`` is the reference for the
library's leaf views: it builds the adjacency graph of a tree and walks
it from every leaf, carrying the holonomy edge by edge, and the
explicit codes and canonical forms here are read off it.
``raw_presentation`` is the reference for the library's one
presentation of the tree groups: it keeps every vertex orientation and
imposes antisymmetry by explicit rows.  ``cell_lattice`` is the
reference for the zero test's per-block lattices: one tracked lattice
of a whole cell's presentation.  ``layout_ihx_at`` is the
reference for ``trees.ihx_at``: it takes the IHX move on the decoded
Leaf/Node layout and returns H and X as DecoratedTrees.  ``bracket_eta`` is the
reference for ``lie.eta``: it expands every bracket of every graph-walk
view afresh, one ``LieElement`` per bracket, sharing nothing.
"""

from itertools import combinations, product
from math import gcd

from towertrees.groups import ihx_triples, presentation
from towertrees.intlinalg import IntegerLattice
from towertrees.lie import LieElement
from towertrees.trees import CanonicalTree, DecoratedTree, Leaf, Node, labels_of
from towertrees.words import winv, wmul


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


def _element_bracket(a, b):
    """ab - ba of two LieElements, accumulated term by term."""
    pairs = [(wa, ca, wb, cb) for wa, ca in a.terms.items() for wb, cb in b.terms.items()]
    return LieElement([(wa + wb, ca * cb) for wa, ca, wb, cb in pairs]
                      + [(wb + wa, -ca * cb) for wa, ca, wb, cb in pairs])


def _view_element(view):
    if view[0] == 0:
        if view[2]:
            raise ValueError("decorated trees have no Lie image")
        return LieElement.generator(view[1])
    return _element_bracket(_view_element(view[1]), _view_element(view[2]))


def bracket_eta(tree):
    """eta of a tree: the bracket read off each graph-walk leaf view,
    added to the component of that leaf's label."""
    if isinstance(tree, CanonicalTree):
        tree = tree.decode()
    out = {}
    for label, view in graph_leaf_views(tree):
        out[label] = out.get(label, LieElement()) + _view_element(view)
    return {label: el for label, el in out.items() if el}


def bracket_eta_sum(pairs):
    """eta of a tree sum given as (tree, coefficient) pairs."""
    out = {}
    for tree, coeff in pairs:
        for label, el in bracket_eta(tree).items():
            scaled = LieElement({w: coeff * c for w, c in el.terms.items()})
            out[label] = out.get(label, LieElement()) + scaled
    return {label: el for label, el in out.items() if el}


def bracket_eta_vector(tree):
    """eta of a tree as one dict (label, *word) -> coefficient: a row of
    the rank computation."""
    return {(label,) + w: c for label, el in bracket_eta(tree).items()
            for w, c in el.terms.items()}


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
    layout = ct.decode()
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
    for ct, edge in ihx_triples(order, labels, nonrepeating):
        h, x = layout_ihx_at(ct, edge)
        row = {}
        for t, coeff in ((ct.decode(), 1), (h, -1), (x, 1)):
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
    lattice = IntegerLattice(track=True)
    for row in mat.row_dicts():
        lattice.add(row)
    return mat.generators, ihx_triples(order, labels), lattice


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
            return [{(word[0],): 1}]
        out = []
        for i in range(1, len(word)):
            for a in bracketings(word[:i]):
                for b in bracketings(word[i:]):
                    prod = {}
                    for wa, ca in a.items():
                        for wb, cb in b.items():
                            prod[wa + wb] = prod.get(wa + wb, 0) + ca * cb
                            prod[wb + wa] = prod.get(wb + wa, 0) - ca * cb
                    out.append({w: c for w, c in prod.items() if c})
        return out

    rows = []
    for word in product(range(1, m + 1), repeat=length):
        rows.extend(bracketings(list(word)))

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
