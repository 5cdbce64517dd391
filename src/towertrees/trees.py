"""Decorated unitrivalent trees and their canonical forms.

Rooted trees are nested ``Leaf``/``Node`` values; an unrooted tree
(``DecoratedTree``) is stored as an inner product of two rooted trees
fused along one edge.  Every edge carries a free-group word and every
trivalent vertex a cyclic orientation of its three edges, encoded by
the child order: at ``Node(l, r)`` the cyclic order is (l, r, parent).

Gauge moves on these trees:

* AS   - swapping the two children of a vertex costs a sign,
* OR   - reversing an edge inverts its word,
* HOL  - a whisker move at a trivalent vertex multiplies the words of
         its three outgoing edges on the left by a common element.

``canonicalize`` maps a signed tree to a representative that is equal
for any two gauge-equivalent inputs, with the correct relative sign.
The invariant data behind it: pick a root leaf, then the tree is
determined by its shape, its leaf labels, the vertex orientations and
the root-to-leaf holonomies (path products of edge words), which are
unchanged by OR and HOL.  The code is the pair (root label, rooted
view), minimized over root choices and all orientation states, one
sign per vertex swap; if the minimum is reached with both signs the
class is 2-torsion.  Codes compare by root label first, so only roots
carrying the least label can reach the minimum and the others are
never tried.

The views are read off the nested code, with no adjacency graph.  Each
side of a DecoratedTree is a rooted code, and each side's top vertex
sees the other side across the fused edge.  A vertex (1, a, b) whose
outside view is P has the cyclic order (a, b, P); entered from a its
view is (1, b, P), entered from b it is (1, P, a).  Leaf holonomies are
measured once, from the top vertex of the left side; rooting at a leaf
of holonomy h re-bases each of them by h^-1, which changes nothing when
h is trivial, so decorated and trivially decorated trees share one
path.  Edge paths and the IHX move are read on the layout code (root
label, rest) as well: ``ihx_at`` returns H and X as such codes, and
``canonicalize`` reads their views straight off them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from math import factorial
from types import MappingProxyType

from .words import check_word, winv, wmul, wreduce


class ParseError(ValueError):
    """Syntax error in the tree grammar, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BoundsError(ValueError):
    """An order below 0 or a label count below 1, which ``all_trees``
    refuses, or one past the command line's --max-order/--max-labels."""


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int
    word: str = ""  # decoration of the edge above, oriented toward this leaf


@dataclass(frozen=True, slots=True)
class Node:
    left: "RootedTree"
    right: "RootedTree"
    word: str = ""  # decoration of the edge above, oriented toward this vertex


RootedTree = Leaf | Node


@dataclass(frozen=True, slots=True)
class DecoratedTree:
    """Unrooted tree presented as two rooted trees fused along one edge.

    The fused edge is oriented left to right and decorated by ``word``;
    a ``word`` on the top of either side also sits on the fused edge and
    is folded in with the correct orientation.
    """

    left: RootedTree
    right: RootedTree
    word: str = ""


@dataclass(frozen=True, slots=True)
class SignedTree:
    sign: int
    tree: DecoratedTree


@dataclass(frozen=True, slots=True)
class CanonicalTree:
    """Total-order encoding of a decorated tree modulo all gauge moves.

    ``two_torsion`` is set when some self-isomorphism of the tree
    reverses an odd number of vertex orientations, so that t = -t.
    ``order`` (the number of trivalent vertices) and ``labels`` (the
    sorted leaf labels, a tuple) are computed once, when the tree is
    canonicalized; they take no part in equality or hashing.
    """

    code: tuple
    two_torsion: bool
    order: int = field(compare=False, repr=False)
    labels: tuple = field(compare=False, repr=False)

    @property
    def nonrepeating(self):
        labs = self.labels
        return len(set(labs)) == len(labs)

    def decode(self):
        """The canonical layout as a concrete DecoratedTree."""
        return decode_code(self.code)

    def text(self):
        return to_text(self.decode())

    def __repr__(self):
        return f"CanonicalTree({self.text()!r})"


# ----------------------------------------------------------------- grammar

def _skip_ws(text, i):
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _expect(text, i, ch):
    """Skip whitespace, then read ``ch``; returns the index after it."""
    i = _skip_ws(text, i)
    if i >= len(text) or text[i] != ch:
        raise ParseError(f"expected {ch!r}", i)
    return i + 1


def _parse_word(text, i):
    j = i
    while j < len(text) and text[j].isalpha():
        j += 1
    w = text[i:j]
    try:
        check_word(w)
    except ValueError as exc:
        raise ParseError(str(exc), i) from None
    return w, j


def _parse_label(text, i):
    j = i
    while j < len(text) and "0" <= text[j] <= "9":
        j += 1
    if j == i:
        raise ParseError("expected a label", i)
    try:
        label = int(text[i:j])
    except ValueError:  # more digits than int() converts
        raise ParseError(f"label of {j - i} digits is too long", i) from None
    if label < 1:
        raise ParseError(f"label {label} out of range (labels start at 1)", i)
    word = ""
    if j < len(text) and text[j] == ":":
        word, j = _parse_word(text, j + 1)
    return Leaf(label, word), j


def _parse_rooted(text, i):
    i = _skip_ws(text, i)
    if i >= len(text):
        raise ParseError("unexpected end of input", i)
    if text[i] == "(":
        left, i = _parse_rooted(text, i + 1)
        right, i = _parse_rooted(text, _expect(text, i, ","))
        return Node(left, right), _expect(text, i, ")")
    return _parse_label(text, i)


def parse_tree(text):
    """Parse the tree grammar; returns a RootedTree or a DecoratedTree.

    rooted   := label | "(" rooted "," rooted ")"
    label    := decimal [":" word]
    unrooted := "inner(" rooted "," rooted "," word ")"

    Words use letters a-z, with uppercase for inverses.  Whitespace is
    insignificant.
    """
    i = _skip_ws(text, 0)
    if text[i:i + 6] == "inner(":
        left, i = _parse_rooted(text, i + 6)
        right, i = _parse_rooted(text, _expect(text, i, ","))
        word, i = _parse_word(text, _skip_ws(text, _expect(text, i, ",")))
        tree, i = DecoratedTree(left, right, word), _expect(text, i, ")")
    else:
        tree, i = _parse_rooted(text, i)
    i = _skip_ws(text, i)
    if i != len(text):
        raise ParseError("trailing input", i)
    return tree


def parse_signed(text):
    """Parse an optional +/- sign followed by a tree."""
    i = _skip_ws(text, 0)
    sign = 1
    if i < len(text) and text[i] in "+-":
        sign = 1 if text[i] == "+" else -1
        i += 1
    return sign, parse_tree(text[i:])


def to_text(tree):
    """Print a tree in the grammar; exact inverse of the parser.

    Rooted trees with decorated internal edges are not representable
    and raise ValueError (push decorations to the leaves first).
    """
    if isinstance(tree, Leaf):
        return f"{tree.label}:{tree.word}" if tree.word else str(tree.label)
    if isinstance(tree, Node):
        if tree.word:
            raise ValueError("internal edge decoration is not representable")
        return f"({to_text(tree.left)},{to_text(tree.right)})"
    if isinstance(tree, DecoratedTree):
        return f"inner({to_text(tree.left)},{to_text(tree.right)},{tree.word})"
    raise TypeError(f"not a tree: {tree!r}")


# ------------------------------------------------------------ basic algebra

def order_of(tree):
    """Number of trivalent vertices."""
    if isinstance(tree, Leaf):
        return 0
    if isinstance(tree, Node):
        return 1 + order_of(tree.left) + order_of(tree.right)
    if isinstance(tree, DecoratedTree):
        return order_of(tree.left) + order_of(tree.right)
    raise TypeError(f"not a tree: {tree!r}")


def labels_of(tree):
    if isinstance(tree, Leaf):
        return [tree.label]
    if isinstance(tree, Node):
        return labels_of(tree.left) + labels_of(tree.right)
    if isinstance(tree, DecoratedTree):
        return labels_of(tree.left) + labels_of(tree.right)
    raise TypeError(f"not a tree: {tree!r}")


def inner_product(a, b, g=""):
    """Fuse the roots of a and b into a single edge decorated by g."""
    return DecoratedTree(a, b, wreduce(g))


# ------------------------------------------------------------ leaf views

def _side_code(sub, hol):
    """Rooted code of a layout side seen from its top, each leaf
    carrying ``hol`` extended by the edge words down to it."""
    if isinstance(sub, Leaf):
        return (0, sub.label, hol)
    return (1, _side_code(sub.left, wmul(hol, sub.left.word) if sub.left.word else hol),
            _side_code(sub.right, wmul(hol, sub.right.word) if sub.right.word else hol))


def _collect_views(code, outside, out):
    """Append (label, holonomy, view) for every leaf of ``code``, the
    subtree hanging below an edge whose other side reads ``outside``."""
    if code[0] == 0:
        out.append((code[1], code[2], outside))
        return
    # the cyclic order (a, b, parent): entered from a it continues
    # (b, parent), entered from b it continues (parent, a)
    _, a, b = code
    _collect_views(a, (1, b, outside), out)
    _collect_views(b, (1, outside, a), out)


def _rebase(view, g):
    """The view with every leaf holonomy h replaced by g h."""
    if view[0] == 0:
        return (0, view[1], wmul(g, view[2]))
    return (1, _rebase(view[1], g), _rebase(view[2], g))


def leaf_views(tree):
    """(label, view) of a DecoratedTree, a CanonicalTree or a layout
    code (root label, rest) rooted at each of its leaves.

    A view is the rooted code of the rest of the tree as seen from the
    root leaf: (0, label, holonomy) at a leaf, (1, left, right) at a
    trivalent vertex entered from its parent, the children in cyclic
    order.  A code, bare or a CanonicalTree's, is read straight off:
    the root leaf (0, r, "") against the rest, as its decoded layout
    would be.  A rooted ``Leaf`` or ``Node`` is refused with a
    ``TypeError``: it has no leaf at its root to be read from.
    """
    if isinstance(tree, (CanonicalTree, tuple)):
        root, rest = tree.code if isinstance(tree, CanonicalTree) else tree
        left, right = (0, root, ""), rest
    elif isinstance(tree, DecoratedTree):
        left = _side_code(tree.left, "")
        right = _side_code(tree.right, wmul(winv(tree.left.word), tree.word, tree.right.word))
    else:
        raise TypeError("expected an unrooted tree (DecoratedTree, CanonicalTree or "
                        f"layout code), not {type(tree).__name__}")
    out = []
    _collect_views(left, right, out)
    _collect_views(right, left, out)
    # holonomies are measured from the top of the left side; rooting at
    # a leaf of holonomy h re-bases each of them by h^-1
    return [(label, _rebase(view, winv(hol)) if hol else view) for label, hol, view in out]


def _canon_rec(view):
    """Minimal code over vertex orientation states, with sign and tie flag."""
    if view[0] == 0:
        return view, 1, False
    ca, sa, aa = _canon_rec(view[1])
    cb, sb, ab = _canon_rec(view[2])
    amb = aa or ab
    if cb < ca:
        return (1, cb, ca), -sa * sb, amb
    if ca == cb:
        amb = True
    return (1, ca, cb), sa * sb, amb


def canonicalize(signed):
    """Canonical form of a signed decorated tree; the signed tree may
    also be a CanonicalTree or a layout code (root label, rest), such
    as ``ihx_at`` returns.

    Returns (CanonicalTree, sign).  Gauge-equivalent inputs map to equal
    canonical trees with the AS-predicted sign relation; for 2-torsion
    classes the sign is normalized to +1.  The code is minimized over
    the rootings at the least-label leaves: a code starts with its root
    label, so no other root can give the minimal code.
    """
    views = leaf_views(signed.tree)
    labels = tuple(sorted(label for label, _ in views))
    low = labels[0]
    best = None
    signs = set()
    amb_at_best = False
    for label, view in views:
        if label != low:
            continue
        code, sign, amb = _canon_rec(view)
        full = (label, code)
        if best is None or full < best:
            best, signs, amb_at_best = full, {sign}, amb
        elif full == best:
            signs.add(sign)
            amb_at_best = amb_at_best or amb
    torsion = amb_at_best or len(signs) == 2
    sign = 1 if torsion else min(signs) * signed.sign
    # an order-n tree has n + 2 leaves
    return CanonicalTree(best, torsion, len(views) - 2, labels), sign


def canonicalize_rooted(sign, rooted):
    """Canonical form of a signed rooted tree under AS flips and
    OR/HOL gauge only (the root stays put).

    Returns (rooted tree in layout form, sign, two_torsion).
    """
    code, s, amb = _canon_rec(_side_code(rooted, wreduce(rooted.word)))
    return _decode_rest(code), (1 if amb else s * sign), amb


def explicit_code(tree):
    """Isomorphism + OR/HOL invariant code keeping vertex orientations.

    Two decorated trees get equal explicit codes iff they are related by
    edge reversals, whisker moves and relabeling of the internal
    structure, with no AS flips.
    """
    return min(leaf_views(tree))


def decode_code(code):
    """Rebuild the layout tree of a canonical or explicit code."""
    return DecoratedTree(Leaf(code[0]), _decode_rest(code[1]), "")


def _decode_rest(c):
    if c[0] == 0:
        return Leaf(c[1], c[2])
    return Node(_decode_rest(c[1]), _decode_rest(c[2]))


def is_trivially_decorated(ct):
    """Whether every leaf holonomy of a canonical tree is trivial."""
    def trivial(c):
        if c[0] == 0:
            return c[2] == ""
        return trivial(c[1]) and trivial(c[2])

    return trivial(ct.code[1])


# -------------------------------------------------------- layout addressing
# Edge paths and the IHX move are read on the layout code itself.

def interior_edge_paths(ct):
    """Edges whose both endpoints are trivalent, the edge above the
    layout subtree at path p named p."""
    return [p for p, sub in _positions(ct.code[1], "") if p and sub[0] == 1]


def _positions(c, path):
    yield path, c
    if c[0] == 1:
        yield from _positions(c[1], path + "L")
        yield from _positions(c[2], path + "R")


def _code_at(c, path):
    """The subcode at ``path``, or None when the path leaves the tree."""
    for step in path:
        if c[0] == 0 or step not in "LR":
            return None
        c = c[1] if step == "L" else c[2]
    return c


def _code_replace(c, path, new):
    if not path:
        return new
    if path[0] == "L":
        return (1, _code_replace(c[1], path[1:], new), c[2])
    return (1, c[1], _code_replace(c[2], path[1:], new))


def ihx_at(ct, path):
    """The H and X companions of a canonical tree at an interior edge.

    With the edge's endpoints carrying subtree pairs (A, B) and (C, D)
    in cyclic order following the edge, the three trees joining (A,B |
    C,D), (A,C | B,D) and (A,D | B,C) satisfy I - H + X = 0, the tree
    form of the Jacobi identity.  Returns H and X as layout codes (root
    label, rest), shaped as ``CanonicalTree.code`` but not canonical,
    for ``canonicalize`` or ``decode_code``.  Leaf holonomies are
    measured from the root, so they move with their subtrees.
    """
    if not path:
        raise ValueError("the root-leaf edge is not interior")
    root, rest = ct.code
    sub = _code_at(rest, path)
    if sub is None or sub[0] == 0:
        raise ValueError(f"edge {path!r} is not interior")
    # the edge's lower end holds (A, B), its upper end the sibling S; a
    # right edge reads as a left one with A and B swapped
    _, a, b = sub
    parent = _code_at(rest, path[:-1])
    a, b, s = (a, b, parent[2]) if path[-1] == "L" else (b, a, parent[1])
    return ((root, _code_replace(rest, path[:-1], (1, (1, a, s), b))),
            (root, _code_replace(rest, path[:-1], (1, (1, b, s), a))))


# ------------------------------------------------------------ normal forms

def hol_normalize(t):
    """Push all decorations onto the leaf edges.

    Returns an OR/HOL-equivalent presentation rooted at the leaf with
    the least plain code: the root edge and every interior edge carry
    the identity and each remaining leaf edge carries the holonomy from
    the root, oriented toward its leaf.  Idempotent.
    """
    return decode_code(explicit_code(t))


def is_simple(t):
    """True iff the tree shape is a caterpillar (right/left-normed):
    all trivalent vertices lie on a single path.

    Read off the canonical code: seen from the root leaf, the top vertex
    may have two trivalent children and every other vertex at most one.
    A raw DecoratedTree is canonicalized first.  A rooted Leaf or Node
    is refused: whether it is simple depends on how it is closed up.
    """
    if isinstance(t, (Leaf, Node)):
        raise TypeError("is_simple expects an unrooted tree (DecoratedTree or CanonicalTree), "
                        f"not a rooted {type(t).__name__}")
    if not isinstance(t, CanonicalTree):
        t = canonicalize(SignedTree(1, t))[0]
    return _code_is_simple(t.code[1], 2)


def _code_is_simple(c, room):
    """No vertex of the rooted code has more than ``room`` trivalent
    children (the top vertex two, the others one)."""
    if c[0] == 0:
        return True
    left, right = c[1], c[2]
    return (left[0] + right[0] <= room and _code_is_simple(left, 1)
            and _code_is_simple(right, 1))


# ------------------------------------------------------------- enumeration

def _sorted_rests(order, low, high):
    """Trivially decorated rooted codes with ``order`` vertices, leaf
    labels in low..high and the children of every vertex in code order:
    the fixed points of ``_canon_rec``, built up by order."""
    by_order = [[(0, label, "") for label in range(low, high + 1)]]
    for n in range(1, order + 1):
        by_order.append([(1, a, b) for k in range(n)
                         for a in by_order[k] for b in by_order[n - 1 - k] if a <= b])
    return by_order[order]


@lru_cache(maxsize=None)
def all_trees(order, labels, /):
    """All canonical order-n trees over labels 1..m with trivial
    decorations, sorted by code and free of duplicates.  Any order from
    0 and label count from 1 is enumerated; there is no upper cap.

    Canonical augmentation: a canonical code (r, rest) has least label
    r and a rest with sorted children, so every such candidate is
    canonicalized once and kept iff no other rooting at a leaf labelled
    r gives a smaller code, i.e. iff canonicalization returns it."""
    if order < 0:
        raise BoundsError(f"order must be at least 0, not {order}")
    if labels < 1:
        raise BoundsError(f"label count must be at least 1, not {labels}")
    out = []
    for root in range(1, labels + 1):
        for rest in _sorted_rests(order, root, labels):
            ct = canonicalize(SignedTree(1, (root, rest)))[0]
            if ct.code == (root, rest):
                out.append(ct)
    return tuple(sorted(out, key=lambda ct: ct.code))


@lru_cache(maxsize=None)
def trees_by_multiset(order, labels, /):
    """The canonical trees of (order, labels) by label multiset (the
    sorted leaf labels), each block in tree order, read-only."""
    trees = sorted(all_trees(order, labels), key=lambda ct: ct.labels)
    return MappingProxyType({mu: tuple(g) for mu, g in groupby(trees, key=lambda ct: ct.labels)})


@lru_cache(maxsize=None)
def representative_blocks(order, labels, /):
    """(count, trees) for each block whose label multiplicities do not
    increase from label 1 to m, in multiset order.

    A permutation of the labels carries the block of a multiset onto the
    block of the permuted multiset, AS and IHX included, so every block
    is a copy of exactly one representative.  ``count`` is the number of
    arrangements of its multiplicity vector into the m labels: m! over
    the product, for each multiplicity value, of the factorial of how
    often it occurs."""
    out = []
    for mu, trees in trees_by_multiset(order, labels).items():
        mult = [mu.count(i) for i in range(1, labels + 1)]
        if all(a >= b for a, b in zip(mult, mult[1:])):
            count = factorial(labels)
            for k in Counter(mult).values():
                count //= factorial(k)
            out.append((count, trees))
    return tuple(out)
