"""Decorated unitrivalent trees and their canonical forms.

Every tree the library builds is a tuple code: a rooted code is
(0, label, word) at a leaf, (1, left, right) at a vertex, each leaf
carrying its holonomy from the top; an unrooted code fuses two rooted
codes along an edge, (left, right, word), or in layout form a bare root
leaf to the rest, (root label, rest).  Every edge carries a free-group
word and every trivalent vertex a cyclic orientation of its three
edges, encoded by the child order: at (1, l, r) it is (l, r, parent).
The ``Leaf``/``Node``/``DecoratedTree`` objects are only what
``parse_tree`` returns, for the functions that accept them from it.

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
side of an unrooted tree is a rooted code, and each side's top vertex
sees the other side across the fused edge.  A vertex (1, a, b) whose
outside view is P has the cyclic order (a, b, P); entered from a its
view is (1, b, P), entered from b it is (1, P, a).  Leaf holonomies are
measured once, from the top vertex of the left side; rooting at a leaf
of holonomy h re-bases each of them by h^-1, which changes nothing when
h is trivial, so decorated and trivially decorated trees share one
path.  Edge paths and the IHX move are read on the layout code (root
label, rest) as well: ``ihx_at`` returns H and X as such codes.

``canonicalize`` and ``canonicalize_rewrite`` share one minimization
over the least-label rootings, ``_least_rooting``, and one view walker;
``canonicalize_rewrite`` takes a code that keeps a canonical tree's
root and labels (an enumeration candidate, an IHX companion or a comb
of ``reduce_to_simple``) and roots only the leaves of its least label.
The walker and ``_canon_rec`` recurse only into vertices: a leaf is
read in place.  Every subtree of a canonical code is in code order, a
fixed point of ``_canon_rec``, so the IHX rows need no canonicalization
at all: ``_ihx_edge`` is the one descent to an IHX edge, ``ihx_at``
climbs back building H and X as written, and ``_ihx``, for the rows,
climbs back building only their sorted readings, each companion sorted
on the path it rewrote, and ``reading_table`` maps that reading to its
tree.

Trees are enumerated by label multiset, which AS and IHX keep:
``all_trees`` is the code-sorted union of a cell's ``block_trees``, each
block cached by its multiset alone, for every cell that holds it.

The grammar has one scanner, given the constructors of what it builds:
``parse_tree`` builds ``Leaf``/``Node`` trees, and ``parse_code``, the
one code parser, the codes that ``canonicalize``,
``canonicalize_rooted`` and ``to_text`` take as they are, with no tree
objects in between.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product
from math import factorial, prod

from .words import check_word, is_reduced, winv, wmul


class ParseError(ValueError):
    """Syntax error in the tree grammar, with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BoundsError(ValueError):
    """An order below 0 or a label count below 1, which ``cell_multisets``
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

    def text(self):
        return to_text(self.code)

    def __repr__(self):
        return f"CanonicalTree({self.text()!r})"


# ----------------------------------------------------------------- grammar
#
# One scanner reads the grammar, building rooted trees with the leaf and
# node constructors it is given: ``Leaf``/``Node`` for ``parse_tree``,
# side codes (0, label, word) and (1, left, right) for ``parse_code``.
# It walks the tokens of one ``findall``: a label with the word it
# carries, a run of letters or any other single character that is not
# whitespace, which separates tokens and is otherwise skipped.  Positions are worked out only for a ParseError,
# which names the token where the grammar breaks.

_TOKEN = re.compile(r"[(),]|[0-9]+(?::[A-Za-z]*)?|[A-Za-z]+|\S")
# the value of each label token below 100 that carries no word; any
# other label token is read and checked by ``_label``
_PLAIN_LABELS = {str(label): label for label in range(1, 100)}


def _start(text, k):
    """Where token k starts, or the end of the text past the last token."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[k] if k < len(starts) else len(text)


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


def _check_word(text, toks, k, word, at):
    """Refuse ``word``, the letters the tokens give for the word starting
    at ``at``, as ``_parse_word`` would.  The word runs on into token k
    only when that is a non-ASCII letter, which no word may hold;
    ``_parse_word`` then reads the whole word for the message."""
    if toks[k] > "\x7f" or not is_reduced(word):
        _parse_word(text, at)


def _label(text, toks, k):
    """The label and word of the label token k."""
    tok = toks[k]
    digits, colon, word = tok.partition(":")
    try:
        label = int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"label of {len(digits)} digits is too long", _start(text, k)) from None
    if label < 1:
        raise ParseError(f"label {label} out of range (labels start at 1)", _start(text, k))
    if colon:
        _check_word(text, toks, k + 1, word, _start(text, k) + len(digits) + 1)
    return label, word


def _scan_rooted(text, toks, k, leaf, node):
    """The rooted tree starting at token k, and the index past it; the
    token list ends in an empty sentinel."""
    open_nodes = []  # None for a node awaiting its left child, else that child
    while True:
        tok = toks[k]
        if tok == "(":
            open_nodes.append(None)
            k += 1
            continue
        label = _PLAIN_LABELS.get(tok)
        if label is not None:
            tree = leaf(label, "")
        elif "0" <= tok < ":":
            tree = leaf(*_label(text, toks, k))
        else:
            raise ParseError("expected a label" if tok else "unexpected end of input",
                             _start(text, k))
        k += 1
        # close every node this subtree completes
        while open_nodes:
            if open_nodes[-1] is None:
                if toks[k] != ",":
                    raise ParseError("expected ','", _start(text, k))
                open_nodes[-1] = tree
                k += 1
                break
            if toks[k] != ")":
                raise ParseError("expected ')'", _start(text, k))
            tree = node(open_nodes.pop(), tree)
            k += 1
        else:
            return tree, k


def _scan(text, leaf, node):
    """Scan the grammar with the constructors ``leaf(label, word)`` and
    ``node(left, right)``.  Returns (tree, None, None) for a rooted tree
    and (left, right, word) for an unrooted one."""
    toks = _TOKEN.findall(text)
    toks.append("")
    if text.lstrip()[:6] != "inner(":
        tree, k = _scan_rooted(text, toks, 0, leaf, node)
        if toks[k]:
            raise ParseError("trailing input", _start(text, k))
        return tree, None, None
    left, k = _scan_rooted(text, toks, 2, leaf, node)  # past "inner" and "("
    if toks[k] != ",":
        raise ParseError("expected ','", _start(text, k))
    right, k = _scan_rooted(text, toks, k + 1, leaf, node)
    if toks[k] != ",":
        raise ParseError("expected ','", _start(text, k))
    k += 1
    word = toks[k] if toks[k].isalpha() and toks[k].isascii() else ""
    if word or toks[k] > "\x7f":
        _check_word(text, toks, k + 1 if word else k, word, _start(text, k))
        k += bool(word)
    if toks[k] != ")":
        raise ParseError("expected ')'", _start(text, k))
    if toks[k + 1]:
        raise ParseError("trailing input", _start(text, k + 1))
    return left, right, word


def parse_tree(text):
    """Parse the tree grammar; returns a RootedTree or a DecoratedTree.

    rooted   := label | "(" rooted "," rooted ")"
    label    := decimal [":" word]
    unrooted := "inner(" rooted "," rooted "," word ")"

    Words use letters a-z, with uppercase for inverses.  Whitespace is
    insignificant.
    """
    left, right, word = _scan(text, Leaf, Node)
    return left if right is None else DecoratedTree(left, right, word)


def _leaf_code(label, word):
    return (0, label, word)


def _node_code(left, right):
    return (1, left, right)


def parse_code(text):
    """The code of a tree text, the library's one code parser.

    A rooted text gives its rooted code, each leaf carrying its own
    edge word, which is its holonomy from the top.  Text in layout form,
    ``inner(r,rest,)`` with a bare root leaf r, gives the layout code
    (r, rest) that ``CanonicalTree.code`` and ``ihx_at`` give; any other
    unrooted text gives the unrooted code (left, right, word) of its two
    side codes and fused word.  A side code carries each leaf's own edge
    word, as written; ``leaf_views`` folds them into holonomies.
    ``to_text`` prints every code back as ``to_text(parse_tree(text))``
    would, and ``is_rooted`` tells the rooted codes from the others.
    """
    left, right, word = _scan(text, _leaf_code, _node_code)
    if right is None:
        return left
    if not word and left[0] == 0 and not left[2]:
        return (left[1], right)
    return (left, right, word)


def is_rooted(code):
    """Whether a code is rooted: (0, label, word) or (1, left, right)."""
    return len(code) == 3 and type(code[0]) is int


def parse_signed(text):
    """Parse an optional +/- sign followed by a tree: (sign, code), the
    code as ``parse_code`` gives it."""
    text = text.lstrip()
    if text[:1] in ("+", "-"):
        return (1 if text[0] == "+" else -1), parse_code(text[1:])
    return 1, parse_code(text)


def to_text(tree):
    """Print a tree in the grammar; exact inverse of the parser.

    A code prints as the tree it stands for, its leaf words as written.
    Rooted trees with decorated internal edges are not representable and
    raise ValueError (push decorations to the leaves first).
    """
    if isinstance(tree, tuple):
        if is_rooted(tree):
            return _code_text(tree)
        left, right, word = _sides(tree)
        return f"inner({_code_text(left)},{_code_text(right)},{word})"
    if isinstance(tree, Leaf):
        return f"{tree.label}:{tree.word}" if tree.word else str(tree.label)
    if isinstance(tree, Node):
        if tree.word:
            raise ValueError("internal edge decoration is not representable")
        return f"({to_text(tree.left)},{to_text(tree.right)})"
    if isinstance(tree, DecoratedTree):
        return f"inner({to_text(tree.left)},{to_text(tree.right)},{tree.word})"
    raise TypeError(f"not a tree: {tree!r}")


def _code_text(c):
    if c[0] == 0:
        return f"{c[1]}:{c[2]}" if c[2] else str(c[1])
    return f"({_code_text(c[1])},{_code_text(c[2])})"


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


# ------------------------------------------------------------ leaf views

def _side_code(sub, hol):
    """Rooted code of a layout side seen from its top, each leaf
    carrying ``hol`` extended by the edge words down to it."""
    if isinstance(sub, Leaf):
        return (0, sub.label, hol)
    return (1, _side_code(sub.left, wmul(hol, sub.left.word) if sub.left.word else hol),
            _side_code(sub.right, wmul(hol, sub.right.word) if sub.right.word else hol))


def _collect_views(code, outside, out, low=None):
    """Append (label, holonomy, view) for every leaf, or every leaf
    labelled ``low``, below the vertex ``code``, hanging below an edge
    whose other side reads ``outside``.  A leaf child takes no call."""
    # the cyclic order (a, b, parent): entered from a it continues
    # (b, parent), entered from b it continues (parent, a)
    _, a, b = code
    if a[0]:
        _collect_views(a, (1, b, outside), out, low)
    elif low is None or a[1] == low:
        out.append((a[1], a[2], (1, b, outside)))
    if b[0]:
        _collect_views(b, (1, outside, a), out, low)
    elif low is None or b[1] == low:
        out.append((b[1], b[2], (1, outside, a)))


def _rebase(view, g):
    """The view with every leaf holonomy h replaced by g h."""
    if view[0] == 0:
        return (0, view[1], wmul(g, view[2]))
    return (1, _rebase(view[1], g), _rebase(view[2], g))


def _sides(code):
    """(left, right, word) of an unrooted code; a layout code (root,
    rest) is its bare root leaf fused to ``rest``."""
    if len(code) == 2 and type(code[0]) is int:
        return (0, code[0], ""), code[1], ""
    if len(code) == 3 and type(code[0]) is tuple:
        return code
    raise TypeError(f"not an unrooted code: {code!r}")


def leaf_views(tree):
    """(label, view) of a DecoratedTree, a CanonicalTree, a layout code
    (root label, rest) or an unrooted code (left, right, word), rooted
    at each of its leaves.

    A view is the rooted code of the rest of the tree as seen from the
    root leaf: (0, label, holonomy) at a leaf, (1, left, right) at a
    trivalent vertex entered from its parent, the children in cyclic
    order.  A code is read straight off, folding its leaf words and
    fused word into holonomies as its decoded tree would be: the words
    of leaf sides sit on the fused edge, and the fused edge's word
    prefixes every leaf word on the right side.  A layout code, bare or
    a CanonicalTree's, has nothing to fold.  A rooted tree, a ``Leaf``,
    a ``Node`` or a rooted code, is refused with a ``TypeError``: it has
    no leaf at its root to be read from.
    """
    if isinstance(tree, CanonicalTree):
        tree = tree.code
    if isinstance(tree, tuple) and len(tree) == 2:
        left, right = (0, tree[0], ""), tree[1]
    elif isinstance(tree, tuple):
        left, right, word = _sides(tree)
        lword = left[2] if left[0] == 0 else ""
        rword = right[2] if right[0] == 0 else ""
        if lword or word:
            fused = wmul(winv(lword), word, rword)
            left = (0, left[1], "") if lword else left
            right = (0, right[1], fused) if right[0] == 0 else _rebase(right, fused)
    elif isinstance(tree, DecoratedTree):
        left = _side_code(tree.left, "")
        right = _side_code(tree.right, wmul(winv(tree.left.word), tree.word, tree.right.word))
    else:
        raise TypeError("expected an unrooted tree (DecoratedTree, CanonicalTree or "
                        f"code), not {type(tree).__name__}")
    return _views(left, right)


def _views(left, right, low=None):
    """``leaf_views`` of two fused sides, or its views at leaves ``low``."""
    out = []
    for side, other in ((left, right), (right, left)):
        if side[0]:
            _collect_views(side, other, out, low)
        elif low is None or side[1] == low:
            out.append((side[1], side[2], other))
    # holonomies are measured from the top of the left side; rooting at
    # a leaf of holonomy h re-bases each of them by h^-1
    return [(label, _rebase(view, winv(hol)) if hol else view) for label, hol, view in out]


def _canon_rec(view):
    """Minimal code over vertex orientation states, with sign and tie
    flag, of a vertex view; a leaf is its own, with sign 1 and no tie."""
    _, ca, cb = view
    if ca[0]:
        ca, sign, amb = _canon_rec(ca)
    else:
        sign, amb = 1, False
    if cb[0]:
        cb, sb, ab = _canon_rec(cb)
        sign *= sb
        amb = amb or ab
    if cb < ca:
        return (1, cb, ca), -sign, amb
    return (1, ca, cb), sign, amb or ca == cb


def canonicalize(signed):
    """Canonical form of a signed decorated tree; the signed tree may
    also be a CanonicalTree or a code (see ``leaf_views``), such as
    ``ihx_at`` or ``parse_code`` returns.

    Returns (CanonicalTree, sign).  Gauge-equivalent inputs map to equal
    canonical trees with the AS-predicted sign relation; for 2-torsion
    classes (t = -t) the sign is reduced mod 2, so +-1 gives 1 and 0 or
    +-2 give 0.  The code is minimized over
    the rootings at the least-label leaves: a code starts with its root
    label, so no other root can give the minimal code.
    """
    views = leaf_views(signed.tree)
    labels = tuple(sorted(label for label, _ in views))
    code, sign, torsion = _least_rooting(views, labels[0])
    sign = signed.sign % 2 if torsion else sign * signed.sign
    # an order-n tree has n + 2 leaves
    return CanonicalTree(code, torsion, len(views) - 2, labels), sign


def _least_rooting(views, low):
    """The least code (low, view) over the ``views`` rooted at a leaf
    labelled ``low``, the least label, with the sign it takes for an
    input of sign 1 and whether the class is 2-torsion: when the least
    code is reached with both signs, or with a tie between the two
    children of some vertex."""
    best = None
    signs = set()
    amb_at_best = False
    for label, view in views:
        if label != low:
            continue
        code, sign, amb = _canon_rec(view) if view[0] else (view, 1, False)
        full = (label, code)
        if best is None or full < best:
            best, signs, amb_at_best = full, {sign}, amb
        elif full == best:
            signs.add(sign)
            amb_at_best = amb_at_best or amb
    torsion = amb_at_best or len(signs) == 2
    return best, (1 if torsion else min(signs)), torsion


def canonicalize_rewrite(code, labels):
    """The canonical code, sign and ``two_torsion`` of
    ``canonicalize(SignedTree(1, code))``, for a layout code (root,
    rest) whose root carries the least of its sorted leaf ``labels``:
    a ``block_trees`` candidate, or a code that rewrites a canonical tree
    with the same root and labels, as ``ihx_at``'s H and X and the
    combs of ``reduce_to_simple`` do.

    When that label occurs once (``labels[0] < labels[1]``), the root
    leaf is the only rooting that can give the least code, and its view
    is ``rest`` itself: one ``_canon_rec`` call, none for a leaf, with
    no other view, no label sort and no tree object.  Otherwise the walker collects views
    only at the leaves of the least label, each re-based by its leaf's
    holonomy, and they go through ``_least_rooting``; no other leaf is
    rooted.
    """
    root, rest = code
    if labels[0] < labels[1]:
        rest, sign, amb = _canon_rec(rest) if rest[0] else (rest, 1, False)
        return (root, rest), (1 if amb else sign), amb
    return _least_rooting(_views((0, root, ""), rest, root), root)


def reading_table(trees):
    """{reading: (column, sign)} over canonical trees, a tree's column its
    index: a reading is a layout code (least label, sorted view), the
    tree rooted at a leaf of its least label with every vertex's
    children in code order, and its sign that of the sort.

    When the least label occurs once the canonical code is a tree's only
    reading.  A code rewriting a tree with its root and labels, once
    sorted (as ``_ihx`` reads H and X), is one of its class's readings,
    so this table canonicalizes it by lookup; the sign of a 2-torsion
    tree's reading holds only mod 2."""
    table = {}
    for j, ct in enumerate(trees):
        root, rest = code = ct.code
        table[code] = (j, 1)
        if ct.labels[0] == ct.labels[1]:
            # the first view is the root leaf's, the code itself
            for _, view in _views((0, root, ""), rest, root)[1:]:
                view, sign, _ = _canon_rec(view) if view[0] else (view, 1, False)
                table[(root, view)] = (j, sign)
    return table


def canonicalize_rooted(sign, code):
    """Canonical form of a signed rooted code, as ``parse_code`` gives
    it, under AS flips and OR/HOL gauge only (the root stays put).

    Returns (rooted code, sign, two_torsion).
    """
    code, s, amb = _canon_rec(code) if code[0] else (code, 1, False)
    return code, (1 if amb else s * sign), amb


def is_trivially_decorated(ct):
    """Whether every leaf holonomy of a canonical tree is trivial."""
    return _undecorated(ct.code[1])


def _undecorated(c):
    """Whether every leaf of a rooted code carries the trivial word."""
    if c[0] == 0:
        return c[2] == ""
    return _undecorated(c[1]) and _undecorated(c[2])


# -------------------------------------------------------- layout addressing
# Edge paths and the IHX move are read on the layout code itself.

def interior_edge_paths(ct):
    """Edges whose both endpoints are trivalent, the edge above the
    layout subtree at path p named p, in preorder, which is also the
    sorted order of the paths."""
    out = []
    rest = ct.code[1]
    if rest[0]:
        _vertex_paths(rest, "", out)
    return out[1:]  # all but the root leaf's edge


def _vertex_paths(c, path, out):
    """Append the paths of the vertex c and of the vertices below it, in
    preorder; a leaf child takes no call."""
    out.append(path)
    if c[1][0]:
        _vertex_paths(c[1], path + "L", out)
    if c[2][0]:
        _vertex_paths(c[2], path + "R", out)


def ihx_at(ct, path):
    """The H and X companions of a canonical tree at an interior edge.

    With the edge's endpoints carrying subtree pairs (A, B) and (C, D)
    in cyclic order following the edge, the three trees joining (A,B |
    C,D), (A,C | B,D) and (A,D | B,C) satisfy I - H + X = 0, the tree
    form of the Jacobi identity.  Returns H and X as layout codes (root
    label, rest), shaped as ``CanonicalTree.code`` but not canonical,
    for ``canonicalize_rewrite`` or ``canonicalize``.
    Leaf holonomies are measured from the root, so they move with their
    subtrees.
    """
    root, above, a, b, s = _ihx_edge(ct, path)
    h, x = (1, (1, a, s), b), (1, (1, b, s), a)
    for parent, step in reversed(above):
        if step == "L":
            h, x = (1, h, parent[2]), (1, x, parent[2])
        else:
            h, x = (1, parent[1], h), (1, parent[1], x)
    return (root, h), (root, x)


def _ihx_edge(ct, path):
    """One descent to an interior edge: (root, above, A, B, S), with
    ``above`` the vertices passed, each with its step, the edge's lower
    end holding (A, B) and its upper end the sibling S.  A right edge
    reads as a left one with A and B swapped."""
    if not path:
        raise ValueError("the root-leaf edge is not interior")
    root, c = ct.code
    above = []
    for step in path:
        if c[0] == 0 or step not in "LR":
            raise ValueError(f"edge {path!r} is not interior")
        above.append((c, step))
        c = c[1] if step == "L" else c[2]
    if c[0] == 0:
        raise ValueError(f"edge {path!r} is not interior")
    _, a, b = c
    parent, step = above.pop()
    a, b, s = (a, b, parent[2]) if step == "L" else (b, a, parent[1])
    return root, above, a, b, s


def _sorted(lo, hi, sign):
    """The vertex (1, lo, hi) in code order, ``sign`` negated by a swap."""
    return ((1, hi, lo), -sign) if hi < lo else ((1, lo, hi), sign)


def _ihx(ct, path):
    """The sorted readings of ``ihx_at``'s H and X, from one descent to
    the edge and one climb back: ((H', sign), (X', sign)).

    Every subtree of a canonical code is in code order, and H and X
    differ from their tree only at the rewritten vertex and above it, so
    sorting those vertices on the climb, with the product of the swap
    signs, gives ``_canon_rec``'s code and sign: a reading that
    ``reading_table`` knows."""
    root, above, a, b, s = _ihx_edge(ct, path)
    (hs, hsign), (xs, xsign) = _sorted(a, s, 1), _sorted(b, s, 1)
    hs, hsign = _sorted(hs, b, hsign)
    xs, xsign = _sorted(xs, a, xsign)
    for parent, step in reversed(above):
        if step == "L":
            sib = parent[2]
            hs, hsign = _sorted(hs, sib, hsign)
            xs, xsign = _sorted(xs, sib, xsign)
        else:
            sib = parent[1]
            hs, hsign = _sorted(sib, hs, hsign)
            xs, xsign = _sorted(sib, xs, xsign)
    return ((root, hs), hsign), ((root, xs), xsign)


# ------------------------------------------------------------ simple trees

def is_simple(t):
    """True iff the tree shape is a caterpillar (right/left-normed):
    all trivalent vertices lie on a single path.

    Read off the canonical code: seen from the root leaf, the top vertex
    may have two trivalent children and every other vertex at most one.
    Any other unrooted tree is canonicalized first.  A rooted tree is
    refused, by ``leaf_views``: whether it is simple depends on how it
    is closed up.
    """
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

def cell_multisets(order, labels):
    """The sorted label multisets of the order-n trees on labels 1..m, in
    lexicographic order: any order from 0 and m from 1, with no cap."""
    if order < 0:
        raise BoundsError(f"order must be at least 0, not {order}")
    if labels < 1:
        raise BoundsError(f"label count must be at least 1, not {labels}")
    return combinations_with_replacement(range(1, labels + 1), order + 2)


@lru_cache(maxsize=None)
def block_trees(multiset, /):
    """The canonical trees with trivial decorations and sorted leaf labels
    ``multiset``, by code.  Canonical augmentation: a canonical code (r,
    rest) has least label r and a rest with sorted children, and each such
    candidate is kept iff ``canonicalize_rewrite`` returns it."""
    root, others, out = multiset[0], multiset[1:], []
    names = sorted(set(others))
    rests = {}  # the sorted rests on each sub-multiset of the others, by its counts
    # ``product`` lists the count vectors up to the others', each after those
    # below it.  The k-th vector below one is the complement of the k-th
    # from the end, so the first half, past 0, holds each of its splits once.
    for counts in product(*[range(others.count(label) + 1) for label in names]):
        below = list(product(*[range(k + 1) for k in counts]))
        rests[counts] = [(0, names[counts.index(1)], "")] if sum(counts) == 1 else [
            (1, x, y) if x <= y else (1, y, x)
            for a, b in zip(below[1:(len(below) + 1) // 2], below[-2::-1])
            for ra, rb in [(rests[a], rests[b])]
            for i, x in enumerate(ra) for y in (ra[i:] if ra is rb else rb)]
    for rest in rests[counts]:
        candidate = (root, rest)
        code, _, torsion = canonicalize_rewrite(candidate, multiset)
        if code == candidate:
            out.append(CanonicalTree(candidate, torsion, len(others) - 1, multiset))
    return tuple(sorted(out, key=lambda ct: ct.code))


@lru_cache(maxsize=None)
def all_trees(order, labels, /):
    """All canonical order-n trees over labels 1..m with trivial
    decorations, sorted by code: the union of the cell's blocks."""
    blocks = map(block_trees, cell_multisets(order, labels))
    return tuple(sorted(chain.from_iterable(blocks), key=lambda ct: ct.code))


@lru_cache(maxsize=None)
def representative_blocks(order, labels, /):
    """(count, trees) for each block whose used labels 1..k have
    non-decreasing multiplicities, the unused labels last, in multiset
    order.  The rarest label is then 1, the root of every code, so the
    block's ``reading_table``, one reading per leaf labelled 1 of each
    tree, is as small as a relabelling can make it, and a tree whose
    label 1 occurs once has its code as its only reading.

    A permutation of the labels carries the block of a multiset onto the
    block of the permuted multiset, AS and IHX included, so every block
    is a copy of exactly one representative.  ``count`` is the number of
    arrangements of its multiplicity vector into the m labels: m! over
    the product, for each multiplicity value, of the factorial of how
    often it occurs."""
    out = []
    for mu in cell_multisets(order, labels):
        mult = [mu.count(i) for i in range(1, labels + 1)]
        if mult == sorted(k for k in mult if k) + [0] * mult.count(0):
            count = factorial(labels) // prod(map(factorial, Counter(mult).values()))
            out.append((count, block_trees(mu)))
    return tuple(out)
