"""Decorated trees, the bracket grammar, and canonical forms.

Walks through the basic objects: rooted trees and their products,
unrooted trees fused from two rooted ones, and the gauge moves
(orientation swaps, edge reversals, whisker pushes) that canonical
forms absorb.
"""

from towertrees import (
    DecoratedTree,
    Node,
    SignedTree,
    all_trees,
    canonicalize,
    is_simple,
    order_of,
    parse_tree,
    to_text,
)

print("== rooted trees and products ==")
a = parse_tree("(1,2)")
b = parse_tree("(3,(4,5))")
print(f"a = {to_text(a)}   order {order_of(a)}")
print(f"b = {to_text(b)}   order {order_of(b)}")
ab = Node(a, b)
print(f"rooted product a*b = {to_text(ab)}   order {order_of(ab)}")

fused = DecoratedTree(a, parse_tree("(3,4)"), "g")
print(f"inner product  = {to_text(fused)}   order {order_of(fused)}")

print()
print("== gauge moves vanish in the canonical form ==")
pairs = [
    ("inner(1,(2,3),)", "inner(1,(3,2),)"),        # one orientation swap
    ("inner((1,2),(3,4),g)", "inner((3,4),(1,2),G)"),  # edge reversed, word inverted
]
for left, right in pairs:
    cl, sl = canonicalize(SignedTree(1, parse_tree(left)))
    cr, sr = canonicalize(SignedTree(1, parse_tree(right)))
    print(f"{left:26s} -> {sl:+d} * {cl.text()}")
    print(f"{right:26s} -> {sr:+d} * {cr.text()}")
    print()

print("== whisker pushes: all decorations end up on the leaf edges ==")
t = parse_tree("inner(1:a,(2:b,3:c),)")
print(f"{to_text(t)}  normalizes to  {canonicalize(SignedTree(1, t))[0].text()}")

print()
print("== two-torsion from symmetric trees ==")
for text in ["inner(1,(1,1),)", "inner(1,(1,2),)", "inner(1,(2,3),)"]:
    ct, _ = canonicalize(SignedTree(1, parse_tree(text)))
    print(f"{text:20s} two-torsion: {ct.two_torsion}")

print()
print("== enumeration ==")
for n, m in [(0, 2), (1, 2), (2, 2), (2, 3)]:
    trees = all_trees(n, m)
    torsion = sum(1 for t in trees if t.two_torsion)
    print(f"order {n}, labels 1..{m}: {len(trees):3d} trees, {torsion} two-torsion")

print()
print("== simple (caterpillar) trees ==")
star = parse_tree("inner((1,2),((3,4),(5,6)),)")
cat = parse_tree("inner(1,(2,(3,(4,(5,6)))),)")
print(f"{to_text(star)}  simple: {is_simple(star)}")
print(f"{to_text(cat)}  simple: {is_simple(cat)}")
