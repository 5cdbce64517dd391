"""The free Lie algebra as an independent witness.

Rooting a tree at each leaf reads off an iterated bracket; summing over
rootings gives a label-indexed family of Lie polynomials, each a dict
word -> coefficient.  Antisymmetry of the bracket absorbs orientation
swaps and the Jacobi identity absorbs IHX, so the map factors through
the tree groups and its rank bounds their free rank from below.
"""

import sys
from pathlib import Path

from towertrees import Leaf, eta, eta_sum, group_structure, lie_bracket, rational_rank_bound
from towertrees.groups import ihx_triples, relator_sum
from towertrees.trees import parse_tree

# the Hall bases and the necklace count come from the test oracles
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import hall_basis, lie_dimension_oracle


def bracket(t):
    """Leaf i -> X_i, node -> the bracket of its children's images."""
    return {(t.label,): 1} if isinstance(t, Leaf) else lie_bracket(bracket(t.left), bracket(t.right))


def show(poly):
    """A polynomial as its sorted terms, +1*X12 for the word (1, 2)."""
    return " ".join(f"{c:+d}*X{''.join(map(str, w))}" for w, c in sorted(poly.items())) or "0"


print("== brackets from rooted trees ==")
for text in ["(1,2)", "((1,2),3)", "(1,(2,3))"]:
    print(f"{text:12s} -> {show(bracket(parse_tree(text)))}")

print()
print("== eta on the order-0 edge ==")
for lab, el in sorted(eta(parse_tree("inner(1,2,)")).items()):
    print(f"component {lab}: {show(el)}")

print()
print("== every IHX relator dies ==")
relators = [relator_sum(ct, e) for n in range(4) for m in range(1, 5)
            for ct, e in ihx_triples(n, m)]
killed = all(eta_sum(r) == {} for r in relators)
count = len(relators)
print(f"{count} relators, all annihilated: {killed}")

print()
print("== Hall (Lyndon) bases and the necklace count ==")
for m, length in [(2, 2), (2, 3), (2, 4), (3, 3)]:
    hb = hall_basis(m, length)
    print(f"{m} generators, degree {length}: {len(hb):2d} basis elements "
          f"(necklace count {lie_dimension_oracle(m, length)})")

print()
print("== rank bounds against the group tables ==")
print("cell        lie rank   free rank")
for n in range(4):
    for m in range(1, 5):
        rank = rational_rank_bound(n, m)
        free = group_structure(n, m).free_rank
        marker = "=" if rank == free else "<"
        print(f"order {n}, m={m}: {rank:5d}    {marker}  {free:4d}")
