"""Structure of the order-n tree groups.

Builds the presentations (canonical trees as generators, one row per
IHX relator and a doubling row per 2-torsion tree) and reads off free
ranks and torsion through exact Smith normal form.
"""

from towertrees import group_structure, presentation, reduce_to_simple, TreeSum
from towertrees.groups import is_zero
from towertrees.trees import SignedTree, canonicalize, parse_tree

print("== the two landmark groups ==")
print(f"order 0, one label: {group_structure(0, 1).text()}")
print(f"order 1, one label: {group_structure(1, 1).text()}  (the Arf class)")

print()
print("== full table, orders 0..3, labels 1..4 ==")
for n in range(4):
    row = []
    for m in range(1, 5):
        row.append(f"{group_structure(n, m).text():>34s}")
    print(f"order {n}: " + " | ".join(row))

print()
print("== nonrepeating diagonal: torsion-free of rank n! ==")
for n in range(4):
    gs = group_structure(n, n + 2, nonrepeating=True)
    print(f"order {n}, {n + 2} labels, distinct: {gs.text()}")

print()
print("== presentation sizes ==")
for n, m in [(1, 2), (2, 3), (2, 4), (3, 3)]:
    mat = presentation(n, m)
    print(f"order {n}, labels 1..{m}: {mat.ncols:4d} generators, "
          f"{mat.ihx_count:3d} IHX rows + {len(mat.rows) - mat.ihx_count:3d} torsion rows")

print()
print("== spanning by simple trees ==")
star, _ = canonicalize(SignedTree(1, parse_tree("inner((1,2),((3,4),(1,2)),)")))
ts = reduce_to_simple(star)
print(f"the non-simple order-4 tree {star.text()}")
print(f"  rewrites to {ts.text()}")
print(f"  difference in the relator lattice: {is_zero(ts - TreeSum({star: 1}), 4, 4)}")
