"""Split tower models and certified order raising.

Ingests a raw tower description, computes its intersection sum, and
walks the planner: when the sum vanishes in the order-n group, a
replayable certificate of moves empties the order-n layer.
"""

import random
import sys
from pathlib import Path

from towertrees import (
    ObstructionNonzero,
    bch_tower,
    certificate_to_json,
    certify_raise_order,
    extract_model,
    glue,
    ihx_insert,
    replay_certificate,
    tau,
    verify_certificate,
)
from towertrees.groups import ihx_triples, is_zero
from towertrees.towers import RawDisk, RawPoint, RawTower, parse_bracket

# the seeded random raw towers come from the test oracles
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import random_raw_tower

print("== a raw order-2 tower on four surfaces ==")
# each Whitney disk is named by its bracket, a rooted code
one, two, three, four = map(parse_bracket, "1234")
w12, w34 = parse_bracket("(1,2)"), parse_bracket("(3,4)")
raw = RawTower(4, 2,
               disks=(RawDisk(w12), RawDisk(w34)),
               points=(
                   RawPoint(+1, one, two, "", w12), RawPoint(-1, one, two, "", w12),
                   RawPoint(+1, three, four, "", w34), RawPoint(-1, three, four, "", w34),
                   RawPoint(+1, w12, w34, ""),
               ))
model = extract_model(raw)
print(f"order {model.order}, tau = {tau(model).text()}")
print(f"zero in the order-2 group: {is_zero(tau(model), model.order, model.m)}")

print()
print("== a single tree is an obstruction ==")
try:
    certify_raise_order(model)
except ObstructionNonzero as exc:
    print(f"planner refuses; normal form: {exc.normal_form.text()}")

print()
print("== doubling kills the obstruction ==")
doubled = glue(model, model)
print(f"tau(glue(W, W)) = {tau(doubled).text()}")
cert = certify_raise_order(doubled)
print(f"certificate ({len(cert)} moves):")
print(certificate_to_json(cert))
final = replay_certificate(doubled, cert)
print(f"replayed: order {final.order}, {len(final.points)} points, "
      f"verifies: {verify_certificate(doubled, cert).ok}")

print()
print("== algebraic vs geometric cancellation ==")
ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
triple = ihx_insert(bch_tower([], 2, 4), ct, edge)
print(f"one inserted IHX triple: tau vanishes in the group: "
      f"{is_zero(tau(triple), 2, 4)}")
print(f"but the hat-level sum is {tau(triple).text()}")
cert = certify_raise_order(triple)
kinds = [type(m).__name__ for m in cert]
print(f"certificate inserts the inverse relator, then cancels: {kinds}")
print(f"verifies: {verify_certificate(triple, cert).ok}")

print()
print("== random towers stay gauge invariant ==")
rng = random.Random(3)
raw = random_raw_tower(rng)
print(f"random tower: m={raw.m}, declared order {raw.order}, "
      f"{len(raw.disks)} disks, {len(raw.points)} points")
print(f"tau = {tau(extract_model(raw)).text()}")
