import hashlib
import json
import random
import re
import signal
from dataclasses import replace
from pathlib import Path

import pytest

from towertrees.groups import ihx_triples, is_zero, relator_sum
from towertrees.sums import TreeSum
from towertrees.towers import (
    CancelPair,
    IhxInsert,
    MoveError,
    ObstructionNonzero,
    PlannerError,
    RawDisk,
    RawPoint,
    RawTower,
    TowerError,
    TowerModel,
    TowerPoint,
    apply_move,
    bch_tower,
    certificate_from_json,
    certificate_to_json,
    certify_raise_order,
    extract_model,
    glue,
    ihx_insert,
    load_tower,
    make_model,
    model_to_json,
    parse_bracket,
    raw_from_json,
    raw_to_json,
    replay_certificate,
    tau,
    verify_certificate,
)
from towertrees.trees import (
    DecoratedTree,
    Node,
    SignedTree,
    canonicalize,
    ihx_at,
    parse_tree,
    to_text,
)
from towertrees.words import winv

from oracles import decode, object_extract_model, random_raw_tower

FIXTURES = Path(__file__).parent / "fixtures"


def canon(text):
    return canonicalize(SignedTree(1, parse_tree(text)))[0]


# ----------------------------------------------------------------- brackets

def test_bracket_roundtrip():
    for text in ["3", "(1,2)", "((1,2),3)", "(1,(2,(3,4)))"]:
        assert to_text(parse_bracket(text)) == text


def test_tree_of_bracket():
    # the disk W_(I,J) carries the rooted product of the trees of W_I and W_J
    assert parse_bracket("1") == (0, 1, "")
    assert RawPoint(1, parse_bracket("(1,2)"), parse_bracket("3")).order == 1
    i, j = parse_bracket("(1,2)"), parse_bracket("(3,(4,5))")
    assert parse_bracket("((1,2),(3,(4,5)))") == (1, i, j)


def test_bracket_rejects_decorations():
    with pytest.raises(TowerError):
        parse_bracket("(1:a,2)")


# --------------------------------------------------------------- raw towers

L1, L2, L3 = map(parse_bracket, "123")
W12 = parse_bracket("(1,2)")


def _simple_raw():
    return RawTower(3, 1,
                    disks=(RawDisk(W12),),
                    points=(
                        RawPoint(+1, L1, L2, "", W12),
                        RawPoint(-1, L1, L2, "", W12),
                        RawPoint(+1, W12, L3, "a"),
                    ))


def test_extract_single_point():
    model = extract_model(_simple_raw())
    assert model.order == 1 and len(model.points) == 1
    expected, sign = canonicalize(SignedTree(1, parse_tree("inner((1,2),3,a)")))
    assert tau(model) == TreeSum({expected: sign})


def test_extract_fig_fixture():
    raw = raw_from_json((FIXTURES / "order2_tower.json").read_text())
    model = extract_model(raw)
    assert model.order == 2
    assert tau(model) == TreeSum({canon("inner((1,2),(3,4),)"): 1})


def test_raw_pairing_validation():
    raw = _simple_raw()
    bad = replace(raw, points=raw.points[:1] + raw.points[2:])
    with pytest.raises(TowerError, match="pairs 1 points"):
        extract_model(bad)
    bad = replace(raw, points=(
        RawPoint(+1, L1, L2, "", W12),
        RawPoint(+1, L1, L2, "", W12),
        raw.points[2]))
    with pytest.raises(TowerError, match="equal sign"):
        extract_model(bad)


def test_raw_paired_by_mismatch():
    raw = replace(_simple_raw(), points=(
        RawPoint(+1, L1, L3, "", W12),
        RawPoint(-1, L1, L2, "", W12),
        RawPoint(+1, W12, L3, ""),
    ))
    with pytest.raises(TowerError, match="lies on"):
        extract_model(raw)


def test_raw_unpaired_below_declared_order():
    raw = replace(_simple_raw(), points=_simple_raw().points + (RawPoint(+1, L1, L2, ""),))
    with pytest.raises(TowerError, match="unpaired of order 0"):
        extract_model(raw)


def test_raw_missing_disk():
    raw = RawTower(3, 1, disks=(), points=(RawPoint(+1, W12, L3, ""),))
    with pytest.raises(TowerError, match="no disk entry"):
        extract_model(raw)


def test_order0_orientation_flip_negates_odd_label_terms():
    # flipping an order-0 surface negates exactly the terms with an odd
    # number of its labels
    raw = _simple_raw()
    base = tau(extract_model(raw))
    flipped = replace(raw, disks=raw.disks + (RawDisk(L3, "", -1),))
    assert tau(extract_model(flipped)) == -base  # one 3-label
    flipped1 = replace(raw, disks=raw.disks + (RawDisk(L1, "", -1),))
    assert tau(extract_model(flipped1)) == -base  # one 1-label
    # two labels of 1: even count, no sign change
    raw2 = RawTower(2, 0, disks=(), points=(RawPoint(+1, L1, L1, "a"),))
    base2 = tau(extract_model(raw2))
    flipped2 = replace(raw2, disks=(RawDisk(L1, "", -1),))
    assert tau(extract_model(flipped2)) == base2


def test_gauge_invariance_randomized():
    rng = random.Random(12345)
    for _ in range(120):
        raw = random_raw_tower(rng)
        base = tau(extract_model(raw))
        disks = list(raw.disks)
        whitney = [i for i, d in enumerate(disks) if d.bracket[0]]
        if whitney:
            i = rng.choice(whitney)
            mutated = replace(raw, disks=tuple(
                replace(d, orientation=-d.orientation) if k == i else d
                for k, d in enumerate(disks)))
            assert tau(extract_model(mutated)) == base
            i = rng.choice(whitney)
            mutated = replace(raw, disks=tuple(
                replace(d, whisker="bA") if k == i else d for k, d in enumerate(disks)))
            assert tau(extract_model(mutated)) == base
        pts = list(raw.points)
        j = rng.randrange(len(pts))
        p = pts[j]
        pts[j] = RawPoint(p.sign, p.right, p.left, winv(p.word), p.paired_by)
        assert tau(extract_model(replace(raw, points=tuple(pts)))) == base


def test_extract_model_matches_the_object_reference():
    # loading a raw tower folds its whiskers into the leaf holonomies of
    # codes; the reference builds Leaf/Node trees with whisker words on
    # their edges.  On 1,200 seeded towers both give the same model JSON
    rng = random.Random("extract-reference")
    whiskered = flipped = 0
    for _ in range(1200):
        raw = random_raw_tower(rng)
        whiskered += any(d.whisker and d.bracket[0] for d in raw.disks)
        flipped += any(d.orientation < 0 and d.bracket[0] for d in raw.disks)
        assert model_to_json(load_tower(raw_to_json(raw))) == model_to_json(
            object_extract_model(raw))
    assert whiskered > 300 and flipped > 300



def _mutate_raw_doc(rng, doc):
    """One seeded mutation of a raw tower document, in place: drop a
    point, swap a point's sides, push a disk label past m, duplicate a
    disk or flip a disk orientation."""
    kind = rng.choice(["drop", "swap", "label", "duplicate", "flip"] if doc["disks"]
                      else ["drop", "swap"])
    if kind == "drop":
        del doc["points"][rng.randrange(len(doc["points"]))]
    elif kind == "swap":
        p = rng.choice(doc["points"])
        p["left"], p["right"] = p["right"], p["left"]
    else:
        k = rng.randrange(len(doc["disks"]))
        disk = doc["disks"][k]
        if kind == "label":
            disk["bracket"] = re.sub(r"\d+", str(doc["m"] + 1), disk["bracket"], count=1)
        elif kind == "duplicate":
            doc["disks"].insert(k, dict(disk))
        else:
            disk["orientation"] = -disk["orientation"]


def test_seeded_raw_towers_match_golden_digest():
    # 500 seeded random raw towers and one seeded JSON mutation of each:
    # the SHA-256 over their raw JSON, their tau and the mutant's tau or
    # TowerError message pins the raw schema, extraction and validation
    golden = json.loads((FIXTURES / "raw_tower_sha256.json").read_text())
    towers, mutations = random.Random("raw-towers"), random.Random("raw-tower-mutations")
    digest = hashlib.sha256()
    for _ in range(golden["towers"]):
        text = raw_to_json(random_raw_tower(towers))
        doc = json.loads(text)
        _mutate_raw_doc(mutations, doc)
        try:
            outcome = tau(load_tower(json.dumps(doc))).text()
        except TowerError as exc:
            outcome = f"TowerError: {exc}"
        for part in (text, tau(load_tower(text)).text(), outcome):
            digest.update(part.encode() + b"\n")
    assert digest.hexdigest() == golden["sha256"]


# -------------------------------------------------------------- tau and hat

def test_tau_cancelling_pair():
    y = canon("inner(1,(2,3),)")
    model = make_model(3, 1, [(1, y), (-1, y)])
    assert tau(model).is_empty()


def test_hat_tau_sees_ihx_triple():
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    model = ihx_insert(make_model(4, 2, []), ct, edge)
    assert len(model.points) == 3
    assert not tau(model).is_empty()
    assert is_zero(tau(model), 2, 4)
    assert tau(model) == relator_sum(ct, edge)


def test_bch_tower():
    i_tree = parse_tree("inner((1,2),(3,4),)")
    model = bch_tower([SignedTree(1, i_tree)], 2, 4)
    assert tau(model) == TreeSum({canon("inner((1,2),(3,4),)"): 1})
    assert bch_tower([], 2, 4).points == {}
    two = bch_tower([SignedTree(1, i_tree), SignedTree(-1, i_tree)], 2, 4)
    assert tau(two).is_empty() and len(two.points) == 2


def test_bch_rejects_wrong_order():
    with pytest.raises(TowerError):
        bch_tower([SignedTree(1, parse_tree("inner(1,2,)"))], 2, 4)


@pytest.mark.parametrize("sign", [0, 2])
def test_models_refuse_point_signs_other_than_one(sign):
    # tau sums one sign of +-1 per point; the 2-torsion rule (sign +1)
    # must not turn a 0 or a 2 on a tree with t = -t into a point
    y = canon("inner(1,(2,3),)")
    torsion = canon("inner(1,(1,1),)")
    assert torsion.two_torsion and not y.two_torsion
    refused = pytest.raises(TowerError, match=rf"^point 1 has sign {sign}, not \+1 or -1$")
    with refused:
        TowerModel(3, 1, {0: TowerPoint(1, y), 1: TowerPoint(sign, y)}, 2)
    for tree in (y, torsion):
        with refused:
            make_model(3, 1, [(1, y), (sign, tree)])
        with refused:
            bch_tower([SignedTree(1, decode(y)), SignedTree(sign, decode(tree))], 1, 3)
    # a model's points are read-only, so no point can change after the check
    b = make_model(3, 1, [(1, y)])
    with pytest.raises(TypeError):
        b.points[0] = TowerPoint(-sign, y)


def test_models_whose_certificates_would_fail_are_refused():
    # a point of sign 0 leaves tau empty, so the planner certified the
    # model with no moves and replay found the point still there; a
    # point of sign 2 balanced two of sign -1 but could not be paired
    with pytest.raises(TowerError, match="^point 0 has sign 0, not"):
        bch_tower([(0, parse_tree("inner((1,2),(3,4),)"))], 2, 4)
    t = canon("inner((1,2),(3,4),)")
    with pytest.raises(TowerError, match="^point 0 has sign 2, not"):
        make_model(4, 2, [(2, t), (-1, t), (-1, t)])


# -------------------------------------------------------------------- moves

def test_ihx_insert_counts_and_conservation():
    ct, edge = ihx_triples(2, 4)[0]
    base = make_model(4, 2, [(1, canon("inner((1,2),(3,4),)"))])
    before = is_zero(tau(base), 2, 4)
    grown = ihx_insert(base, ct, edge, 1)
    assert len(grown.points) == len(base.points) + 3
    assert is_zero(tau(grown), 2, 4) == before
    back = ihx_insert(grown, ct, edge, -1)
    assert tau(back) == tau(base)


def test_ihx_insert_rejects_bad_edge():
    ct = canon("inner((1,2),(3,4),)")
    model = make_model(4, 2, [])
    with pytest.raises(MoveError, match="interior"):
        ihx_insert(model, ct, "L")


@pytest.mark.parametrize("edge", ["", "Q", "RX", "RL", "LL", "RRL", None, ["R"]])
def test_ihx_insert_refuses_each_kind_of_non_interior_edge(edge):
    # the root-leaf edge, a step other than L/R, a path to a leaf, a
    # path past a leaf, and an edge that is not a string
    ct = canon("inner((1,2),(3,4),)")
    assert ct.code == (1, (1, (0, 2, ""), (1, (0, 3, ""), (0, 4, ""))))
    with pytest.raises(MoveError) as exc:
        ihx_insert(make_model(4, 2, []), ct, edge)
    assert exc.value.reason == "NotInterior"
    assert str(exc.value) == f"{edge!r} is not an interior edge of {ct.text()}"
    assert len(ihx_insert(make_model(4, 2, []), ct, "R").points) == 3


def test_replay_rejects_swapped_h_and_x():
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    model = ihx_insert(make_model(4, 2, []), ct, edge)
    cert = certify_raise_order(model)
    swapped = []
    for mv in cert:
        if isinstance(mv, IhxInsert):
            mv = IhxInsert(mv.tree, mv.edge, mv.sign, mv.x, mv.h)
        swapped.append(mv)
    res = verify_certificate(model, tuple(swapped))
    assert not res.ok and "do not match" in res.reason


def test_cancel_simple_pair():
    y = canon("inner(1,(2,3),)")
    s = canon("inner(1,(2,2),)")
    model = make_model(3, 1, [(1, y), (-1, y), (1, s)])
    out = apply_move(model, CancelPair(0, 1))
    assert list(out.points) == [2]
    # the pair cancelled algebraically, so the hat-level sum is untouched
    assert tau(out) == tau(model)
    empty = apply_move(make_model(3, 1, [(1, y), (-1, y)]), CancelPair(0, 1))
    assert not empty.points


def test_cancel_pair_errors():
    y = canon("inner(1,(2,3),)")
    other = canon("inner(1,(2,2),)")
    model = make_model(3, 1, [(1, y), (1, y), (1, other)])
    with pytest.raises(MoveError) as exc:
        apply_move(model, CancelPair(0, 1))
    assert exc.value.reason == "SameSign"
    with pytest.raises(MoveError) as exc:
        apply_move(model, CancelPair(0, 2))
    assert exc.value.reason == "TreesDiffer"
    star = canon("inner((1,2),((3,1),(2,3)),)")
    model4 = make_model(3, 4, [(1, star), (-1, star)])
    with pytest.raises(MoveError) as exc:
        apply_move(model4, CancelPair(0, 1))
    assert exc.value.reason == "NotSimple"


def test_cancel_pair_checks_simplicity_once_per_distinct_tree(monkeypatch):
    import towertrees.towers as towers

    walked = []
    real_is_simple = towers.is_simple
    monkeypatch.setattr(towers, "is_simple", lambda t: walked.append(t) or real_is_simple(t))
    star = canon("inner((1,2),((3,1),(2,3)),)")
    other = canon("inner((1,2),((3,4),(1,2)),)")
    y = canon("inner(1,(2,(3,(1,(2,3)))),)")
    assert not real_is_simple(star) and not real_is_simple(other) and real_is_simple(y)
    assert star != other
    cases = [
        # non-simple and equal: one walk, and p is named
        ([(1, star), (-1, star)], 0, [star]),
        # non-simple and different: p fails first, before the trees are compared
        ([(1, star), (-1, other)], 0, [star]),
        # simple p, different non-simple q: q is still walked and named
        ([(1, y), (-1, star)], 1, [y, star]),
        ([(1, y), (-1, other)], 1, [y, other]),
    ]
    for points, named, trees in cases:
        walked.clear()
        with pytest.raises(MoveError, match=f"^point {named} carries the non-simple tree") as exc:
            apply_move(make_model(4, 4, points), CancelPair(0, 1))
        assert exc.value.reason == "NotSimple"
        assert walked == trees
    walked.clear()
    assert not apply_move(make_model(4, 4, [(1, y), (-1, y)]), CancelPair(0, 1)).points
    assert walked == [y]


def test_cancel_torsion_pair_same_stored_sign():
    y = canon("inner(1,(1,1),)")
    model = make_model(1, 1, [(1, y), (1, y)])
    out = apply_move(model, CancelPair(0, 1))
    assert not out.points


# --------------------------------------------------------- certify / verify

def test_certify_simple_pair():
    y = canon("inner(1,(2,3),)")
    model = make_model(3, 1, [(1, y), (-1, y)])
    cert = certify_raise_order(model)
    assert len(cert) == 1 and isinstance(cert[0], CancelPair)
    final = replay_certificate(model, cert)
    assert final.order == 2 and not final.points
    assert verify_certificate(model, cert).ok


def test_certify_ihx_triple_model():
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    model = ihx_insert(make_model(4, 2, []), ct, edge)
    cert = certify_raise_order(model)
    assert verify_certificate(model, cert).ok
    final = replay_certificate(model, cert)
    assert final.order == 3 and not final.points


def test_certify_leaves_higher_order_points():
    y = canon("inner(1,(2,3),)")
    higher = canon("inner((1,2),(3,4),)")
    model = make_model(4, 1, [(1, y), (-1, y), (1, higher)])
    assert tau(model) == TreeSum()  # only order-1 points count
    cert = certify_raise_order(model)
    final = replay_certificate(model, cert)
    assert final.order == 2
    assert [pt.tree for pt in final.points.values()] == [higher]


def test_certify_obstruction():
    t = canon("inner((1,2),(3,4),)")
    model = make_model(4, 2, [(1, t)])
    with pytest.raises(ObstructionNonzero) as exc:
        certify_raise_order(model)
    assert not exc.value.normal_form.is_empty()
    assert is_zero(exc.value.normal_form - TreeSum({t: 1}), 2, 4)


def test_certify_non_simple_unreachable_pair():
    star = canon("inner((1,2),((3,4),(1,2)),)")
    model = make_model(4, 4, [(1, star), (-1, star)])
    with pytest.raises(PlannerError, match="non-simple"):
        certify_raise_order(model)


def _bracket(rng, order, m):
    if order == 0:
        return str(rng.randint(1, m))
    k = rng.randint(0, order - 1)
    return f"({_bracket(rng, k, m)},{_bracket(rng, order - 1 - k, m)})"


def _jacobi_model(rng, order, m, triples):
    """Shuffled points of Jacobi triples ((a,b),c)-d, ((b,c),a)-d,
    ((c,a),b)-d, one sign per triple: each triple is an IHX relator, so
    the model's tau vanishes in the order-n group."""
    points = []
    for _ in range(triples):
        sign = rng.choice((1, -1))
        sizes = [0, 0, 0, 0]
        for _ in range(order - 2):
            sizes[rng.randrange(4)] += 1
        a, b, c, d = (_bracket(rng, s, m) for s in sizes)
        points += [{"sign": sign, "tree": f"inner((({x},{y}),{z}),{d},)"}
                   for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
    rng.shuffle(points)
    return load_tower(json.dumps({"m": m, "order": order, "points": points}))


def test_certificates_of_seeded_zero_models_match_golden_digests():
    # 30 seeded zero models per cell, of 2 to 12 Jacobi triples: the
    # SHA-256 of their certificate JSON pins the planner's relator
    # combinations and pairings byte for byte
    golden = json.loads((FIXTURES / "certificate_sha256.json").read_text())
    assert len(golden) == 2
    for cell, want in golden.items():
        n, m = map(int, cell.split(","))
        rng = random.Random(f"certificates-{cell}")
        digest = hashlib.sha256()
        for k in range(30):
            model = _jacobi_model(rng, n, m, 2 + k % 11)
            cert = certify_raise_order(model)
            assert verify_certificate(model, cert), (cell, k)
            digest.update(certificate_to_json(cert).encode())
        assert digest.hexdigest() == want, cell


def test_verify_rejects_bad_certificates():
    y = canon("inner(1,(2,3),)")
    s = canon("inner(1,(2,2),)")
    model = make_model(3, 1, [(1, y), (-1, s)])
    bad = (CancelPair(0, 1),)
    res = verify_certificate(model, bad)
    assert not res.ok and "different trees" in res.reason

    ok_model = make_model(3, 1, [(1, y), (-1, y)])
    incomplete = ()
    res = verify_certificate(ok_model, incomplete)
    assert not res.ok and "points remain" in res.reason

    assert verify_certificate(make_model(3, 1, []), ()).ok


@pytest.mark.parametrize("sign", [0, 2])
def test_verify_refuses_insertion_signs_other_than_one(sign):
    # a certificate built in Python skips the JSON loader's sign check:
    # an insertion of sign 0 or 2 and its negation would pair off, so
    # replay itself must refuse the first one
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    move = IhxInsert(ct, edge, 1, *map(decode, ihx_at(ct, edge)))
    cert = (replace(move, sign=sign), replace(move, sign=-sign),
            CancelPair(0, 3), CancelPair(1, 4), CancelPair(2, 5))
    res = verify_certificate(make_model(4, 2, []), cert)
    assert not res.ok
    assert (res.code, res.move) == ("BadSign", 0)


# --------------------------------------------------------------------- glue

def test_glue_identities():
    a = bch_tower([SignedTree(1, parse_tree("inner((1,2),(3,4),)"))], 2, 4)
    b = bch_tower([SignedTree(1, parse_tree("inner((1,3),(2,4),)")),
                   SignedTree(-1, parse_tree("inner((1,2),(3,4),)"))], 2, 4)
    assert tau(glue(a, b)) == tau(a) - tau(b)
    assert tau(glue(a, a)).is_empty()
    assert tau(glue(a, bch_tower([], 2, 4))) == tau(a)
    # gluing b twice against itself restores every sign
    assert tau(glue(a, glue(b, b))) == tau(a)


def test_glue_context_mismatch():
    a = bch_tower([], 2, 4)
    b = bch_tower([], 1, 4)
    with pytest.raises(TowerError):
        glue(a, b)


def test_glue_double_certifies():
    sigma = [SignedTree(1, parse_tree("inner((1,2),(3,4),)")),
             SignedTree(-1, parse_tree("inner((1,3),(2,4),)"))]
    w = bch_tower(sigma, 2, 4)
    doubled = glue(w, w)
    cert = certify_raise_order(doubled)
    assert verify_certificate(doubled, cert).ok


# --------------------------------------------------------------------- JSON

def test_model_json_roundtrip():
    model = bch_tower([SignedTree(1, parse_tree("inner((1,2),(3,4),)")),
                       SignedTree(-1, parse_tree("inner((1,3),(2,4),)"))], 2, 4)
    text = model_to_json(model)
    again = load_tower(text)
    assert model_to_json(again) == text
    assert tau(again) == tau(model)


def test_raw_json_roundtrip():
    raw = _simple_raw()
    text = raw_to_json(raw)
    assert raw_to_json(raw_from_json(text)) == text
    assert tau(load_tower(text)) == tau(extract_model(raw))


def test_certificate_json_roundtrip():
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    model = ihx_insert(make_model(4, 2, []), ct, edge)
    cert = certify_raise_order(model)
    text = certificate_to_json(cert)
    again = certificate_from_json(text)
    assert certificate_to_json(again) == text
    assert verify_certificate(model, again).ok


def test_certificate_json_keeps_negative_sign_on_torsion_insert():
    # the insertion sign matters through H and X even when the I tree
    # is 2-torsion, so serialization must not normalize it away
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.two_torsion)
    model = ihx_insert(make_model(4, 2, []), ct, edge, -1)
    cert = certify_raise_order(model)
    inserts = [mv for mv in cert if isinstance(mv, IhxInsert)]
    assert inserts
    again = certificate_from_json(certificate_to_json(cert))
    assert [getattr(mv, "sign", None) for mv in again] == \
        [getattr(mv, "sign", None) for mv in cert]
    assert verify_certificate(model, again).ok


def test_model_points_keep_field_order():
    model = bch_tower([SignedTree(1, parse_tree("inner(1,2,)"))], 0, 2)
    text = model_to_json(model)
    assert text.index('"m"') < text.index('"order"') < text.index('"points"')
    assert text.index('"sign"') < text.index('"tree"')
    assert json.loads(text)["points"] == [{"sign": 1, "tree": "inner(1,2,)"}]


@pytest.mark.parametrize("puncture", [{}, {"puncture": ""}, {"puncture": "LL"},
                                      {"puncture": 7}])
def test_load_tower_ignores_the_puncture_key(puncture):
    # a point's marked edge changes no invariant: any "puncture" value,
    # or none, loads the same model, and output carries no such key
    doc = {"m": 3, "order": 1,
           "points": [{"sign": 1, "tree": "inner(1,(2,3),)", **puncture},
                      {"sign": -1, "tree": "inner(1,(3,2),)", **puncture}]}
    model = load_tower(json.dumps(doc))
    assert model == load_tower(json.dumps({"m": 3, "order": 1, "points": [
        {"sign": 1, "tree": "inner(1,(2,3),)"}, {"sign": 1, "tree": "inner(1,(2,3),)"}]}))
    assert "puncture" not in model_to_json(model)
    assert "puncture" not in model_to_json(glue(model, model))


def test_move_puncture_record_is_retired():
    record = {"move": "move_puncture", "point": 0, "edge": ""}
    with pytest.raises(TowerError, match=r"^certificate move 0 \(move_puncture\): "
                                         r"the move kind 'move_puncture' is retired"):
        certificate_from_json(json.dumps([record]))


# ------------------------------------------------------ failing move codes

def _ihx_model():
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    model = ihx_insert(make_model(4, 2, []), ct, edge)
    return model, certify_raise_order(model)


def _swap_h_and_x(moves):
    mv = moves[0]
    return (IhxInsert(mv.tree, mv.edge, mv.sign, mv.x, mv.h),) + moves[1:], 0


def _h_is_i(moves):
    mv = moves[0]
    return (IhxInsert(mv.tree, mv.edge, mv.sign, decode(mv.tree), mv.x),) + moves[1:], 0


def _x_is_i(moves):
    mv = moves[0]
    return (IhxInsert(mv.tree, mv.edge, mv.sign, mv.h, decode(mv.tree)),) + moves[1:], 0


def _insert_at_wrong_order(moves):
    ct, edge = ihx_triples(3, 4)[0]
    return (IhxInsert(ct, edge, 1, *map(decode, ihx_at(ct, edge))),) + moves[1:], 0


def _cancel_unknown_point(moves):
    return moves[:1] + (CancelPair(moves[1].p, 99),) + moves[2:], 1


def _cross_two_pairs(moves):
    a, b = moves[1], moves[2]
    return moves[:1] + (CancelPair(a.p, b.q),) + moves[2:], 1


def _insert_twice_then_pair_equal_signs(moves):
    # points 3 and 6 are the I points of two identical insertions
    return (moves[0], moves[0], CancelPair(3, 6)), 2


def _drop_last_cancel(moves):
    return moves[:-1], None


def _cancel_a_point_with_itself(moves):
    return moves[:1] + (CancelPair(moves[1].p, moves[1].p),) + moves[2:], 1


def _insert_at_leaf_edge(moves):
    mv = moves[0]
    return (IhxInsert(mv.tree, "L", mv.sign, mv.h, mv.x),) + moves[1:], 0


@pytest.mark.parametrize("doctor, code", [
    (_swap_h_and_x, "BadTriple"),
    (_h_is_i, "BadTriple"),
    (_x_is_i, "BadTriple"),
    (_insert_at_wrong_order, "WrongOrder"),
    (_cancel_unknown_point, "UnknownPoint"),
    (_cross_two_pairs, "TreesDiffer"),
    (_insert_twice_then_pair_equal_signs, "SameSign"),
    (_drop_last_cancel, "PointsRemain"),
    (_cancel_a_point_with_itself, "SamePoint"),
    (_insert_at_leaf_edge, "NotInterior"),
])
def test_doctored_certificate_fails_with_its_reason(doctor, code):
    model, moves = _ihx_model()
    assert verify_certificate(model, moves).ok
    doctored, index = doctor(moves)
    res = verify_certificate(model, doctored)
    assert not res.ok
    assert (res.code, res.move) == (code, index)
    # the same failure after a JSON round trip of the certificate
    again = certificate_from_json(certificate_to_json(doctored))
    assert verify_certificate(model, again) == res


def test_non_simple_pair_fails_with_its_reason():
    star = canon("inner((1,2),((3,4),(1,2)),)")
    model = make_model(4, 4, [(1, star), (-1, star)])
    res = verify_certificate(model, (CancelPair(0, 1),))
    assert (res.ok, res.code, res.move) == (False, "NotSimple", 0)


def test_replay_checks_each_move_on_its_delta(monkeypatch):
    # replay never rebuilds tau, and each zero test sees one move's points
    import towertrees.towers as towers

    sizes = []
    real_is_zero = towers.is_zero

    def counting_is_zero(ts, n, m):
        sizes.append(len(ts))
        return real_is_zero(ts, n, m)

    def no_tau(model):
        raise AssertionError("replay rebuilt tau")

    model, moves = _ihx_model()
    monkeypatch.setattr(towers, "is_zero", counting_is_zero)
    monkeypatch.setattr(towers, "tau", no_tau)
    final = replay_certificate(model, moves)
    assert final.order == 3 and not final.points
    assert len(sizes) == len(moves) and max(sizes) == 3
    assert sizes.count(0) == len(moves) - 1  # a cancelled pair adds nothing



def test_certify_and_replay_build_a_constant_number_of_models(monkeypatch):
    # both copy the points once and change them in place: certify builds
    # no model and replay only its final one, however many moves there are
    rng = random.Random(2024)
    triples = ihx_triples(3, 4)
    model = make_model(4, 3, [])
    for _ in range(12):
        ct, edge = rng.choice(triples)
        model = ihx_insert(model, ct, edge, rng.choice((1, -1)))
    built = []
    real_post_init = TowerModel.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(TowerModel, "__post_init__", counting_post_init)
    cert = certify_raise_order(model)
    assert len(cert) >= 40 and built == []
    final = replay_certificate(model, cert)
    assert built == [final] and final.order == 4 and not final.points


def test_certify_computes_each_insertion_once(monkeypatch):
    # the planner takes each move's H and X from the one ihx_at of its
    # checked insertion; replay recomputes them once per insertion too
    from towertrees import towers

    rng = random.Random(2024)
    triples = ihx_triples(3, 4)
    model = make_model(4, 3, [])
    for _ in range(12):
        ct, edge = rng.choice(triples)
        model = ihx_insert(model, ct, edge, rng.choice((1, -1)))
    calls = []
    real_ihx_at = towers.ihx_at

    def counting_ihx_at(ct, edge):
        calls.append((ct, edge))
        return real_ihx_at(ct, edge)

    monkeypatch.setattr(towers, "ihx_at", counting_ihx_at)
    cert = certify_raise_order(model)
    inserts = [(mv.tree, mv.edge) for mv in cert if isinstance(mv, IhxInsert)]
    assert len(inserts) >= 10 and calls == inserts
    calls.clear()
    assert verify_certificate(model, cert)
    assert calls == inserts


def test_public_insertion_computes_h_and_x_once(monkeypatch):
    # the public ihx_insert checks its insertion and takes the points
    # from one ihx_at, not from one to build the move and one to check it
    from towertrees import towers

    calls = []
    real_ihx_at = towers.ihx_at

    def counting_ihx_at(ct, edge):
        calls.append((ct, edge))
        return real_ihx_at(ct, edge)

    monkeypatch.setattr(towers, "ihx_at", counting_ihx_at)
    rng = random.Random(77)
    triples = ihx_triples(3, 4)
    model = make_model(4, 3, [])
    chosen = [rng.choice(triples) for _ in range(10)]
    for ct, edge in chosen:
        model = ihx_insert(model, ct, edge, rng.choice((1, -1)))
    assert calls == chosen and len(model.points) == 30


def test_ihx_insert_matches_full_canonicalization():
    # the points of an insertion equal those of canonicalizing I, H and X
    for ct, edge in ihx_triples(3, 3):
        for sign in (1, -1):
            grown = ihx_insert(make_model(3, 3, []), ct, edge, sign)
            h, x = map(decode, ihx_at(ct, edge))
            expected = [canonicalize(SignedTree(c, t))
                        for t, c in ((decode(ct), sign), (h, -sign), (x, sign))]
            assert [(pt.tree, pt.sign) for pt in grown.points.values()] == expected


def test_ihx_insert_accepts_equivalent_h_and_x():
    # a certificate may write H and X in any gauge-equivalent layout
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    h, x = map(decode, ihx_at(ct, edge))
    swapped_h = DecoratedTree(h.right, h.left, h.word)
    model = make_model(4, 2, [])
    plain = apply_move(model, IhxInsert(ct, edge, 1, h, x))
    assert apply_move(model, IhxInsert(ct, edge, 1, swapped_h, x)) == plain


def test_replay_refuses_a_rooted_h():
    # Node(H.left, H.right) closes up to H, but a rooted tree is no H,
    # nor is its rooted code
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    h, x = map(decode, ihx_at(ct, edge))
    hcode, _ = ihx_at(ct, edge)
    for rooted in (Node(h.left, h.right), (1, (0, hcode[0], ""), hcode[1]), "H"):
        cert = (IhxInsert(ct, edge, 1, rooted, x),)
        res = verify_certificate(make_model(4, 2, []), cert)
        assert (res.ok, res.code, res.move) == (False, "BadTriple", 0)


def test_certificates_keep_h_and_x_as_codes():
    # the planner stores ihx_at's layout codes, the loader reads them
    # back as the same tuples, and any other code of the same tree, or
    # a DecoratedTree, replays the same way
    model = _jacobi_model(random.Random("codes"), 3, 3, 4)
    cert = certify_raise_order(model)
    inserts = [mv for mv in cert if isinstance(mv, IhxInsert)]
    assert inserts
    for mv in inserts:
        assert (mv.h, mv.x) == ihx_at(mv.tree, mv.edge)
    text = certificate_to_json(cert)
    assert certificate_from_json(text) == cert
    final = replay_certificate(model, cert)
    for rewrite in (lambda c: (c[1], (0, c[0], ""), ""), decode):
        moved = tuple(IhxInsert(mv.tree, mv.edge, mv.sign, rewrite(mv.h), rewrite(mv.x))
                      if isinstance(mv, IhxInsert) else mv for mv in cert)
        assert replay_certificate(model, moved) == final
    assert certificate_to_json(certificate_from_json(text.replace('"inner(1,', '"inner( 1 ,'))) \
        == text


# ----------------------------------------------------------- JSON loaders

@pytest.mark.parametrize("doc, message", [
    ([1], "tower must be a JSON object, not an array"),
    ({"m": "2", "order": 1, "points": []}, "model: 'm' must be an integer, not a string"),
    ({"m": 0, "order": 1, "points": []}, "model: 'm' must be at least 1"),
    ({"m": 2, "order": 1, "points": {}}, "model: 'points' must be an array, not an object"),
    ({"m": 2, "order": 1, "points": [3]}, "model point 0 must be a JSON object, not an integer"),
    ({"m": 3, "order": 1, "points": [{"sign": 5, "tree": "inner(1,(2,3),)", "puncture": ""}]},
     "model point 0: 'sign' must be +1 or -1, not 5"),
    ({"m": 3, "order": 1, "points": [{"sign": True, "tree": "inner(1,(2,3),)", "puncture": ""}]},
     "model point 0: 'sign' must be an integer, not a boolean"),
    ({"m": 2, "order": 1, "points": [{"sign": 1, "tree": "inner(1,(2,3),)", "puncture": ""}]},
     "model point 0: 'tree' uses the label 3 outside 1..2"),
    ({"m": 3, "order": 1, "points": [{"sign": 1, "tree": "(1,(2,3))", "puncture": ""}]},
     "model point 0: 'tree' is '(1,(2,3))', not an unrooted tree"),
    ({"m": 3, "order": 1, "points": [{"sign": 1, "tree": "inner(1,(2,3)", "puncture": ""}]},
     "model point 0: 'tree': expected ','"),
    ({"m": 3, "order": 1, "points": [{"sign": 1, "puncture": ""}]},
     "model point 0 lacks the key 'tree'"),
    ({"m": 3, "order": 1, "disks": [{"bracket": 12}], "points": []},
     "raw tower disk 0: 'bracket' must be a string, not an integer"),
    ({"m": 3, "order": 1, "disks": [], "points": [{"sign": 1, "left": "(1,", "right": "3"}]},
     "raw tower point 0: 'left': unexpected end of input"),
    ({"m": 2, "order": 1, "disks": [{"bracket": "(1,2)", "whisker": "a1"}], "points": []},
     "raw tower disk 0: 'whisker': bad group letter '1' in word 'a1'"),
    ({"m": 2, "order": 0, "disks": [], "points": [{"sign": 1, "left": "1", "right": "2",
                                                   "g": "aA"}]},
     "raw tower point 0: 'g': word 'aA' is not freely reduced"),
    ({"m": 3, "order": 2, "points": [{"sign": 1, "tree": "inner(1,(2,3),)"}]},
     "model point 0: 'tree' has order 1 below the tower order 2"),
])
def test_load_tower_names_the_offending_json_path(doc, message):
    with pytest.raises(TowerError) as exc:
        load_tower(json.dumps(doc))
    assert message in str(exc.value)


def test_raw_tower_load_time_does_not_grow_with_m():
    # surfaces are read where the points and disks use them, so a
    # declared m of 10^12 loads as a small m does; a scan of 1..m would
    # be stopped by the 2-second alarm
    doc = {"m": 3, "order": 1,
           "disks": [{"bracket": "(1,2)", "whisker": "a", "orientation": -1}],
           "points": [{"sign": 1, "left": "1", "right": "2", "paired_by": "(1,2)"},
                      {"sign": -1, "left": "1", "right": "2", "g": "b", "paired_by": "(1,2)"},
                      {"sign": 1, "left": "(1,2)", "right": "3", "g": "B"}]}
    small = tau(load_tower(json.dumps(doc)))

    def alarm(signum, frame):
        raise TimeoutError("loading took over 2 s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        huge = tau(load_tower(json.dumps({**doc, "m": 10 ** 12})))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert huge == small and huge.text() == "+1*inner(1,(2,3:B),)"


@pytest.mark.parametrize("doc, message", [
    ({"move": "cancel_pair"}, "certificate must be a JSON array of moves, not an object"),
    ([[]], "certificate move 0 must be a JSON object, not an array"),
    ([{"p": 0, "q": 1}], "certificate move 0 lacks the key 'move'"),
    ([{"move": "swap"}], "certificate move 0 (swap): unknown move kind 'swap'"),
    ([{"move": "cancel_pair", "p": 0, "q": "1"}],
     "certificate move 0 (cancel_pair): 'q' must be an integer, not a string"),
    ([{"move": "ihx_insert", "i": "inner(1,(2,(3,4)),)", "h": "inner(1,(3,(2,4)),)",
       "x": "inner(1,(4,(2,3)),)", "edge": "R", "sign": 2}],
     "certificate move 0 (ihx_insert): 'sign' must be +1 or -1, not 2"),
    ([{"move": "ihx_insert", "i": "(1,(2,(3,4)))", "h": "inner(1,(3,(2,4)),)",
       "x": "inner(1,(4,(2,3)),)", "edge": "R", "sign": 1}],
     "certificate move 0 (ihx_insert): 'i' is '(1,(2,(3,4)))', not an unrooted tree"),
])
def test_certificate_loader_names_the_offending_json_path(doc, message):
    with pytest.raises(TowerError) as exc:
        certificate_from_json(json.dumps(doc))
    assert message in str(exc.value)
