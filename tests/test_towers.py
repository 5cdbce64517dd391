import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from towertrees.groups import ihx_triples, is_zero, relator_sum
from towertrees.sums import TreeSum
from towertrees.towers import (
    CancelPair,
    IhxInsert,
    MoveCertificate,
    MoveError,
    ObstructionNonzero,
    PlannerError,
    RawDisk,
    RawPoint,
    RawTower,
    TowerError,
    TowerModel,
    apply_move,
    bch_tower,
    bracket_text,
    cancel_simple_pair,
    certificate_from_json,
    certificate_to_json,
    certify_raise_order,
    extract_model,
    glue,
    ihx_insert,
    load_tower,
    make_ihx_insert,
    make_model,
    model_from_json,
    model_to_json,
    parse_bracket,
    random_raw_tower,
    raw_from_json,
    raw_to_json,
    replay_certificate,
    tau,
    tree_of_bracket,
    verify_certificate,
)
from towertrees.trees import (
    DecoratedTree,
    SignedTree,
    canonicalize,
    decode_code,
    ihx_at,
    order_of,
    parse_tree,
    rooted_product,
    to_text,
)
from towertrees.words import winv

FIXTURES = Path(__file__).parent / "fixtures"


def canon(text):
    return canonicalize(SignedTree(1, parse_tree(text)))[0]


# ----------------------------------------------------------------- brackets

def test_bracket_roundtrip():
    for text in ["3", "(1,2)", "((1,2),3)", "(1,(2,(3,4)))"]:
        assert bracket_text(parse_bracket(text)) == text


def test_tree_of_bracket():
    assert to_text(tree_of_bracket(parse_bracket("1"))) == "1"
    t = tree_of_bracket(parse_bracket("((1,2),3)"))
    assert order_of(t) == 2
    i, j = parse_bracket("(1,2)"), parse_bracket("(3,(4,5))")
    assert tree_of_bracket((i, j)) == rooted_product(tree_of_bracket(i), tree_of_bracket(j))


def test_bracket_rejects_decorations():
    with pytest.raises(TowerError):
        parse_bracket("(1:a,2)")


# --------------------------------------------------------------- raw towers

def _simple_raw():
    return RawTower(3, 1,
                    disks=(RawDisk((1, 2)),),
                    points=(
                        RawPoint(+1, 1, 2, "", (1, 2)),
                        RawPoint(-1, 1, 2, "", (1, 2)),
                        RawPoint(+1, (1, 2), 3, "a"),
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
        RawPoint(+1, 1, 2, "", (1, 2)),
        RawPoint(+1, 1, 2, "", (1, 2)),
        raw.points[2]))
    with pytest.raises(TowerError, match="equal sign"):
        extract_model(bad)


def test_raw_paired_by_mismatch():
    raw = replace(_simple_raw(), points=(
        RawPoint(+1, 1, 3, "", (1, 2)),
        RawPoint(-1, 1, 2, "", (1, 2)),
        RawPoint(+1, (1, 2), 3, ""),
    ))
    with pytest.raises(TowerError, match="lies on"):
        extract_model(raw)


def test_raw_unpaired_below_declared_order():
    raw = replace(_simple_raw(), points=_simple_raw().points + (RawPoint(+1, 1, 2, ""),))
    with pytest.raises(TowerError, match="unpaired of order 0"):
        extract_model(raw)


def test_raw_missing_disk():
    raw = RawTower(3, 1, disks=(), points=(RawPoint(+1, (1, 2), 3, ""),))
    with pytest.raises(TowerError, match="no disk entry"):
        extract_model(raw)


def test_order0_orientation_flip_negates_odd_label_terms():
    # flipping an order-0 surface negates exactly the terms with an odd
    # number of its labels
    raw = _simple_raw()
    base = tau(extract_model(raw))
    flipped = replace(raw, disks=raw.disks + (RawDisk(3, "", -1),))
    assert tau(extract_model(flipped)) == -base  # one 3-label
    flipped1 = replace(raw, disks=raw.disks + (RawDisk(1, "", -1),))
    assert tau(extract_model(flipped1)) == -base  # one 1-label
    # two labels of 1: even count, no sign change
    raw2 = RawTower(2, 0, disks=(), points=(RawPoint(+1, 1, 1, "a"),))
    base2 = tau(extract_model(raw2))
    flipped2 = replace(raw2, disks=(RawDisk(1, "", -1),))
    assert tau(extract_model(flipped2)) == base2


def test_gauge_invariance_randomized():
    rng = random.Random(12345)
    for _ in range(120):
        raw = random_raw_tower(rng)
        base = tau(extract_model(raw))
        disks = list(raw.disks)
        whitney = [i for i, d in enumerate(disks) if not isinstance(d.bracket, int)]
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


def test_replay_rejects_swapped_h_and_x():
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    model = ihx_insert(make_model(4, 2, []), ct, edge)
    cert = certify_raise_order(model)
    swapped = []
    for mv in cert.moves:
        if isinstance(mv, IhxInsert):
            mv = IhxInsert(mv.tree, mv.edge, mv.sign, mv.x, mv.h)
        swapped.append(mv)
    res = verify_certificate(model, MoveCertificate(tuple(swapped)))
    assert not res.ok and "do not match" in res.reason


def test_cancel_simple_pair():
    y = canon("inner(1,(2,3),)")
    s = canon("inner(1,(2,2),)")
    model = make_model(3, 1, [(1, y), (-1, y), (1, s)])
    out = cancel_simple_pair(model, 0, 1)
    assert list(out.points) == [2]
    # the pair cancelled algebraically, so the hat-level sum is untouched
    assert tau(out) == tau(model)
    empty = cancel_simple_pair(make_model(3, 1, [(1, y), (-1, y)]), 0, 1)
    assert not empty.points


def test_cancel_pair_errors():
    y = canon("inner(1,(2,3),)")
    other = canon("inner(1,(2,2),)")
    model = make_model(3, 1, [(1, y), (1, y), (1, other)])
    with pytest.raises(MoveError) as exc:
        cancel_simple_pair(model, 0, 1)
    assert exc.value.reason == "SameSign"
    with pytest.raises(MoveError) as exc:
        cancel_simple_pair(model, 0, 2)
    assert exc.value.reason == "TreesDiffer"
    star = canon("inner((1,2),((3,1),(2,3)),)")
    model4 = make_model(3, 4, [(1, star), (-1, star)])
    with pytest.raises(MoveError) as exc:
        cancel_simple_pair(model4, 0, 1)
    assert exc.value.reason == "NotSimple"


def test_cancel_torsion_pair_same_stored_sign():
    y = canon("inner(1,(1,1),)")
    model = make_model(1, 1, [(1, y), (1, y)])
    out = cancel_simple_pair(model, 0, 1)
    assert not out.points


# --------------------------------------------------------- certify / verify

def test_certify_simple_pair():
    y = canon("inner(1,(2,3),)")
    model = make_model(3, 1, [(1, y), (-1, y)])
    cert = certify_raise_order(model)
    assert len(cert.moves) == 1 and isinstance(cert.moves[0], CancelPair)
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
    return model_from_json(json.dumps({"m": m, "order": order, "points": points}))


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
    bad = MoveCertificate((CancelPair(0, 1),))
    res = verify_certificate(model, bad)
    assert not res.ok and "different trees" in res.reason

    ok_model = make_model(3, 1, [(1, y), (-1, y)])
    incomplete = MoveCertificate(())
    res = verify_certificate(ok_model, incomplete)
    assert not res.ok and "points remain" in res.reason

    assert verify_certificate(make_model(3, 1, []), MoveCertificate(())).ok


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
    again = model_from_json(text)
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
    inserts = [mv for mv in cert.moves if isinstance(mv, IhxInsert)]
    assert inserts
    again = certificate_from_json(certificate_to_json(cert))
    assert [getattr(mv, "sign", None) for mv in again.moves] == \
        [getattr(mv, "sign", None) for mv in cert.moves]
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
    return model, certify_raise_order(model).moves


def _swap_h_and_x(moves):
    mv = moves[0]
    return (IhxInsert(mv.tree, mv.edge, mv.sign, mv.x, mv.h),) + moves[1:], 0


def _h_is_i(moves):
    mv = moves[0]
    return (IhxInsert(mv.tree, mv.edge, mv.sign, mv.tree.decode(), mv.x),) + moves[1:], 0


def _x_is_i(moves):
    mv = moves[0]
    return (IhxInsert(mv.tree, mv.edge, mv.sign, mv.h, mv.tree.decode()),) + moves[1:], 0


def _insert_at_wrong_order(moves):
    ct, edge = ihx_triples(3, 4)[0]
    return (make_ihx_insert(ct, edge),) + moves[1:], 0


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
    assert verify_certificate(model, MoveCertificate(moves)).ok
    doctored, index = doctor(moves)
    res = verify_certificate(model, MoveCertificate(doctored))
    assert not res.ok
    assert (res.code, res.move) == (code, index)
    # the same failure after a JSON round trip of the certificate
    again = certificate_from_json(certificate_to_json(MoveCertificate(doctored)))
    assert verify_certificate(model, again) == res


def test_non_simple_pair_fails_with_its_reason():
    star = canon("inner((1,2),((3,4),(1,2)),)")
    model = make_model(4, 4, [(1, star), (-1, star)])
    res = verify_certificate(model, MoveCertificate((CancelPair(0, 1),)))
    assert (res.ok, res.code, res.move) == (False, "NotSimple", 0)


def test_replay_checks_each_move_on_its_delta(monkeypatch):
    # replay never rebuilds tau, and each zero test sees one move's points
    import towertrees.towers as towers

    sizes = []
    real_is_zero = towers.is_zero

    def counting_is_zero(ts, n, m, bounds=None):
        sizes.append(len(ts))
        return real_is_zero(ts, n, m, bounds)

    def no_tau(model):
        raise AssertionError("replay rebuilt tau")

    model, moves = _ihx_model()
    monkeypatch.setattr(towers, "is_zero", counting_is_zero)
    monkeypatch.setattr(towers, "tau", no_tau)
    final = replay_certificate(model, MoveCertificate(moves))
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
    assert len(cert.moves) >= 40 and built == []
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
    inserts = [(mv.tree, mv.edge) for mv in cert.moves if isinstance(mv, IhxInsert)]
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
            h, x = map(decode_code, ihx_at(ct, edge))
            expected = [canonicalize(SignedTree(c, t))
                        for t, c in ((ct.decode(), sign), (h, -sign), (x, sign))]
            assert [(pt.tree, pt.sign) for pt in grown.points.values()] == expected


def test_ihx_insert_accepts_equivalent_h_and_x():
    # a certificate may write H and X in any gauge-equivalent layout
    ct, edge = next((c, e) for c, e in ihx_triples(2, 4) if c.nonrepeating)
    h, x = map(decode_code, ihx_at(ct, edge))
    swapped_h = DecoratedTree(h.right, h.left, h.word)
    model = make_model(4, 2, [])
    plain = apply_move(model, IhxInsert(ct, edge, 1, h, x))
    assert apply_move(model, IhxInsert(ct, edge, 1, swapped_h, x)) == plain


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
])
def test_load_tower_names_the_offending_json_path(doc, message):
    with pytest.raises(TowerError) as exc:
        load_tower(json.dumps(doc))
    assert message in str(exc.value)


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
