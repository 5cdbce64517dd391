import json
from pathlib import Path

import pytest

from towertrees.cli import run

from oracles import nonrepeating_presentation

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_groups_z2(capsys):
    code, out, _ = invoke(capsys, "groups", "--order", "1", "--labels", "1")
    assert code == 0 and out.strip() == "Z/2"


def test_groups_z(capsys):
    code, out, _ = invoke(capsys, "groups", "--order", "0", "--labels", "1")
    assert code == 0 and out.strip() == "Z"


def test_groups_json_fields(capsys):
    code, out, _ = invoke(capsys, "groups", "--order", "1", "--labels", "1", "--json")
    doc = json.loads(out)
    assert list(doc) == ["order", "labels", "free_rank", "torsion",
                         "generator_count", "relator_count"]
    assert doc["free_rank"] == 0 and doc["torsion"] == [2]
    assert doc["generator_count"] == 1 and doc["relator_count"] == 1
    # the counts are of the canonical presentation: 21 canonical order-2
    # trees on 3 labels, 21 IHX rows + 15 torsion rows
    code, out, _ = invoke(capsys, "groups", "--order", "2", "--labels", "3", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["free_rank"] == 6 and doc["torsion"] == []
    assert doc["generator_count"] == 21 and doc["relator_count"] == 36


@pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(1, 5)] + [(5, 3)])
def test_groups_json_matches_the_whole_cell_presentation(capsys, n, m):
    # the verb sums label-multiset blocks; its structure and counts are
    # those of the whole cell's presentation
    from towertrees.groups import presentation

    for flags, mat in (([], presentation(n, m)),
                       (["--nonrepeating"], nonrepeating_presentation(n, m))):
        code, out, err = invoke(capsys, "groups", "--order", str(n), "--labels", str(m),
                                "--max-order", "5", "--json", *flags)
        assert code == 0, err
        gs = mat.cokernel()
        assert json.loads(out) == {"order": n, "labels": m, "free_rank": gs.free_rank,
                                   "torsion": list(gs.torsion), "generator_count": mat.ncols,
                                   "relator_count": len(mat.rows)}, flags


def test_deeply_nested_tree_exits_one(capsys):
    # an order-1200 caterpillar nests past the interpreter's recursion limit
    text = "inner(1," + "(1," * 1199 + "2" + ")" * 1199 + ",)"
    code, out, err = invoke(capsys, "canon", text)
    assert code == 1 and out == ""
    assert err == "error: tree nested too deeply to process\n"


def test_canon_absorbs_sign(capsys):
    code1, out1, _ = invoke(capsys, "canon", "-(2,1)")
    code2, out2, _ = invoke(capsys, "canon", "+(1,2)")
    code3, out3, _ = invoke(capsys, "canon", "--", "-(2,1)")
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3 == "+(1,2)\n"


def test_canon_unrooted_and_torsion(capsys):
    _, out, _ = invoke(capsys, "canon", "inner((3,4),(1,2),)")
    assert out.strip() == "+inner(1,(2,(3,4)),)"
    _, out, _ = invoke(capsys, "canon", "inner(1,(1,1),)")
    assert "2-torsion" in out


def test_canon_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("inner(1,2,)"))
    code, out, _ = invoke(capsys, "canon")
    assert code == 0 and out.strip() == "+inner(1,2,)"


def test_reduce(capsys):
    code, out, _ = invoke(capsys, "reduce", "inner((1,2),((3,4),(1,2)),)")
    assert code == 0
    assert all(part.lstrip("+-").startswith("1*inner") for part in out.split())


def test_usage_error_exits_one(capsys):
    code, _, err = invoke(capsys, "groups", "--order", "1")
    assert code == 1 and "labels" in err


def test_parse_error_exits_one(capsys):
    code, _, err = invoke(capsys, "canon", "((1,2)")
    assert code == 1 and "error" in err


def test_determinism(capsys):
    _, out1, _ = invoke(capsys, "groups", "--order", "2", "--labels", "3", "--json")
    _, out2, _ = invoke(capsys, "groups", "--order", "2", "--labels", "3", "--json")
    assert out1 == out2


def test_tower_pipeline(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    cert = tmp_path / "cert.json"
    code, _, _ = invoke(capsys, "bch", "+inner((1,2),(3,4),)", "-inner((1,2),(3,4),)",
                        "--order", "2", "--labels", "4", "--out", str(zero))
    assert code == 0 and zero.exists()

    code, out, _ = invoke(capsys, "tau", str(zero))
    assert code == 0 and "tau = 0" in out and "true" in out

    code, _, _ = invoke(capsys, "certify", str(zero), "--out", str(cert))
    assert code == 0
    assert json.loads(cert.read_text())

    code, out, _ = invoke(capsys, "verify", str(zero), str(cert))
    assert code == 0 and out.strip() == "OK"

    # mismatched certificate fails verification with exit 1
    one = tmp_path / "one.json"
    invoke(capsys, "bch", "+inner((1,3),(2,4),)", "--order", "2", "--labels", "4",
           "--out", str(one))
    code, out, _ = invoke(capsys, "verify", str(one), str(cert))
    assert code == 1 and out.startswith("FAIL")


def test_certify_obstruction_exit_two(tmp_path, capsys):
    one = tmp_path / "one.json"
    invoke(capsys, "bch", "+inner((1,2),(3,4),)", "--order", "2", "--labels", "4",
           "--out", str(one))
    code, out, _ = invoke(capsys, "certify", str(one))
    assert code == 2
    assert "obstruction nonzero" in out


def test_certify_honours_max_order(tmp_path, capsys):
    # a nonzero order-5 class: above the default bound, certify refuses it
    one = tmp_path / "one.json"
    invoke(capsys, "bch", "+inner(1,(2,(1,(2,(1,(2,1))))),)", "--order", "5", "--labels", "2",
           "--out", str(one))
    code, out, err = invoke(capsys, "certify", str(one), "--max-order", "5")
    assert code == 2 and "obstruction nonzero" in out and err == ""
    code, out, err = invoke(capsys, "certify", str(one))
    assert (code, out) == (1, "")
    assert err.strip() == "error: order 5 exceeds bound 4"


def test_verify_honours_max_order(tmp_path, capsys):
    # a zero class whose certificate inserts an IHX relator: replay
    # tests that move's points in the order-5 group
    zero = tmp_path / "zero.json"
    cert = tmp_path / "cert.json"
    invoke(capsys, "bch", "+inner(1,(1,(1,(1,(1,(1,2))))),)", "--order", "5", "--labels", "2",
           "--out", str(zero))
    code, _, _ = invoke(capsys, "certify", str(zero), "--max-order", "5", "--out", str(cert))
    assert code == 0
    assert [move["move"] for move in json.loads(cert.read_text())] == \
        ["ihx_insert", "cancel_pair", "cancel_pair"]
    code, out, _ = invoke(capsys, "verify", str(zero), str(cert), "--max-order", "5")
    assert code == 0 and out.strip() == "OK"
    code, out, err = invoke(capsys, "verify", str(zero), str(cert))
    assert (code, out) == (1, "")
    assert err.strip() == "error: order 5 exceeds bound 4"



def test_bound_flags_apply_before_any_move(tmp_path, capsys):
    # tau of +T, -T is empty and a cancelled pair's delta is empty, so no
    # zero test sees the order: certify and replay check the model's own
    tree = "inner(1,(2,(1,(2,(1,(2,1))))),)"
    model = tmp_path / "pair.json"
    cert = tmp_path / "cert.json"
    model.write_text(json.dumps({"m": 2, "order": 5, "points": [
        {"sign": 1, "tree": tree}, {"sign": -1, "tree": tree}]}))
    code, out, err = invoke(capsys, "certify", str(model))
    assert (code, out, err.strip()) == (1, "", "error: order 5 exceeds bound 4")
    code, _, _ = invoke(capsys, "certify", str(model), "--max-order", "5", "--out", str(cert))
    assert code == 0 and json.loads(cert.read_text()) == [{"move": "cancel_pair", "p": 0, "q": 1}]
    code, out, err = invoke(capsys, "verify", str(model), str(cert))
    assert (code, out, err.strip()) == (1, "", "error: order 5 exceeds bound 4")
    code, out, _ = invoke(capsys, "verify", str(model), str(cert), "--max-order", "5")
    assert code == 0 and out.strip() == "OK"

def test_glue_cli(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out_file = tmp_path / "g.json"
    invoke(capsys, "bch", "+inner((1,2),(3,4),)", "--order", "2", "--labels", "4",
           "--out", str(a))
    invoke(capsys, "bch", "+inner((1,3),(2,4),)", "--order", "2", "--labels", "4",
           "--out", str(b))
    code, _, _ = invoke(capsys, "glue", str(a), str(b), "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    signs = sorted(p["sign"] for p in doc["points"])
    assert signs == [-1, 1]


def test_tau_on_raw_fixture(capsys):
    code, out, _ = invoke(capsys, "tau", str(FIXTURES / "order2_tower.json"))
    assert code == 0
    assert "+1*inner(1,(2,(3,4)),)" in out
    assert "false" in out  # single tree, nonzero class


def test_rank_cli(capsys):
    code, out, _ = invoke(capsys, "rank", "--order", "2", "--labels", "3")
    assert code == 0 and out.strip() == "6"


def test_missing_file_exits_one(capsys):
    code, _, err = invoke(capsys, "tau", "/nonexistent/nope.json")
    assert code == 1 and "error" in err


def test_tau_on_decorated_tower_omits_zero_test(tmp_path, capsys):
    doc = {"m": 2, "order": 0,
           "points": [{"sign": 1, "tree": "inner(1,2:ab,)", "puncture": ""}]}
    f = tmp_path / "dec.json"
    f.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "tau", str(f))
    assert code == 0
    assert "2:ab" in out and "zero in" not in out


def test_tau_beyond_bounds_omits_zero_test(tmp_path, capsys):
    big = "inner(1,(2,(3,(4,(5,(6,7))))),)"  # order 5, above the default bound
    doc = {"m": 7, "order": 5, "points": [{"sign": 1, "tree": big, "puncture": ""}]}
    f = tmp_path / "big.json"
    f.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "tau", str(f))
    assert code == 0 and "tau = +1*" in out and "zero in" not in out


def test_tau_of_an_empty_model_is_zero_whatever_the_bounds(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"m": 2, "order": 5, "points": []}))
    code, out, _ = invoke(capsys, "tau", str(f), "--json")
    assert code == 0 and json.loads(out)["is_zero"] is True
    code, out, _ = invoke(capsys, "tau", str(f))
    assert code == 0 and out.splitlines()[-1] == "zero in the order-5 group: true"


def test_cli_is_a_thin_adapter(capsys):
    # outputs agree with direct library calls
    from towertrees import SignedTree, canonicalize, group_structure, parse_tree
    from towertrees.lie import rational_rank_bound

    _, out, _ = invoke(capsys, "canon", "inner((2,1),(4,3),)")
    ct, sign = canonicalize(SignedTree(1, parse_tree("inner((2,1),(4,3),)")))
    assert out.strip() == ("+" if sign > 0 else "-") + ct.text()

    _, out, _ = invoke(capsys, "groups", "--order", "2", "--labels", "3")
    assert out.strip() == group_structure(2, 3).text()

    _, out, _ = invoke(capsys, "rank", "--order", "1", "--labels", "4")
    assert out.strip() == str(rational_rank_bound(1, 4))


def test_groups_max_order_raises_the_bound(capsys):
    # closed form at (5,2): free rank 2*L6(2) - L7(2) = 0, torsion (Z/2)^{2*L3(2)}
    from oracles import lie_dimension_oracle as L

    code, out, err = invoke(capsys, "groups", "--order", "5", "--labels", "2",
                            "--max-order", "5")
    assert code == 0, err
    assert 2 * L(2, 6) - L(2, 7) == 0
    assert out.strip() == " + ".join(["Z/2"] * (2 * L(2, 3)))


def test_verify_certificate_without_h_exits_one(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    cert = tmp_path / "cert.json"
    invoke(capsys, "bch", "+inner((1,2),(3,4),)", "-inner((1,2),(3,4),)",
           "--order", "2", "--labels", "4", "--out", str(zero))
    record = {"move": "ihx_insert", "i": "inner(1,(2,(3,4)),)",
              "x": "inner(1,(3,(2,4)),)", "edge": "R", "sign": 1}
    cert.write_text(json.dumps([record]))
    code, _, err = invoke(capsys, "verify", str(zero), str(cert))
    assert code == 1
    assert "certificate move 0" in err and "'h'" in err
    assert "Traceback" not in err


def test_tau_model_without_points_exits_one(tmp_path, capsys):
    f = tmp_path / "nopoints.json"
    f.write_text(json.dumps({"m": 2, "order": 1}))
    code, _, err = invoke(capsys, "tau", str(f))
    assert code == 1
    assert "model lacks the key 'points'" in err


def _write(tmp_path, name, doc):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


def _zero_tower(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    invoke(capsys, "bch", "+inner((1,2),(3,4),)", "-inner((1,2),(3,4),)",
           "--order", "2", "--labels", "4", "--out", str(zero))
    return str(zero)


def test_tau_on_a_json_array_exits_one(tmp_path, capsys):
    code, _, err = invoke(capsys, "tau", _write(tmp_path, "list.json", [1]))
    assert code == 1
    assert "tower must be a JSON object, not an array" in err and "Traceback" not in err


def test_verify_certificate_object_exits_one(tmp_path, capsys):
    cert = _write(tmp_path, "cert.json", {"move": "cancel_pair", "p": 0, "q": 1})
    code, _, err = invoke(capsys, "verify", _zero_tower(tmp_path, capsys), cert)
    assert code == 1
    assert "certificate must be a JSON array of moves, not an object" in err


def test_tau_point_sign_five_exits_one(tmp_path, capsys):
    doc = {"m": 3, "order": 1, "points": [{"sign": 5, "tree": "inner(1,(2,3),)", "puncture": ""}]}
    code, out, err = invoke(capsys, "tau", _write(tmp_path, "five.json", doc))
    assert (code, out) == (1, "")
    assert "model point 0: 'sign' must be +1 or -1, not 5" in err


def test_certify_label_above_m_exits_one(tmp_path, capsys):
    doc = {"m": 2, "order": 1, "points": [
        {"sign": 1, "tree": "inner(1,(2,3),)", "puncture": ""},
        {"sign": -1, "tree": "inner(1,(2,3),)", "puncture": ""}]}
    code, out, err = invoke(capsys, "certify", _write(tmp_path, "label3.json", doc))
    assert (code, out) == (1, "")
    assert "model point 0: 'tree' uses the label 3 outside 1..2" in err


def test_verify_ihx_insert_sign_two_exits_one(tmp_path, capsys):
    record = {"move": "ihx_insert", "i": "inner(1,(2,(3,4)),)", "h": "inner(1,(3,(2,4)),)",
              "x": "inner(1,(4,(2,3)),)", "edge": "R", "sign": 2}
    cert = _write(tmp_path, "cert.json", [record])
    code, _, err = invoke(capsys, "verify", _zero_tower(tmp_path, capsys), cert)
    assert code == 1
    assert "certificate move 0 (ihx_insert): 'sign' must be +1 or -1, not 2" in err


def test_verify_json_names_the_failing_move(tmp_path, capsys):
    zero = _zero_tower(tmp_path, capsys)
    cert = tmp_path / "cert.json"
    invoke(capsys, "certify", zero, "--out", str(cert))
    code, out, _ = invoke(capsys, "verify", zero, str(cert), "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "reason": None, "move": None, "code": None}

    bad = _write(tmp_path, "bad.json", [{"move": "cancel_pair", "p": 0, "q": 7}])
    code, out, _ = invoke(capsys, "verify", zero, bad, "--json")
    doc = json.loads(out)
    assert code == 1 and list(doc) == ["ok", "reason", "move", "code"]
    assert (doc["ok"], doc["move"], doc["code"]) == (False, 0, "UnknownPoint")
    code, text, _ = invoke(capsys, "verify", zero, bad)
    assert text == f"FAIL: {doc['reason']}\n"


@pytest.mark.parametrize("name", ["certify_3_4_a", "certify_3_4_b", "certify_4_3"])
def test_certify_output_is_pinned(name, capsys):
    # seeded zero models at (3,4) and (4,3): certify must reproduce the
    # committed certificates byte for byte, and they must verify
    model = str(FIXTURES / f"{name}.json")
    code, out, _ = invoke(capsys, "certify", model)
    assert code == 0
    assert out == (FIXTURES / f"{name}.cert.json").read_text()
    code, out, _ = invoke(capsys, "verify", model, str(FIXTURES / f"{name}.cert.json"))
    assert (code, out) == (0, "OK\n")


def test_seed_flag_is_gone(capsys):
    code, _, err = invoke(capsys, "groups", "--order", "1", "--labels", "1", "--seed", "3")
    assert code == 1 and "--seed" in err


@pytest.mark.parametrize("argv, message", [
    (["groups", "--order", "-1", "--labels", "2"], "order must be at least 0, not -1"),
    (["rank", "--order", "-1", "--labels", "2"], "order must be at least 0, not -1"),
    (["groups", "--order", "1", "--labels", "0"], "label count must be at least 1, not 0"),
    (["groups", "--order", "1", "--labels", "-2"], "label count must be at least 1, not -2"),
    (["rank", "--ord", "-1", "--labels", "2"], "order must be at least 0, not -1"),
    (["groups", "--order", "-1", "--labels", "9"], "order must be at least 0, not -1"),
])
def test_negative_integer_options_exit_one(argv, message, capsys):
    # a negative integer value is an option value, not a signed tree
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("verb", ["groups", "rank"])
def test_label_count_above_max_labels_exits_one(verb, capsys):
    code, out, err = invoke(capsys, verb, "--order", "2", "--labels", "7")
    assert (code, out, err) == (1, "", "error: label count 7 exceeds bound 6\n")
    code, _, _ = invoke(capsys, verb, "--order", "2", "--labels", "7", "--max-labels", "7")
    assert code == 0


def test_negative_tree_literal_still_parses(capsys):
    code, out, _ = invoke(capsys, "canon", "-3")
    assert code == 0 and out == "-3\n"


@pytest.mark.parametrize("argv, message", [
    (["groups", "--order", "1", "--labels", "2", "--max-order", "-1"],
     "argument --max-order: must be at least 0, not -1"),
    (["groups", "--order", "1", "--labels", "2", "--max-labels", "0"],
     "argument --max-labels: must be at least 1, not 0"),
    (["rank", "--order", "1", "--labels", "2", "--max-labels", "-3"],
     "argument --max-labels: must be at least 1, not -3"),
    (["tau", str(FIXTURES / "order2_tower.json"), "--max-order", "-2"],
     "argument --max-order: must be at least 0, not -2"),
])
def test_impossible_bounds_exit_one_naming_the_flag(argv, message, capsys):
    # a bound below the least order or label count would refuse every
    # request, so the bound itself is refused, by the flag's name
    code, out, err = invoke(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1].endswith(f"error: {message}")


def test_least_bounds_are_accepted(capsys):
    code, out, _ = invoke(capsys, "groups", "--order", "0", "--labels", "1",
                          "--max-order", "0", "--max-labels", "1")
    assert (code, out) == (0, "Z\n")


def test_deeply_nested_json_exits_one(tmp_path, capsys):
    # the decoder, not the tree parser, runs out of depth: say so
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = invoke(capsys, "tau", str(deep))
    assert (code, out, err) == (1, "", "error: tower: JSON nested too deeply to process\n")
    code, out, err = invoke(capsys, "verify", _zero_tower(tmp_path, capsys), str(deep))
    assert (code, out, err) == (1, "", "error: certificate: JSON nested too deeply to process\n")


def test_verify_move_puncture_certificate_exits_one(tmp_path, capsys):
    cert = _write(tmp_path, "cert.json", [{"move": "move_puncture", "point": 0, "edge": ""}])
    code, out, err = invoke(capsys, "verify", _zero_tower(tmp_path, capsys), cert)
    assert (code, out) == (1, "")
    assert err == ("error: certificate move 0 (move_puncture): the move kind 'move_puncture' "
                   "is retired: punctures change no invariant of a tower\n")


def test_model_output_has_no_puncture_key(tmp_path, capsys):
    # "puncture" is read and ignored on input and never written
    model = str(FIXTURES / "certify_3_4_b.json")
    assert '"puncture"' in Path(model).read_text()
    out_file = tmp_path / "g.json"
    code, _, _ = invoke(capsys, "glue", model, model, "--out", str(out_file))
    assert code == 0
    points = json.loads(out_file.read_text())["points"]
    assert len(points) == 12 and all(list(p) == ["sign", "tree"] for p in points)
    code, out, _ = invoke(capsys, "bch", "+inner(1,2,)", "--order", "0", "--labels", "2")
    assert code == 0 and json.loads(out)["points"] == [{"sign": 1, "tree": "inner(1,2,)"}]


def test_each_verb_declares_exactly_the_flags_it_reads():
    import argparse

    from towertrees.cli import build_parser

    out, json_out, bounds = ["--out"], ["--json", "--out"], ["--max-order", "--max-labels"]
    cell = ["--order", "--labels"]
    expected = {
        "canon": json_out,
        "reduce": json_out,
        "groups": cell + ["--nonrepeating"] + json_out + bounds,
        "tau": json_out + bounds,
        "certify": out + bounds,
        "verify": json_out + bounds,
        "glue": out,
        "bch": cell + out,
        "rank": cell + json_out + bounds,
    }
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    flags = {verb: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
             for verb, p in verbs.items()}
    assert flags == expected
    assert sum(map(len, flags.values())) == 32


@pytest.mark.parametrize("argv, flag", [
    (["canon", "inner(1,2,)"], ["--max-order", "4"]),
    (["canon", "inner(1,2,)"], ["--max-labels", "6"]),
    (["reduce", "inner(1,2,)"], ["--max-order", "4"]),
    (["reduce", "inner(1,2,)"], ["--max-labels", "6"]),
    (["certify", str(FIXTURES / "certify_4_3.json")], ["--json"]),
    (["glue", str(FIXTURES / "order2_tower.json"), str(FIXTURES / "order2_tower.json")],
     ["--json"]),
    (["glue", str(FIXTURES / "order2_tower.json"), str(FIXTURES / "order2_tower.json")],
     ["--max-order", "4"]),
    (["glue", str(FIXTURES / "order2_tower.json"), str(FIXTURES / "order2_tower.json")],
     ["--max-labels", "6"]),
    (["bch", "+inner(1,2,)", "--order", "0", "--labels", "2"], ["--json"]),
    (["bch", "+inner(1,2,)", "--order", "0", "--labels", "2"], ["--max-order", "4"]),
    (["bch", "+inner(1,2,)", "--order", "0", "--labels", "2"], ["--max-labels", "6"]),
])
def test_flags_a_verb_does_not_read_are_refused(argv, flag, capsys):
    code, out, err = invoke(capsys, *argv, *flag)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"towertrees: error: unrecognized arguments: {' '.join(flag)}"


@pytest.mark.parametrize("argv", [
    ["canon", "-(2,1)"],
    ["reduce", "-inner((1,2),((3,4),(1,2)),)"],
    ["bch", "-inner((1,2),(3,4),)", "--order", "2", "--labels", "4"],
])
def test_out_path_shaped_like_a_placeholder_is_written(argv, tmp_path, monkeypatch, capsys):
    # a path such as @tree0 is the user's file, whatever the tree arguments
    monkeypatch.chdir(tmp_path)
    _, printed, _ = invoke(capsys, *argv)
    code, out, err = invoke(capsys, *argv, "--out", "@tree0")
    assert (code, out, err) == (0, "", "")
    assert [p.name for p in tmp_path.iterdir()] == ["@tree0"]
    assert (tmp_path / "@tree0").read_text() == printed


@pytest.mark.parametrize("argv", [
    ["canon", "-(2,1)"],
    ["reduce", "inner((1,2),((3,4),(1,2)),)"],
    ["groups", "--order", "2", "--labels", "4"],
    ["tau", str(FIXTURES / "order2_tower.json")],
    ["verify", str(FIXTURES / "certify_4_3.json"), str(FIXTURES / "certify_4_3.cert.json")],
    ["rank", "--order", "5", "--labels", "3", "--max-order", "5"],
], ids=lambda argv: argv[0])
def test_every_json_result_is_indented_and_out_writes_the_same_bytes(argv, tmp_path, capsys):
    # one writer for the six --json verbs: json.dumps(..., indent=2)
    code, out, err = invoke(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    target = tmp_path / "result.json"
    assert invoke(capsys, *argv, "--json", "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_paths_beginning_with_a_negative_number_are_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, "canon", "-(2,1)", "--out", "-1.txt")
    assert (code, out, err) == (0, "", "")
    assert [p.name for p in tmp_path.iterdir()] == ["-1.txt"]
    assert (tmp_path / "-1.txt").read_text() == "+(1,2)\n"
    (tmp_path / "-1.json").write_text((FIXTURES / "order2_tower.json").read_text())
    code, out, err = invoke(capsys, "tau", "-1.json")
    assert (code, err) == (0, "")
    assert out.startswith("tau = +1*inner(1,(2,(3,4)),)\n")
