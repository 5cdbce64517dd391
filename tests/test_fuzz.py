"""Property-based fuzzing of the tree parser, the JSON loaders and the CLI.

Inputs mix well-formed trees of the grammar with truncated and spliced
ones, stray characters and small (also negative) integers; tower and
certificate files mix well-formed documents with mutated, truncated and
deeply nested ones.  The parser returns a tree or raises ParseError; a
parsed unrooted tree canonicalizes to a fixed point of
``canonicalize`` and a rooted one is refused with a TypeError.  The CLI
ends with exit code 0, 1 or 2, an exit 1 comes with an ``error:`` line
(or a ``FAIL:`` verdict from ``verify``), and no exception escapes.
"""

import hashlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from towertrees.cli import run
from towertrees.towers import (TowerError, certificate_from_json, certificate_to_json,
                               certify_raise_order, load_tower, verify_certificate)
from towertrees.trees import (CanonicalTree, DecoratedTree, Leaf, Node, ParseError, SignedTree,
                              canonicalize, parse_tree, to_text)

labels = st.integers(min_value=0, max_value=5).map(str)
words = st.text(alphabet="abAB", max_size=3)
leaves = st.one_of(labels, st.builds(lambda lab, w: f"{lab}:{w}", labels, words))
rooted = st.recursive(leaves, lambda sub: st.builds(lambda a, b: f"({a},{b})", sub, sub),
                      max_leaves=6)
unrooted = st.builds(lambda a, b, w: f"inner({a},{b},{w})", rooted, rooted, words)
well_formed = st.one_of(rooted, unrooted)
junk = st.text(alphabet="()[],:-+ 0123456789abABinerz²é\t", max_size=20)


@st.composite
def mangled(draw):
    """A well-formed tree, truncated, spliced with junk or left as is."""
    text = draw(well_formed)
    cut = draw(st.integers(min_value=0, max_value=len(text)))
    how = draw(st.sampled_from(["keep", "truncate", "splice"]))
    if how == "truncate":
        return text[:cut]
    if how == "splice":
        return text[:cut] + draw(junk) + text[cut:]
    return text


tree_texts = st.one_of(well_formed, mangled(), junk)
signed_texts = st.builds(lambda sign, t: sign + t, st.sampled_from(["", "-", "+", "- "]), tree_texts)


@settings(max_examples=300, deadline=None)
@given(tree_texts)
def test_parse_tree_returns_a_tree_or_raises_parse_error(text):
    try:
        tree = parse_tree(text)
    except ParseError:
        return
    assert isinstance(tree, (Leaf, Node, DecoratedTree))
    assert parse_tree(to_text(tree)) == tree


@settings(max_examples=300, deadline=None)
@given(st.one_of(well_formed, mangled()))
def test_parsed_trees_canonicalize_to_a_fixed_point_or_are_refused(text):
    try:
        tree = parse_tree(text)
    except ParseError:
        return
    if isinstance(tree, DecoratedTree):
        ct, _ = canonicalize(SignedTree(1, tree))
        assert isinstance(ct, CanonicalTree)
        assert canonicalize(SignedTree(1, ct)) == (ct, 1)
    else:
        with pytest.raises(TypeError, match=type(tree).__name__):
            canonicalize(SignedTree(1, tree))


small_ints = st.integers(min_value=-3, max_value=3).map(str)
options = st.sampled_from(["--json", "--order", "--labels", "--max-order", "--max-labels",
                           "--nonrepeating", "--ord"])
tokens = st.one_of(signed_texts, small_ints, options)


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(["canon", "reduce", "groups"]))
    if verb == "groups" and draw(st.booleans()):
        # mostly well-formed group requests, over cells that stay cheap
        argv = [verb, "--order", draw(small_ints), "--labels", draw(small_ints)]
    else:
        argv = [verb]
    return argv + draw(st.lists(tokens, max_size=4))


@settings(max_examples=150, deadline=None)
@given(argvs(), signed_texts)
def test_cli_exits_cleanly(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin_text)):
        code = run(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# ------------------------------------------------------ JSON files and verbs
#
# Labels, orders and m stay at most 4, so that no zero test builds a
# relator lattice larger than the (4,4) one.

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(min_value=-3, max_value=4),
                         st.floats(allow_nan=False, width=16), st.text(max_size=4),
                         tree_texts)
json_values = st.recursive(
    json_scalars,
    lambda sub: st.one_of(st.lists(sub, max_size=3),
                          st.dictionaries(st.text(max_size=3), sub, max_size=3)),
    max_leaves=6)
# well-formed trees keep their labels in 1..4
fuzz_trees = st.one_of(unrooted.map(lambda t: t.replace("0", "1").replace("5", "4")), tree_texts)
signs = st.sampled_from([1, -1])
brackets = st.recursive(st.integers(min_value=1, max_value=4).map(str),
                        lambda sub: st.builds(lambda a, b: f"({a},{b})", sub, sub), max_leaves=3)
edges = st.text(alphabet="LR", max_size=3)
heads = {"m": st.integers(min_value=1, max_value=4), "order": st.integers(min_value=0, max_value=4)}

models = st.fixed_dictionaries({**heads, "points": st.lists(st.fixed_dictionaries(
    {"sign": signs, "tree": fuzz_trees}, optional={"puncture": edges}), max_size=4)})
raw_towers = st.fixed_dictionaries({
    **heads,
    "disks": st.lists(st.fixed_dictionaries(
        {"bracket": brackets},
        optional={"whisker": words, "orientation": signs}), max_size=3),
    "points": st.lists(st.fixed_dictionaries(
        {"sign": signs, "left": brackets, "right": brackets},
        optional={"g": words, "paired_by": st.one_of(st.none(), brackets)}), max_size=4)})
certificates = st.lists(st.fixed_dictionaries(
    {"move": st.sampled_from(["ihx_insert", "cancel_pair", "move_puncture", "swap"])},
    optional={"i": fuzz_trees, "h": fuzz_trees, "x": fuzz_trees, "edge": edges, "sign": signs,
              "p": st.integers(min_value=-1, max_value=8),
              "q": st.integers(min_value=-1, max_value=8),
              "point": st.integers(min_value=0, max_value=3)}), max_size=4)


def _slots(value, path=()):
    """Paths of every entry of every object and array inside ``value``."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, sub in items:
        yield path + (key,)
        yield from _slots(sub, path + (key,))


@st.composite
def mutated(draw, documents):
    """A document with up to three entries replaced by any JSON value
    or dropped."""
    doc = draw(documents)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        slots = list(_slots(doc))
        if not slots:
            break
        *path, key = draw(st.sampled_from(slots))
        parent = doc
        for step in path:
            parent = parent[step]
        if draw(st.booleans()):
            parent[key] = draw(json_values)
        else:
            del parent[key]
    return doc


@st.composite
def json_files(draw, documents):
    """The text of a file: a document, cut short or spliced with junk,
    or nested past the decoder's depth, or not JSON at all."""
    text = json.dumps(draw(mutated(documents)))
    how = draw(st.sampled_from(["keep", "keep", "keep", "truncate", "splice", "deep", "junk"]))
    cut = draw(st.integers(min_value=0, max_value=len(text)))
    if how == "truncate":
        return text[:cut]
    if how == "splice":
        return text[:cut] + draw(st.text(alphabet='[]{}",:-0123456789 eE.', max_size=6)) + text[cut:]
    if how == "deep":
        return draw(st.sampled_from(["[", '{"m": '])) * draw(st.sampled_from([900, 100_000]))
    if how == "junk":
        return draw(st.text(max_size=20))
    return text


tower_files = json_files(st.one_of(models, raw_towers))
certificate_files = json_files(certificates)


@settings(max_examples=200, deadline=None)
@given(verb=st.sampled_from(["tau", "certify", "verify", "glue"]), tower=tower_files,
       other=st.one_of(tower_files, certificate_files), use_json=st.booleans())
def test_file_verbs_exit_cleanly(tmp_path_factory, verb, tower, other, use_json):
    folder = tmp_path_factory.mktemp("fuzz")
    first, second = folder / "first.json", folder / "second.json"
    first.write_text(tower, encoding="utf-8")
    second.write_text(other, encoding="utf-8")
    argv = [verb, str(first)] + ([str(second)] if verb in ("verify", "glue") else [])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv + (["--json"] if use_json and verb in ("tau", "verify") else []))
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert (lines and lines[-1].startswith("error: ")) or \
            (verb == "verify" and not lines), (argv, out.getvalue(), err.getvalue())


# ------------------------------------------------------- pinned outcomes
#
# Seeded corpora rather than hypothesis: the SHA-256 over every outcome
# pins what the parser and the JSON loaders return and, for every
# refusal, its message, its position and which refusal comes first.

PINNED = json.loads((Path(__file__).parent / "fixtures" / "parse_sha256.json").read_text())
JUNK = "()[],:-+ 0123456789abABinerz²é\t"


def _seeded_rooted(rng, leaves, low, high, word=None):
    """A rooted tree text of ``leaves`` leaves labelled low..high; with
    ``word``, a third of the leaves carry ``word(rng)``."""
    if leaves == 1:
        label = str(rng.randint(low, high))
        return f"{label}:{word(rng)}" if word and rng.random() < 0.3 else label
    k = rng.randint(1, leaves - 1)
    return (f"({_seeded_rooted(rng, k, low, high, word)},"
            f"{_seeded_rooted(rng, leaves - k, low, high, word)})")


def _fuzz_word(rng):
    return "".join(rng.choice("abAB") for _ in range(rng.randint(0, 3)))


def _seeded_text(rng):
    """A well-formed tree of the fuzz alphabet, kept, truncated, spliced
    with junk or spaced out, or junk alone."""
    if rng.random() < 0.1:
        return "".join(rng.choice(JUNK) for _ in range(rng.randint(0, 20)))
    low = 0 if rng.random() < 0.1 else 1
    text = _seeded_rooted(rng, rng.randint(1, 6), low, 5, _fuzz_word)
    if rng.random() < 0.6:
        right = _seeded_rooted(rng, rng.randint(1, 5), low, 5, _fuzz_word)
        text = f"inner({text},{right},{_fuzz_word(rng)})"
    cut = rng.randint(0, len(text))
    how = rng.choice(["keep", "keep", "truncate", "splice", "space"])
    if how == "truncate":
        return text[:cut]
    if how == "splice":
        return text[:cut] + "".join(rng.choice(JUNK) for _ in range(rng.randint(1, 4))) + text[cut:]
    if how == "space":
        return "".join(ch + rng.choice(["", "", " ", "\t", "\n "]) for ch in text)
    return text


def test_parse_outcomes_match_golden_digest():
    rng = random.Random("parse-outcomes")
    digest = hashlib.sha256()
    for _ in range(PINNED["texts"]):
        text = _seeded_text(rng)
        try:
            outcome = to_text(parse_tree(text))
        except ParseError as exc:
            outcome = f"ParseError at {exc.position}: {exc}"
        digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == PINNED["texts_sha256"]


def _seeded_tree(rng, m):
    """An unrooted tree text over labels 1..m, in layout form or not; in
    a third of them the leaves and the fused edge carry reduced words."""
    word = (lambda rng: rng.choice(["a", "B", "ab", "Ba"])) if rng.random() < 0.3 else None
    left = _seeded_rooted(rng, rng.randint(1, 3), 1, m, word)
    right = _seeded_rooted(rng, rng.randint(1, 4), 1, m, word)
    return f"inner({left},{right},{word(rng) if word and rng.random() < 0.5 else ''})"


def _mutate_text(rng, text):
    cut = rng.randint(0, len(text))
    return rng.choice([text[:cut], text[:cut] + rng.choice(JUNK) + text[cut:],
                       text[6:-2] if text.startswith("inner(") else text,
                       re.sub(r"\d+", "9", text, count=1), text.replace(",)", ",aA)"),
                       "inner(" + text[6:].replace(",", ", ", 1)])


def _mutate_record(rng, record, keys):
    key = rng.choice(keys)
    value = record.get(key)
    how = rng.choice(["keep", "drop", "text", "text", "type", "sign"])
    if how == "drop":
        record.pop(key, None)
    elif how == "text" and isinstance(value, str):
        record[key] = _mutate_text(rng, value)
    elif how == "type":
        record[key] = rng.choice([None, 1, "1", [value], {"k": value}, True])
    elif how == "sign":
        record["sign"] = rng.choice([0, 2, -1, 1, "+1"])


def _model_doc(rng):
    m = rng.randint(1, 4)
    points = [{"sign": rng.choice((1, -1)), "tree": _seeded_tree(rng, m)}
              for _ in range(rng.randint(0, 4))]
    return {"m": m, "order": rng.choice([0, 0, 1, 2]), "points": points}


def test_loader_outcomes_match_golden_digest():
    # model documents and certificates, each with one seeded mutation:
    # the outcome is the loaded points (the certificate as printed, and
    # its replay against its model) or the TowerError
    rng = random.Random("loader-outcomes")
    digest = hashlib.sha256()
    for _ in range(PINNED["models"]):
        doc = _model_doc(rng)
        if doc["points"] and rng.random() < 0.9:
            _mutate_record(rng, rng.choice(doc["points"]), ["sign", "tree", "tree"])
        elif rng.random() < 0.5:
            _mutate_record(rng, doc, ["m", "order", "points"])
        try:
            model = load_tower(json.dumps(doc))
            outcome = "; ".join(f"{pid} {pt.sign:+d} {pt.tree.text()}"
                                for pid, pt in model.points.items())
        except TowerError as exc:
            outcome = f"TowerError: {exc}"
        digest.update(outcome.encode() + b"\n")
    for k in range(PINNED["certificates"]):
        order, m = rng.choice([(2, 3), (2, 4), (3, 3)])
        triples = []
        for _ in range(1 + k % 3):
            sign = rng.choice((1, -1))
            a, b, c = (rng.randint(1, m) for _ in range(3))
            d = _seeded_rooted(rng, order - 1, 1, m)
            triples += [{"sign": sign, "tree": f"inner((({x},{y}),{z}),{d},)"}
                        for x, y, z in ((a, b, c), (b, c, a), (c, a, b))]
        model = load_tower(json.dumps({"m": m, "order": order, "points": triples}))
        moves = json.loads(certificate_to_json(certify_raise_order(model)))
        inserts = [mv for mv in moves if mv["move"] == "ihx_insert"]
        if inserts and rng.random() < 0.8:
            mv = rng.choice(inserts)
            if rng.random() < 0.3:  # the same tree, written another way
                key = rng.choice(["h", "x"])
                inner = parse_tree(mv[key])
                mv[key] = to_text(DecoratedTree(inner.right, inner.left, inner.word))
            elif rng.random() < 0.2:
                mv["h"], mv["x"] = mv["x"], mv["h"]
            else:
                _mutate_record(rng, mv, ["i", "h", "x", "h", "x", "edge", "move", "sign"])
        elif moves:
            _mutate_record(rng, rng.choice(moves), ["move", "p", "q"])
        try:
            cert = certificate_from_json(json.dumps(moves))
            result = verify_certificate(model, cert)
            outcome = (f"{certificate_to_json(cert)}\n"
                       f"{result.ok} {result.code} {result.move} {result.reason}")
        except TowerError as exc:
            outcome = f"TowerError: {exc}"
        digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == PINNED["documents_sha256"]
