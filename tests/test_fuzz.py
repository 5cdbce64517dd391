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

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from towertrees.cli import run
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
