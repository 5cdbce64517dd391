"""Property-based fuzzing of the tree parser and the CLI.

Inputs mix well-formed trees of the grammar with truncated and spliced
ones, stray characters and small (also negative) integers.  The parser
returns a tree or raises ParseError; the CLI ends with exit code 0, 1
or 2 and never lets an exception escape.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings, strategies as st

from towertrees.cli import run
from towertrees.trees import DecoratedTree, Leaf, Node, ParseError, parse_tree, to_text

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
