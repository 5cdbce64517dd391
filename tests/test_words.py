import pytest
from hypothesis import given, strategies as st

from towertrees.words import check_word, is_reduced, winv, wmul, wreduce

letters = st.text(alphabet="abAB", max_size=8)


def test_reduce_basics():
    assert wreduce("") == ""
    assert wreduce("aA") == ""
    assert wreduce("abBA") == ""
    assert wreduce("abA") == "abA"
    assert wreduce("aAbB") == ""


def test_inverse():
    assert winv("ab") == "BA"
    assert winv("") == ""
    assert wmul("ab", winv("ab")) == ""


@given(letters, letters, letters)
def test_associative(a, b, c):
    assert wmul(wmul(a, b), c) == wmul(a, wmul(b, c))


@given(letters)
def test_left_inverse(w):
    assert wmul(winv(w), w) == ""
    assert is_reduced(wreduce(w))


def test_check_word():
    check_word("abA")
    with pytest.raises(ValueError):
        check_word("a1")
    with pytest.raises(ValueError):
        check_word("aA")
    check_word("")
