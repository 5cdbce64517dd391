import pytest

from towertrees.sums import TreeSum
from towertrees.trees import SignedTree, canonicalize, parse_tree


def canon(text):
    return canonicalize(SignedTree(1, parse_tree(text)))[0]


Y123 = canon("inner(1,(2,3),)")
Y111 = canon("inner(1,(1,1),)")
E12 = canon("inner(1,2,)")


def test_cancel():
    t = TreeSum({Y123: 1})
    assert (t + (-t)).is_empty()


def test_torsion_mod_two():
    assert Y111.two_torsion
    assert TreeSum({Y111: 2}).is_empty()
    assert TreeSum({Y111: 1}).scale(3) == TreeSum({Y111: 1})
    assert TreeSum({Y111: -1}) == TreeSum({Y111: 1})


def test_add_sub_roundtrip():
    s = TreeSum({Y123: 2})
    t = TreeSum({Y111: 1})
    assert (s + t) - t == s
    assert -(-s) == s


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        TreeSum({Y123: 1, E12: 1})
    with pytest.raises(ValueError):
        TreeSum({Y123: 1}) + TreeSum({E12: 1})


def test_order_property():
    assert TreeSum().order is None
    assert TreeSum({E12: 5}).order == 0


def test_text():
    assert TreeSum().text() == "0"
    assert "+2*" in TreeSum({Y123: 2}).text()
