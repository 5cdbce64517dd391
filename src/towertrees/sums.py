"""Integer linear combinations of canonical trees.

A TreeSum is a finite map CanonicalTree -> coefficient with zero
coefficients dropped and coefficients of 2-torsion trees reduced mod 2
into {0, 1}.  All terms of one sum must have the same order; sums of
different orders live in different graded pieces and do not mix.
"""

from __future__ import annotations

from .trees import CanonicalTree


class TreeSum:
    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict[CanonicalTree, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for tree, coeff in items:
            acc[tree] = acc.get(tree, 0) + coeff
        order = None
        cleaned = {}
        for tree, coeff in acc.items():
            if tree.two_torsion:
                coeff %= 2
            if coeff == 0:
                continue
            if order is None:
                order = tree.order
            elif tree.order != order:
                raise ValueError("mixed orders in one tree sum")
            cleaned[tree] = coeff
        self._terms = cleaned

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].code)

    def trees(self):
        return [t for t, _ in self.items()]

    @property
    def order(self):
        """Order of the terms, or None for the empty sum."""
        for t in self._terms:
            return t.order
        return None

    def is_empty(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        return isinstance(other, TreeSum) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        return TreeSum(list(self._terms.items()) + list(other._terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TreeSum({t: -c for t, c in self._terms.items()})

    def scale(self, k):
        return TreeSum({t: k * c for t, c in self._terms.items()})

    def __repr__(self):
        if not self._terms:
            return "TreeSum(0)"
        bits = []
        for t, c in self.items():
            mark = "~" if t.two_torsion else ""
            bits.append(f"{c:+d}*{mark}{t.text()}")
        return "TreeSum(" + " ".join(bits) + ")"

    def text(self):
        """Printable form, e.g. '+1*inner(1,(2,3),)'; '0' when empty."""
        if not self._terms:
            return "0"
        return " ".join(f"{c:+d}*{t.text()}" for t, c in self.items())
