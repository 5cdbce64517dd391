"""Exact integer linear algebra: lattice membership and Smith normal form.

Everything here runs over Python ints, never floats; torsion detection
is the whole point.  Matrices are sparse: a row is a dict column ->
nonzero value.  There is one elimination, ``IntegerLattice.add``: its
echelon basis answers membership, residues and solving, gives
``integer_rank``, and ``smith_normal_form`` alternates it between rows
and columns until the basis is diagonal.
"""

from __future__ import annotations

from math import gcd


def _echelon(rows):
    """The lattice of dense (sequence) or sparse (dict) rows, added in
    the order given."""
    lat = IntegerLattice()
    for row in rows:
        lat.add(row if isinstance(row, dict) else dict(enumerate(row)))
    return lat


def smith_normal_form(rows):
    """Invariant factors and rank of an integer matrix.

    Accepts dense rows (sequences) or sparse rows (dicts).  Returns
    (factors, rank) where factors is the tuple of nonzero invariant
    factors d1 | d2 | ... (including any 1s) and rank = len(factors).

    Alternates row and column echelon forms of the same
    ``IntegerLattice`` (Kannan-Bachem): take the echelon basis of the
    rows, ordered by pivot column; stop once every basis row has a
    single entry; otherwise transpose the basis and take the echelon
    basis of its rows, fed in ascending original-column order.  Each
    pass preserves the row lattice up to a transpose, hence the factors.

    Termination rests on that feed order.  Call a pivot isolated when it
    is alone in its row and its column; isolated pivots never change.
    Let row k of the basis hold the first pivot a that is not isolated.
    Columns before a's column meet only isolated rows, and a's column
    meets row k alone, so the first transposed row with an entry at
    index k is exactly {k: a}.  The next basis row at index k is then
    either {k: a} itself, now isolated, when a divides every entry of
    row k, or leads with the gcd of that row, a proper divisor of |a|.
    So every pass isolates one more pivot or shrinks the first pivot
    not isolated, and each can happen only finitely often.

    The diagonal is then put into the divisibility chain by gcd/lcm
    swaps.  The 1s divide everything, so the swaps run over the factors
    above 1 only; one sweep suffices, since after pair (i, j) the i-th
    entry divides the j-th and later swaps keep it so.
    """
    lat = _echelon(rows)
    while True:
        basis = [lat.basis[lat.pivots[c]] for c in sorted(lat.pivots)]
        if all(len(row) == 1 for row in basis):
            break
        columns: dict[int, dict[int, int]] = {}
        for i, row in enumerate(basis):
            for c, v in row.items():
                columns.setdefault(c, {})[i] = v
        lat = _echelon(columns[c] for c in sorted(columns))
    diagonal = sorted(abs(v) for row in basis for v in row.values())
    units = [d for d in diagonal if d == 1]
    rest = diagonal[len(units):]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            a, b = rest[i], rest[j]
            if b % a:
                g = gcd(a, b)
                rest[i], rest[j] = g, a * b // g
    return tuple(units + rest), len(diagonal)


class IntegerLattice:
    """Row span of integer vectors with exact membership tests.

    Holds an echelon basis over Z (Hermite-style: one pivot column per
    row, built by Euclidean elimination).  With ``track=True`` every
    basis row remembers its expression over the added rows, so
    ``solve`` can return an explicit integer combination.
    """

    def __init__(self, track=False):
        self.pivots: dict[int, int] = {}  # column -> basis index
        self.basis: list[dict[int, int]] = []
        self.combos: list[dict] = [] if track else None
        self.track = track
        self.n_added = 0

    @property
    def rank(self):
        return len(self.basis)

    @staticmethod
    def _addmul(dst, src, factor):
        for c, v in src.items():
            w = dst.get(c, 0) + factor * v
            if w:
                dst[c] = w
            else:
                dst.pop(c, None)

    def add(self, vec, tag=None):
        """Insert a vector (sparse dict); returns True if rank grew."""
        v = {c: x for c, x in vec.items() if x}
        combo = {tag if tag is not None else self.n_added: 1} if self.track else None
        self.n_added += 1
        while v:
            c = min(v)
            if c not in self.pivots:
                if v[c] < 0:
                    v = {k: -x for k, x in v.items()}
                    if self.track:
                        combo = {k: -x for k, x in combo.items()}
                self.pivots[c] = len(self.basis)
                self.basis.append(v)
                if self.track:
                    self.combos.append(combo)
                return True
            i = self.pivots[c]
            b = self.basis[i]
            a, x = b[c], v[c]
            if x % a == 0:
                self._addmul(v, b, -(x // a))
                if self.track:
                    self._addmul(combo, self.combos[i], -(x // a))
            else:
                # Euclidean swap: basis row keeps gcd-lead combination
                g, p, q = _xgcd(a, x)
                new_b = {}
                self._addmul(new_b, b, p)
                self._addmul(new_b, v, q)
                new_v = {}
                self._addmul(new_v, v, a // g)
                self._addmul(new_v, b, -(x // g))
                if self.track:
                    new_bc = {}
                    self._addmul(new_bc, self.combos[i], p)
                    self._addmul(new_bc, combo, q)
                    new_vc = {}
                    self._addmul(new_vc, combo, a // g)
                    self._addmul(new_vc, self.combos[i], -(x // g))
                    self.combos[i] = new_bc
                    combo = new_vc
                self.basis[i] = new_b
                v = new_v
        return False

    def _sweep(self, vec, combo=None):
        """Floor-reduce vec against every pivot in ascending column order
        (reductions only create entries in later columns, so one
        ascending sweep suffices) and return the residue.  With a
        ``combo`` dict, add to it the basis combinations subtracted."""
        v = {c: x for c, x in vec.items() if x}
        seen: set[int] = set()
        while True:
            todo = [c for c in v if c not in seen]
            if not todo:
                return v
            c = min(todo)
            seen.add(c)
            i = self.pivots.get(c)
            if i is None:
                continue
            q = v[c] // self.basis[i][c]
            if q:
                self._addmul(v, self.basis[i], -q)
                if combo is not None:
                    self._addmul(combo, self.combos[i], q)

    def reduce(self, vec):
        """Canonical residue of vec modulo the lattice (not inserted).

        The residue is the unique coset representative with entries in
        [0, pivot) at pivot columns; it is zero iff vec lies in the
        lattice.
        """
        return self._sweep(vec)

    def contains(self, vec):
        return not self.reduce(vec)

    def solve(self, vec):
        """Integer combination of the added rows equal to vec, or None.

        Requires track=True.  Returns {tag: coefficient}: the sweep's
        combinations, exact when vec lies in the lattice.
        """
        if not self.track:
            raise ValueError("lattice built without track=True")
        combo: dict = {}
        return None if self._sweep(vec, combo) else combo


def _xgcd(a, b):
    """g, p, q with p*a + q*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_rank(rows):
    """Exact rank of a list of sparse or dense integer rows."""
    return _echelon(rows).rank
