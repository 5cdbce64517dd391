"""Exact integer linear algebra: lattice membership and Smith normal form.

Everything here runs over Python ints, never floats; torsion detection
is the whole point.  Matrices are sparse, and every function here takes
its rows in one format: a row is a dict column -> value.  There are two
eliminations.  An ``IntegerLattice`` is built from its rows and keeps an
echelon basis keyed by pivot column, which answers membership, residues
and solving and gives ``integer_rank``.  ``smith_normal_form`` first
splits off the +-1 pivots by Gauss-Jordan elimination (``_unit_pivots``),
then alternates the echelon form between rows and columns on the rows
left over until the basis is diagonal (``_kannan_bachem``).
"""

from __future__ import annotations

from math import gcd


def _addmul(dst, src, factor):
    """dst += factor * src in place, dropping the entries that cancel."""
    for c, v in src.items():
        w = dst.get(c, 0) + factor * v
        if w:
            dst[c] = w
        else:
            dst.pop(c, None)


def smith_normal_form(rows):
    """Invariant factors and rank of an integer matrix of sparse rows.

    Returns (factors, rank) where factors is the tuple of nonzero
    invariant factors d1 | d2 | ... (including any 1s) and rank =
    len(factors).

    First splits off the unit pivots (``_unit_pivots``), then takes the
    Smith form of the rows left over (``_kannan_bachem``).  This is
    exact.  The split uses row operations only, after which each pivot
    column c is zero outside its own pivot row, where it holds +-1.
    Column operations by c then clear the rest of that row without
    touching any other row, so the row and column split off a summand
    Z/1.  What remains is the set-aside rows, zero on every pivot
    column.  Invariant factors are unique, so these are the factors of
    the whole matrix.
    """
    pivots, rest = _unit_pivots(rows)
    factors, rank = _kannan_bachem(rest)
    return (1,) * pivots + factors, pivots + rank


def _unit_pivots(rows):
    """Online Gauss-Jordan elimination on +-1 pivots of sparse rows.

    Each row is reduced against the pivot rows so far.  If it then has
    an entry +-1, it becomes a pivot row on the +-1 column held by the
    fewest pivot rows (Markowitz), which is cleared from every other
    pivot row; otherwise it is set aside.  Pivot rows stay zero on each
    other's pivot columns, so one pass reduces a row against them all,
    and the set-aside rows, reduced once more against the final pivots,
    come out zero on every pivot column.  Returns (number of pivots,
    set-aside rows).
    """
    pivot_row: dict[int, dict[int, int]] = {}  # pivot column -> its row
    held: dict[int, set[int]] = {}  # other column -> pivot columns of the rows nonzero there
    aside = []
    for row in rows:
        v = _reduced(row, pivot_row)
        c = None
        for k, x in v.items():
            if x == 1 or x == -1:
                s = held.get(k)
                if not s:
                    c, n = k, 0
                    break
                if c is None or len(s) < n:
                    c, n = k, len(s)
        if c is None:
            if v:
                aside.append(v)
            continue
        for p in held.pop(c, ()):
            r = pivot_row[p]
            f = r[c] * v[c]
            for k, x in v.items():
                w = r.get(k, 0) - f * x
                if w:
                    if k not in r:
                        held.setdefault(k, set()).add(p)
                    r[k] = w
                else:
                    del r[k]
                    if k != c:
                        held[k].discard(p)
        pivot_row[c] = v
        for k in v:
            if k != c:
                s = held.get(k)
                if s is None:
                    held[k] = {c}
                else:
                    s.add(c)
    return len(pivot_row), [v for v in (_reduced(r, pivot_row) for r in aside) if v]


def _reduced(row, pivot_row):
    """A sparse row minus the pivot rows that clear its pivot columns,
    as a new dict without zeros."""
    v = dict(row)
    if 0 in v.values():
        v = {c: x for c, x in v.items() if x}
    for c in [c for c in v if c in pivot_row]:
        p = pivot_row[c]
        if len(p) == 1:  # {c: +-1}, a generator set to zero: the commonest pivot row
            del v[c]
        else:
            _addmul(v, p, -v[c] * p[c])
    return v


def _kannan_bachem(rows):
    """Invariant factors and rank as ``smith_normal_form``, by
    alternating row and column echelon forms of the same
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
    lat = IntegerLattice(rows)
    while True:
        basis = [lat.basis[c] for c in sorted(lat.basis)]
        if all(len(row) == 1 for row in basis):
            break
        columns: dict[int, dict[int, int]] = {}
        for i, row in enumerate(basis):
            for c, v in row.items():
                columns.setdefault(c, {})[i] = v
        lat = IntegerLattice(columns[c] for c in sorted(columns))
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

    Built from its rows (sparse dicts), added in the order given; more
    may be added later.  Holds an echelon basis over Z (Hermite-style:
    one pivot column per row, built by Euclidean elimination), keyed by
    pivot column.  With ``track=True`` every basis row remembers its
    expression over the added rows, the k-th added row named k, so
    ``solve`` can return an explicit integer combination.
    """

    def __init__(self, rows=(), track=False):
        self.basis: dict[int, dict[int, int]] = {}  # pivot column -> basis row
        self.combos: dict[int, dict] = {} if track else None  # pivot column -> combination
        self.track = track
        self.n_added = 0
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self.basis)

    def add(self, vec):
        """Insert a vector (sparse dict); returns True if rank grew."""
        v = {c: x for c, x in vec.items() if x}
        combo = {self.n_added: 1} if self.track else None
        self.n_added += 1
        while v:
            c = min(v)
            b = self.basis.get(c)
            if b is None:
                if v[c] < 0:
                    v = {k: -x for k, x in v.items()}
                    if self.track:
                        combo = {k: -x for k, x in combo.items()}
                self.basis[c] = v
                if self.track:
                    self.combos[c] = combo
                return True
            a, x = b[c], v[c]
            if x % a == 0:
                _addmul(v, b, -(x // a))
                if self.track:
                    _addmul(combo, self.combos[c], -(x // a))
            else:
                # Euclidean swap: basis row keeps gcd-lead combination
                g, p, q = _xgcd(a, x)
                new_b = {}
                _addmul(new_b, b, p)
                _addmul(new_b, v, q)
                new_v = {}
                _addmul(new_v, v, a // g)
                _addmul(new_v, b, -(x // g))
                if self.track:
                    new_bc = {}
                    _addmul(new_bc, self.combos[c], p)
                    _addmul(new_bc, combo, q)
                    new_vc = {}
                    _addmul(new_vc, combo, a // g)
                    _addmul(new_vc, self.combos[c], -(x // g))
                    self.combos[c] = new_bc
                    combo = new_vc
                self.basis[c] = new_b
                v = new_v
        return False

    def _sweep(self, vec, combo=None):
        """Floor-reduce vec against every pivot in ascending column order
        (reductions only create entries in later columns, so one
        ascending sweep suffices) and return the residue.  With a
        ``combo`` dict, add to it the basis combinations subtracted."""
        v = {c: x for c, x in vec.items() if x}
        c = min(v, default=None)
        while c is not None:
            b = self.basis.get(c)
            if b is not None:
                q = v[c] // b[c]
                if q:
                    _addmul(v, b, -q)
                    if combo is not None:
                        _addmul(combo, self.combos[c], q)
            c = min((k for k in v if k > c), default=None)
        return v

    def reduce(self, vec):
        """Canonical residue of vec modulo the lattice (not inserted).

        The residue is the unique coset representative with entries in
        [0, pivot) at pivot columns; it is empty iff vec lies in the
        lattice.
        """
        return self._sweep(vec)

    def solve(self, vec):
        """Integer combination of the added rows equal to vec, or None.

        Requires track=True.  Returns {k: coefficient}, k naming the
        k-th added row: the sweep's combinations, exact when vec lies in
        the lattice.
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
    """Exact rank of a list of sparse integer rows."""
    return IntegerLattice(rows).rank
