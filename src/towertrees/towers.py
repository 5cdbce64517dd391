"""Split Whitney tower models and the certified move calculus.

A tower model is a multiset of signed trees over m order-0 surfaces:
one point per unpaired intersection, each stored as a sign and a
canonical tree.  A sign is +1 or -1, and a point on a 2-torsion tree
(t = -t) has sign +1; ``TowerModel`` refuses any other sign, and
``make_model`` is the one constructor of a numbered model.  The moves
never touch geometry, only its combinatorial shadow; the geometric
calculus needs only IHX insertions and pair cancellations:

* ``ihx_insert``        adds the three points +I, -H, +X of a local
                        IHX move (any sign), changing the hat-level sum
                        by a relator and the group-level class not at all,
* ``CancelPair``        removes two points carrying the same simple
                        tree with opposite signs (``apply_move``).

A model keys its points by id, in a read-only mapping.  Replay and
``apply_move`` check and apply each move in one in-place step, which
also checks a replayed insertion's own H and X; ``ihx_insert`` and the
planner make H and X themselves and add the points directly, without
that check.  Planner and replay copy the points once.  An insertion
canonicalizes its H and X once each, and a cancellation reads
simplicity off the code.  H and X stay codes end to end: the planner
stores ``ihx_at``'s layout codes, ``certificate_to_json`` prints them,
the loader reads them back as the same tuples, and replay compares a
move's H and X with the recomputed codes as tuples, canonicalizing only
one written another way.  The loaders read every tree as a code
(``parse_code``) and canonicalize it as such.  A
certificate is a tuple of moves: ``certify_raise_order`` plans one that
empties the order-n layer whenever the intersection sum vanishes in the
order-n group, and ``verify_certificate`` replays one, checking every
move on its delta (the points it adds or removes), never on the whole
intersection sum.  The JSON loaders validate their input and name the
offending record and key in a ``TowerError``; a model point's
``puncture`` key, a marked edge that no invariant reads, is accepted
and ignored, and a ``move_puncture`` certificate record is refused.
Planning and replay take a model of any order and label count; capping
them is the command line's ``--max-order``/``--max-labels`` policy.

A raw tower names each Whitney disk by its rooted tree, its bracket,
an undecorated rooted code as ``parse_bracket`` returns it: the disk
W_(I,J) pairing points of W_I and W_J carries the rooted product
(1, I, J) of their brackets, and the order-0 surface i is (0, i, "").
``extract_model`` reads each unpaired point of W_I and W_J as the inner
product of the two trees, folding the disks' whiskers into the leaf
holonomies as it descends and their orientations into the child order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType

from .groups import _relator_terms, is_zero, normal_form, relator_combination
from .sums import TreeSum
from .trees import (
    CanonicalTree,
    SignedTree,
    _undecorated,
    canonicalize,
    ihx_at,
    is_rooted,
    is_simple,
    is_trivially_decorated,
    parse_code,
    to_text,
)
from .words import check_word, winv, wmul


class TowerError(ValueError):
    """A raw tower violates its well-formedness invariants."""


class MoveError(ValueError):
    """A move's precondition failed; ``reason`` names the condition and
    ``move`` is the index of the failing certificate move, when replay
    knows it."""

    def __init__(self, reason, message, move=None):
        super().__init__(message)
        self.reason = reason
        self.move = move


class ObstructionNonzero(Exception):
    """The intersection sum is nonzero; carries its normal form."""

    def __init__(self, normal_form_sum):
        super().__init__(f"obstruction nonzero: {normal_form_sum.text()}")
        self.normal_form = normal_form_sum


class PlannerError(Exception):
    """The certificate calculus cannot realize the required plan.

    Insertions only ever add points and pair cancellation is restricted
    to simple trees, so a point carrying a non-simple tree (possible
    from order 4 on) can never be removed by these moves.
    """


# ---------------------------------------------------------------- brackets

def parse_bracket(text):
    """The undecorated rooted code of a Whitney disk, e.g. "((1,2),3)"."""
    code = parse_code(text)
    if not is_rooted(code):
        raise TowerError(f"{text!r} is not a bracket")
    if not _undecorated(code):
        raise TowerError(f"bracket {text!r} must not carry decorations")
    return code


# --------------------------------------------------------------- raw towers

@dataclass(frozen=True)
class RawDisk:
    bracket: tuple  # a rooted code, as parse_bracket gives it
    whisker: str = ""
    orientation: int = 1


def _leaf_labels(c, out):
    """Append the leaf labels of a rooted code to ``out``; returns ``out``."""
    if c[0]:
        _leaf_labels(c[1], out)
        _leaf_labels(c[2], out)
    else:
        out.append(c[1])
    return out


@dataclass(frozen=True)
class RawPoint:
    sign: int
    left: tuple  # the brackets of its two surfaces
    right: tuple
    word: str = ""
    paired_by: tuple | None = None

    @property
    def order(self):
        # an order-n tree has n + 2 leaves
        return len(_leaf_labels(self.right, _leaf_labels(self.left, []))) - 2


@dataclass(frozen=True)
class RawTower:
    """Surfaces, Whitney disks and intersection points, as described:
    a disk entry per Whitney disk (singleton entries may carry order-0
    surface data), and a point entry per intersection point, paired
    ones naming their disk."""

    m: int
    order: int
    disks: tuple[RawDisk, ...]
    points: tuple[RawPoint, ...]


def validate_raw(raw: RawTower):
    """Check the well-formedness invariants, naming the offender."""
    disk_by_bracket = {}
    for d in raw.disks:
        for lab in _leaf_labels(d.bracket, []):
            if not 1 <= lab <= raw.m:
                raise TowerError(f"disk {to_text(d.bracket)}: label {lab} out of 1..{raw.m}")
        if d.bracket in disk_by_bracket:
            raise TowerError(f"duplicate disk {to_text(d.bracket)}")
        if d.orientation not in (1, -1):
            raise TowerError(f"disk {to_text(d.bracket)}: orientation must be +-1")
        check_word(d.whisker)
        disk_by_bracket[d.bracket] = d

    def require_present(b, what):
        if b[0] == 0:
            if not 1 <= b[1] <= raw.m:
                raise TowerError(f"{what}: label {b[1]} out of 1..{raw.m}")
            return
        if b not in disk_by_bracket:
            raise TowerError(f"{what}: surface {to_text(b)} has no disk entry")

    for d in raw.disks:
        if d.bracket[0]:
            require_present(d.bracket[1], f"disk {to_text(d.bracket)}")
            require_present(d.bracket[2], f"disk {to_text(d.bracket)}")

    pairs: dict = {b: [] for b in disk_by_bracket if b[0]}
    unpaired = []
    for k, p in enumerate(raw.points):
        what = f"point #{k}"
        if p.sign not in (1, -1):
            raise TowerError(f"{what}: sign must be +-1")
        check_word(p.word)
        require_present(p.left, what)
        require_present(p.right, what)
        if p.paired_by is None:
            unpaired.append(p)
            continue
        if p.paired_by not in pairs:
            raise TowerError(f"{what}: pairing disk {to_text(p.paired_by)} not present")
        if {p.left, p.right} != {p.paired_by[1], p.paired_by[2]}:
            raise TowerError(
                f"{what}: paired by {to_text(p.paired_by)} but lies on "
                f"{to_text(p.left)} and {to_text(p.right)}")
        pairs[p.paired_by].append(p)

    for b, pts in pairs.items():
        if len(pts) != 2:
            raise TowerError(f"disk {to_text(b)} pairs {len(pts)} points, expected 2")
        if pts[0].sign + pts[1].sign != 0:
            raise TowerError(f"disk {to_text(b)} pairs two points of equal sign")
        if pts[0].order != pts[1].order:
            raise TowerError(f"disk {to_text(b)} pairs points of different order")

    for k, p in enumerate(raw.points):
        if p.paired_by is None and p.order < raw.order:
            raise TowerError(
                f"point #{k} is unpaired of order {p.order} < declared order {raw.order}")
    return unpaired


def extract_model(raw: RawTower):
    """Split-tower model of a raw tower: one signed tree per unpaired
    point, with whiskers and orientations consumed by canonicalization.

    Edge words telescope through the disk whiskers: the edge from W_I
    down to W_J carries w_I^-1 w_J, and the fused edge of the point p on
    W_I and W_J carries w_I^-1 g_p w_J.  Each side of p is read as a
    side code whose leaves carry these words multiplied down to them,
    the holonomies from the top of W_I.  Flipping a disk orientation
    swaps the child order at its vertex and negates the sign of any
    point it supports.
    """
    unpaired = validate_raw(raw)
    # an order-0 surface without a disk entry has a trivial whisker and
    # orientation +1
    whisker = {d.bracket: d.whisker for d in raw.disks}
    orient = {d.bracket: d.orientation for d in raw.disks}

    def side(b, hol):
        if b[0] == 0:
            return (0, b[1], hol)
        _, left, right = b
        up = wmul(hol, winv(whisker[b]))
        if orient[b] * orient.get(left, 1) * orient.get(right, 1) == -1:
            left, right = right, left
        return (1, side(left, wmul(up, whisker.get(left, ""))),
                side(right, wmul(up, whisker.get(right, ""))))

    pairs = []
    for p in unpaired:
        fused = wmul(winv(whisker.get(p.left, "")), p.word, whisker.get(p.right, ""))
        sign = p.sign * orient.get(p.left, 1) * orient.get(p.right, 1)
        pairs.append(canonicalize(SignedTree(sign, (side(p.left, ""), side(p.right, fused), ""))))
    order = min(ct.order for ct, _ in pairs) if pairs else raw.order
    return make_model(raw.m, order, [(sign, ct) for ct, sign in pairs])


# --------------------------------------------------------------- the model

@dataclass(frozen=True, slots=True)
class TowerPoint:
    """One unpaired intersection point: its sign and canonical tree."""

    sign: int
    tree: CanonicalTree


@dataclass(frozen=True)
class TowerModel:
    """Split-tower model: its points keyed by id, in insertion order,
    held in a read-only mapping over a copy of the points given.  The
    public moves return a new model and leave this one as it is."""

    m: int
    order: int
    points: MappingProxyType[int, TowerPoint]
    next_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", MappingProxyType(dict(self.points)))
        for pid, pt in self.points.items():
            if pt.sign not in (1, -1):
                raise TowerError(f"point {pid} has sign {pt.sign}, not +1 or -1")
            if pt.tree.order < self.order:
                raise TowerError(
                    f"point {pid} has order {pt.tree.order} below the tower order {self.order}")

    def trivially_decorated(self):
        return all(is_trivially_decorated(pt.tree) for pt in self.points.values())


def _point(sign, ct):
    """A point on a 2-torsion tree (t = -t) has sign +1; a sign other
    than +-1 stays as it is, for ``TowerModel`` to refuse."""
    return TowerPoint(abs(sign) if ct.two_torsion else sign, ct)


def make_model(m, order, signed_trees):
    """The one constructor of a numbered model: pair k, (sign, CanonicalTree), is point k."""
    points = {k: _point(sign, ct) for k, (sign, ct) in enumerate(signed_trees)}
    return TowerModel(m, order, points, len(points))


def bch_tower(sigma, order, m):
    """Model realizing a list of signed trees as its intersection sum."""
    pairs = []
    for st in sigma:
        st = st if isinstance(st, SignedTree) else SignedTree(*st)
        ct, sign = canonicalize(SignedTree(1, st.tree))  # a 2-torsion tree resets the sign
        if ct.order != order:
            raise TowerError(f"tree {ct.text()} has order {ct.order}, expected {order}")
        if ct.labels[0] < 1 or ct.labels[-1] > m:
            raise TowerError(f"tree {ct.text()} uses labels outside 1..{m}")
        pairs.append((sign * st.sign, ct))
    return make_model(m, order, pairs)


def tau(model: TowerModel) -> TreeSum:
    """Signed sum of the trees of the points at the tower's own order;
    the obstruction class lives in the order-n tree group."""
    return TreeSum(
        [(pt.tree, pt.sign) for pt in model.points.values() if pt.tree.order == model.order])


def glue(a: TowerModel, b: TowerModel) -> TowerModel:
    """Union with all signs of b reversed, so tau(glue) = tau(a) - tau(b)."""
    if a.m != b.m or a.order != b.order:
        raise TowerError(
            f"cannot glue ({a.m}, order {a.order}) with ({b.m}, order {b.order})")
    return make_model(a.m, a.order, [(s * pt.sign, pt.tree) for s, model in ((1, a), (-1, b))
                                     for pt in model.points.values()])


# -------------------------------------------------------------------- moves

@dataclass(frozen=True)
class IhxInsert:
    """An IHX insertion at ``edge`` of ``tree``.  H and X are codes: the
    planner stores ``ihx_at``'s layout codes, the certificate loader
    what ``parse_code`` gives; any tree ``canonicalize`` takes also
    does."""

    tree: CanonicalTree
    edge: str
    sign: int
    h: tuple
    x: tuple


@dataclass(frozen=True)
class CancelPair:
    p: int
    q: int


def ihx_insert(model: TowerModel, tree: CanonicalTree, edge, sign=1) -> TowerModel:
    """Add the three points of the local IHX move at an interior edge
    of a canonical tree: +I, -H, +X, all scaled by ``sign``.  The
    group-level zero-ness of tau is unchanged; the hat-level sum
    changes by the relator.  H and X are computed once, by the checked
    insertion itself."""
    points = dict(model.points)
    _, next_id = _add_points(points, model.next_id, _ihx_points(model, tree, edge, sign)[2])
    return TowerModel(model.m, model.order, points, next_id)


def apply_move(model, move) -> TowerModel:
    """The model after one checked move; a ``CancelPair(p, q)`` removes
    an algebraically cancelling pair of simple points: same canonical
    tree, opposite signs (a 2-torsion tree admits either sign), both at
    the tower's own order."""
    points = dict(model.points)
    _, next_id = _step(model, points, model.next_id, move)
    return TowerModel(model.m, model.order, points, next_id)


def _step(model, points, next_id, move):
    """Check one move against ``model``'s order and labels and apply it
    to the id -> TowerPoint dict ``points`` in place.  Returns the
    move's tau-delta terms, (tree, sign) per added point and (tree,
    -sign) per removed one, and the next free id."""
    if isinstance(move, IhxInsert):
        h, x, added = _ihx_points(model, move.tree, move.edge, move.sign)
        if not (_same_class(move.h, h) and _same_class(move.x, x)):
            raise MoveError("BadTriple", "H and X do not match the local move at this edge")
        return _add_points(points, next_id, added)
    if isinstance(move, CancelPair):
        removed = _cancelling_pair(model, points, move.p, move.q)
        del points[move.p], points[move.q]
        return [(pt.tree, -pt.sign) for pt in removed], next_id
    raise MoveError("UnknownMove", f"unknown move {move!r}")


def _same_class(t, code):
    """A move's own H or X needs canonicalizing only when it is not the
    layout code recomputed here.  A rooted tree or code never matches:
    canonicalization refuses it with a TypeError."""
    if t == code:
        return True
    try:
        return canonicalize(SignedTree(1, t)) == canonicalize(SignedTree(1, code))
    except TypeError:
        return False


def _add_points(points, next_id, added):
    points.update(zip(range(next_id, next_id + len(added)), added))
    return [(pt.tree, pt.sign) for pt in added], next_id + len(added)


def _ihx_points(model, ct, edge, sign):
    """The layout codes of H and X of a checked insertion at ``edge`` of
    ``ct``, and its points +I, -H, +X scaled by ``sign``."""
    if sign not in (1, -1):
        raise MoveError("BadSign", "insertion sign must be +-1")
    if ct.order != model.order:
        raise MoveError(
            "WrongOrder", f"tree has order {ct.order}, tower has order {model.order}")
    if ct.labels[0] < 1 or ct.labels[-1] > model.m:
        raise MoveError("BadLabels", f"tree {ct.text()} uses labels outside 1..{model.m}")
    # ihx_at refuses a path that is not interior, the root-leaf edge ""
    # included; a list of steps would pass for its string, so only a
    # string is read
    try:
        h, x = ihx_at(ct, edge if isinstance(edge, str) else "")
    except ValueError:
        raise MoveError("NotInterior", f"{edge!r} is not an interior edge of {ct.text()}") from None
    return h, x, [_point(c * sign, t) for t, c in _relator_terms(ct, h, x)]


def _cancelling_pair(model, points, p, q):
    """The points p and q, checked to form a cancelling simple pair."""
    if p == q:
        raise MoveError("SamePoint", "a pair needs two distinct points")
    for pid in (p, q):
        if pid not in points:
            raise MoveError("UnknownPoint", f"no point with id {pid}")
    pa, pb = points[p], points[q]
    same = pa.tree == pb.tree
    # q carrying p's tree passes whatever p passes
    for pid, pt in ((p, pa),) if same else ((p, pa), (q, pb)):
        if pt.tree.order != model.order:
            raise MoveError("WrongOrder", f"point {pid} has order {pt.tree.order}, "
                                          f"tower has order {model.order}")
        if not is_simple(pt.tree):
            raise MoveError("NotSimple", f"point {pid} carries the non-simple tree {pt.tree.text()}")
    if not same:
        raise MoveError("TreesDiffer", f"points {p} and {q} carry different trees")
    if not pa.tree.two_torsion and pa.sign + pb.sign != 0:
        raise MoveError("SameSign", f"points {p} and {q} have equal signs")
    return pa, pb


# ------------------------------------------------------ certify and verify

def certify_raise_order(model: TowerModel) -> tuple:
    """Plan a certificate emptying the order-n layer.

    Requires the trivial group alphabet and a vanishing obstruction;
    raises ObstructionNonzero (with the normal form) otherwise.
    The plan expresses tau as an integer combination of IHX relators,
    inserts the negated combination so that the points pair off
    algebraically, then cancels the pairs.
    """
    n, m = model.order, model.m
    if not model.trivially_decorated():
        raise PlannerError("certification supports the trivial group alphabet only")
    ts = tau(model)
    combo = relator_combination(ts, n, m)
    if combo is None:
        raise ObstructionNonzero(normal_form(ts, n, m))

    moves = []
    points, next_id = dict(model.points), model.next_id
    for ct, edge, coeff in combo:
        sign = -1 if coeff > 0 else 1
        for _ in range(abs(coeff)):
            # the one ihx_at of the checked insertion also gives the move's H and X
            h, x, added = _ihx_points(model, ct, edge, sign)
            _, next_id = _add_points(points, next_id, added)
            moves.append(IhxInsert(ct, edge, sign, h, x))

    by_tree: dict = {}
    for pid, pt in points.items():
        if pt.tree.order == n:
            by_tree.setdefault(pt.tree, []).append((pid, pt.sign))
    for tree in sorted(by_tree, key=lambda t: t.code):
        entries = sorted(by_tree[tree])
        if tree.two_torsion:
            if len(entries) % 2:
                raise PlannerError(f"odd number of points on the 2-torsion tree {tree.text()}")
            pairs = [(entries[i][0], entries[i + 1][0]) for i in range(0, len(entries), 2)]
        else:
            plus = [pid for pid, s in entries if s > 0]
            minus = [pid for pid, s in entries if s < 0]
            if len(plus) != len(minus):
                raise PlannerError(f"unbalanced signs on the tree {tree.text()}")
            pairs = list(zip(plus, minus))
        if pairs and not is_simple(tree):
            raise PlannerError(
                f"cannot cancel the non-simple tree {tree.text()}: insertions only add "
                f"points and pair cancellation is restricted to simple trees")
        for p, q in pairs:
            move = CancelPair(p, q)
            _step(model, points, next_id, move)
            moves.append(move)
    return tuple(moves)


def replay_certificate(model: TowerModel, cert: tuple) -> TowerModel:
    """Apply every move, checking its preconditions and that it keeps
    the zero-ness of tau; returns the final model with the order raised.

    tau changes by exactly the points a move adds or removes, so each
    move is checked on that delta alone: the three inserted points of
    an IHX move, or the removed pair, must vanish in the order-n group.
    The moves' own preconditions already imply this (an insertion
    checks H and X against the local move, a cancellation the equal
    trees and opposite signs), so ``ZeronessChanged`` is a defensive
    re-check of them, at the cost of one small ``is_zero``.
    Raises MoveError on the first violation, carrying the move's index.
    """
    n, m = model.order, model.m
    if not model.trivially_decorated():
        raise MoveError("Decorated", "replay supports the trivial group alphabet only")
    points, next_id = dict(model.points), model.next_id
    for k, move in enumerate(cert):
        try:
            delta, next_id = _step(model, points, next_id, move)
        except MoveError as exc:
            exc.move = k
            raise
        if not is_zero(TreeSum(delta), n, m):
            raise MoveError("ZeronessChanged", f"move #{k} changed the vanishing of tau", k)
    leftover = [pid for pid, pt in points.items() if pt.tree.order == n]
    if leftover:
        raise MoveError("PointsRemain", f"order-{n} points remain: {leftover}")
    return TowerModel(m, n + 1, points, next_id)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of a replay; on failure ``reason`` is the message, ``code``
    the MoveError reason and ``move`` the index of the failing move
    (None when the failure is not tied to one move)."""

    ok: bool
    reason: str | None = None
    move: int | None = None
    code: str | None = None

    def __bool__(self):
        return self.ok


def verify_certificate(model: TowerModel, cert: tuple) -> VerificationResult:
    """Replay a certificate; failures come back as a result, not an
    exception."""
    try:
        replay_certificate(model, cert)
    except MoveError as exc:
        return VerificationResult(False, str(exc), exc.move, exc.reason)
    except TowerError as exc:
        return VerificationResult(False, str(exc))
    return VerificationResult(True, None)


# ---------------------------------------------------------------- JSON i/o
#
# Each JSON format has one validating loader.  A record is named by its
# place in the document ("model point 3", "certificate move 0
# (ihx_insert)"), and every TowerError names the record and the key.

_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
_REQUIRED = object()


def _parse_json(text, what):
    """``json.loads``; a document nested deeper than the decoder can
    follow is a ``TowerError`` that says so."""
    try:
        return json.loads(text)
    except RecursionError:
        raise TowerError(f"{what}: JSON nested too deeply to process") from None


def _json_object(value, where):
    if not isinstance(value, dict):
        raise TowerError(f"{where} must be a JSON object, not {_JSON_KINDS[type(value)]}")
    return value


def _get(record, key, where, kind, default=_REQUIRED):
    """``record[key]``, checked to be of the JSON kind ``kind``.  An absent
    key gives ``default``, and so does a null when the default is None."""
    value = record.get(key)
    if key not in record or (value is None and default is None):
        if default is _REQUIRED:
            raise TowerError(f"{where} lacks the key {key!r}")
        return default
    if type(value) is not kind:
        raise TowerError(
            f"{where}: {key!r} must be {_JSON_KINDS[kind]}, not {_JSON_KINDS[type(value)]}")
    return value


def _get_sign(record, where):
    sign = _get(record, "sign", where, int)
    if sign not in (1, -1):
        raise TowerError(f"{where}: 'sign' must be +1 or -1, not {sign}")
    return sign


def _get_parsed(record, key, where, parse, default=_REQUIRED):
    """A string field run through ``parse``; its errors name the field."""
    text = _get(record, key, where, str, default)
    if text is None:
        return None
    try:
        return parse(text)
    except ValueError as exc:  # ParseError, TowerError from parse_bracket, or a bad word
        raise TowerError(f"{where}: {key!r}: {exc}") from None


def _get_unrooted(record, key, where):
    """The unrooted tree at ``key`` as ``parse_code`` reads it."""
    code = _get_parsed(record, key, where, parse_code)
    if is_rooted(code):
        raise TowerError(f"{where}: {key!r} is {record[key]!r}, not an unrooted tree")
    return code


def _get_head(doc, where):
    """The (m, order) fields every tower document starts with."""
    m = _get(doc, "m", where, int)
    order = _get(doc, "order", where, int)
    if m < 1:
        raise TowerError(f"{where}: 'm' must be at least 1, not {m}")
    if order < 0:
        raise TowerError(f"{where}: 'order' must be at least 0, not {order}")
    return m, order


def model_to_json(model: TowerModel) -> str:
    doc = {
        "m": model.m,
        "order": model.order,
        "points": [
            {"sign": pt.sign, "tree": pt.tree.text()}
            for pt in model.points.values()
        ],
    }
    return json.dumps(doc, indent=2)


def _model_from_doc(doc) -> TowerModel:
    m, order = _get_head(doc, "model")
    pairs = []
    for k, entry in enumerate(_get(doc, "points", "model", list)):
        where = f"model point {k}"
        entry = _json_object(entry, where)
        sign = _get_sign(entry, where)
        ct, sign = canonicalize(SignedTree(sign, _get_unrooted(entry, "tree", where)))
        top = ct.labels[-1]
        if top > m:
            raise TowerError(f"{where}: 'tree' uses the label {top} outside 1..{m}")
        if ct.order < order:
            raise TowerError(f"{where}: 'tree' has order {ct.order} below the tower order {order}")
        pairs.append((sign, ct))
    return make_model(m, order, pairs)


def raw_to_json(raw: RawTower) -> str:
    doc = {
        "m": raw.m,
        "order": raw.order,
        "disks": [
            {"bracket": to_text(d.bracket), "whisker": d.whisker,
             "orientation": d.orientation}
            for d in raw.disks
        ],
        "points": [
            {"sign": p.sign, "left": to_text(p.left), "right": to_text(p.right),
             "g": p.word,
             "paired_by": to_text(p.paired_by) if p.paired_by is not None else None}
            for p in raw.points
        ],
    }
    return json.dumps(doc, indent=2)


def raw_from_json(text: str) -> RawTower:
    return _raw_from_doc(_json_object(_parse_json(text, "raw tower"), "raw tower"))


def _raw_from_doc(doc) -> RawTower:
    """Shape and types only; ``validate_raw`` checks the tower itself."""
    m, order = _get_head(doc, "raw tower")
    disks = []
    for k, d in enumerate(_get(doc, "disks", "raw tower", list, [])):
        where = f"raw tower disk {k}"
        d = _json_object(d, where)
        disks.append(RawDisk(_get_parsed(d, "bracket", where, parse_bracket),
                             _get_parsed(d, "whisker", where, check_word, ""),
                             _get(d, "orientation", where, int, 1)))
    points = []
    for k, p in enumerate(_get(doc, "points", "raw tower", list, [])):
        where = f"raw tower point {k}"
        p = _json_object(p, where)
        points.append(RawPoint(_get(p, "sign", where, int),
                               _get_parsed(p, "left", where, parse_bracket),
                               _get_parsed(p, "right", where, parse_bracket),
                               _get_parsed(p, "g", where, check_word, ""),
                               _get_parsed(p, "paired_by", where, parse_bracket, None)))
    return RawTower(m, order, tuple(disks), tuple(points))


def load_tower(text: str):
    """Load either schema: a raw tower (has "disks") is extracted."""
    doc = _json_object(_parse_json(text, "tower"), "tower")
    if "disks" in doc:
        return extract_model(_raw_from_doc(doc))
    return _model_from_doc(doc)


def certificate_to_json(cert: tuple) -> str:
    out = []
    for move in cert:
        if isinstance(move, IhxInsert):
            out.append({"move": "ihx_insert", "i": move.tree.text(), "h": to_text(move.h),
                        "x": to_text(move.x), "edge": move.edge, "sign": move.sign})
        elif isinstance(move, CancelPair):
            out.append({"move": "cancel_pair", "p": move.p, "q": move.q})
        else:
            raise ValueError(f"unknown move {move!r}")
    return json.dumps(out, indent=2)


def certificate_from_json(text: str) -> tuple:
    doc = _parse_json(text, "certificate")
    if type(doc) is not list:
        raise TowerError(f"certificate must be a JSON array of moves, not {_JSON_KINDS[type(doc)]}")
    moves = []
    for k, entry in enumerate(doc):
        where = f"certificate move {k}"
        kind = _get(_json_object(entry, where), "move", where, str)
        where = f"{where} ({kind})"
        if kind == "ihx_insert":
            # fold a non-canonical I string into the sign by hand: the
            # insertion sign stays meaningful through H and X even when
            # the I tree is 2-torsion, so canonicalize's torsion sign
            # normalization must not touch it
            ct, csign = canonicalize(SignedTree(1, _get_unrooted(entry, "i", where)))
            h = _get_unrooted(entry, "h", where)
            x = _get_unrooted(entry, "x", where)
            edge = _get(entry, "edge", where, str)
            moves.append(IhxInsert(ct, edge, _get_sign(entry, where) * csign, h, x))
        elif kind == "move_puncture":
            raise TowerError(f"{where}: the move kind 'move_puncture' is retired: "
                             f"punctures change no invariant of a tower")
        elif kind == "cancel_pair":
            moves.append(CancelPair(_get(entry, "p", where, int), _get(entry, "q", where, int)))
        else:
            raise TowerError(f"{where}: unknown move kind {kind!r}")
    return tuple(moves)
