"""Split Whitney tower models and the certified move calculus.

A tower model is a multiset of signed trees over m order-0 surfaces:
one point per unpaired intersection, each stored as a sign and a
canonical tree.  The moves never touch geometry, only its combinatorial
shadow; the geometric calculus needs only IHX insertions and pair
cancellations:

* ``ihx_insert``        adds the three points +I, -H, +X of a local
                        IHX move (any sign), changing the hat-level sum
                        by a relator and the group-level class not at all,
* ``cancel_simple_pair`` removes two points carrying the same simple
                        tree with opposite signs.

A model keys its points by id.  One in-place step applies every move
and returns its change of tau: the planner and replay copy the points
once, and each public move is a copy, one step and a new model.  Each
move does only its own work: an insertion canonicalizes its H and X
companions once each, and a cancellation reads simplicity off the
canonical code.
``certify_raise_order`` plans a replayable certificate that empties the
order-n layer whenever the intersection sum vanishes in the order-n
group, and ``verify_certificate`` replays one, checking every move on
its delta (the points it adds or removes), never on the whole
intersection sum.  The JSON loaders validate their input and name the
offending record and key in a ``TowerError``; a model point's
``puncture`` key, a marked edge that no invariant reads, is accepted
and ignored, and a ``move_puncture`` certificate record is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .groups import _relator_terms, is_zero, normal_form, relator_combination
from .sums import TreeSum
from .trees import (
    CanonicalTree,
    DecoratedTree,
    Leaf,
    Node,
    RootedTree,
    SignedTree,
    canonicalize,
    check_bounds,
    decode_code,
    ihx_at,
    interior_edge_paths,
    is_simple,
    is_trivially_decorated,
    parse_tree,
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
    """Non-associative bracketing over 1..m, e.g. "((1,2),3)"."""
    tree = parse_tree(text)
    return _tree_to_bracket(tree, text)


def _tree_to_bracket(t, text):
    if not isinstance(t, (Leaf, Node)):
        raise TowerError(f"{text!r} is not a bracket")
    if t.word:
        raise TowerError(f"bracket {text!r} must not carry decorations")
    if isinstance(t, Leaf):
        return t.label
    return (_tree_to_bracket(t.left, text), _tree_to_bracket(t.right, text))


def bracket_text(b):
    if isinstance(b, int):
        return str(b)
    return f"({bracket_text(b[0])},{bracket_text(b[1])})"


def bracket_order(b):
    if isinstance(b, int):
        return 0
    return 1 + bracket_order(b[0]) + bracket_order(b[1])


def bracket_labels(b):
    if isinstance(b, int):
        return [b]
    return bracket_labels(b[0]) + bracket_labels(b[1])


def tree_of_bracket(b) -> RootedTree:
    """Rooted tree of a bracketing; vertex orientations follow the
    bracket order, so order(tree) = order(bracket)."""
    if isinstance(b, int):
        return Leaf(b)
    return Node(tree_of_bracket(b[0]), tree_of_bracket(b[1]))


def sub_brackets(b):
    yield b
    if not isinstance(b, int):
        yield from sub_brackets(b[0])
        yield from sub_brackets(b[1])


# --------------------------------------------------------------- raw towers

@dataclass(frozen=True)
class RawDisk:
    bracket: tuple | int
    whisker: str = ""
    orientation: int = 1


@dataclass(frozen=True)
class RawPoint:
    sign: int
    left: tuple | int
    right: tuple | int
    word: str = ""
    paired_by: tuple | int | None = None

    @property
    def order(self):
        return bracket_order(self.left) + bracket_order(self.right)


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
        for lab in bracket_labels(d.bracket):
            if not 1 <= lab <= raw.m:
                raise TowerError(f"disk {bracket_text(d.bracket)}: label {lab} out of 1..{raw.m}")
        if d.bracket in disk_by_bracket:
            raise TowerError(f"duplicate disk {bracket_text(d.bracket)}")
        if d.orientation not in (1, -1):
            raise TowerError(f"disk {bracket_text(d.bracket)}: orientation must be +-1")
        check_word(d.whisker)
        disk_by_bracket[d.bracket] = d

    def require_present(b, what):
        if isinstance(b, int):
            if not 1 <= b <= raw.m:
                raise TowerError(f"{what}: label {b} out of 1..{raw.m}")
            return
        if b not in disk_by_bracket:
            raise TowerError(f"{what}: surface {bracket_text(b)} has no disk entry")

    for d in raw.disks:
        if isinstance(d.bracket, int):
            continue
        i_br, j_br = d.bracket
        require_present(i_br, f"disk {bracket_text(d.bracket)}")
        require_present(j_br, f"disk {bracket_text(d.bracket)}")

    pairs: dict = {b: [] for b in disk_by_bracket if not isinstance(b, int)}
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
            raise TowerError(f"{what}: pairing disk {bracket_text(p.paired_by)} not present")
        if {p.left, p.right} != set(p.paired_by):
            raise TowerError(
                f"{what}: paired by {bracket_text(p.paired_by)} but lies on "
                f"{bracket_text(p.left)} and {bracket_text(p.right)}")
        pairs[p.paired_by].append(p)

    for b, pts in pairs.items():
        if len(pts) != 2:
            raise TowerError(f"disk {bracket_text(b)} pairs {len(pts)} points, expected 2")
        if pts[0].sign + pts[1].sign != 0:
            raise TowerError(f"disk {bracket_text(b)} pairs two points of equal sign")
        if pts[0].order != pts[1].order:
            raise TowerError(f"disk {bracket_text(b)} pairs points of different order")

    for k, p in enumerate(raw.points):
        if p.paired_by is None and p.order < raw.order:
            raise TowerError(
                f"point #{k} is unpaired of order {p.order} < declared order {raw.order}")
    return unpaired


def extract_model(raw: RawTower):
    """Split-tower model of a raw tower: one signed tree per unpaired
    point, with whiskers and orientations consumed by canonicalization.

    Edge words telescope through the disk whiskers; the fused edge of
    the point p on W_I and W_J carries w_I^-1 g_p w_J, and flipping a
    disk orientation swaps the child order at its vertex and negates
    the sign of any point it supports.
    """
    unpaired = validate_raw(raw)
    whisker = {d.bracket: d.whisker for d in raw.disks}
    orient = {d.bracket: d.orientation for d in raw.disks}
    for i in range(1, raw.m + 1):
        whisker.setdefault(i, "")
        orient.setdefault(i, 1)

    def build(b, parent):
        word = wmul(winv(whisker[parent]), whisker[b]) if parent is not None else ""
        if isinstance(b, int):
            return Leaf(b, word)
        left = build(b[0], b)
        right = build(b[1], b)
        if orient[b] * orient.get(b[0], 1) * orient.get(b[1], 1) == -1:
            left, right = right, left
        return Node(left, right, word)

    points = []
    for p in unpaired:
        fused = wmul(winv(whisker[p.left]), p.word, whisker[p.right])
        tree = DecoratedTree(build(p.left, None), build(p.right, None), fused)
        sign = p.sign * orient[p.left] * orient[p.right]
        ct, csign = canonicalize(SignedTree(sign, tree))
        points.append(TowerPoint(csign, ct))
    order = min(pt.tree.order for pt in points) if points else raw.order
    return _numbered(raw.m, order, points)


# --------------------------------------------------------------- the model

@dataclass(frozen=True, slots=True)
class TowerPoint:
    """One unpaired intersection point: its sign and canonical tree."""

    sign: int
    tree: CanonicalTree


@dataclass(frozen=True)
class TowerModel:
    """Split-tower model: its points keyed by id, in insertion order.
    The public moves return a new model and leave this one as it is."""

    m: int
    order: int
    points: dict[int, TowerPoint]
    next_id: int = 0

    def __post_init__(self):
        for pid, pt in self.points.items():
            if pt.tree.order < self.order:
                raise TowerError(
                    f"point {pid} has order {pt.tree.order} below the tower order {self.order}")

    def trivially_decorated(self):
        return all(is_trivially_decorated(pt.tree) for pt in self.points.values())


def _numbered(m, order, points):
    """Model whose k-th point gets the id k."""
    points = dict(enumerate(points))
    return TowerModel(m, order, points, len(points))


def make_model(m, order, signed_trees):
    """Model from (sign, CanonicalTree) pairs; the k-th pair becomes
    point k."""
    return _numbered(m, order, [TowerPoint(1 if ct.two_torsion else sign, ct)
                                for sign, ct in signed_trees])


def bch_tower(sigma, order, m):
    """Model realizing a list of signed trees as its intersection sum."""
    pts = []
    for st in sigma:
        ct, sign = canonicalize(st if isinstance(st, SignedTree) else SignedTree(*st))
        if ct.order != order:
            raise TowerError(f"tree {ct.text()} has order {ct.order}, expected {order}")
        if ct.labels[0] < 1 or ct.labels[-1] > m:
            raise TowerError(f"tree {ct.text()} uses labels outside 1..{m}")
        pts.append(TowerPoint(sign, ct))
    return _numbered(m, order, pts)


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
    flipped = [TowerPoint(1 if pt.tree.two_torsion else -pt.sign, pt.tree)
               for pt in b.points.values()]
    return _numbered(a.m, a.order, [*a.points.values(), *flipped])


# -------------------------------------------------------------------- moves

@dataclass(frozen=True)
class IhxInsert:
    tree: CanonicalTree
    edge: str
    sign: int
    h: DecoratedTree
    x: DecoratedTree


@dataclass(frozen=True)
class CancelPair:
    p: int
    q: int


@dataclass(frozen=True)
class MoveCertificate:
    moves: tuple


def make_ihx_insert(tree: CanonicalTree, edge: str, sign: int = 1):
    h, x = ihx_at(tree, edge)
    return IhxInsert(tree, edge, sign, decode_code(h), decode_code(x))


def ihx_insert(model: TowerModel, tree, edge, sign=1) -> TowerModel:
    """Add the three points of the local IHX move at an interior edge:
    +I, -H, +X, all scaled by ``sign``.  The group-level zero-ness of
    tau is unchanged; the hat-level sum changes by the relator.  H and
    X are computed once, by the checked insertion itself."""
    if isinstance(tree, str):
        tree = parse_tree(tree)
    if isinstance(tree, DecoratedTree):
        ct, csign = canonicalize(SignedTree(1, tree))
        tree, sign = ct, sign * csign
    if sign not in (1, -1):
        raise MoveError("BadSign", "insertion sign must be +-1")
    points = dict(model.points)
    _, next_id = _add_points(points, model.next_id, _ihx_points(model, tree, edge, sign)[2])
    return TowerModel(model.m, model.order, points, next_id)


def cancel_simple_pair(model: TowerModel, p, q) -> TowerModel:
    """Remove an algebraically cancelling pair of simple points: same
    canonical tree, opposite signs (a 2-torsion tree admits either
    sign), both at the tower's own order."""
    return apply_move(model, CancelPair(p, q))


def apply_move(model, move) -> TowerModel:
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
    layout tree of the code recomputed here."""
    return (t == decode_code(code)
            or canonicalize(SignedTree(1, t)) == canonicalize(SignedTree(1, code)))


def _add_points(points, next_id, added):
    points.update(zip(range(next_id, next_id + len(added)), added))
    return [(pt.tree, pt.sign) for pt in added], next_id + len(added)


def _ihx_points(model, ct, edge, sign):
    """The layout codes of H and X of a checked insertion at ``edge`` of
    ``ct``, and its points +I, -H, +X scaled by ``sign``."""
    if ct.order != model.order:
        raise MoveError(
            "WrongOrder", f"tree has order {ct.order}, tower has order {model.order}")
    if ct.labels[0] < 1 or ct.labels[-1] > model.m:
        raise MoveError("BadLabels", f"tree {ct.text()} uses labels outside 1..{model.m}")
    if edge not in interior_edge_paths(ct):
        raise MoveError("NotInterior", f"{edge!r} is not an interior edge of {ct.text()}")
    h, x = ihx_at(ct, edge)
    return h, x, [TowerPoint(1 if t.two_torsion else c * sign, t)
                  for t, c in _relator_terms(ct, h, x)]


def _cancelling_pair(model, points, p, q):
    """The points p and q, checked to form a cancelling simple pair."""
    if p == q:
        raise MoveError("SamePoint", "a pair needs two distinct points")
    for pid in (p, q):
        if pid not in points:
            raise MoveError("UnknownPoint", f"no point with id {pid}")
    pa, pb = points[p], points[q]
    for pid, pt in ((p, pa), (q, pb)):
        if pt.tree.order != model.order:
            raise MoveError("WrongOrder", f"point {pid} has order {pt.tree.order}, "
                                          f"tower has order {model.order}")
        if not is_simple(pt.tree):
            raise MoveError("NotSimple", f"point {pid} carries the non-simple tree {pt.tree.text()}")
    if pa.tree != pb.tree:
        raise MoveError("TreesDiffer", f"points {p} and {q} carry different trees")
    if not pa.tree.two_torsion and pa.sign + pb.sign != 0:
        raise MoveError("SameSign", f"points {p} and {q} have equal signs")
    return pa, pb


# ------------------------------------------------------ certify and verify

def certify_raise_order(model: TowerModel, bounds=None) -> MoveCertificate:
    """Plan a certificate emptying the order-n layer.

    Requires the trivial group alphabet and a vanishing obstruction;
    raises ObstructionNonzero (with the normal form) otherwise.
    ``bounds`` limits the model's order and labels, as in ``is_zero``.
    The plan expresses tau as an integer combination of IHX relators,
    inserts the negated combination so that the points pair off
    algebraically, then cancels the pairs.
    """
    n, m = model.order, model.m
    check_bounds(n, m, bounds)
    if not model.trivially_decorated():
        raise PlannerError("certification supports the trivial group alphabet only")
    ts = tau(model)
    if not is_zero(ts, n, m, bounds):
        raise ObstructionNonzero(normal_form(ts, n, m, bounds))

    moves = []
    points, next_id = dict(model.points), model.next_id
    combo = relator_combination(ts, n, m, bounds)
    if combo is None:  # contradicts is_zero; defensive
        raise PlannerError("relator solve failed on a zero class")
    for ct, edge, coeff in combo:
        sign = -1 if coeff > 0 else 1
        for _ in range(abs(coeff)):
            # the one ihx_at of the checked insertion also gives the move's H and X
            h, x, added = _ihx_points(model, ct, edge, sign)
            _, next_id = _add_points(points, next_id, added)
            moves.append(IhxInsert(ct, edge, sign, decode_code(h), decode_code(x)))

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
    return MoveCertificate(tuple(moves))


def replay_certificate(model: TowerModel, cert: MoveCertificate, bounds=None) -> TowerModel:
    """Apply every move, checking its preconditions and that it keeps
    the zero-ness of tau; returns the final model with the order raised.

    tau changes by exactly the points a move adds or removes, so each
    move is checked on that delta alone: the three inserted points of
    an IHX move, or the removed pair, must vanish in the order-n group.
    The moves' own preconditions already imply this (an insertion
    checks H and X against the local move, a cancellation the equal
    trees and opposite signs), so ``ZeronessChanged`` is a defensive
    re-check of them, at the cost of one small ``is_zero``.  ``bounds``
    limits the model's order and labels, checked once before any move.
    Raises MoveError on the first violation, carrying the move's index.
    """
    n, m = model.order, model.m
    check_bounds(n, m, bounds)
    if not model.trivially_decorated():
        raise MoveError("Decorated", "replay supports the trivial group alphabet only")
    points, next_id = dict(model.points), model.next_id
    for k, move in enumerate(cert.moves):
        try:
            delta, next_id = _step(model, points, next_id, move)
        except MoveError as exc:
            exc.move = k
            raise
        if not is_zero(TreeSum(delta), n, m, bounds):
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


def verify_certificate(model: TowerModel, cert: MoveCertificate,
                       bounds=None) -> VerificationResult:
    """Replay a certificate; failures come back as a result, not an
    exception.  ``bounds`` limits the zero tests, as in ``is_zero``."""
    try:
        replay_certificate(model, cert, bounds)
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
    except ValueError as exc:  # ParseError, or TowerError from parse_bracket
        raise TowerError(f"{where}: {key!r}: {exc}") from None


def _get_unrooted(record, key, where):
    tree = _get_parsed(record, key, where, parse_tree)
    if not isinstance(tree, DecoratedTree):
        raise TowerError(f"{where}: {key!r} is {record[key]!r}, not an unrooted tree")
    return tree


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


def model_from_json(text: str) -> TowerModel:
    return _model_from_doc(_json_object(_parse_json(text, "model"), "model"))


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
        pairs.append((sign, ct))
    return make_model(m, order, pairs)


def raw_to_json(raw: RawTower) -> str:
    doc = {
        "m": raw.m,
        "order": raw.order,
        "disks": [
            {"bracket": bracket_text(d.bracket), "whisker": d.whisker,
             "orientation": d.orientation}
            for d in raw.disks
        ],
        "points": [
            {"sign": p.sign, "left": bracket_text(p.left), "right": bracket_text(p.right),
             "g": p.word,
             "paired_by": bracket_text(p.paired_by) if p.paired_by is not None else None}
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
                             _get(d, "whisker", where, str, ""),
                             _get(d, "orientation", where, int, 1)))
    points = []
    for k, p in enumerate(_get(doc, "points", "raw tower", list, [])):
        where = f"raw tower point {k}"
        p = _json_object(p, where)
        points.append(RawPoint(_get(p, "sign", where, int),
                               _get_parsed(p, "left", where, parse_bracket),
                               _get_parsed(p, "right", where, parse_bracket),
                               _get(p, "g", where, str, ""),
                               _get_parsed(p, "paired_by", where, parse_bracket, None)))
    return RawTower(m, order, tuple(disks), tuple(points))


def load_tower(text: str):
    """Load either schema: a raw tower (has "disks") is extracted."""
    doc = _json_object(_parse_json(text, "tower"), "tower")
    if "disks" in doc:
        return extract_model(_raw_from_doc(doc))
    return _model_from_doc(doc)


def certificate_to_json(cert: MoveCertificate) -> str:
    out = []
    for move in cert.moves:
        if isinstance(move, IhxInsert):
            out.append({"move": "ihx_insert", "i": move.tree.text(), "h": to_text(move.h),
                        "x": to_text(move.x), "edge": move.edge, "sign": move.sign})
        elif isinstance(move, CancelPair):
            out.append({"move": "cancel_pair", "p": move.p, "q": move.q})
        else:
            raise ValueError(f"unknown move {move!r}")
    return json.dumps(out, indent=2)


def certificate_from_json(text: str) -> MoveCertificate:
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
    return MoveCertificate(tuple(moves))


# ----------------------------------------------------------- random towers

def random_raw_tower(rng, m_range=(2, 4), max_bracket_order=2, unpaired_range=(1, 3),
                     alphabet="ab"):
    """A random well-formed raw tower, for randomized suites and demos."""
    m = rng.randint(*m_range)

    def random_word(maxlen=2):
        letters = []
        for _ in range(rng.randint(0, maxlen)):
            ch = rng.choice(alphabet)
            letters.append(ch if rng.random() < 0.5 else ch.upper())
        return wmul(*letters)

    def random_bracket(max_order):
        if max_order == 0 or rng.random() < 0.4:
            return rng.randint(1, m)
        k = rng.randint(0, max_order - 1)
        return (random_bracket(k), random_bracket(max_order - 1 - k))

    needed = {}
    tops = []
    for _ in range(rng.randint(1, 3)):
        b = random_bracket(max_bracket_order)
        tops.append(b)
        for sb in sub_brackets(b):
            if not isinstance(sb, int):
                needed[sb] = True

    disks = [RawDisk(b, random_word(), rng.choice((1, -1))) for b in needed]
    if rng.random() < 0.5:  # optional order-0 surface data
        disks.append(RawDisk(rng.randint(1, m), random_word(), rng.choice((1, -1))))

    points = []
    for b in needed:
        s = rng.choice((1, -1))
        points.append(RawPoint(s, b[0], b[1], random_word(), b))
        points.append(RawPoint(-s, b[0], b[1], random_word(), b))

    surfaces = list(range(1, m + 1)) + list(needed)
    unpaired = []
    for _ in range(rng.randint(*unpaired_range)):
        left = rng.choice(tops + surfaces)
        right = rng.choice(surfaces)
        unpaired.append(RawPoint(rng.choice((1, -1)), left, right, random_word()))
    points.extend(unpaired)

    order = min(bracket_order(p.left) + bracket_order(p.right) for p in unpaired)
    return RawTower(m, order, tuple(disks), tuple(points))
