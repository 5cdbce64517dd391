"""Batch command line over the library.

Every verb is a thin adapter: parse arguments, hold its order and label
count to --max-order/--max-labels (the library itself has no cap), call
the library, format the result.  A tree argument may begin with its
sign (``-(2,1)``), and an argument that begins with ``-`` and a digit,
``(`` or ``inner`` is never an option, so ``--out -1.txt`` names a file.
Exit codes: 0 success, 1 input or usage errors, 2 when certification
finds a nonzero obstruction (a result, not an error, so pipelines can
branch on it).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import lie
from .groups import group_table, is_zero, reduce_to_simple
from .trees import (
    BoundsError,
    SignedTree,
    canonicalize,
    canonicalize_rooted,
    is_rooted,
    parse_signed,
    to_text,
)
from .towers import (
    ObstructionNonzero,
    PlannerError,
    TowerError,
    bch_tower,
    certificate_from_json,
    certificate_to_json,
    certify_raise_order,
    glue,
    load_tower,
    model_to_json,
    tau,
    verify_certificate,
)


# a signed tree literal, a negative integer or a path such as -1.txt
_TREE_ARG = re.compile(r"^-\s*(\(|\d|inner)")


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string):
        """Read what ``_TREE_ARG`` matches as an argument (``None``), never as an option."""
        if _TREE_ARG.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(args, text):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_tree_arg(args):
    text = args.tree if args.tree is not None else sys.stdin.read()
    return parse_signed(text.strip())


def _check_bounds(args, order, labels):
    """Refuse an order outside 0..--max-order, then labels outside 1..--max-labels."""
    for what, value, least, bound in (("order", order, 0, args.max_order),
                                      ("label count", labels, 1, args.max_labels)):
        if value < least:
            raise BoundsError(f"{what} must be at least {least}, not {value}")
        if value > bound:
            raise BoundsError(f"{what} {value} exceeds bound {bound}")


def _at_least(least):
    """argparse type of a bound: an integer no smaller than ``least``."""
    def bound(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value
    return bound


def cmd_canon(args):
    sign, code = _read_tree_arg(args)
    if is_rooted(code):
        body, s, torsion = canonicalize_rooted(sign, code)
        text = to_text(body)
    else:
        ct, s = canonicalize(SignedTree(sign, code))
        text, torsion = ct.text(), ct.two_torsion
    if args.json:
        _emit(args, json.dumps(
            {"canonical": text, "sign": s, "two_torsion": torsion}, indent=2))
    else:
        _emit(args, ("+" if s > 0 else "-") + text + (" (2-torsion)" if torsion else ""))
    return 0


def cmd_reduce(args):
    sign, code = _read_tree_arg(args)
    if is_rooted(code):
        raise TowerError("reduce expects an unrooted tree, e.g. inner((1,2),(3,4),)")
    ct, s = canonicalize(SignedTree(sign, code))
    ts = reduce_to_simple(ct).scale(s)
    if args.json:
        _emit(args, json.dumps(
            [{"tree": t.text(), "coeff": c} for t, c in ts.items()], indent=2))
    else:
        _emit(args, ts.text())
    return 0


def cmd_groups(args):
    _check_bounds(args, args.order, args.labels)
    gs, generators, relators = group_table(args.order, args.labels, args.nonrepeating)
    if args.json:
        _emit(args, json.dumps({
            "order": args.order,
            "labels": args.labels,
            "free_rank": gs.free_rank,
            "torsion": list(gs.torsion),
            "generator_count": generators,
            "relator_count": relators,
        }, indent=2))
    else:
        _emit(args, gs.text())
    return 0


def cmd_tau(args):
    model = load_tower(_read(args.file))
    ts = tau(model)
    zero = None
    if model.trivially_decorated():
        try:
            if not ts.is_empty():  # the empty sum is zero whatever the bounds
                _check_bounds(args, model.order, model.m)
            zero = is_zero(ts, model.order, model.m)
        except BoundsError:
            pass
    if args.json:
        _emit(args, json.dumps({
            "m": model.m,
            "order": model.order,
            "tau": [{"tree": t.text(), "coeff": c} for t, c in ts.items()],
            "is_zero": zero,
        }, indent=2))
    else:
        line = f"tau = {ts.text()}"
        if zero is not None:
            line += f"\nzero in the order-{model.order} group: {str(zero).lower()}"
        _emit(args, line)
    return 0


def cmd_certify(args):
    model = load_tower(_read(args.file))
    _check_bounds(args, model.order, model.m)
    try:
        cert = certify_raise_order(model)
    except ObstructionNonzero as exc:
        print(f"obstruction nonzero: {exc.normal_form.text()}")
        return 2
    _emit(args, certificate_to_json(cert))
    return 0


def cmd_verify(args):
    model = load_tower(_read(args.model))
    cert = certificate_from_json(_read(args.certificate))
    _check_bounds(args, model.order, model.m)
    res = verify_certificate(model, cert)
    if args.json:
        _emit(args, json.dumps({"ok": res.ok, "reason": res.reason, "move": res.move,
                                "code": res.code}, indent=2))
    else:
        _emit(args, "OK" if res.ok else f"FAIL: {res.reason}")
    return 0 if res.ok else 1


def cmd_glue(args):
    a = load_tower(_read(args.a))
    b = load_tower(_read(args.b))
    _emit(args, model_to_json(glue(a, b)))
    return 0


def cmd_bch(args):
    sigma = [parse_signed(t) for t in args.trees]
    for _, code in sigma:
        if is_rooted(code):
            raise TowerError(f"{to_text(code)!r} is not an unrooted tree")
    model = bch_tower(sigma, args.order, args.labels)
    _emit(args, model_to_json(model))
    return 0


def cmd_rank(args):
    _check_bounds(args, args.order, args.labels)
    rk = lie.rational_rank_bound(args.order, args.labels)
    if args.json:
        _emit(args, json.dumps({"order": args.order, "labels": args.labels, "rank": rk}))
    else:
        _emit(args, str(rk))
    return 0


def build_parser():
    parser = _Parser(prog="towertrees",
                     description="exact computations in graded tree groups and "
                                 "split Whitney tower models")
    sub = parser.add_subparsers(dest="verb", required=True)

    def flags(p, json, bounds):
        """--out, plus --json and the enumeration bounds where the verb reads them."""
        if json:
            p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", metavar="FILE", help="write output to FILE")
        if bounds:
            p.add_argument("--max-order", type=_at_least(0), default=4, help="enumeration bound")
            p.add_argument("--max-labels", type=_at_least(1), default=6, help="enumeration bound")

    p = sub.add_parser("canon", help="canonical form of a signed tree")
    p.add_argument("tree", nargs="?", help="tree in the grammar (stdin if omitted)")
    flags(p, json=True, bounds=False)
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("reduce", help="rewrite a tree over simple trees")
    p.add_argument("tree", nargs="?")
    flags(p, json=True, bounds=False)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("groups", help="structure of the order-n tree group")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--nonrepeating", action="store_true",
                   help="restrict to pairwise distinct labels")
    flags(p, json=True, bounds=True)
    p.set_defaults(fn=cmd_groups)

    p = sub.add_parser("tau", help="intersection sum of a tower file")
    p.add_argument("file")
    flags(p, json=True, bounds=True)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("certify", help="plan an order-raising certificate")
    p.add_argument("file")
    flags(p, json=False, bounds=True)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("verify", help="replay a certificate against a tower")
    p.add_argument("model")
    p.add_argument("certificate")
    flags(p, json=True, bounds=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("glue", help="glue two towers, reversing the second")
    p.add_argument("a")
    p.add_argument("b")
    flags(p, json=False, bounds=False)
    p.set_defaults(fn=cmd_glue)

    p = sub.add_parser("bch", help="tower realizing the given signed trees")
    p.add_argument("trees", nargs="+", help="signed trees in the grammar")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    flags(p, json=False, bounds=False)
    p.set_defaults(fn=cmd_bch)

    p = sub.add_parser("rank", help="rank of the Lie images of all order-n trees")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--labels", type=int, required=True)
    flags(p, json=True, bounds=True)
    p.set_defaults(fn=cmd_rank)
    return parser


def run(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code or 0
    except (ValueError, PlannerError, OSError) as exc:  # every library input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: tree nested too deeply to process", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
