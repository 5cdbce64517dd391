"""Child process of the towertrees benchmark.

``run.py`` starts one of these at a time, with the generated inputs on
standard input, and reads one JSON object from the last line of its
standard output.  Modes:

    group_table [--trace]        presentations, Smith normal forms and ranks
    order4_zero [--trace]        zero tests, normal forms, spanning check
    tower_certify [--trace]      certify + verify seeded zero models
    refusals                     count planner refusals on order-4 models

With ``--trace`` the public entry points of each library module are
wrapped, from here, in timing spans; nothing inside the library
changes.  A traced worker runs exactly one pass so that its counts
repeat.  An untraced worker runs at least two passes, and more until its
time share is spent, so that run.py can take each operation's fastest
repeat.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import resource
import sys
import time

# (module, attribute, span name).  An attribute missing at the commit
# under test is reported as absent, not as a crash.
ENTRY_POINTS = (
    ("trees", "all_trees", "trees.all_trees"),
    ("groups", "ihx_triples", "groups.ihx_triples"),
    ("groups", "presentation", "groups.presentation"),
    ("groups", "is_zero", "groups.is_zero"),
    ("groups", "normal_form", "groups.normal_form"),
    ("groups", "reduce_to_simple", "groups.reduce_to_simple"),
    ("groups", "relator_solver", "groups.relator_solver"),
    ("intlinalg", "smith_normal_form", "intlinalg.smith_normal_form"),
    ("lie", "rational_rank_bound", "lie.rational_rank_bound"),
    ("towers", "load_tower", "towers.load"),
    ("towers", "certificate_from_json", "towers.load"),
    ("towers", "certificate_to_json", "towers.dump"),
    ("towers", "certify_raise_order", "towers.certify_raise_order"),
    ("towers", "verify_certificate", "towers.verify_certificate"),
    ("towers", "tau", "towers.tau"),
)

# the first is_zero or normal_form at a cell builds the relator lattice
LATTICE_USERS = ("groups.is_zero", "groups.normal_form")


class Tracer:
    """Spans [name, start, end, parent index] kept in memory, plus counts.

    Counts in ``cells`` are properties of one (order, labels) cell and
    are merged across processes by key; counts in ``counts`` are sums.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.counts = {}
        self.cells = {}
        self.absent = []
        self.lattice_cells = set()

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def off(self):
        """Run untraced checks without spans."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def cell(self, name, key, value):
        self.cells.setdefault(name, {})[key] = value

    def install(self):
        """Wrap every entry point and every alias of it in towertrees.*."""
        for modname, attr, name in ENTRY_POINTS:
            mod = importlib.import_module("towertrees." + modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(orig, name)
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "towertrees" or mname.startswith("towertrees.")):
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_name = name
            if name in LATTICE_USERS and len(args) >= 3 and not args[0].is_empty():
                key = (args[1], args[2])
                if key not in self.lattice_cells:
                    self.lattice_cells.add(key)
                    span_name = "groups.lattice_build"
            with self.span(span_name):
                result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result
        return traced

    def _count(self, name, args, result):
        key = ",".join(str(a) for a in args[:3] if isinstance(a, (int, bool)))
        if name == "trees.all_trees":
            self.cell("trees.canonical_trees", key, len(result))
        elif name == "groups.ihx_triples":
            self.cell("groups.ihx_triples", key, len(result))
        elif name == "groups.presentation":
            self.cell("groups.presentation_rows", key, len(result.rows))
            self.cell("groups.presentation_cols", key, result.ncols)
        elif name == "groups.relator_solver":
            self.cell("groups.lattice_rank", key, result[1].rank)
        elif name == "intlinalg.smith_normal_form":
            self.add("intlinalg.snf_rank", result[1])
        elif name == "lie.rational_rank_bound":
            self.add("lie.rank", result)
        elif name == "groups.is_zero":
            self.add("groups.is_zero_calls")
        elif name == "towers.tau":
            self.add("towers.tau_calls")

    def report(self):
        return {"spans": self.spans, "counts": self.counts, "cells": self.cells,
                "absent": self.absent}


class Run:
    """Per-process record of timed operations and their failures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = {"answer": {}, "check": {}}   # kind -> operation id -> [ms]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def timed(self, kind, op_id, fn, *args):
        """Time fn(*args) as a repeat of operation op_id; returns (ok, result).
        An exception is a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span("bench." + kind):
                result = fn(*args)
        except Exception as exc:  # every failure counts toward error_rate
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return False, None
        if kind in self.samples:
            self.samples[kind].setdefault(op_id, []).append((time.perf_counter() - t0) * 1e3)
        return True, result

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def expect(self, *checks):
        """Fail the operation once, on the first (condition, message) not met."""
        for cond, message in checks:
            if not cond:
                self.fail(message)
                return

    def report(self, setup_s=None):
        return {**self.samples, "attempted": self.attempted, "failed": self.failed, "errors": self.errors,
                "setup_s": setup_s, **self.tracer.report()}


def passes(seconds, traced):
    """Yield pass numbers: one when traced, else at least two and more
    until the time share is spent."""
    start = time.perf_counter()
    k = 0
    while k < (1 if traced else 2) or (not traced and time.perf_counter() - start < seconds):
        yield k
        k += 1


def import_library(tracer):
    t0 = time.perf_counter()
    import towertrees.cli  # noqa: F401  the CLI entry module imports every layer
    t1 = time.perf_counter()
    if tracer.enabled:
        tracer.spans.append(["cli.import", t0, t1, -1])
        tracer.install()


# ------------------------------------------------------------------ modes

def mode_group_table(tracer, inp, t_spawn):
    """What the ``groups`` and ``rank`` verbs compute, per cell.  Set-up
    ends once every cell has its first group table, so that enumeration,
    paid once per process and cell, is set-up; a repeat then rebuilds the
    presentation and its Smith normal form, as ``group_structure`` would
    without its cache."""
    import_library(tracer)
    from towertrees.groups import presentation
    from towertrees.intlinalg import smith_normal_form
    from towertrees.lie import rational_rank_bound

    run = Run(tracer)

    def table(cell):
        mat = presentation(cell["order"], cell["labels"])
        factors, rank = smith_normal_form(mat.row_dicts())
        return [mat.ncols - rank, sorted(d for d in factors if d > 1)]

    def rank(cell):
        return rational_rank_bound(cell["order"], cell["labels"])

    cells = inp["cells"]
    for cell in cells:
        run.timed("setup", None, table, cell)
    setup_s = time.perf_counter() - t_spawn
    for _ in passes(inp["seconds"], tracer.enabled):
        for cell in cells:
            free, torsion = cell["expected"]
            ok, result = run.timed("answer", cell["id"], table, cell)
            if ok:
                run.expect((result == [free, torsion],
                            f"groups {cell['id']}: got {result}, expected {[free, torsion]}"))
            ok, result = run.timed("check", cell["id"], rank, cell)
            if ok:
                run.expect((result == free, f"rank {cell['id']}: got {result}, expected {free}"))
    return run.report(setup_s)


def mode_order4_zero(tracer, inp, t_spawn):
    import_library(tracer)
    from towertrees import SignedTree, TreeSum, canonicalize, parse_tree
    from towertrees.groups import is_zero, normal_form, reduce_to_simple
    from towertrees.trees import all_trees, is_simple

    n, m = inp["order"], inp["labels"]
    run = Run(tracer)

    def tree_sum(terms):
        out = []
        for coeff, text in terms:
            ct, sign = canonicalize(SignedTree(coeff, parse_tree(text)))
            out.append((ct, sign))
        return TreeSum(out)

    def answer(q):
        ts = tree_sum(q["terms"])
        return is_zero(ts, n, m) if q["kind"] == "zero" else normal_form(ts, n, m)

    def check_answer(q, result):
        with tracer.off():
            ts = tree_sum(q["terms"])
            zero = result if q["kind"] == "zero" else is_zero(ts, n, m)
            nf = result if q["kind"] == "nf" else normal_form(ts, n, m)
            if q["perturb"] is None:
                expected = TreeSum()
            else:
                expected = normal_form(tree_sum([[1, q["perturb"]]]), n, m)
            run.expect(
                (zero == nf.is_empty(), f"is_zero and normal_form disagree on query {q['id']}"),
                (nf == expected, f"query {q['id']}: a known-zero sum changed the class"))

    def span_check(ct):
        reduced = reduce_to_simple(ct)
        return reduced, is_zero(TreeSum([(ct, 1)]) - reduced, n, m)

    queries = inp["queries"]
    ok, first = run.timed("setup", None, answer, queries[0])
    setup_s = time.perf_counter() - t_spawn
    if ok:
        check_answer(queries[0], first)
    trees = all_trees(n, m)
    for _ in passes(inp["seconds"], tracer.enabled):
        for q in queries:
            ok, result = run.timed("answer", q["id"], answer, q)
            if ok:
                check_answer(q, result)
        for i, ct in enumerate(trees):
            ok, result = run.timed("check", i, span_check, ct)
            if ok:
                reduced, zero = result
                run.expect((zero and all(is_simple(t) for t, _ in reduced.items()),
                            f"spanning check failed on {ct.text()}"))
    return run.report(setup_s)


def mode_tower_certify(tracer, inp, t_spawn):
    import_library(tracer)
    from towertrees.towers import (certificate_from_json, certificate_to_json,
                                   certify_raise_order, load_tower, verify_certificate)

    run = Run(tracer)

    def certify(model_json):
        return certificate_to_json(certify_raise_order(load_tower(model_json)))

    def verify(model_json, cert_json):
        return verify_certificate(load_tower(model_json), certificate_from_json(cert_json))

    def check(model_json, cert_json, result):
        # every order-n point is cancelled: the generated points plus three
        # per insertion must pair off exactly
        kinds = [move["move"] for move in json.loads(cert_json)]
        points = len(json.loads(model_json)["points"])
        run.expect(
            (result.ok, f"certificate rejected: {result.reason}"),
            (points + 3 * kinds.count("ihx_insert") == 2 * kinds.count("cancel_pair"),
             "order-n points remain after the certificate"))
        return kinds, points

    models = inp["models"]
    ok, _ = run.timed("setup", None, certify, models[0]["json"])
    setup_s = time.perf_counter() - t_spawn
    for _ in passes(inp["seconds"], tracer.enabled):
        for model in models:
            model_json = model["json"]
            ok, cert_json = run.timed("answer", model["id"], certify, model_json)
            if not ok:
                continue
            ok, result = run.timed("check", model["id"], verify, model_json, cert_json)
            if ok:
                kinds, points = check(model_json, cert_json, result)
                tracer.add("towers.points", points)
                tracer.add("towers.moves_ihx_insert", kinds.count("ihx_insert"))
                tracer.add("towers.moves_cancel_pair", kinds.count("cancel_pair"))
    return run.report(setup_s)


def mode_refusals(tracer, inp, _t_spawn):
    """A PlannerError on a zero model is the documented limit of the
    move calculus; it is counted, not failed.  Anything else fails."""
    import_library(tracer)
    from towertrees.towers import (PlannerError, certify_raise_order, load_tower,
                                   verify_certificate)

    run = Run(tracer)
    refusals = 0
    for model in inp["models"]:
        model_json = model["json"]
        run.attempted += 1
        try:
            model = load_tower(model_json)
            cert = certify_raise_order(model)
        except PlannerError:
            refusals += 1
            continue
        except Exception as exc:  # a zero model must certify or be refused
            run.fail(f"refusal slice: {type(exc).__name__}: {exc}")
            continue
        run.expect((verify_certificate(model, cert).ok, "refusal slice: certificate rejected"))
    report = run.report()
    report["counts"] = {"towers.plan_attempts": len(inp["models"]),
                        "towers.plan_refusals": refusals}
    return report


def main(argv):
    mode, rest = argv[0], argv[1:]
    tracer = Tracer("--trace" in rest)
    t_spawn = float(rest[rest.index("--t-spawn") + 1])
    inp = json.loads(sys.stdin.read())
    fn = {"group_table": mode_group_table, "order4_zero": mode_order4_zero,
          "tower_certify": mode_tower_certify, "refusals": mode_refusals}[mode]
    result = fn(tracer, inp, t_spawn)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
