"""Benchmark of towertrees: group tables, order-4 zero tests, and tower
certify/verify.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Inputs are generated here from the seed, before any timing, without the
library, and their SHA-256 digest is printed with every result.  Child
processes (``worker.py``) run one at a time.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Each run is
also written to ``perfbench/runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

# group_table cells (order, labels): small enough that one presentation
# and Smith normal form takes milliseconds
CELLS = ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2))
ZERO_CELL = (4, 4)                 # order4_zero
TOWER_CELL = (3, 4)                # tower_certify
REFUSAL_CELL = (4, 3)              # planner refusal slice, traced runs only
QUERIES = 480       # 40 of each (kind, Jacobi triples, perturbed) class
MODELS = 100
MODEL_INSERTIONS = (2, 12)   # small models, so that one certify or verify takes
                             # milliseconds and a fastest repeat escapes contention
REFUSAL_MODELS = 40
WORKERS = 3          # fresh processes per run; setup_s is their median
DEADLINE_S = 170     # every child is killed by then, so a run ends within 180 s

E2E = (("setup_s", "s"), ("answer_p50_ms", "ms"), ("answer_p90_ms", "ms"),
       ("check_p50_ms", "ms"), ("check_p90_ms", "ms"), ("peak_rss_mb", "MB"))
SPAN_METRICS = (
    "trees.all_trees", "groups.presentation", "groups.ihx_triples", "groups.lattice_build",
    "groups.is_zero", "groups.normal_form", "groups.reduce_to_simple", "groups.relator_solver",
    "intlinalg.smith_normal_form", "towers.certify_raise_order", "towers.verify_certificate",
    "towers.tau", "towers.load", "towers.dump", "lie.rational_rank_bound", "cli.import")
CELL_COUNTS = ("trees.canonical_trees", "groups.presentation_rows", "groups.presentation_cols",
               "groups.ihx_triples", "groups.lattice_rank")
SUM_COUNTS = ("groups.is_zero_calls", "intlinalg.snf_rank", "towers.tau_calls",
              "towers.moves_ihx_insert", "towers.moves_cancel_pair", "towers.points",
              "towers.plan_attempts", "towers.plan_refusals", "lie.rank")


class ChildFailed(Exception):
    pass


# --------------------------------------------------------------- inputs

def bracket(rng, order, m):
    """Random rooted bracket text with `order` internal vertices."""
    if order == 0:
        return str(rng.randint(1, m))
    k = rng.randint(0, order - 1)
    return f"({bracket(rng, k, m)},{bracket(rng, order - 1 - k, m)})"


def jacobi(rng, order, m):
    """Three unrooted trees ((a,b),c)-d, ((b,c),a)-d, ((c,a),b)-d whose sum
    is an IHX relator (Jacobi identity), hence zero in the order-n group."""
    sizes = [0, 0, 0, 0]
    for _ in range(order - 2):
        sizes[rng.randrange(4)] += 1
    a, b, c, d = (bracket(rng, s, m) for s in sizes)
    return [f"inner((({a},{b}),{c}),{d},)", f"inner((({b},{c}),{a}),{d},)",
            f"inner((({c},{a}),{b}),{d},)"]


def zero_model(rng, order, m, insertions):
    points = []
    for _ in range(insertions):
        sign = rng.choice((1, -1))
        points += [{"sign": sign, "tree": t, "puncture": ""} for t in jacobi(rng, order, m)]
    rng.shuffle(points)
    return json.dumps({"m": m, "order": order, "points": points})


def generate(workload, seed):
    rng = random.Random(f"towertrees-{workload}-{seed}")
    if workload == "group_table":
        cells = [{"id": f"{n},{m}", "order": n, "labels": m, "expected": expected_group(n, m)}
                 for n, m in CELLS]
        rng.shuffle(cells)
        return {"cells": cells}
    if workload == "order4_zero":
        n, m = ZERO_CELL
        queries = []
        # the same mix of query classes under every seed; only the trees vary
        for i in range(QUERIES):
            terms = []
            for _ in range(1 + i % 3):
                coeff = rng.choice((1, -1)) * rng.randint(1, 3)
                terms += [[coeff, t] for t in jacobi(rng, n, m)]
            perturb = None
            if i // 3 % 2:
                k = rng.randint(0, n)
                perturb = f"inner({bracket(rng, k, m)},{bracket(rng, n - k, m)},)"
                terms.append([1, perturb])
            rng.shuffle(terms)
            queries.append({"id": i, "kind": ("zero", "nf")[i // 6 % 2], "terms": terms,
                            "perturb": perturb})
        rng.shuffle(queries)
        return {"order": n, "labels": m, "queries": queries}
    n, m = TOWER_CELL
    # the same spread of sizes under every seed
    lo, hi = MODEL_INSERTIONS
    sizes = [lo + (hi - lo) * i // (MODELS - 1) for i in range(MODELS)]
    rng.shuffle(sizes)
    models = [{"id": i, "json": zero_model(rng, n, m, k)} for i, k in enumerate(sizes)]
    refusals = [{"id": i, "json": zero_model(rng, *REFUSAL_CELL, rng.randint(1, 4))}
                for i in range(REFUSAL_MODELS)]
    return {"models": models, "refusal_models": refusals}


# ------------------------------------------------------- closed forms

def witt(m, k):
    """Dimension of the degree-k part of the free Lie algebra on m generators."""
    def mobius(d):
        result, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if d > 1 else result
    return sum(mobius(d) * m ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def expected_group(n, m):
    """Closed form of the order-n tree group on m labels: free rank
    m*L_{n+1} - L_{n+2} (Conant-Schneiderman-Teichner), and (Z/2)^{m*L_{(n+1)/2}}
    at odd n, none at even n."""
    free = m * witt(m, n + 1) - witt(m, n + 2)
    torsion = [2] * (m * witt(m, (n + 1) // 2)) if n % 2 else []
    return free, torsion


# ------------------------------------------------------------- children

class Session:
    """Children started by one run, one at a time, all under one deadline."""

    def __init__(self):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def worker(self, mode, inp, trace=False):
        """Run worker.py to completion on ``inp``; returns its report."""
        t0 = time.perf_counter()
        argv = [sys.executable, str(HERE / "worker.py"), mode, "--t-spawn", repr(t0)]
        argv += ["--trace"] if trace else []
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(json.dumps(inp), timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"worker {mode}: killed at the run deadline")
        if proc.returncode != 0:
            raise ChildFailed(f"worker {mode} exited {proc.returncode}: {err.strip()[-300:]}")
        return json.loads(out.strip().splitlines()[-1])


def pct(samples, p):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def e2e_metrics(setups, answer, check, rss_kb, pick=min):
    """The latency of an operation is its fastest repeat (``pick=min``);
    percentiles are over operations.  Every worker repeats every
    operation, so the repeats are spread over the whole run, and the
    fastest one escapes the host's contention, which comes and goes."""
    answer_ms = [pick(v) for v in answer.values()]
    check_ms = [pick(v) for v in check.values()]
    return {"setup_s": statistics.median(setups),
            "answer_p50_ms": pct(answer_ms, 50), "answer_p90_ms": pct(answer_ms, 90),
            "check_p50_ms": pct(check_ms, 50), "check_p90_ms": pct(check_ms, 90),
            "peak_rss_mb": rss_kb / 1024}


def first(repeats):
    return repeats[0]


def merge(into, samples):
    for op_id, repeats in samples.items():
        into.setdefault(op_id, []).extend(repeats)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reports = []   # worker reports of the traced phase

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def add_report(self, rep):
        self.attempted += rep.get("attempted", 0)
        self.failed += rep.get("failed", 0)
        self.errors += rep.get("errors", [])[:10 - len(self.errors)]


# ------------------------------------------------------------ workloads

def in_process(mode, exclude=()):
    """A workload of WORKERS fresh workers, each set up then measured on
    all the inputs for its share of the seconds."""
    def workload(sess, inp, seconds, trace, tally):
        setups, answer, check, rss = [], {}, {}, 0
        share = {k: v for k, v in inp.items() if k not in exclude}
        share["seconds"] = seconds / WORKERS
        for _ in range(WORKERS):
            rep = sess.worker(mode, share, trace=trace)
            tally.add_report(rep)
            if trace:
                tally.reports.append(rep)
            setups.append(rep["setup_s"])
            merge(answer, rep["answer"])
            merge(check, rep["check"])
            rss = max(rss, rep["rss_kb"])
        return setups, answer, check, rss
    return workload


WORKLOADS = {
    "group_table": in_process("group_table"),
    "order4_zero": in_process("order4_zero"),
    "tower_certify": in_process("tower_certify", ("refusal_models",)),
}


# ---------------------------------------------------------------- trace

def per_layer(reports, untraced, traced):
    """Self seconds per span name, counts, absent entry points, and the
    tracing overhead (traced minus untraced) per end-to-end metric."""
    self_s = dict.fromkeys(SPAN_METRICS, 0.0)
    counts = dict.fromkeys(SUM_COUNTS, 0)
    cells = {name: {} for name in CELL_COUNTS}
    absent, nspans = set(), 0
    for rep in reports:
        spans = rep.get("spans", [])
        nspans += len(spans)
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _), inner in zip(spans, child):
            if name in self_s:
                self_s[name] += (t1 - t0) - inner
        for name, n in rep.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + n
        for name, by_key in rep.get("cells", {}).items():
            cells.setdefault(name, {}).update(by_key)
        absent.update(rep.get("absent", []))
    metrics = {f"{name}_s": (v, "s") for name, v in self_s.items()}
    metrics.update({name: (v, "count") for name, v in counts.items()})
    metrics.update({name: (sum(by_key.values()), "count") for name, by_key in cells.items()})
    metrics["trace.spans"] = (nspans, "count")
    metrics["trace.absent_entry_points"] = (len(absent), "count")
    for name, unit in E2E:
        metrics[f"overhead.{name}"] = (traced[name] - untraced[name], unit)
    return metrics, sorted(absent)


# ----------------------------------------------------------------- main

def measure(workload, sess, inp, seconds, trace, tally):
    """End-to-end metrics from each operation's fastest repeat, the same
    from each operation's first repeat (what the one-pass traced phase
    can be compared with), and the sample counts."""
    setups, answer, check, rss = WORKLOADS[workload](sess, inp, seconds, trace, tally)
    if not trace:
        # the largest child so far: the untraced phase always runs first
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not answer or not check:
        raise ChildFailed("no operation completed")
    counts = {kind: {"operations": len(ops), "repeats": sum(map(len, ops.values()))}
              for kind, ops in (("answer", answer), ("check", check))}
    return (e2e_metrics(setups, answer, check, rss),
            e2e_metrics(setups, answer, check, rss, pick=first), counts)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "towertrees" / "__init__.py").is_file():
        sys.stderr.write(f"error: no towertrees sources under {SRC}; run from a checkout\n")
        return 2

    inp = generate(args.workload, args.seed)
    digest = hashlib.sha256(json.dumps(inp, sort_keys=True).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {digest}", flush=True)
    sess, tally = Session(), Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": digest}
    try:
        untraced, untraced_first, record["samples"] = measure(
            args.workload, sess, inp, args.seconds, False, tally)
        metrics = {name: (untraced[name], unit) for name, unit in E2E}
        if args.trace:
            _, traced, _ = measure(args.workload, sess, inp, args.seconds, True, tally)
            if args.workload == "tower_certify":
                rep = sess.worker("refusals", {"models": inp["refusal_models"]})
                tally.add_report(rep)
                tally.reports.append(rep)
            metrics, record["absent"] = per_layer(tally.reports, untraced_first, traced)
            record["spans"] = [rep.get("spans", []) for rep in tally.reports]
    except ChildFailed as exc:
        tally.fail(str(exc))
        metrics = {}

    tally.attempted = max(tally.attempted, 1)
    correct = tally.failed == 0 and bool(metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {tally.failed / tally.attempted} ({tally.failed}/{tally.attempted})")
    for name in record.get("absent", []):
        print(f"absent entry point: {name}")
    for message in tally.errors:
        print(f"error: {message}")
    record.update(correct=correct, attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors, metrics={k: v for k, (v, _) in metrics.items()})
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
