"""Acceptance suite: the ten exit criteria, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are exact equality; runtime budgets are
asserted where stated.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import replace
from pathlib import Path


from towertrees.cli import run as cli_run
from towertrees.groups import (
    group_structure,
    ihx_triples,
    is_zero,
    reduce_to_simple,
    relator_sum,
)
from towertrees.lie import eta_sum, rational_rank_bound
from towertrees.sums import TreeSum
from towertrees.towers import (
    ObstructionNonzero,
    RawPoint,
    bch_tower,
    certify_raise_order,
    extract_model,
    glue,
    ihx_insert,
    raw_from_json,
    tau,
    verify_certificate,
)
from towertrees.trees import (
    SignedTree,
    all_trees,
    canonicalize,
    is_simple,
    parse_tree,
)
from towertrees.words import winv

from oracles import decode, flip_at, internal_paths, random_raw_tower, raw_generators

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(num, label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    print(f"criterion {num:2d} PASS  {label}  ({time.perf_counter() - started:.1f}s)")


def _random_signed_trees(rng, n, m, count):
    trees = all_trees(n, m)
    return [(rng.choice((1, -1)), rng.choice(trees)) for _ in range(count)]


def _random_zero_model(rng, n, m):
    sigma = []
    for _ in range(rng.randint(0, 3)):
        t = rng.choice(all_trees(n, m))
        sigma.extend([(1, decode(t)), (-1, decode(t))])
    model = bch_tower(sigma, n, m)
    triples = ihx_triples(n, m)
    if triples:
        for _ in range(rng.randint(0, 3)):
            ct, edge = rng.choice(triples)
            model = ihx_insert(model, ct, edge, rng.choice((1, -1)))
    return model


def test_criterion_01_group_structures():
    with criterion(1, "group tables reproduce Z at order 0 and Z/2 at order 1 (labels 1)"):
        t0 = time.perf_counter()
        assert group_structure(0, 1).text() == "Z"
        assert group_structure(1, 1).text() == "Z/2"
        assert time.perf_counter() - t0 < 1.0
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_run(["groups", "--order", "1", "--labels", "1"])
        assert code == 0 and buf.getvalue().strip() == "Z/2"


def test_criterion_02_nonrepeating_torsion_free():
    with criterion(2, "nonrepeating order-n groups on n+2 labels are torsion-free, n=0..3"):
        golden_free_ranks = [1, 1, 2, 6]  # computed, equal to n!
        t0 = time.perf_counter()
        for n in range(4):
            gs = group_structure(n, n + 2, nonrepeating=True)
            assert gs.torsion == (), (n, gs)
            assert gs.free_rank == golden_free_ranks[n], (n, gs)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_03_relator_soundness():
    with criterion(3, "every generated AS and IHX relator is zero, n<=3, m<=4"):
        checked = 0
        for n in range(4):
            for m in range(1, 5):
                for ts in [relator_sum(ct, e) for ct, e in ihx_triples(n, m)]:
                    assert is_zero(ts, n, m), (n, m, ts.text())
                    checked += 1
                for gen in raw_generators(n, m):
                    for path in internal_paths(gen):
                        a, sa = canonicalize(SignedTree(1, gen))
                        b, sb = canonicalize(SignedTree(1, flip_at(gen, path)))
                        ts = TreeSum([(a, sa), (b, sb)])
                        assert is_zero(ts, n, m), (n, m, gen)
                        checked += 1
        assert checked > 1000


def test_criterion_04_simple_spanning():
    with criterion(4, "reduce_to_simple spans by simple trees, order<=4, m<=4"):
        t0 = time.perf_counter()
        for n in range(5):
            for ct in all_trees(n, 4):
                ts = reduce_to_simple(ct)
                assert all(is_simple(t) for t in ts.trees()), ct.text()
                assert is_zero(ts - TreeSum({ct: 1}), n, 4), ct.text()
        assert time.perf_counter() - t0 < 120.0


def test_criterion_05_gauge_invariance():
    with criterion(5, "1000 random raw towers: disk gauge moves never change tau"):
        rng = random.Random(50105)
        failures = 0
        for _ in range(1000):
            raw = random_raw_tower(rng)
            base = tau(extract_model(raw))
            whitney = [i for i, d in enumerate(raw.disks) if d.bracket[0]]
            if whitney:
                i = rng.choice(whitney)
                mutated = replace(raw, disks=tuple(
                    replace(d, orientation=-d.orientation) if k == i else d
                    for k, d in enumerate(raw.disks)))
                if tau(extract_model(mutated)) != base:
                    failures += 1
                i = rng.choice(whitney)
                word = "".join(rng.choice("abAB") for _ in range(rng.randint(1, 3)))
                from towertrees.words import wreduce
                mutated = replace(raw, disks=tuple(
                    replace(d, whisker=wreduce(word)) if k == i else d
                    for k, d in enumerate(raw.disks)))
                if tau(extract_model(mutated)) != base:
                    failures += 1
            pts = list(raw.points)
            j = rng.randrange(len(pts))
            p = pts[j]
            pts[j] = RawPoint(p.sign, p.right, p.left, winv(p.word), p.paired_by)
            if tau(extract_model(replace(raw, points=tuple(pts)))) != base:
                failures += 1
        assert failures == 0


def test_criterion_06_move_conservation():
    with criterion(6, "1000 randomized IHX insertions conserve tau"):
        rng = random.Random(60106)
        for _ in range(1000):
            n, m = rng.choice([(2, 3), (2, 4), (3, 4)])
            model = bch_tower(
                [(s, decode(t)) for s, t in _random_signed_trees(rng, n, m, rng.randint(0, 3))],
                n, m)
            before = tau(model)
            zero_before = is_zero(before, n, m)
            ct, edge = rng.choice(ihx_triples(n, m))
            sign = rng.choice((1, -1))
            grown = ihx_insert(model, ct, edge, sign)
            assert tau(grown) == before + relator_sum(ct, edge).scale(sign)
            assert is_zero(tau(grown), n, m) == zero_before
            assert len(grown.points) == len(model.points) + 3


def test_criterion_07_certified_order_raising():
    with criterion(7, "200 zero models certify and verify; 200 obstructed models refuse"):
        rng = random.Random(70107)
        zero_cells = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
        mis = 0
        for _ in range(200):
            n, m = rng.choice(zero_cells)
            model = _random_zero_model(rng, n, m)
            try:
                cert = certify_raise_order(model)
            except ObstructionNonzero:
                mis += 1
                continue
            if not verify_certificate(model, cert).ok:
                mis += 1
        obstructed_cells = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]
        for _ in range(200):
            n, m = rng.choice(obstructed_cells)
            model = _random_zero_model(rng, n, m)
            extra = rng.choice([t for t in all_trees(n, m)
                                if t.nonrepeating and is_simple(t)])
            model = glue(model, bch_tower([(-1, decode(extra))], n, m))
            try:
                certify_raise_order(model)
                mis += 1
            except ObstructionNonzero:
                pass
        assert mis == 0


def test_criterion_08_gluing_identity():
    with criterion(8, "tau(glue) = tau(a) - tau(b) on 500 pairs; doubling always certifies"):
        rng = random.Random(80108)
        cells = [(0, 2), (1, 3), (2, 4), (3, 4)]
        for _ in range(500):
            n, m = rng.choice(cells)
            a = bch_tower(
                [(s, decode(t)) for s, t in _random_signed_trees(rng, n, m, rng.randint(0, 4))],
                n, m)
            b = bch_tower(
                [(s, decode(t)) for s, t in _random_signed_trees(rng, n, m, rng.randint(0, 4))],
                n, m)
            assert tau(glue(a, b)) == tau(a) - tau(b)
        for _ in range(100):
            n, m = rng.choice(cells)
            w = bch_tower(
                [(s, decode(t)) for s, t in _random_signed_trees(rng, n, m, rng.randint(1, 4))],
                n, m)
            doubled = glue(w, w)
            cert = certify_raise_order(doubled)
            assert verify_certificate(doubled, cert).ok


def test_criterion_09_shipped_tower_fixture():
    with criterion(9, "shipped raw tower extracts to the single order-2 tree"):
        raw = raw_from_json((FIXTURES / "order2_tower.json").read_text())
        model = extract_model(raw)
        assert model.order == 2
        expected, sign = canonicalize(SignedTree(1, parse_tree("inner((1,2),(3,4),)")))
        assert sign == 1
        assert tau(model) == TreeSum({expected: 1})


def test_criterion_10_lie_oracle():
    with criterion(10, "Lie oracle kills all relators and its rank equals every free rank"):
        t0 = time.perf_counter()
        for n in range(4):
            for m in range(1, 5):
                for ts in [relator_sum(ct, e) for ct, e in ihx_triples(n, m)]:
                    assert eta_sum(ts) == {}, (n, m, ts.text())
                rank = rational_rank_bound(n, m)
                free = group_structure(n, m).free_rank
                assert rank == free, (n, m, rank, free)
        assert time.perf_counter() - t0 < 60.0
