"""In-process workloads: search, verify, canon, and the in-process half of families_cli.

run.py starts this file as a child process, one at a time:

    python3 bench/workloads.py WORKLOAD SEED SECONDS TRACE [--setup-only]

The child imports gradeforge from the checkout's src/, builds the workload's
inputs, writes ``ready`` on stdout, runs passes over the workload's operations
for about SECONDS seconds, timing the reference loop (reference.py) between
groups of operations, and writes one JSON result line.  With
--setup-only it stops after ``ready``; run.py times several such starts for
setup_s.  With TRACE 1, traced passes (see tracer.py) alternate with untraced
ones and the result carries the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import io as stdio
import json
import random
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import tracer as tracer_mod
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
FILTERS_FIXTURE = str(DATA / "prod_aabb_aabb.mag")
EXPECTED_FILE = BENCH / "expected.json"

# Subsample stride over the 2**16 subsets of prod_aabb_aabb x prod_aabb_aabb.
PROD_STRIDE = 64
RANDOM_FAMILIES = 512
VERDICT_CHARS = "0123456789abcdefghijklmnopqrstuv"  # 5 verdict bits per family


def import_program():
    """Import gradeforge from this checkout's src/, never from anywhere else."""
    package = SRC / "gradeforge"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program at {package}")
    sys.path.insert(0, str(SRC))
    import gradeforge
    from gradeforge import algebra, category, cli, counting, errors, io, magma

    if Path(gradeforge.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported gradeforge from {gradeforge.__file__}, not {package}")
    return {
        "magma": magma,
        "category": category,
        "algebra": algebra,
        "counting": counting,
        "io": io,
        "cli": cli,
        "SizeOverflowError": errors.SizeOverflowError,
    }


# ---------------------------------------------------------------------------
# output digests


def canonical(value):
    """A JSON-ready, order-stable form of an operation's output."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (frozenset, set)):
        return sorted(canonical(v) for v in value)
    if isinstance(value, list) and value and type(value[0]) is frozenset:
        return [sorted(v) for v in value]  # sets of ints: the common large output
    if isinstance(value, list) and value and type(value[0]).__name__ == "PairRelation":
        return [sorted(v.pairs) for v in value]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    kind = type(value).__name__
    if kind == "PairRelation":
        return sorted(value.pairs)
    if kind == "MorphismMap":
        return [list(value.object_map), list(value.morphism_map)]
    if kind == "FiniteMagma":
        return [value.order, canonical(value.table), value.zero]
    if kind == "CountReport":
        return [
            value.formula_name,
            canonical(value.parameters),
            value.closed_form_value,
            value.brute_force_value,
            value.agrees,
            canonical(value.extras),
        ]
    raise TypeError(f"no digest for {kind}")


def digest(value) -> str:
    text = json.dumps(canonical(value), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def matches(record: dict, value) -> bool:
    if "count" in record and record["count"] is not None and len(value) != record["count"]:
        return False
    return digest(value) == record["sha256"]


def output_record(value) -> dict:
    return {"count": len(value) if isinstance(value, list) else None, "sha256": digest(value)}


# ---------------------------------------------------------------------------
# operations


class Op(NamedTuple):
    """One timed call.  ``check(result)`` says whether the output is the
    expected one; ``overflow`` marks SizeOverflowError as the expected outcome."""

    name: str
    call: Callable
    check: Callable
    overflow: bool = False


class Group(NamedTuple):
    """Operations that share one span in the traced run."""

    span: str
    ops: list


def _revalidated(category_module, cat):
    # The constructors skip validation; re-validating is what a parsed input costs.
    return category_module.validate_precategory(
        cat.object_count, cat.morphisms, cat.comp, cat.identity_at
    )


def search_calls(gf) -> dict:
    """The search kernels, no emission and no oracle.  Inputs are fixed.

    The map kernel runs on total tables (abelian homs), zero-exempt tables
    (zero homs) and with an object map (functors, prefunctors); the
    closed-subset kernel runs dense (subspaces), with banned pairs (zero
    submagmas) and on a partial table (subprecategories).
    """
    M, C, K = gf["magma"], gf["category"], gf["counting"]
    z4 = M.cyclic_group_magma(4).table
    mu4 = M.matrix_unit_zero_magma(4)
    mu3 = M.matrix_unit_zero_magma(3)
    mu2 = M.matrix_unit_zero_magma(2)
    cg3 = _revalidated(C, C.connected_groupoid(3, z4))
    cg2 = _revalidated(C, C.connected_groupoid(2, z4))
    mg4 = _revalidated(C, C.matrix_groupoid(4))
    mg5 = _revalidated(C, C.matrix_groupoid(5))
    # Two order-41 zero magmas with every product zero: 1,681 pairs, no cap.
    null41 = M.validate_magma(41, [[0] * 41 for _ in range(41)], zero=0)
    z2_4 = [2, 2, 2, 2]
    return {
        "abelian_homs_report": lambda: K.abelian_homs_report(z2_4, z2_4),
        "zero_homs_mu4": lambda: M.enumerate_zero_homs(mu4, mu4),
        "functors_cg3_cg2": lambda: K.count_functors_connected_groupoids(cg3, cg2),
        "prefunctors_mg4": lambda: C.enumerate_prefunctors(mg4, mg4),
        "subspaces_report": lambda: K.subspaces_report(2, 6),
        "zero_submagmas_mu3_mu2": lambda: M.enumerate_zero_submagmas(mu3, mu2),
        "subprecategories_mg5": lambda: C.enumerate_subprecategories(mg5),
        "zero_submagmas_order41": lambda: M.enumerate_zero_submagmas(null41, null41),
    }


def search_groups(gf, seed, expected):
    groups = []
    for name, call in search_calls(gf).items():
        record = expected[name]
        if "outcome" in record:
            # Only SizeOverflowError is a documented outcome; no result is expected.
            op = Op(name, call, lambda result: False, overflow=True)
        else:
            op = Op(name, call, lambda result, r=record: matches(r, result))
        groups.append(Group(f"bench.search.{name}", [op]))
    return groups


PREDICATES = ("is_filter", "is_grading", "is_strong", "is_nonzero", "is_elementary")


def _verdict_op(A, name, algebra, family, want):
    def call():
        return (
            A.is_filter(algebra, family).holds,
            A.is_grading(algebra, family).holds,
            A.is_strong(algebra, family).holds,
            A.is_nonzero(algebra, family).holds,
            A.is_elementary(algebra, family).holds,
        )

    return Op(name, call, lambda verdicts: verdicts == want)


def _decode_verdicts(code: str):
    out = []
    for ch in code:
        bits = VERDICT_CHARS.index(ch)
        out.append(tuple(bool(bits >> (4 - i) & 1) for i in range(5)))
    return out


def encode_verdicts(verdicts) -> str:
    return "".join(
        VERDICT_CHARS[sum(int(v) << (4 - i) for i, v in enumerate(vs))] for vs in verdicts
    )


def _reference_is_filter(table, target, parts) -> bool:
    """Subset-arithmetic filter check, independent of the program."""
    for h, part in enumerate(parts):
        for h2, part2 in enumerate(parts):
            allowed = parts[target[h][h2]]
            for s in part:
                row = table[s]
                for t in part2:
                    if row[t] not in allowed:
                        return False
    return True


def verify_families(gf, seed):
    """(group name, algebra, families) for each verify population, built from scratch."""
    M, A, io = gf["magma"], gf["algebra"], gf["io"]
    prod = io.parse_magma((DATA / "prod_aabb_aabb.mag").read_text())
    prod_algebra = A.magma_algebra(prod, 2)
    square = M.product_magma(prod, prod)
    nh = prod.order
    prod_families = []
    for bits in range(0, 1 << square.order, PROD_STRIDE):
        closed = M.closure(square, [e for e in range(square.order) if bits >> e & 1])
        relation = M.PairRelation(prod, prod, frozenset(divmod(e, nh) for e in closed))
        prod_families.append(A.grading_from_relation(prod_algebra, relation))
    z2_3 = M.abelian_group_magma([2, 2, 2])
    out = [("holds.prod_aabb_aabb", prod_algebra, prod_families)]
    for p in (2, 5):
        algebra = A.magma_algebra(z2_3, p)
        out.append((f"holds.z2cubed_p{p}", algebra, A.enumerate_elementary_gradings(algebra, z2_3)))
    mg2 = io.parse_category((DATA / "mg2.cat").read_text())
    cat_algebra, cat_families = A.enumerate_category_filters(mg2, mg2)
    out.append(("holds.mg2_filters", cat_algebra, cat_families))
    mu3 = M.matrix_unit_zero_magma(3)
    mu3_algebra = A.contracted_algebra(mu3, 2)
    out.append(("holds.mu3_nonzero", mu3_algebra, A.enumerate_nonzero_elementary_gradings(mu3_algebra, mu3)))

    rng = random.Random(seed)
    base = A.magma_algebra(z2_3, 2)
    n = z2_3.order
    random_families = []
    while len(random_families) < RANDOM_FAMILIES:
        parts = tuple(frozenset(b for b in range(n) if rng.random() < 0.5) for _ in range(n))
        if _reference_is_filter(z2_3.table, z2_3.table, parts):
            continue
        random_families.append(A.ElementaryFamily(algebra=base, target=z2_3, parts=parts))
    out.append(("fails.random_z2cubed", base, random_families))
    return out


def verify_groups(gf, seed, expected):
    """The five axiom checks on each family: holds populations then seeded failures."""
    A = gf["algebra"]
    groups = []
    for name, algebra, families in verify_families(gf, seed):
        if name.startswith("fails."):
            # None is a filter (checked at build), so neither grading nor strong;
            # nonzero is "no empty part" (no target zero); elementary holds.
            wants = [(False, False, False, all(f.parts), True) for f in families]
        else:
            record = expected[name]
            if record["count"] != len(families):
                raise SystemExit(f"benchmark: {name} built {len(families)} families, expected {record['count']}")
            wants = _decode_verdicts(record["verdicts"])
        ops = [_verdict_op(A, name, algebra, f, want) for f, want in zip(families, wants)]
        groups.append(Group(f"bench.verify.{name}", ops))
    return groups


CANON_POOL = 4  # fixed random tables per order; the seed picks and relabels them
GROUP_TABLES = {"Z8": [8], "Z2xZ2xZ2": [2, 2, 2], "Z4xZ2": [4, 2]}


def pool_table(order: int, index: int):
    rng = random.Random(f"canon-{order}-{index}")
    return [[rng.randrange(order) for _ in range(order)] for _ in range(order)]


def relabel(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def canon_groups(gf, seed, expected):
    """canonical_form on relabelled random tables and on order-8 groups,
    are_isomorphic on relabelled pairs, and census(3)."""
    M = gf["magma"]
    rng = random.Random(seed)

    def shuffled(table):
        perm = list(range(len(table)))
        rng.shuffle(perm)
        return M.validate_magma(len(table), relabel(table, perm))

    def canon_op(name, magma, want):
        return Op(name, lambda: M.canonical_form(magma), lambda out: digest(out) == want)

    random_ops = []
    for order, picks in ((7, 2), (8, 2)):
        for index in rng.sample(range(CANON_POOL), picks):
            magma = shuffled(pool_table(order, index))
            random_ops.append(canon_op(f"random{order}", magma, expected["pool"][str(order)][index]))
    group_ops = []
    for name, factors in GROUP_TABLES.items():
        magma = shuffled(M.abelian_group_magma(factors).table)
        group_ops.append(canon_op(name, magma, expected["group"][name]))
    a, b = rng.sample(range(CANON_POOL), 2)
    same = (shuffled(pool_table(7, a)), shuffled(pool_table(7, a)))
    other = (shuffled(pool_table(7, a)), shuffled(pool_table(7, b)))
    iso_ops = [
        Op("isomorphic", lambda: M.are_isomorphic(*same), lambda out: out is True),
        Op("not_isomorphic", lambda: M.are_isomorphic(*other), lambda out: out is False),
    ]
    census = expected["census3"]
    return [
        Group("bench.canon.random", random_ops),
        Group("bench.canon.group", group_ops),
        Group("bench.canon.iso", iso_ops),
        Group("bench.canon.census", [Op("census3", lambda: M.census(3), lambda out: matches(census, out))]),
    ]


GROUPS_OF = {"search": search_groups, "verify": verify_groups, "canon": canon_groups}


# ---------------------------------------------------------------------------
# passes


class PassResult:
    __slots__ = ("wall", "first", "op_times", "op_scales", "attempted", "failed", "wrong", "failures",
                 "reports", "agreeing")

    def __init__(self):
        self.wall = 0.0
        self.first = None
        self.op_times = []
        self.op_scales = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = Counter()
        self.reports = 0
        self.agreeing = 0


def run_pass(groups, overflow_error, tracer=None) -> PassResult:
    """Run every operation once.  Only the calls are timed; outputs are
    checked after each group, outside its span.  ``first`` is the time until
    the first group (one request's worth of results) has returned.  Untraced
    passes time the reference loop before each group and at the end;
    ``op_scales`` holds, per operation, the factor that calibrates its time
    (see reference.py): REFERENCE_S over the mean of the loop times just
    before and just after its group."""
    res = PassResult()
    loop_times = []
    group_sizes = []
    for group in groups:
        if tracer is None:
            loop_times.append(reference.calibration_point())
        group_sizes.append(len(group.ops))
        outcomes = []
        with tracer.span(group.span) if tracer is not None else nullcontext():
            for op in group.ops:
                start = perf_counter()
                try:
                    value = op.call()
                except Exception as exc:  # a failed operation, counted by type below
                    value = exc
                elapsed = perf_counter() - start
                res.wall += elapsed
                res.op_times.append(elapsed)
                outcomes.append((op, value))
        if res.first is None:
            res.first = res.wall
        for op, value in outcomes:
            res.attempted += 1
            if isinstance(value, Exception):
                if not (op.overflow and isinstance(value, overflow_error)):
                    res.failed += 1
                    res.failures[f"{op.name}: {type(value).__name__}"] += 1
                continue
            if type(value).__name__ == "CountReport":
                res.reports += 1
                if value.agrees is not True:
                    res.failed += 1
                    res.failures[f"{op.name}: closed form and brute force disagree"] += 1
                    continue
                res.agreeing += 1
            try:
                good = op.check(value)
            except Exception:  # an output the check cannot even read is a wrong one
                good = False
            if not good:
                res.failed += 1
                res.wrong += 1
                res.failures[f"{op.name}: wrong output"] += 1
    if tracer is None:
        loop_times.append(reference.calibration_point())
        for i, size in enumerate(group_sizes):
            scale = 2 * reference.REFERENCE_S / (loop_times[i] + loop_times[i + 1])
            res.op_scales.extend([scale] * size)
    return res


def run_passes(groups, overflow_error, seconds, tracer=None):
    """Alternate untraced and (with a tracer) traced passes until the next
    pass would end after ``seconds``; at least one of each.  Returns the
    untraced results, the traced ones and each traced pass's span window."""
    untraced, traced, windows = [], [], []
    start = perf_counter()
    longest = 0.0
    while True:
        began = perf_counter()
        if tracer is not None and len(traced) < len(untraced):
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(groups, overflow_error, tracer))
            finally:
                tracer.uninstall()
            windows.append((first, len(tracer.spans)))
        else:
            untraced.append(run_pass(groups, overflow_error))
        longest = max(longest, perf_counter() - began)
        if (tracer is None or traced) and perf_counter() - start + longest > seconds:
            return untraced, traced, windows


# ---------------------------------------------------------------------------
# families_cli, in process


def reproduce_filters_json(gf, path: str) -> str:
    """What ``gradeforge filters PATH PATH --json`` writes, from the same public calls."""
    A, io = gf["algebra"], gf["io"]
    text = Path(path).read_text()
    source = io.parse_magma(text)
    target = io.parse_magma(text)
    algebra = A.magma_algebra(source, 2)
    families = A.enumerate_elementary_filters(algebra, target)
    items = [io.family_to_doc(f, text, "magma") for f in families]
    return io.enumeration_report(items)


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def families_cli_traced(gf, record, tracer) -> dict:
    """cli.run in process (JSON, text), then the reproduction untraced and traced."""
    args = ["filters", FILTERS_FIXTURE, FILTERS_FIXTURE]
    ok = {}
    times = {}
    for form, extra in (("json", ["--json"]), ("text", [])):
        out, err = stdio.StringIO(), stdio.StringIO()
        start = perf_counter()
        code = gf["cli"].run(args + extra, out=out, err=err)
        times[form] = perf_counter() - start
        ok[f"cli.run.{form}"] = code == 0 and _sha256(out.getvalue()) == record[form]["sha256"]
        del out

    start = perf_counter()
    plain = reproduce_filters_json(gf, FILTERS_FIXTURE)
    plain_s = perf_counter() - start
    ok["reproduction"] = _sha256(plain) == record["json"]["sha256"]
    del plain
    first = len(tracer.spans)
    tracer.install()
    try:
        with tracer.span("bench.families_cli.reproduce") as rec:
            output = reproduce_filters_json(gf, FILTERS_FIXTURE)
    finally:
        tracer.uninstall()
    ok["reproduction.traced"] = _sha256(output) == record["json"]["sha256"]

    layers = layer_metrics(tracer_mod.summarize(tracer.spans, first))
    size = len(output.encode())
    emit_s = layers["io.emit.json.s"]
    layers.update({
        "io.emit.bytes": size,
        "io.emit.json.mib_per_s": size / emit_s / 2**20 if emit_s > 0 else 0.0,
        "cli.run.json.s": times["json"],
        "cli.run.text.s": times["text"],
        "trace.overhead_frac": (rec[tracer_mod.END] - rec[tracer_mod.START]) / plain_s - 1.0,
    })
    failures = {f"{name}: wrong output": 1 for name, good in ok.items() if not good}
    return {
        "attempted": len(ok),
        "failed": len(failures),
        "wrong": len(failures),
        "failures": failures,
        "layers": layers,
        "reproduction_sha256": _sha256(output),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(summary: dict) -> dict:
    """Every per-layer metric.  A layer this workload does not exercise reads 0."""
    by_name = summary["by_name"]
    parents = summary["parents"]

    def s(name):
        return by_name.get(name, {}).get("s", 0.0)

    def per_s(name):
        entry = by_name.get(name)
        return entry["results"] / entry["s"] if entry and entry["s"] > 0 else 0.0

    def prefixed(prefix):
        return sum((e["s"] for n, e in by_name.items() if n.startswith(prefix)), 0.0)

    def oracle(half):
        # Self times, so a helper nested in another of its half counts once.
        return sum(
            (e["self_s"] for n, e in by_name.items() if n.startswith("algebra._") and n.endswith(half)),
            0.0,
        )

    out = {
        "magma.enumerate_homs.s": s("magma.enumerate_homs"),
        "magma.enumerate_homs.results_per_s": per_s("magma.enumerate_homs"),
        "magma.enumerate_zero_homs.s": s("magma.enumerate_zero_homs"),
        "magma.enumerate_submagmas.s": s("magma.enumerate_submagmas"),
        "magma.enumerate_submagmas.results_per_s": per_s("magma.enumerate_submagmas"),
        "magma.enumerate_zero_submagmas.s": s("magma.enumerate_zero_submagmas"),
        "magma.enumerate_zero_submagmas.results_per_s": per_s("magma.enumerate_zero_submagmas"),
        "magma.enumerate_product_submagmas.s": s("magma.enumerate_product_submagmas"),
        "magma.canonical_form.random.s": parents.get(("bench.canon.random", "magma.canonical_form"), 0.0),
        "magma.canonical_form.group.s": parents.get(("bench.canon.group", "magma.canonical_form"), 0.0),
        "magma.canonical_form.calls": by_name.get("magma.canonical_form", {}).get("calls", 0),
        "magma.are_isomorphic.s": s("magma.are_isomorphic"),
        "magma.census.s": s("magma.census"),
        "category.enumerate_functors.s": s("category.enumerate_functors"),
        "category.enumerate_prefunctors.s": s("category.enumerate_prefunctors"),
        "category.enumerate_subprecategories.s": s("category.enumerate_subprecategories"),
        "category.enumerate_subprecategories.results_per_s": per_s("category.enumerate_subprecategories"),
        "category.validate_precategory.s": s("category.validate_precategory"),
        "algebra.set_oracle.s": oracle("_set"),
        "algebra.span_oracle.s": oracle("_span"),
        "algebra.verify.holds.s": prefixed("bench.verify.holds."),
        "algebra.verify.fails.s": prefixed("bench.verify.fails."),
        "algebra.verify.p2.s": s("bench.verify.holds.z2cubed_p2"),
        "algebra.verify.p_odd.s": s("bench.verify.holds.z2cubed_p5"),
        "algebra.family_build.s": s("algebra.grading_from_relation"),
        "io.parse.s": prefixed("io.parse_"),
        "io.emit.json.s": s("io.family_to_doc") + s("io.enumeration_report"),
        "io.emit.bytes": 0,
        "io.emit.json.mib_per_s": 0.0,
        "counting.reports.s": summary["layer_self_s"].get("counting", 0.0),
        "counting.agree_frac": 1.0,
        "cli.startup.s": 0.0,
        "cli.run.json.s": 0.0,
        "cli.run.text.s": 0.0,
        "cli.overhead.s": 0.0,
        "trace.overhead_frac": 0.0,
    }
    for pred in PREDICATES:
        out[f"algebra.{pred}.s"] = s(f"algebra.{pred}")
    for layer in ("magma", "category", "algebra", "io"):
        out[f"{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0)
    return out


# ---------------------------------------------------------------------------
# child entry point


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]
    gf = import_program()
    expected = json.loads(EXPECTED_FILE.read_text())[workload]
    if workload == "families_cli":
        # Only the traced run comes here; its inputs are the fixture files.
        groups = None
    else:
        groups = GROUPS_OF[workload](gf, seed, expected)
    print("ready", flush=True)
    if setup_only:
        return 0
    tracer = tracer_mod.Tracer() if trace else None
    if workload == "families_cli":
        payload = families_cli_traced(gf, expected, tracer)
    else:
        payload = run_workload(gf, workload, seed, seconds, expected, groups, tracer)
    if tracer is not None:
        if not any(name.startswith("algebra._") for name in tracer.wrapped):
            # The oracle halves are gone from the program: absent, not failed.
            payload["absent"] = ["algebra.set_oracle.s", "algebra.span_oracle.s"]
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{workload}-s{seed}.spans.jsonl.gz")
        payload["spans"] = len(tracer.spans)
    print(json.dumps(payload), flush=True)
    return 0


def run_workload(gf, workload, seed, seconds, expected, groups, tracer) -> dict:
    setup = None
    if tracer is not None:
        # One more build under the tracer, for the layers that run only in set-up.
        tracer.install()
        try:
            with tracer.span(f"bench.{workload}.setup"):
                GROUPS_OF[workload](gf, seed, expected)
        finally:
            tracer.uninstall()
        setup = tracer_mod.summarize(tracer.spans)
    untraced, traced, windows = run_passes(groups, gf["SizeOverflowError"], seconds, tracer)
    passes = untraced + traced
    failures = Counter()
    for p in passes:
        failures.update(p.failures)
    payload = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "wrong": sum(p.wrong for p in passes),
        "failures": dict(failures),
        "ttfb_s": [p.first for p in untraced],
        "first_group_ops": len(groups[0].ops),
        "ok_frac": [(p.attempted - p.failed) / p.attempted for p in untraced],
        "op_times": [p.op_times for p in untraced],
        "op_scales": [p.op_scales for p in untraced],
    }
    if tracer is not None:
        per_pass = []
        for p, window in zip(traced, windows):
            layers = layer_metrics(tracer_mod.merge(setup, tracer_mod.summarize(tracer.spans, *window)))
            layers["counting.agree_frac"] = p.agreeing / p.reports if p.reports else 1.0
            per_pass.append(layers)
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layers["trace.overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1.0
        )
        payload["layers"] = layers
        payload["traced_wall_s"] = [p.wall for p in traced]
    return payload


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
