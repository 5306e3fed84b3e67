"""Command-line front end.

Exit codes: 0 success, 1 validation or usage failure, output that cannot be
written, or after the verdict is printed a family that is not a filter
(``verify``) or magmas that are not isomorphic (``iso``), 2 budget
exhaustion or a search that runs out of memory, 3 parse error.  If the
subset and span oracles of an axiom check disagree, the run stops with
OracleDisagreementError and exit code 1.
Diagnostics go to stderr; standard output is deterministic, so identical
invocations are byte-identical.

Each subcommand is a thin call into the library: ``_load`` reads every
operand, ``_algebra`` picks the algebra, and ``_write`` prints every
enumeration through ``io.write_enumeration``, from one encoder per result.
Output starts once the search has ended, so a search error leaves stdout
empty.  ``gradings`` and ``filters`` write each family from the packed int
that ``algebra._family_enumeration`` yields, with no family object; only
``--nonzero-only`` builds families, to check them before the first write.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import algebra as alg
from . import category as cat
from . import counting, io
from . import magma as mg
from .budget import DEFAULT_BUDGET, Budget
from .errors import ParseError, SizeOverflowError, ToolkitError, ValidationError, check_count

BUDGET_ENV = "GRADEFORGE_BUDGET"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _budget_from(args) -> Budget:
    nodes, env = args.budget, os.environ.get(BUDGET_ENV)
    if nodes is None and env is not None:
        try:
            nodes = io.integer(env)
        except ValueError:
            raise ValidationError(f"bad {BUDGET_ENV} value {env!r}") from None
    if nodes is not None:
        check_count(nodes, "budget")
    return DEFAULT_BUDGET if nodes is None else Budget(max_nodes=nodes)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None


def _load(path: str, kinds: tuple):
    """(kind, structure, text) of a magma or category file, whose kind must be one of kinds."""
    text = _read(path)
    kind = io.detect_kind(text)
    if kind not in kinds:
        raise ValidationError(f"{path} holds a {kind} document, expected a {' or '.join(kinds)}")
    structure = io.parse_magma(text) if kind == "magma" else io.parse_category(text)
    return kind, structure, text


def _check_flags(kind: str, args) -> None:
    """--zero picks the contracted algebra of a zero magma, which a category's algebra always is;
    --prefunctors and --functors pick the map search of a category, which a magma has no choice of."""
    if args.zero and kind == "category":
        raise ValidationError("--zero needs magma operands; a category algebra is always contracted")
    if kind == "magma" and (getattr(args, "prefunctors", False) or getattr(args, "functors", False)):
        raise ValidationError("--prefunctors and --functors need category operands")


def _algebra(kind: str, structure, zero: bool, field: int):
    """The algebra of a category, else of a magma, contracted at its zero when zero is set."""
    if kind == "category":
        return alg.category_algebra(structure, field)
    return (alg.contracted_algebra if zero else alg.magma_algebra)(structure, field)


def _write(out, args, results, count, item, line) -> int:
    """Print the count results of an iterable as it yields them: with --json, item(r) is the JSON
    of each inside the enumeration report; else line(r) is its line."""
    io.write_enumeration(out, results, count, item if args.json else line, args.json)
    return 0


def _census(args, budget, out):
    classes, word = mg.census(args.order, budget), mg.word_of_magma
    return _write(
        out, args, classes, len(classes), lambda m: io._dumps({"text": io.print_magma(m), "word": word(m)}), word
    )


def _canon(args, budget, out):
    text = io.print_magma(mg.canonical_form(_load(args.source, ("magma",))[1], budget))
    out.write(io.emit_report({"text": text}) if args.json else text)
    return 0


def _iso(args, budget, out):
    left, right = (_load(p, ("magma",))[1] for p in (args.source, args.target))
    holds = mg.are_isomorphic(left, right, budget)
    out.write(io.emit_report({"isomorphic": holds}) if args.json else f"isomorphic {str(holds).lower()}\n")
    return 0 if holds else 1


def _hom(args, budget, out):
    """Each map is a tuple of target indices, printed from the spelling of each index."""
    source, target = (_load(p, ("magma",))[1] for p in (args.source, args.target))
    maps = (mg.enumerate_zero_homs if args.zero else mg.enumerate_homs)(source, target, budget)
    json_of, head = list(map(io._dumps, range(target.order))), "{" + io._dumps("images") + ":["
    return _write(
        out, args, maps, len(maps),
        lambda m: head + ",".join([json_of[v] for v in m]) + "]}", lambda m: " ".join(map(str, m)),
    )


def _submagmas(args, budget, out):
    """Each subset is a kernel mask, printed from the spelling of the member at each of its bits."""
    source = _load(args.source, ("magma",))[1]
    if args.target is None:
        if args.zero:
            raise ValidationError("--zero needs a second magma operand")
        masks, key, members = mg._submagma_masks(source, budget), "elements", range(source.order)
        text_of, sep = list(map(str, members)), ","
    else:
        target = _load(args.target, ("magma",))[1]
        masks = mg._zero_pair_masks(source, target, budget) if args.zero else mg._pair_masks(source.table, target.table, budget)
        key, members = "pairs", mg._bit_pairs(source.order, target.order)
        text_of, sep = [f"{g}:{h}" for g, h in members], " "
    json_of, head, bits = list(map(io._dumps, members)), "{" + io._dumps(key) + ":[", mg._bits
    return _write(
        out, args, masks, len(masks), lambda m: head + ",".join([json_of[b] for b in bits(m)]) + "]}",
        lambda m: "{" + sep.join([text_of[b] for b in bits(m)]) + "}",
    )


def _functors(args, budget, out):
    source, target = (_load(p, ("category",))[1] for p in (args.source, args.target))
    maps = (cat.enumerate_prefunctors if args.prefunctors else cat.enumerate_functors)(source, target, budget)
    return _write(
        out, args, maps, len(maps), lambda m: io._dumps({"objects": m.object_map, "morphisms": m.morphism_map}),
        lambda m: f"objects:{','.join(map(str, m.object_map))} morphisms:{','.join(map(str, m.morphism_map))}",
    )


def _families(args, budget, out):
    kind, source, _ = _load(args.source, ("magma", "category"))
    _, target, target_text = _load(args.target, (kind,))
    _check_flags(kind, args)
    if kind == "magma":
        source = _algebra(kind, source, args.zero, args.field)
    variant = args.zero or getattr(args, "prefunctors", False)  # --zero for magmas, --prefunctors for categories
    algebra, indexed_by, count, packed = alg._family_enumeration(args.command, variant, source, target, budget, args.field)
    if args.nonzero_only:
        packed = list(packed)
        packed = [p for p, f in zip(packed, alg._families(algebra, indexed_by, packed)) if alg.is_nonzero(algebra, f)]
        count = len(packed)
    shape = algebra.basis_size, indexed_by.order
    return _write(out, args, packed, count, io.family_item_encoder(target_text, kind, *shape), io.family_line_encoder(*shape))


def _verify(args, budget, out):
    kind, structure, _ = _load(args.algebra, ("magma", "category"))
    _check_flags(kind, args)
    algebra = _algebra(kind, structure, args.zero, args.field)
    family = io.parse_family(_read(args.family), algebra)
    checks = (alg.is_filter, alg.is_grading, alg.is_strong, alg.is_nonzero, alg.is_elementary)
    verdicts = [check(algebra, family) for check in checks]
    text = "".join(f"{v.prop} {str(v.holds).lower()}\n" for v in verdicts)
    out.write(io.emit_report({"verdicts": [io.verdict_to_doc(v) for v in verdicts]}) if args.json else text)
    return 0 if verdicts[0].holds else 1


def _roundtrip(args, budget, out):
    source, target = (_load(p, ("magma",))[1] for p in (args.source, args.target))
    algebra = alg.magma_algebra(source, args.field)
    rels = [mg.PairRelation(source, target, pairs) for pairs in mg.enumerate_product_submagmas(source, target, budget)]

    def round_trips(rel):
        family = alg.grading_from_relation(algebra, rel)
        back = alg.relation_from_filter(algebra, family)
        return back.pairs == rel.pairs and alg.grading_from_relation(algebra, back).parts == family.parts

    holds = all(map(round_trips, rels))
    text = f"checked {len(rels)}\nholds {str(holds).lower()}\n"
    out.write(io.emit_report({"checked": len(rels), "holds": holds}) if args.json else text)
    return 0 if holds else 1


def _log2_bound(x: int) -> int:
    """An integer at least log2(x) for x >= 1 (0 below), read off a bit length."""
    return max(x - 1, 0).bit_length()


def _bit_bounds(formula, v):
    """Bounds on the bit lengths of the numbers a closed form computes, in the order it forms
    them; the last bounds every value its report prints.  Outside a formula's domain nothing is
    bounded, since the formula rejects its parameters before computing.  The p of subspaces is
    checked here, so no n turns a p that is not a prime below 2**64 into a budget exit."""
    if formula == "abelian-homs":
        left, right = v
        yield len(right) * sum(_log2_bound(f) + 1 for f in left)  # one gcd per pair of factors
    elif formula == "matrix-group-gradings":
        n, q = v
        yield (n - 1) * _log2_bound(q)
    elif formula == "groupoid-printed" and min(v) >= 1:
        m, n, p, q = v
        yield m * _log2_bound(n)  # the exponent n**m, formed only once this is spent
        yield n**m * (_log2_bound(p) + (m - 1) * _log2_bound(q))
    elif formula == "surjections" and min(v) >= 0:
        m, n = v
        yield n * n  # n + 1 terms, each with a binomial below 2**n
        yield m * _log2_bound(n)
    elif formula == "subspaces" and v[1] >= 1:
        p, n = v
        alg._check_modulus(p)
        yield n * n  # products in the sum over k
        yield (n * n // 4 + n + 2) * _log2_bound(p)  # each of the n terms [n, k]_p is below 4 p**(k(n-k))


def _closed_form(name, keys, value):
    """The report of a closed form without an oracle: value(*params) under the parameter names keys."""
    return lambda *v: counting.CountReport(name, dict(zip(keys, v)), value(*v), None)


# formula: (parameters, report)
_COUNTS = {
    "matrix-group-gradings": (
        "<n> <q>", _closed_form("matrix_group_gradings", "nq", counting.count_matrix_group_gradings)
    ),
    "groupoid-printed": (
        "<m> <n> <p> <q>",
        _closed_form("groupoid_gradings_as_printed", "mnpq", counting.count_groupoid_gradings_as_printed),
    ),
    # max_nodes=0 skips the brute-force oracle
    "surjections": ("<m> <n>", lambda m, n: counting.surjective_functions_report(m, n, Budget(max_nodes=0))),
    "abelian-homs": (
        "<factors> <factors> (comma-separated)",
        _closed_form("abelian_homs", ("source", "target"), counting.count_abelian_homs),
    ),
    "subspaces": ("<p> <n>", counting.count_subspaces),
}


def _count(args, budget, out):
    """One closed form, after its bit bounds are spent from the budget.  A result past Python's
    limit on printing an integer in decimal is refused as well."""
    formula, params = args.formula, args.params
    usage, report_of = _COUNTS[formula]
    usage = f"expected {formula} {usage}"
    if len(params) != usage.count("<"):
        raise ValidationError(usage)
    factors = formula == "abelian-homs"
    try:
        values = [[io.integer(x) for x in p.split(",")] if factors else io.integer(p) for p in params]
    except ValueError:
        raise ValidationError("factors must be comma-separated integers" if factors else usage) from None
    spent = bits = 0
    for bits in _bit_bounds(formula, values):
        spent += max(bits, 0)
        if spent > budget.max_nodes:
            raise SizeOverflowError(f"{formula} may need numbers of more bits than the budget of {budget.max_nodes}")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits and bits * 30103 // 100000 >= digits:  # 0.30103 > log10(2)
        raise SizeOverflowError(f"a count of up to {bits} bits exceeds the {digits}-digit print limit")
    report = report_of(*values)
    extras = "".join(f"{key} {report.extras[key]}\n" for key in sorted(report.extras))
    text = f"closed_form {report.closed_form_value}\n{extras}"
    out.write(io.emit_report(io.count_report_to_doc(report)) if args.json else text)
    return 0


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON report")
    fmt.add_argument("--table", action="store_true", help="emit plain text (default)")
    common.add_argument("--budget", type=io.integer, default=None, metavar="N", help="search node budget")

    parser = _Parser(prog="gradeforge", description="Finite magma and precategory toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, operands=("source", "target"), **flags):
        """A subcommand with positional operands, then store_true flags (nonzero_only is --nonzero-only)."""
        p = sub.add_parser(name, parents=[common], help=summary)
        for operand in operands:
            p.add_argument(operand)
        for flag, flag_help in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), action="store_true", help=flag_help)
        p.set_defaults(run=run)
        return p

    command("census", _census, "isomorphism classes of a given order", ()).add_argument("order", type=io.integer)
    command("canon", _canon, "the canonical form of a magma: its least relabelled table", ("source",))
    command("iso", _iso, "whether two magmas are isomorphic (exit 1 if not)")
    command("hom", _hom, "homomorphisms between two magmas", zero="zero-magma homomorphisms")
    p = command("submagmas", _submagmas, "submagmas of a magma, or zero submagmas of a product", ("source",))
    p.add_argument("target", nargs="?")
    p.add_argument("--zero", action="store_true", help="zero submagmas of source x target")
    summary = "functors between two categories"
    command("functors", _functors, summary, prefunctors="do not require identities to map to identities")
    zero = "zero-magma variant (contracted algebra)"
    nonzero = "keep only families passing the nonzero check"
    p = command("gradings", _families, "elementary gradings of the left algebra by the right structure")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--zero", action="store_true", help=zero)
    kind.add_argument("--prefunctors", action="store_true", help="category variant via prefunctors")
    kind.add_argument("--functors", action="store_true", help="category variant via functors (default for categories)")
    p.add_argument("--nonzero-only", action="store_true", help=nonzero)
    summary = "elementary filters of the left algebra by the right structure"
    command("filters", _families, summary, zero=zero, nonzero_only=nonzero)
    summary = "check the axioms of a family against an algebra"
    command("verify", _verify, summary, ("algebra", "family"), zero="use the contracted algebra of a zero magma")
    command("roundtrip", _roundtrip, "check the relation/filter round trip over all submagmas")
    summary = "prime scalar field for algebra checks"
    for name in ("gradings", "filters", "verify", "roundtrip"):  # the commands that build an algebra
        sub.choices[name].add_argument("--field", type=io.integer, default=2, metavar="P", help=summary)
    p = command("count", _count, "closed-form counts", ())
    p.add_argument("formula", choices=list(_COUNTS))
    p.add_argument("params", nargs="*")
    return parser


def run(argv=None, out=None, err=None) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        code = args.run(args, _budget_from(args), out)
        out.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 3
    except SizeOverflowError as exc:
        print(f"budget exhausted: {exc}", file=err)
        return 2
    except MemoryError:
        # A search within its node budget can still hold more results than memory has room for.
        # Output starts once the search has ended, so such a search leaves stdout empty.
        print("budget exhausted: out of memory", file=err)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except OSError as exc:
        # Operands are read through _read, so this is a failed write.  A reader that closed the
        # pipe early needs no message.  Stdout then points at os.devnull, so that the flush at
        # exit cannot fail a second time.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc.strerror or exc}", file=err)
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
