"""Command-line front end.

Exit codes: 0 success, 1 validation or usage failure (or, from ``verify``,
a family that is not a filter), 2 budget exhaustion, 3 parse error.  If the
subset and span oracles of an axiom check disagree, the run stops with
OracleDisagreementError and exit code 1.  Diagnostics go to stderr; standard output is deterministic,
so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import algebra as alg
from . import category as cat
from . import counting, io
from .budget import DEFAULT_BUDGET, Budget
from .errors import ParseError, SizeOverflowError, ToolkitError, ValidationError
from .magma import (
    census,
    enumerate_homs,
    enumerate_product_submagmas,
    enumerate_submagmas,
    enumerate_zero_homs,
    enumerate_zero_submagmas,
    word_of_magma,
)

BUDGET_ENV = "GRADEFORGE_BUDGET"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON report")
    fmt.add_argument("--table", action="store_true", help="emit plain text (default)")
    common.add_argument("--field", type=int, default=2, metavar="P", help="prime scalar field for algebra checks")
    common.add_argument("--budget", type=int, default=None, metavar="N", help="search node budget")

    parser = _Parser(prog="gradeforge", description="Finite magma and precategory toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", parents=[common], help="isomorphism classes of a given order")
    p.add_argument("order", type=int)

    p = sub.add_parser("hom", parents=[common], help="homomorphisms between two magmas")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--zero", action="store_true", help="zero-magma homomorphisms")

    p = sub.add_parser("submagmas", parents=[common], help="submagmas of a magma, or zero submagmas of a product")
    p.add_argument("source")
    p.add_argument("target", nargs="?")
    p.add_argument("--zero", action="store_true", help="zero submagmas of source x target")

    p = sub.add_parser("functors", parents=[common], help="functors between two categories")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--prefunctors", action="store_true", help="do not require identities to map to identities")

    p = sub.add_parser("gradings", parents=[common], help="elementary gradings of the left algebra by the right structure")
    p.add_argument("source")
    p.add_argument("target")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--zero", action="store_true", help="zero-magma variant (contracted algebra)")
    kind.add_argument("--prefunctors", action="store_true", help="category variant via prefunctors")
    kind.add_argument("--functors", action="store_true", help="category variant via functors (default for categories)")
    p.add_argument("--nonzero-only", action="store_true", help="keep only families passing the nonzero check")

    p = sub.add_parser("filters", parents=[common], help="elementary filters of the left algebra by the right structure")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--zero", action="store_true", help="zero-magma variant (contracted algebra)")
    p.add_argument("--nonzero-only", action="store_true", help="keep only families passing the nonzero check")

    p = sub.add_parser("verify", parents=[common], help="check the axioms of a family against an algebra")
    p.add_argument("algebra")
    p.add_argument("family")
    p.add_argument("--zero", action="store_true", help="use the contracted algebra of a zero magma")

    p = sub.add_parser("roundtrip", parents=[common], help="check the relation/filter round trip over all submagmas")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("count", parents=[common], help="closed-form counts")
    p.add_argument("formula", choices=["matrix-group-gradings", "groupoid-printed", "surjections", "abelian-homs", "subspaces"])
    p.add_argument("params", nargs="*")

    return parser


def _budget_from(args) -> Budget:
    nodes = args.budget
    if nodes is None:
        env = os.environ.get(BUDGET_ENV)
        if env is not None:
            try:
                nodes = int(env)
            except ValueError:
                raise ValidationError(f"bad {BUDGET_ENV} value {env!r}") from None
    if nodes is None:
        return DEFAULT_BUDGET
    if nodes < 1:
        raise ValidationError("budget must be positive")
    return Budget(max_nodes=nodes)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None


def _load_magma(path: str):
    text = _read(path)
    if io.detect_kind(text) != "magma":
        raise ValidationError(f"{path} is not a magma file")
    return io.parse_magma(text)


def _load_structure(path: str, budget: Budget):
    text = _read(path)
    kind = io.detect_kind(text)
    if kind == "magma":
        return "magma", io.parse_magma(text), text
    if kind == "category":
        return "category", io.parse_category(text, budget), text
    raise ValidationError(f"{path} holds a {kind} document, expected a magma or category")


def _emit(out, lines_or_json):
    out.write(lines_or_json)


def _family_items(families, target_text, target_format):
    return [io.family_to_doc(f, target_text, target_format) for f in families]


def _family_lines(families):
    lines = []
    for fam in families:
        cells = [f"{h}:{{{','.join(str(b) for b in sorted(part))}}}" for h, part in enumerate(fam.parts)]
        lines.append(" ".join(cells))
    return lines


def _int_args(params, count, usage):
    if len(params) != count:
        raise ValidationError(f"expected {usage}")
    try:
        return [int(x) for x in params]
    except ValueError:
        raise ValidationError(f"expected {usage}") from None


def _run_count(args, budget, out):
    name = args.formula
    if name == "matrix-group-gradings":
        n, q = _int_args(args.params, 2, "matrix-group-gradings <n> <q>")
        value = counting.count_matrix_group_gradings(n, q)
        report = counting.CountReport("matrix_group_gradings", {"n": n, "q": q}, value, None, None)
    elif name == "groupoid-printed":
        m, n, p, q = _int_args(args.params, 4, "groupoid-printed <m> <n> <p> <q>")
        value = counting.count_groupoid_gradings_as_printed(m, n, p, q)
        report = counting.CountReport("groupoid_gradings_as_printed", {"m": m, "n": n, "p": p, "q": q}, value, None, None)
    elif name == "surjections":
        m, n = _int_args(args.params, 2, "surjections <m> <n>")
        report = counting.surjective_functions_report(m, n, Budget(max_nodes=0))
    elif name == "abelian-homs":
        if len(args.params) != 2:
            raise ValidationError("expected abelian-homs <factors> <factors> (comma-separated)")
        try:
            left = [int(x) for x in args.params[0].split(",")]
            right = [int(x) for x in args.params[1].split(",")]
        except ValueError:
            raise ValidationError("factors must be comma-separated integers") from None
        value = counting.count_abelian_homs(left, right)
        report = counting.CountReport("abelian_homs", {"source": left, "target": right}, value, None, None)
    else:
        p, n = _int_args(args.params, 2, "subspaces <p> <n>")
        report = counting.count_subspaces(p, n)
    if args.json:
        _emit(out, io.emit_report(io.count_report_to_doc(report)))
    else:
        lines = [f"closed_form {report.closed_form_value}"]
        for key in sorted(report.extras):
            lines.append(f"{key} {report.extras[key]}")
        _emit(out, "\n".join(lines) + "\n")
    return 0


def run(argv=None, out=None, err=None) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        budget = _budget_from(args)

        if args.command == "census":
            classes = census(args.order, budget)
            if args.json:
                items = [{"text": io.print_magma(m), "word": word_of_magma(m)} for m in classes]
                _emit(out, io.enumeration_report(items))
            else:
                _emit(out, "".join(word_of_magma(m) + "\n" for m in classes))
            return 0

        if args.command == "hom":
            source = _load_magma(args.source)
            target = _load_magma(args.target)
            maps = (
                enumerate_zero_homs(source, target, budget)
                if args.zero
                else enumerate_homs(source, target, budget)
            )
            if args.json:
                _emit(out, io.enumeration_report([{"images": list(m)} for m in maps]))
            else:
                _emit(out, "".join(" ".join(str(v) for v in m) + "\n" for m in maps))
            return 0

        if args.command == "submagmas":
            source = _load_magma(args.source)
            if args.zero and args.target is None:
                raise ValidationError("--zero needs a second magma operand")
            if args.target is not None:
                search = enumerate_zero_submagmas if args.zero else enumerate_product_submagmas
                rels = search(source, _load_magma(args.target), budget)
                items = [sorted(rel.pairs) for rel in rels]
                if args.json:
                    _emit(out, io.enumeration_report([{"pairs": [list(p) for p in it]} for it in items]))
                else:
                    _emit(out, "".join("{" + " ".join(f"{g}:{h}" for g, h in it) + "}\n" for it in items))
            else:
                subs = enumerate_submagmas(source, budget)
                if args.json:
                    _emit(out, io.enumeration_report([{"elements": sorted(s)} for s in subs]))
                else:
                    _emit(out, "".join("{" + ",".join(str(e) for e in sorted(s)) + "}\n" for s in subs))
            return 0

        if args.command == "functors":
            kind_s, source, _ = _load_structure(args.source, budget)
            kind_t, target, _ = _load_structure(args.target, budget)
            if kind_s != "category" or kind_t != "category":
                raise ValidationError("functors needs two category files")
            maps = (
                cat.enumerate_prefunctors(source, target, budget)
                if args.prefunctors
                else cat.enumerate_functors(source, target, budget)
            )
            if args.json:
                items = [{"objects": list(m.object_map), "morphisms": list(m.morphism_map)} for m in maps]
                _emit(out, io.enumeration_report(items))
            else:
                _emit(
                    out,
                    "".join(
                        "objects:" + ",".join(str(o) for o in m.object_map)
                        + " morphisms:" + ",".join(str(s) for s in m.morphism_map) + "\n"
                        for m in maps
                    ),
                )
            return 0

        if args.command in ("gradings", "filters"):
            kind_s, source, _ = _load_structure(args.source, budget)
            kind_t, target, target_text = _load_structure(args.target, budget)
            nonzero_only = args.nonzero_only
            if kind_s == "category" or kind_t == "category":
                if kind_s != "category" or kind_t != "category":
                    raise ValidationError("mixed magma/category operands")
                if args.command == "gradings":
                    algebra, families = alg.enumerate_category_gradings(
                        source,
                        target,
                        prefunctors=getattr(args, "prefunctors", False),
                        scalar_modulus=args.field,
                        budget=budget,
                    )
                else:
                    algebra, families = alg.enumerate_category_filters(
                        source, target, scalar_modulus=args.field, budget=budget
                    )
            else:
                zero = args.zero
                algebra = (
                    alg.contracted_algebra(source, args.field)
                    if zero
                    else alg.magma_algebra(source, args.field)
                )
                if args.command == "gradings":
                    families = (
                        alg.enumerate_nonzero_elementary_gradings(algebra, target, budget)
                        if zero
                        else alg.enumerate_elementary_gradings(algebra, target, budget)
                    )
                else:
                    families = (
                        alg.enumerate_nonzero_elementary_filters(algebra, target, budget)
                        if zero
                        else alg.enumerate_elementary_filters(algebra, target, budget)
                    )
            if nonzero_only:
                families = [f for f in families if alg.is_nonzero(algebra, f)]
            if args.json:
                _emit(out, io.enumeration_report(_family_items(families, target_text, kind_t)))
            else:
                _emit(out, "".join(line + "\n" for line in _family_lines(families)))
            return 0

        if args.command == "verify":
            kind_a, structure, _ = _load_structure(args.algebra, budget)
            if kind_a == "category":
                algebra = alg.category_algebra(structure, args.field, budget)
            elif args.zero:
                algebra = alg.contracted_algebra(structure, args.field)
            else:
                algebra = alg.magma_algebra(structure, args.field)
            family = io.parse_family(_read(args.family), algebra, budget)
            verdicts = [
                alg.is_filter(algebra, family),
                alg.is_grading(algebra, family),
                alg.is_strong(algebra, family),
                alg.is_nonzero(algebra, family),
                alg.is_elementary(algebra, family),
            ]
            if args.json:
                _emit(out, io.emit_report({"verdicts": [io.verdict_to_doc(v) for v in verdicts]}))
            else:
                _emit(out, "".join(f"{v.prop} {str(v.holds).lower()}\n" for v in verdicts))
            return 0 if verdicts[0].holds else 1

        if args.command == "roundtrip":
            source = _load_magma(args.source)
            target = _load_magma(args.target)
            algebra = alg.magma_algebra(source, args.field)
            rels = enumerate_product_submagmas(source, target, budget)
            holds = True
            for rel in rels:
                family = alg.grading_from_relation(algebra, rel)
                back = alg.relation_from_filter(algebra, family)
                again = alg.grading_from_relation(algebra, back)
                if back.pairs != rel.pairs or again.parts != family.parts:
                    holds = False
                    break
            if args.json:
                _emit(out, io.emit_report({"checked": len(rels), "holds": holds}))
            else:
                _emit(out, f"checked {len(rels)}\nholds {str(holds).lower()}\n")
            return 0 if holds else 1

        if args.command == "count":
            return _run_count(args, budget, out)

        raise ValidationError(f"unknown command {args.command!r}")

    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=err)
        return 3
    except SizeOverflowError as exc:
        print(f"budget exhausted: {exc}", file=err)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
