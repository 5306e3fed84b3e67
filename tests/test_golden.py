"""Golden CLI outputs: (exit code, sha256 of stdout) for every subcommand variant.

The hashes in ``data/golden_cli.json`` pin the observable behaviour of the
command line across refactors of the search kernels and family builders.
Every case runs with a fixed node budget, so larger operands end in exit 2
at a fixed point of the search rather than running long.  To re-record after
an intended output change, run ``python tests/test_golden.py --record``.  The file is a report document, so the
tests that parse every fixture under ``data/`` skip it.
"""

import hashlib
import io as stringio
import json
import pathlib
import sys
import tempfile

if __name__ == "__main__":  # run as a script from a checkout: import the package from src/
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gradeforge import cli  # noqa: E402

from conftest import DATA_DIR  # noqa: E402

GOLDEN_FILE = DATA_DIR / "golden_cli.json"
# Goes right after the subcommand, so a case may name a budget of its own.
BUDGET = ("--budget", "5000")

MAGMAS = ["aaaa.mag", "aabb.mag", "abab.mag", "abba.mag", "baba.mag"]
SUBMAGMA_ONLY = ["prod_aaab_aaab.mag", "prod_abba_abba.mag", "g2.mag"]
ZERO_MAGMAS = ["z2_with_zero.mag", "idem_zero2.mag", "idem_pair_zero3.mag", "g2.mag"]
CATEGORIES = ["gamma.cat", "lambda_idem.cat", "lambda_z2.cat", "mg2.cat", "bare_z2.cat"]
# Larger categories, paired only with themselves and with mg2 (several exhaust the budget).
LARGE_CATEGORIES = ["gz2_presented.cat", "two_mg2.cat"]

COUNTS = [
    ("count", "matrix-group-gradings", "3", "3"),
    ("count", "matrix-group-gradings", "1", "7"),
    ("count", "groupoid-printed", "2", "2", "1", "1"),
    ("count", "groupoid-printed", "2", "3", "2", "2"),
    ("count", "surjections", "3", "2"),
    ("count", "surjections", "6", "3"),
    ("count", "abelian-homs", "2,2", "2"),
    ("count", "abelian-homs", "4,6", "2,3,8"),
    ("count", "subspaces", "2", "3"),
    ("count", "subspaces", "3", "4"),
    # wrong arity, non-integers, and parameters outside each formula's domain
    ("count", "subspaces", "2"),
    ("count", "abelian-homs", "2"),
    ("count", "matrix-group-gradings", "3", "x"),
    ("count", "abelian-homs", "2,x", "2"),
    ("count", "matrix-group-gradings", "0", "2"),
    ("count", "groupoid-printed", "0", "2", "1", "1"),
    ("count", "surjections", "-1", "2"),
    ("count", "subspaces", "1", "3"),
]
# iso on two files of one class, a file and itself, two classes of one order, two orders, and a
# category operand (exit 1 before any output).
ISO_PAIRS = [
    ("aaab.mag", "idem_zero2.mag"),
    ("g2.mag", "g2.mag"),
    ("aabb.mag", "abab.mag"),
    ("aabb.mag", "z2_with_zero.mag"),
    ("aabb.mag", "gamma.cat"),
]
# Runs that stop with exit 1 before any output.
ERRORS = [
    ("hom", "missing.mag", "aabb.mag"),
    ("hom", "gamma.cat", "aabb.mag"),
    ("gradings", "aabb.mag", "gamma.cat"),
    ("filters", "gamma.cat", "aabb.mag"),
    ("submagmas", "idem_zero2.mag", "--zero"),
]

VERIFY_PER_SOURCE = 8
# Each verify input also runs over odd prime fields, and again with one basis
# index moved to the next part, which makes most axioms fail.
VERIFY_FIELDS = [(), ("--field", "3"), ("--field", "5")]
# (algebra file, enumeration argv whose --json items become verify inputs, verify flags)
VERIFY_SOURCES = [
    ("aabb.mag", ("gradings", "aabb.mag", "abab.mag"), ()),
    ("abba.mag", ("filters", "abba.mag", "abba.mag"), ()),
    ("g2.mag", ("gradings", "g2.mag", "z2_with_zero.mag", "--zero"), ("--zero",)),
    ("idem_pair_zero3.mag", ("filters", "idem_pair_zero3.mag", "idem_zero2.mag", "--zero"), ("--zero",)),
    ("gamma.cat", ("gradings", "gamma.cat", "lambda_z2.cat", "--prefunctors"), ()),
    ("mg2.cat", ("filters", "mg2.cat", "lambda_idem.cat"), ()),
]


def _run(argv):
    out = stringio.StringIO()
    code = cli.run([argv[0], *BUDGET, *argv[1:]], out, stringio.StringIO())
    return code, out.getvalue()


def observe(argv):
    code, stdout = _run(argv)
    return code, hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _enumerations():
    for s in MAGMAS + SUBMAGMA_ONLY:
        yield ("submagmas", s)
    for s in MAGMAS:
        for t in MAGMAS:
            yield ("submagmas", s, t)
            yield ("hom", s, t)
            yield ("gradings", s, t)
            yield ("filters", s, t)
            yield ("roundtrip", s, t)
        yield ("gradings", s, s, "--nonzero-only")
        yield ("filters", s, s, "--nonzero-only")
    for s in ZERO_MAGMAS:
        for t in ZERO_MAGMAS:
            yield ("submagmas", s, t, "--zero")
            yield ("hom", s, t, "--zero")
            yield ("gradings", s, t, "--zero")
            yield ("filters", s, t, "--zero")
        yield ("filters", s, s, "--zero", "--nonzero-only")
    category_pairs = [(s, t) for s in CATEGORIES for t in CATEGORIES]
    category_pairs += [(s, t) for s in LARGE_CATEGORIES for t in (s, "mg2.cat")]
    category_pairs += [("mg2.cat", s) for s in LARGE_CATEGORIES]
    for s, t in category_pairs:
        yield ("functors", s, t)
        yield ("functors", s, t, "--prefunctors")
        yield ("gradings", s, t, "--functors")
        yield ("gradings", s, t, "--prefunctors")
        yield ("filters", s, t)
    for s in CATEGORIES + LARGE_CATEGORIES:
        yield ("filters", s, s, "--nonzero-only")
    for s in MAGMAS + SUBMAGMA_ONLY + ZERO_MAGMAS[:3]:
        yield ("canon", s)
    yield ("canon", "prod_abba_abba.mag", "--budget", "1")
    for s, t in ISO_PAIRS:
        yield ("iso", s, t)
    for order in ("1", "2", "3"):
        yield ("census", order)
    yield ("census", "3", "--budget", "10000000")
    # The benchmarked run, 65,536 filters, and the submagmas of the same product: the golden
    # cases with megabytes of output.
    yield ("filters", "prod_aabb_aabb.mag", "prod_aabb_aabb.mag", "--budget", "1000000")
    yield ("submagmas", "prod_aabb_aabb.mag", "prod_aabb_aabb.mag", "--budget", "1000000")
    yield from COUNTS
    yield from ERRORS


def cases(data_dir, tmp_dir):
    """(label, argv) pairs; labels name fixtures by file name only."""

    def resolve(arg):
        return str(data_dir / arg) if arg.endswith((".mag", ".cat")) else arg

    out = []
    for argv in _enumerations():
        for fmt in ((), ("--json",)):
            label = " ".join(argv + fmt)
            out.append((label, [resolve(a) for a in argv + fmt]))
    for algebra, source, flags in VERIFY_SOURCES:
        code, doc = _run([resolve(a) for a in source + ("--json",)])
        assert code == 0, source
        items = json.loads(doc)["items"]
        for i in range(0, len(items), max(1, len(items) // VERIFY_PER_SOURCE)):
            variants = [("", items[i])]
            moved = _moved_index(items[i])
            if moved is not None:
                variants.append(("~moved", moved))
            for suffix, item in variants:
                family = tmp_dir / f"{'_'.join(source)}_{i}{suffix}.json"
                family.write_text(json.dumps(item), encoding="utf-8")
                for field in VERIFY_FIELDS:
                    for fmt in ((), ("--json",)):
                        label = " ".join(("verify", algebra, f"<{' '.join(source)}>[{i}]{suffix}") + flags + field + fmt)
                        out.append((label, ["verify", resolve(algebra), str(family), *flags, *field, *fmt]))
    return out


def _moved_index(item):
    """The family item with the least basis index of its first nonempty part
    moved into the next part (cyclically); None if every part is empty."""
    parts = {h: list(part) for h, part in item["parts"].items()}
    order = len(parts)
    for h in range(order):
        if parts[str(h)]:
            b = min(parts[str(h)], key=int)
            parts[str(h)].remove(b)
            nxt = str((h + 1) % order)
            parts[nxt] = sorted(set(parts[nxt]) | {b}, key=int)
            return {**item, "parts": parts}
    return None


def record():
    """Rewrite the hash file from the outputs of the code as it stands."""
    with tempfile.TemporaryDirectory() as tmp:
        observed = {label: list(observe(argv)) for label, argv in cases(DATA_DIR, pathlib.Path(tmp))}
    doc = {"cases": observed, "kind": "report"}
    GOLDEN_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return len(observed)


def test_cli_outputs_match_golden_hashes(tmp_path):
    golden = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))["cases"]
    observed = {label: list(observe(argv)) for label, argv in cases(DATA_DIR, tmp_path)}
    assert sorted(observed) == sorted(golden)
    mismatched = [label for label in golden if observed[label] != golden[label]]
    assert not mismatched, f"{len(mismatched)} outputs changed, first: {mismatched[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    print(f"recorded {record()} cases in {GOLDEN_FILE}")
