"""Fuzz the command line: grammar-aware mutations of every input format, argv over every subcommand.

Each example writes its operand documents to files and runs ``cli.run`` in
process with a small node budget.  Whatever the input, no exception may
escape (argparse's ``SystemExit(0)`` for ``--help`` aside), the exit code is
one of 0, 1, 2, 3, any stderr line starts with a documented prefix, and a
run that fails prints nothing on stdout.  Only ``verify``, ``roundtrip`` and
``iso`` may exit 1 after printing their verdicts.
"""

import io as stringio
import json
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from gradeforge import cli

from conftest import DATA_DIR

PREFIXES = ("usage error: ", "parse error: ", "budget exhausted: ", "error: ")
PRINT_THEN_FAIL = ("verify", "roundtrip", "iso")

MAGMA_TEXTS = sorted(p.read_text(encoding="utf-8") for p in DATA_DIR.glob("*.mag"))
# The fixtures, and a presentation whose components interleave object labels and whose tree has two edges.
CATEGORY_TEXTS = sorted(p.read_text(encoding="utf-8") for p in DATA_DIR.glob("*.cat")) + [
    "category 4 10\ngroupoid-presentation\ncomponent 0 1 3\nvertex-group 1\n0\ntree 1 0\ntree 3 1\n"
    "component 2\nvertex-group 1\n0\n"
]


def _family_texts():
    """The first --json item of a magma and of a category gradings run, as family documents."""
    texts = []
    for argv in (["gradings", "aabb.mag", "abab.mag"], ["gradings", "gamma.cat", "lambda_z2.cat", "--prefunctors"]):
        argv[1:3] = [str(DATA_DIR / name) for name in argv[1:3]]
        out = stringio.StringIO()
        assert cli.run(argv + ["--json"], out) == 0
        texts.append(json.dumps(json.loads(out.getvalue())["items"][0]))
    return texts


FAMILY_TEXTS = _family_texts()

# Tokens that are numbers of every awkward kind, or words of the grammar in the wrong place.
TOKENS = st.one_of(
    st.integers(-3, 70).map(str),
    st.integers(0, 10**30).map(str),
    st.sampled_from(
        ["", "x", "1.5", "1e400", "-0", "+1", "1_0", "٣", "id", "zero", "m", "c", "tree", "component",
         "vertex-group", "groupoid-presentation", "category", "magma", "{", "[1,2]"]
    ),
)
GRAMMAR_LINES = st.sampled_from(
    ["zero 0", "m 0 0 id", "m 0 1", "c 0 0 0", "groupoid-presentation", "component 0", "component 0 1",
     "vertex-group 1", "vertex-group 2", "0", "0 1", "1 0", "tree 1 0", "tree 0 0", ""]
)


@st.composite
def mutated_text(draw, texts):
    """One of texts with up to three token, line or truncation edits."""
    lines = [line.split(" ") for line in draw(st.sampled_from(texts)).split("\n")]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["token", "token", "drop", "duplicate", "insert", "truncate"]))
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if edit == "token" and lines:
            col = draw(st.integers(0, len(lines[at])))  # one past the end appends a token
            lines[at][col:col + 1] = [draw(TOKENS)]
        elif edit == "drop" and lines:
            del lines[at]
        elif edit == "duplicate" and lines:
            lines.insert(at, list(lines[at]))
        elif edit == "insert":
            lines.insert(at, draw(GRAMMAR_LINES).split(" "))
        elif edit == "truncate":
            lines = lines[:at + 1]
            if lines:
                lines[-1] = lines[-1][:draw(st.integers(0, len(lines[-1])))]
    return "\n".join(" ".join(toks) for toks in lines)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.integers(10**18, 10**30) | st.floats(allow_nan=False)
    | st.text(max_size=3) | st.sampled_from(["0", "1", "magma", "category", "family"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=5,
)


def _paths(doc, prefix=()):
    """Every key path into a family document, objects and lists alike."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def family_text(draw):
    """A family document with up to three values replaced, deleted or given a mutated target text."""
    doc = json.loads(draw(st.sampled_from(FAMILY_TEXTS)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent, key = draw(st.sampled_from(paths))
        holder = doc
        for step in parent:
            holder = holder[step]
        edit = draw(st.sampled_from(["value", "delete", "text"]))
        if edit == "value":
            holder[key] = draw(JSON_VALUES)
        elif edit == "delete":
            del holder[key]
        elif isinstance(doc.get("target"), dict):
            doc["target"]["text"] = draw(mutated_text(MAGMA_TEXTS + CATEGORY_TEXTS))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text.replace(draw(st.sampled_from(["0", "1", "[", "}", '"'])), draw(st.sampled_from(["1e400", "", "-1"])), 1)
    return text


HEADER_COUNTS = st.one_of(st.integers(0, 16), st.integers(0, 10**4), st.integers(10**18, 10**22))
CATEGORY_OPERANDS = st.one_of(
    st.sampled_from(CATEGORY_TEXTS),
    mutated_text(CATEGORY_TEXTS),
    HEADER_COUNTS.map(lambda n: f"category {n} 0\n"),  # objects no morphism touches
)
MAGMA_OPERANDS = st.one_of(st.sampled_from(MAGMA_TEXTS), mutated_text(MAGMA_TEXTS))
ANY_OPERAND = st.one_of(MAGMA_OPERANDS, CATEGORY_OPERANDS, family_text(), st.none())  # None: no such file
FIELDS = st.sampled_from(["2", "3", "5", "4", "1", "0", "-7", "x", str((1 << 61) - 1), str(1 << 64)])
# The flags each subcommand takes; P stands for a drawn field.
COMMANDS = {
    "canon": ["--json", "--table"],
    "census": ["--json", "--table"],
    "hom": ["--json", "--zero"],
    "submagmas": ["--json", "--zero"],
    "functors": ["--json", "--prefunctors"],
    "gradings": ["--json", "--zero", "--prefunctors", "--functors", "--nonzero-only", "P"],
    "filters": ["--json", "--zero", "--nonzero-only", "P"],
    "verify": ["--json", "--zero", "P"],
    "roundtrip": ["--json", "P"],
    "count": ["--json", "--table"],
    "iso": ["--json", "--table"],
}
WILD_FLAGS = st.one_of(
    st.sampled_from([["--table", "--json"], ["--prefunctors"], ["--functors"], ["--nonzero-only"], ["--bogus"],
                     ["--field"], ["--help"], ["-h"]]),
    TOKENS.map(lambda n: ["--budget", n]),
)
ARITY = {"matrix-group-gradings": 2, "groupoid-printed": 4, "surjections": 2, "abelian-homs": 2, "subspaces": 2}
COUNT_PARAMS = st.one_of(
    st.integers(-1, 9).map(str),
    st.lists(st.integers(-1, 9).map(str), min_size=1, max_size=3).map(",".join),
    TOKENS,
)


def _rarely(draw):
    return draw(st.sampled_from(range(6))) == 5


@st.composite
def invocations(draw):
    """(argv, documents): argv holds None where an operand path goes, and each document is the
    text of one operand, or None for a file that does not exist."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    docs = []
    if command == "census":
        words = [draw(HEADER_COUNTS.map(str) | TOKENS)]
    elif command == "count":
        formula = draw(st.sampled_from(sorted(ARITY) + ["nope"]))
        arity = ARITY.get(formula, 1) + (draw(st.sampled_from([-1, 1])) if _rarely(draw) else 0)
        words = [formula] + [draw(COUNT_PARAMS) for _ in range(arity)]
    else:
        operands = draw(st.sampled_from([MAGMA_OPERANDS, CATEGORY_OPERANDS]))
        docs = [draw(ANY_OPERAND if _rarely(draw) else operands) for _ in range(2)]
        if command == "canon" or (command == "submagmas" and draw(st.booleans())):
            docs.pop()
        if command == "verify":
            docs[1] = draw(ANY_OPERAND if _rarely(draw) else family_text())
        words = [None] * len(docs)
    flags = []
    for flag in draw(st.lists(st.sampled_from(COMMANDS[command]), max_size=2, unique=True)):
        flags += ["--field", draw(FIELDS)] if flag == "P" else [flag]
    if _rarely(draw):
        flags += draw(WILD_FLAGS)
    budget = draw(st.sampled_from(["1", "3000", "20000"]))  # last, so it wins over a drawn --budget
    return [command, *words, *flags, "--budget", budget], docs


@settings(
    max_examples=600,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_no_input_escapes_the_documented_exits(invocation):
    argv, docs = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            path = pathlib.Path(tmp) / f"operand{i}"
            if doc is not None:
                path.write_text(doc, encoding="utf-8")
            paths.append(str(path))
        argv = [paths.pop(0) if word is None else word for word in argv]
        out, err = stringio.StringIO(), stringio.StringIO()
        try:
            code = cli.run(argv, out, err)
        except SystemExit as exc:  # argparse prints --help and exits 0
            assert exc.code == 0 and ("--help" in argv or "-h" in argv), argv
            return
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    if err:
        assert code != 0 and err.startswith(PREFIXES) and err.count("\n") == 1, (argv, err)
        assert out == "", (argv, out)
    else:
        assert code == 0 or (code == 1 and argv[0] in PRINT_THEN_FAIL), (argv, code)
