"""Text formats and JSON reports.

All formats are ASCII with LF line endings and a single canonical spelling on
output, so golden files can be compared byte for byte.  parse(print(x)) == x
for every value; print(parse(t)) == t for canonical text.
"""

from __future__ import annotations

import itertools
import json
from functools import partial

from .algebra import AlgebraPresentation, ElementaryFamily, Verdict
from .budget import MAX_ORDER, check_order
from .category import FinitePrecategory, _restricted, adjoin_zero, connected_groupoid, disjoint_union, validate_precategory
from .counting import CountReport
from .errors import ParseError, SizeOverflowError, check_index
from .magma import FiniteMagma, _bits, validate_magma


def _lines_of(text: str) -> list:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def integer(token: str) -> int:
    """token as an int when it is ASCII digits after an optional '-', the one spelling of an int in
    every text format and on the command line; else ValueError, which int() also raises for more
    digits than it converts."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an int: {token!r}")
    return int(token)


def _int(token: str, message: str, line: int, column: int) -> int:
    """integer(token), else a ParseError at line and column; token fills any {!r} of message."""
    try:
        return integer(token)
    except ValueError:
        raise ParseError(message.format(token), line, column) from None


def _count(token: str, message: str, line: int, column: int) -> int:
    """_int(token, ...), with a negative count refused by the same ParseError."""
    count = _int(token, message, line, column)
    if count < 0:
        raise ParseError(message.format(token), line, column)
    return count


def parse_magma(text: str) -> FiniteMagma:
    """Parse the magma format: a header line, an optional zero line, then the table rows."""
    lines = _lines_of(text)
    if not lines:
        raise ParseError("empty input", 1, 1)
    head = lines[0].split()
    if len(head) != 2 or head[0] != "magma":
        raise ParseError("expected 'magma <order>'", 1, 1)
    order = _count(head[1], "bad order {!r}", 1, 7)
    zero = None
    row_start = 1
    ztok = lines[1].split() if len(lines) > 1 else []
    if ztok[:1] == ["zero"]:
        if len(ztok) != 2:
            raise ParseError("expected 'zero <index>'", 2, 1)
        zero = _int(ztok[1], "bad zero index {!r}", 2, 6)
        row_start = 2
    rows = []
    if len(lines) != row_start + order:
        raise ParseError(f"expected {order} table rows", len(lines), 1)
    for k in range(order):
        lineno = row_start + k + 1
        toks = lines[row_start + k].split()
        if len(toks) != order:
            raise ParseError(f"expected {order} entries", lineno, 1)
        rows.append([_int(tok, "bad entry {!r}", lineno, j + 1) for j, tok in enumerate(toks)])
    return validate_magma(order, rows, zero)


def print_magma(magma: FiniteMagma) -> str:
    out = [f"magma {magma.order}"]
    if magma.zero is not None:
        out.append(f"zero {magma.zero}")
    out.extend(" ".join(str(e) for e in row) for row in magma.table)
    return "\n".join(out) + "\n"


def _parse_groupoid_presentation(lines, object_count, morphism_count):
    # One block per connected component: the objects it covers, a vertex-group
    # Cayley table, and a spanning tree over those objects.
    i = 0
    components = []
    covered = set()
    while i < len(lines):
        lineno, toks = lines[i]
        if toks[0] != "component":
            raise ParseError("expected 'component <objects...>'", lineno, 1)
        objs = [_int(t, "bad object index in component", lineno, 1) for t in toks[1:]]
        if not objs or objs != sorted(objs) or len(set(objs)) != len(objs):
            raise ParseError("component objects must be distinct and ascending", lineno, 1)
        if set(objs) & covered:
            raise ParseError("object listed in two components", lineno, 1)
        covered |= set(objs)
        i += 1
        if i >= len(lines) or lines[i][1][0] != "vertex-group":
            raise ParseError("expected 'vertex-group <order>'", lineno + 1, 1)
        lineno, toks = lines[i]
        if len(toks) != 2:
            raise ParseError("expected 'vertex-group <order>'", lineno, 1)
        q = _count(toks[1], "bad vertex group order {!r}", lineno, 14)
        i += 1
        table = []
        for _ in range(q):
            if i >= len(lines):
                raise ParseError("missing vertex group row", lineno + 1, 1)
            lineno, toks = lines[i]
            row = [_int(t, "bad vertex group entry", lineno, 1) for t in toks]
            if len(row) != q:
                raise ParseError(f"expected {q} entries in vertex group row", lineno, 1)
            table.append(row)
            i += 1
        edges = []
        while i < len(lines) and lines[i][1][0] == "tree":
            lineno, toks = lines[i]
            if len(toks) != 3:
                raise ParseError("expected 'tree <child> <parent>'", lineno, 1)
            edges.append(tuple(_int(t, "bad tree edge", lineno, 1) for t in toks[1:]))
            i += 1
        if len(edges) != len(objs) - 1:
            raise ParseError(f"expected {len(objs) - 1} tree edges", lineno, 1)
        if not set(objs).issuperset(o for edge in edges for o in edge):
            raise ParseError("tree edge leaves the component", lineno, 1)
        # k - 1 edges on k objects span them exactly when they hold no cycle
        reached = {objs[0]}
        for _ in edges:
            reached.update(*(edge for edge in edges if reached.intersection(edge)))
        if reached != set(objs):
            raise ParseError("tree does not span the component", lineno, 1)
        components.append((objs, table))
    if covered != set(range(object_count)):
        raise ParseError("components do not cover all objects", lines[-1][0] if lines else 1, 1)
    cat = FinitePrecategory(0, (), (), ())
    for objs, table in components:
        cat = disjoint_union(cat, connected_groupoid(len(objs), table))
    # The union numbers objects in the order the components list them; give each its label.
    label = [o for objs, _ in components for o in objs]
    cat = _restricted(cat, sorted(range(object_count), key=label.__getitem__), range(cat.morphism_count))
    if cat.morphism_count != morphism_count:
        raise ParseError(
            f"presentation yields {cat.morphism_count} morphisms, header says {morphism_count}",
            1,
            1,
        )
    return cat


def parse_category(text: str) -> FinitePrecategory:
    """Parse the category format.

    Explicit form: 'category <objects> <morphisms>', one 'm <dom> <cod> [id]'
    line per morphism, then one 'c <s> <t> <st>' line for every composable
    pair (partial tables are rejected).  Alternatively a
    'groupoid-presentation' body gives per-component vertex-group tables and
    spanning trees, from which the groupoid is generated.
    """
    lines = _lines_of(text)
    if not lines:
        raise ParseError("empty input", 1, 1)
    head = lines[0].split()
    if len(head) != 3 or head[0] != "category":
        raise ParseError("expected 'category <objects> <morphisms>'", 1, 1)
    object_count, morphism_count = (_count(t, "bad counts in header", 1, 10) for t in head[1:])
    if object_count > MAX_ORDER:
        raise SizeOverflowError(f"object count {object_count} exceeds the cap of {MAX_ORDER}")
    body = [(i + 2, line.split()) for i, line in enumerate(lines[1:]) if line.split()]
    if body and body[0][1] == ["groupoid-presentation"]:
        return _parse_groupoid_presentation(body[1:], object_count, morphism_count)
    check_order(morphism_count)
    morphisms = []
    identity_at = [None] * object_count
    idx = 0
    while idx < len(body) and body[idx][1][0] == "m":
        lineno, toks = body[idx]
        if len(toks) not in (3, 4) or (len(toks) == 4 and toks[3] != "id"):
            raise ParseError("expected 'm <dom> <cod> [id]'", lineno, 1)
        dom, cod = (_int(t, "bad object index", lineno, 3) for t in toks[1:3])
        if len(toks) == 4:
            if dom != cod:
                raise ParseError("identity must have dom == cod", lineno, 1)
            check_index(dom, object_count, "identity object", partial(ParseError, line=lineno, column=3))
            if identity_at[dom] is not None:
                raise ParseError(f"two identities declared at object {dom}", lineno, 1)
            identity_at[dom] = len(morphisms)
        morphisms.append((dom, cod))
        idx += 1
    if len(morphisms) != morphism_count:
        raise ParseError(f"expected {morphism_count} morphism lines", body[idx][0] if idx < len(body) else len(lines), 1)
    comp = [[None] * morphism_count for _ in range(morphism_count)]
    given = set()
    for lineno, toks in body[idx:]:
        if toks[0] != "c" or len(toks) != 4:
            raise ParseError("expected 'c <s> <t> <st>'", lineno, 1)
        s, t, st = (_int(x, "bad morphism index", lineno, 3) for x in toks[1:])
        for x in (s, t, st):
            check_index(x, morphism_count, "morphism index", partial(ParseError, line=lineno, column=3))
        if (s, t) in given:
            raise ParseError(f"duplicate composite for ({s}, {t})", lineno, 1)
        given.add((s, t))
        comp[s][t] = st
    for s in range(morphism_count):
        for t in range(morphism_count):
            if morphisms[s][0] == morphisms[t][1] and (s, t) not in given:
                raise ParseError(f"missing composite for composable pair ({s}, {t})", len(lines), 1)
    return validate_precategory(object_count, morphisms, comp, identity_at)


def print_category(cat: FinitePrecategory) -> str:
    out = [f"category {cat.object_count} {cat.morphism_count}"]
    for s in range(cat.morphism_count):
        d, c = cat.morphisms[s]
        tag = " id" if s in cat.identity_at else ""
        out.append(f"m {d} {c}{tag}")
    for s in range(cat.morphism_count):
        for t in range(cat.morphism_count):
            if cat.comp[s][t] is not None:
                out.append(f"c {s} {t} {cat.comp[s][t]}")
    return "\n".join(out) + "\n"


def detect_kind(text: str) -> str:
    """Sniff a document kind: magma, category, family or report."""
    stripped = text.lstrip()
    if stripped.startswith("magma"):
        return "magma"
    if stripped.startswith("category"):
        return "category"
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON document: {exc.msg}", exc.lineno, exc.colno) from None
        kind = doc.get("kind")
        if kind in ("family", "report"):
            return kind
    raise ParseError("unrecognized document", 1, 1)


def family_to_doc(family: ElementaryFamily, target_text: str, target_format: str) -> dict:
    """A family as a JSON-ready document embedding its target's text form."""
    return {
        "kind": "family",
        "target": {"format": target_format, "text": target_text},
        "parts": {str(h): sorted(part) for h, part in enumerate(family.parts)},
    }


def parse_family(text: str, algebra: AlgebraPresentation) -> ElementaryFamily:
    """Rebuild a family document against a given algebra presentation.

    A category target is adjoined a zero, matching the indexing that the
    grading and filter enumerations emit.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or doc.get("kind") != "family":
        raise ParseError("not a family document", 1, 1)
    target_doc = doc.get("target", {})
    if not isinstance(target_doc, dict) or not isinstance(target_doc.get("text", ""), str):
        raise ParseError("target must be an object with a text string", 1, 1)
    fmt = target_doc.get("format")
    if fmt == "magma":
        target = parse_magma(target_doc.get("text", ""))
    elif fmt == "category":
        target = adjoin_zero(parse_category(target_doc.get("text", "")))
    else:
        raise ParseError(f"unknown target format {fmt!r}", 1, 1)
    raw = doc.get("parts", {})
    if not isinstance(raw, dict):
        raise ParseError("parts must be an object", 1, 1)
    elements = [str(h) for h in range(target.order)]
    stray = sorted(raw.keys() - set(elements))
    if stray:
        raise ParseError(f"parts key {stray[0]!r} names no target element (0..{target.order - 1})", 1, 1)
    parts = []
    for h, element in enumerate(elements):
        entry = raw.get(element, [])
        if not isinstance(entry, list):
            raise ParseError(f"part {h} is not a list", 1, 1)
        parts.append(frozenset(_basis_index(b, h) for b in entry))
    return ElementaryFamily(algebra=algebra, target=target, parts=tuple(parts))


def _unique_keys(pairs) -> dict:
    """A JSON object whose keys are all distinct; json.loads alone would keep the last of a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"repeated key {key!r}", 1, 1)
        doc[key] = value
    return doc


def _basis_index(value, h: int) -> int:
    """A basis index of a family document: an int, or the decimal string --json writes for one."""
    if type(value) is int:
        return value
    message = f"part {h} holds {{!r}}, not a basis index"
    if type(value) is not str or value.startswith("-"):
        raise ParseError(message.format(value), 1, 1)
    return _int(value, message, 1, 1)


def _encode(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def verdict_to_doc(verdict: Verdict) -> dict:
    return {
        "property": verdict.prop,
        "holds": verdict.holds,
        "witness": None if verdict.witness is None else list(verdict.witness),
    }


def count_report_to_doc(report: CountReport) -> dict:
    return {
        "kind": "report",
        "formula": report.formula_name,
        "parameters": report.parameters,
        "closed_form": report.closed_form_value,
        "brute_force": report.brute_force_value,
        "agrees": report.agrees,
        "extras": report.extras,
    }


def _dumps(value) -> str:
    """Compact JSON with sorted keys and arbitrary-size integers as decimal strings."""
    return json.dumps(_encode(value), sort_keys=True, separators=(",", ":"))


def emit_report(payload) -> str:
    """Serialize a report payload: compact JSON, sorted keys, arbitrary-size
    integer values as decimal strings, one trailing newline."""
    return _dumps(payload) + "\n"


def _envelope(count: int) -> tuple:
    """The text before and after the items of an enumeration payload, as emit_report writes it."""
    return _dumps({"count": count, "items": []})[:-2], "]}\n"


def enumeration_report(items) -> str:
    """The standard enumeration payload: a count and the items in enumeration order."""
    items = list(items)
    head, tail = _envelope(len(items))
    return head + _dumps(items)[1:-1] + tail


# Items per write of write_enumeration.
_CHUNK = 4096


class _Memo(dict):
    """encode(key) for each key, computed on its first lookup."""

    def __init__(self, encode):
        super().__init__()
        self.encode = encode

    def __missing__(self, key):
        value = self[key] = self.encode(key)
        return value


def write_enumeration(out, results, count: int, encode, as_json: bool) -> None:
    """Write the count results of an iterable as it yields them, _CHUNK per write, so a lazy
    iterable is held about one chunk at a time.  The caller gives count, which the JSON envelope
    needs before the first item.  With as_json, encode(r) is the JSON of r's item, and the bytes
    are those of enumeration_report over the items; else encode(r) is r's line."""
    head, tail = _envelope(count) if as_json else ("", "\n" if count else "")
    sep = "," if as_json else "\n"
    items = map(encode, results)
    out.write(head)
    lead = ""
    while chunk := list(itertools.islice(items, _CHUNK)):
        out.write(lead + sep.join(chunk))
        lead = sep
    out.write(tail)


def _family_encoder(basis_size: int, elements, spell, sep: str, head: str = "", tail: str = ""):
    """encode(packed) = head + sep.join(spell(h, the base lines in h's field) for h in elements) + tail
    for a packed family (see algebra._lines), each distinct (h, field) spelled once, memoised by packed & window."""
    full = (1 << basis_size) - 1
    fragments = [
        (_Memo(lambda field, h=h, shift=h * basis_size: spell(h, list(_bits(field >> shift)))), full << h * basis_size)
        for h in elements
    ]

    def encode(packed):
        return head + sep.join([memo[packed & window] for memo, window in fragments]) + tail

    return encode


def family_item_encoder(target_text: str, target_format: str, basis_size: int, order: int):
    """encode(packed) = the JSON of family_to_doc(family, target_text, target_format) for the family
    of a packed int over basis_size lines and order parts, with the target encoded once."""
    # family_to_doc's keys in sorted order: "kind" < "parts" < "target", and part "10" < "2".
    head, tail = '{"kind":"family","parts":{', '},"target":' + _dumps({"format": target_format, "text": target_text}) + "}"
    keys = sorted(range(order), key=str)
    return _family_encoder(basis_size, keys, lambda h, lines: _dumps(str(h)) + ":" + _dumps(lines), ",", head, tail)


def family_line_encoder(basis_size: int, order: int):
    """encode(packed) = 'h:{b,...}' per part of the family of a packed int over basis_size lines and
    order parts, space-separated."""
    return _family_encoder(basis_size, range(order), lambda h, lines: f"{h}:{{{','.join(map(str, lines))}}}", " ")
