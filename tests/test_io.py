import importlib.util
import io as stringio
import json
import pathlib
import tracemalloc
import unittest.mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from gradeforge import cli
from gradeforge import io as gio
from gradeforge.algebra import (
    ElementaryFamily,
    _families,
    _packed_maps,
    _packed_masks,
    category_algebra,
    contracted_algebra,
    enumerate_category_filters,
    enumerate_category_gradings,
    enumerate_elementary_filters,
    enumerate_elementary_gradings,
    enumerate_nonzero_elementary_filters,
    enumerate_nonzero_elementary_gradings,
    grading_from_relation,
    is_nonzero,
    magma_algebra,
)
from gradeforge.budget import Budget
from gradeforge.category import (
    adjoin_zero,
    connected_groupoid,
    disjoint_union,
    enumerate_functors,
    enumerate_prefunctors,
    matrix_groupoid,
)
from gradeforge.errors import BadCompositionError, IndexOutOfRangeError, ParseError, SizeOverflowError
from gradeforge.io import (
    detect_kind,
    emit_report,
    enumeration_report,
    family_item_encoder,
    family_line_encoder,
    family_to_doc,
    parse_category,
    parse_family,
    parse_magma,
    print_category,
    print_magma,
    write_enumeration,
)
from gradeforge.magma import (
    PairRelation,
    _bits,
    _pair_mask,
    census,
    cyclic_group_magma,
    enumerate_homs,
    enumerate_product_submagmas,
    enumerate_submagmas,
    enumerate_zero_homs,
    enumerate_zero_submagmas,
    magma_from_word,
    matrix_unit_zero_magma,
    with_zero_adjoined,
    word_of_magma,
)

from conftest import DATA_DIR, ORDER2_WORDS, involution_arrow_category, relabel_objects
from pair_families import pair_families
from test_properties import magmas


class TestMagmaFormat:
    def test_trivial(self):
        assert parse_magma("magma 1\n0\n").order == 1

    def test_round_trip_is_bit_exact(self):
        text = "magma 2\n0 0\n0 0\n"
        assert print_magma(parse_magma(text)) == text

    def test_all_representatives_round_trip(self):
        for word in ORDER2_WORDS:
            magma = magma_from_word(word)
            assert parse_magma(print_magma(magma)) == magma

    def test_zero_line(self):
        g2 = matrix_unit_zero_magma(2)
        text = print_magma(g2)
        assert text.splitlines()[1] == "zero 4"
        assert parse_magma(text) == g2

    def test_entry_out_of_range_is_a_validation_error(self):
        with pytest.raises(IndexOutOfRangeError):
            parse_magma("magma 2\n0 2\n0 0\n")

    def test_syntax_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_magma("magma 2\n0 x\n0 0\n")
        assert info.value.line == 2

    def test_row_count_checked(self):
        with pytest.raises(ParseError):
            parse_magma("magma 2\n0 0\n")


PRESENTED = "category 2 2\ngroupoid-presentation\ncomponent 0 1\nvertex-group 1\n"


class TestParseErrorPositions:
    """Each integer field that does not parse, and each bad spanning tree, has a fixed message, line and column."""

    @pytest.mark.parametrize(
        "parse,text,message,line,column",
        [
            (parse_magma, "magma x\n", "bad order 'x'", 1, 7),
            (parse_magma, "magma 1\nzero x\n0\n", "bad zero index 'x'", 2, 6),
            (parse_magma, "magma 2\n0 x\n0 0\n", "bad entry 'x'", 2, 2),
            # One spelling of an int: ASCII digits after an optional '-'; int() read each of these.
            (parse_magma, "magma 0_2\n", "bad order '0_2'", 1, 7),
            (parse_magma, "magma 1\nzero +0\n0\n", "bad zero index '+0'", 2, 6),
            (parse_magma, "magma 2\n0 \u0661\n1 0\n", "bad entry '\u0661'", 2, 2),
            (parse_magma, "magma 2\n0 \uff11\n1 0\n", "bad entry '\uff11'", 2, 2),
            (parse_category, "category 1 1\nm 0 0 id\nc 0 0 -0_0\n", "bad morphism index", 3, 3),
            (parse_magma, "magma 2\n0 --1\n1 0\n", "bad entry '--1'", 2, 2),
            (parse_category, "category 1 1\nm 1 1 id\n", "identity object 1 outside 0..0", 2, 3),
            (parse_category, "category 1 1\nm 0 0 id\nc 0 0 -1\n", "morphism index -1 outside 0..0", 3, 3),
            (parse_category, "category x 1\n", "bad counts in header", 1, 10),
            (parse_category, "category 1 x\n", "bad counts in header", 1, 10),
            # A negative count is refused at the header, before the rows or morphism lines are counted.
            (parse_magma, "magma -1\n", "bad order '-1'", 1, 7),
            (parse_magma, "magma -2\nzero 0\n", "bad order '-2'", 1, 7),
            (parse_category, "category 1 -1\n", "bad counts in header", 1, 10),
            (parse_category, "category -1 0\n", "bad counts in header", 1, 10),
            (parse_category, "category 1 1\nm 0 x id\n", "bad object index", 2, 3),
            (parse_category, "category 1 1\nm 0 0 id\nc 0 0 x\n", "bad morphism index", 3, 3),
            (parse_category, "category 1 1\ngroupoid-presentation\ncomponent x\n", "bad object index in component", 3, 1),
            (parse_category, "category 1 1\ngroupoid-presentation\ncomponent 0\nvertex-group x\n", "bad vertex group order 'x'", 4, 14),
            # A negative vertex-group order is refused where it is read, not as an empty group later.
            (parse_category, "category 1 1\ngroupoid-presentation\ncomponent 0\nvertex-group -1\n", "bad vertex group order '-1'", 4, 14),
            (parse_category, "category 1 1\ngroupoid-presentation\ncomponent 0\nvertex-group -1\n0\n", "bad vertex group order '-1'", 4, 14),
            (parse_category, PRESENTED.replace("group 1", "group 2") + "0 x\n", "bad vertex group entry", 5, 1),
            # The row that is missing is the one after the last line read.
            (parse_category, "category 1 2\ngroupoid-presentation\ncomponent 0\nvertex-group 2\n0 1\n", "missing vertex group row", 6, 1),
            (parse_category, PRESENTED + "0\ntree 1 x\n", "bad tree edge", 6, 1),
            (parse_category, PRESENTED + "0\ntree 1 2\n", "tree edge leaves the component", 6, 1),
            (parse_category, "category 3 9\ngroupoid-presentation\ncomponent 0 1 2\nvertex-group 1\n0\ntree 1 0\ntree 0 1\n",
             "tree does not span the component", 7, 1),
        ],
    )
    def test_message_line_and_column(self, parse, text, message, line, column):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (str(info.value), info.value.line, info.value.column) == (
            f"{message} (line {line}, column {column})", line, column
        )


class TestCategoryFormat:
    def test_matrix_groupoid_round_trip(self):
        mg = matrix_groupoid(2)
        assert parse_category(print_category(mg)) == mg

    def test_section3_round_trip(self):
        gamma = involution_arrow_category()
        assert parse_category(print_category(gamma)) == gamma

    def test_missing_composite_is_a_parse_error(self):
        text = "category 1 1\nm 0 0 id\n"
        with pytest.raises(ParseError):
            parse_category(text)

    def test_explicit_morphism_count_past_the_cap_is_refused_before_the_table(self):
        # The header's morphism count is held to the cap before the m lines are read, so the
        # 5000 x 5000 composition table (some 200 MiB) is never built.
        text = "category 1 5000\n" + "m 0 0\n" * 5000
        tracemalloc.start()
        try:
            with pytest.raises(SizeOverflowError, match=r"^order 5000 exceeds the cap of 64$"):
                parse_category(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_non_composable_triple_rejected(self):
        text = "category 2 2\nm 0 0 id\nm 0 1\nc 0 0 0\nc 1 0 1\nc 0 1 0\n"
        with pytest.raises(BadCompositionError):
            parse_category(text)

    def test_groupoid_presentation(self):
        text = (
            "category 2 8\n"
            "groupoid-presentation\n"
            "component 0 1\n"
            "vertex-group 2\n"
            "0 1\n"
            "1 0\n"
            "tree 1 0\n"
        )
        assert parse_category(text) == connected_groupoid(2, [[0, 1], [1, 0]])

    def test_groupoid_presentation_multiple_components(self):
        text = (
            "category 3 5\n"
            "groupoid-presentation\n"
            "component 0 1\n"
            "vertex-group 1\n"
            "0\n"
            "tree 1 0\n"
            "component 2\n"
            "vertex-group 1\n"
            "0\n"
        )
        cat = parse_category(text)
        assert cat.object_count == 3 and cat.morphism_count == 5

    def test_groupoid_presentation_keeps_object_labels(self):
        text = (
            "category 3 5\n"
            "groupoid-presentation\n"
            "component 0 2\n"
            "vertex-group 1\n"
            "0\n"
            "tree 2 0\n"
            "component 1\n"
            "vertex-group 1\n"
            "0\n"
        )
        cat = parse_category(text)
        assert cat.hom(0, 1) == cat.hom(1, 0) == () and len(cat.hom(0, 2)) == len(cat.hom(2, 0)) == 1
        assert [cat.morphisms[i] for i in cat.identity_at] == [(0, 0), (1, 1), (2, 2)]

    def test_groupoid_presentation_labels_each_object_as_listed(self):
        # The union of the components in the order listed, with object k of the union renamed to the
        # k-th object the components list: 0, 2, then 1.  Morphisms keep the union's order.
        text = (
            "category 3 11\ngroupoid-presentation\n"
            "component 0 2\nvertex-group 2\n0 1\n1 0\ntree 2 0\n"
            "component 1\nvertex-group 3\n0 1 2\n1 2 0\n2 0 1\n"
        )
        z2, z3 = cyclic_group_magma(2).table, cyclic_group_magma(3).table
        union = disjoint_union(connected_groupoid(2, z2), connected_groupoid(1, z3))
        cat = parse_category(text)
        assert cat == relabel_objects(union, [0, 2, 1])
        assert cat.morphisms == ((0, 0), (0, 0), (2, 0), (2, 0), (0, 2), (0, 2), (2, 2), (2, 2), (1, 1), (1, 1), (1, 1))
        assert cat.identity_at == (0, 8, 6)

    def test_groupoid_presentation_checks_morphism_count(self):
        text = (
            "category 2 7\n"
            "groupoid-presentation\n"
            "component 0 1\n"
            "vertex-group 2\n"
            "0 1\n"
            "1 0\n"
            "tree 1 0\n"
        )
        with pytest.raises(ParseError):
            parse_category(text)

    def test_presented_groupoid_reprints_explicitly(self):
        text = (
            "category 2 8\n"
            "groupoid-presentation\n"
            "component 0 1\n"
            "vertex-group 2\n"
            "0 1\n"
            "1 0\n"
            "tree 1 0\n"
        )
        cat = parse_category(text)
        canonical = print_category(cat)
        assert parse_category(canonical) == cat
        assert print_category(parse_category(canonical)) == canonical


class TestReports:
    def test_empty_enumeration_bytes(self):
        assert enumeration_report([]) == '{"count":"0","items":[]}\n'

    def test_integers_become_decimal_strings(self):
        assert emit_report({"value": 9}) == '{"value":"9"}\n'
        assert emit_report({"big": 10 ** 30}) == '{"big":"1000000000000000000000000000000"}\n'

    def test_booleans_survive(self):
        assert emit_report({"ok": True, "missing": None}) == '{"missing":null,"ok":true}\n'

    def test_nine_filter_listing(self, order2):
        g = order2["aaaa"]
        algebra = magma_algebra(g)
        fams = [grading_from_relation(algebra, PairRelation(g, g, pairs)) for pairs in enumerate_product_submagmas(g, g)]
        text = enumeration_report([family_to_doc(f, print_magma(g), "magma") for f in fams])
        doc = json.loads(text)
        assert doc["count"] == "9" and len(doc["items"]) == 9

    def test_family_document_round_trip(self, order2):
        g = order2["abaa"]
        algebra = magma_algebra(g)
        pairs = enumerate_product_submagmas(g, order2["aabb"])[3]
        fam = grading_from_relation(algebra, PairRelation(g, order2["aabb"], pairs))
        text = emit_report(family_to_doc(fam, print_magma(order2["aabb"]), "magma"))
        parsed = parse_family(text, algebra)
        assert parsed.parts == fam.parts and parsed.target == fam.target

    def test_detect_kind(self):
        assert detect_kind("magma 1\n0\n") == "magma"
        assert detect_kind("category 1 1\nm 0 0 id\nc 0 0 0\n") == "category"
        assert detect_kind('{"kind":"family","parts":{}}') == "family"
        with pytest.raises(ParseError):
            detect_kind("nonsense")


class TestFixtureFiles:
    def test_every_fixture_round_trips(self, data_dir):
        for path in sorted(data_dir.iterdir()):
            text = path.read_text(encoding="utf-8")
            kind = detect_kind(text)
            if kind == "magma":
                value = parse_magma(text)
                printed = print_magma(value)
                assert parse_magma(printed) == value
            elif kind == "category":
                value = parse_category(text)
                printed = print_category(value)
                assert parse_category(printed) == value

    def test_generator_reproduces_every_fixture(self, data_dir, tmp_path):
        script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "gen_fixtures.py"
        spec = importlib.util.spec_from_file_location("gen_fixtures", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(tmp_path)
        written = sorted(tmp_path.iterdir())
        assert written
        for path in written:
            assert path.read_bytes() == (data_dir / path.name).read_bytes(), path.name


def _wide_enumerations():
    """(label, families, target text, target format, (basis size, part count)) on targets of 12 and
    13 parts, where the part key "10" sorts before "2"."""
    aabb, z12 = magma_from_word("aabb"), cyclic_group_magma(12)
    algebra = magma_algebra(aabb)
    filters = enumerate_elementary_filters(algebra, z12)
    groupoid = connected_groupoid(2, cyclic_group_magma(3).table)
    point = connected_groupoid(1, ((0,),))
    cat_algebra, cat_filters = enumerate_category_filters(point, groupoid)
    magma_text, cat_text = print_magma(z12), print_category(groupoid)
    magma_shape, cat_shape = (algebra.basis_size, z12.order), (cat_algebra.basis_size, groupoid.morphism_count + 1)
    return [
        ("gradings", enumerate_elementary_gradings(algebra, z12), magma_text, "magma", magma_shape),
        ("filters", filters, magma_text, "magma", magma_shape),
        ("nonzero-only filters", [f for f in filters if is_nonzero(algebra, f)], magma_text, "magma", magma_shape),
        ("category gradings", enumerate_category_gradings(point, groupoid)[1], cat_text, "category", cat_shape),
        ("category filters", cat_filters, cat_text, "category", cat_shape),
        (
            "nonzero-only category filters",
            [f for f in cat_filters if is_nonzero(cat_algebra, f)], cat_text, "category", cat_shape,
        ),
        ("none", [], magma_text, "magma", magma_shape),
    ]


def _written(results, encode, as_json):
    out = stringio.StringIO()
    write_enumeration(out, results, len(results), encode, as_json)
    return out.getvalue()


def _family_line(family):
    return " ".join(f"{h}:{{{','.join(map(str, sorted(part)))}}}" for h, part in enumerate(family.parts))


def _packed(family):
    """The family as the encoders take it: base line b of parts[h] at bit h*basis_size + b."""
    nb = family.algebra.basis_size
    return sum(1 << (h * nb + b) for h, part in enumerate(family.parts) for b in part)


_STRUCTURES = {
    "aabb": print_magma(magma_from_word("aabb")),
    "z4": print_magma(cyclic_group_magma(4)),
    "z12": print_magma(cyclic_group_magma(12)),
    "g2": print_magma(matrix_unit_zero_magma(2)),
    "z2zero": print_magma(with_zero_adjoined(cyclic_group_magma(2))),
    "point": print_category(connected_groupoid(1, ((0,),))),
    "groupoid": print_category(connected_groupoid(2, cyclic_group_magma(3).table)),
}

# (source, target, argv): argv[0] runs on the named structures (None: no operand), then argv[1:].
_CLI_CASES = [
    ("aabb", "z12", ("filters", "--nonzero-only")),
    ("aabb", "z12", ("gradings",)),
    ("point", "groupoid", ("filters", "--nonzero-only")),
    ("point", "groupoid", ("gradings", "--prefunctors")),
    # The contracted zero of g2 has no basis line, so its pairs pack to nothing.
    ("g2", "z2zero", ("gradings", "--zero")),
    ("g2", "z2zero", ("filters", "--zero", "--nonzero-only")),
    (None, None, ("census", "2")),
    ("z12", "z12", ("hom",)),
    ("g2", "g2", ("hom", "--zero")),
    ("z12", None, ("submagmas",)),
    ("aabb", "aabb", ("submagmas",)),
    ("g2", "z2zero", ("submagmas", "--zero")),
    ("groupoid", "groupoid", ("functors", "--prefunctors")),
    # Targets larger than the source: hom items are joined from one fragment per target index.
    ("z4", "z12", ("hom",)),
    ("z2zero", "g2", ("hom", "--zero")),
]


def _cli_output(source, target, argv, tmp_path, as_json):
    paths = []
    for name in filter(None, (source, target)):
        path = tmp_path / name
        path.write_text(_STRUCTURES[name], encoding="utf-8")
        paths.append(str(path))
    out = stringio.StringIO()
    assert cli.run([argv[0], *paths, *argv[1:], *(["--json"] if as_json else [])], out, stringio.StringIO()) == 0
    return out.getvalue()


def _expected(source, target, argv):
    """(JSON items, text lines) of a CLI enumeration, spelled out here from the library's results."""
    command, flags = argv[0], argv[1:]
    if command == "census":
        classes = census(int(flags[0]))
        return [{"text": print_magma(m), "word": word_of_magma(m)} for m in classes], list(map(word_of_magma, classes))
    parsed = {
        name: (parse_magma if _STRUCTURES[name].startswith("magma") else parse_category)(_STRUCTURES[name])
        for name in filter(None, (source, target))
    }
    s, t = parsed[source], parsed.get(target)
    if command == "hom":
        maps = (enumerate_zero_homs if "--zero" in flags else enumerate_homs)(s, t)
        return [{"images": list(m)} for m in maps], [" ".join(map(str, m)) for m in maps]
    if command == "submagmas" and t is None:
        subs = [sorted(sub) for sub in enumerate_submagmas(s)]
        return [{"elements": sub} for sub in subs], ["{" + ",".join(map(str, sub)) + "}" for sub in subs]
    if command == "submagmas":
        search = enumerate_zero_submagmas if "--zero" in flags else enumerate_product_submagmas
        rels = [sorted(pairs) for pairs in search(s, t)]
        lines = ["{" + " ".join(f"{g}:{h}" for g, h in rel) + "}" for rel in rels]
        return [{"pairs": [list(p) for p in rel]} for rel in rels], lines
    if command == "functors":
        maps = (enumerate_prefunctors if "--prefunctors" in flags else enumerate_functors)(s, t)
        items = [{"objects": list(m.object_map), "morphisms": list(m.morphism_map)} for m in maps]
        spell = ",".join
        return items, [f"objects:{spell(map(str, m.object_map))} morphisms:{spell(map(str, m.morphism_map))}" for m in maps]
    fmt = "magma" if _STRUCTURES[source].startswith("magma") else "category"
    if fmt == "magma" and "--zero" in flags:
        algebra = contracted_algebra(s)
        build = enumerate_nonzero_elementary_filters if command == "filters" else enumerate_nonzero_elementary_gradings
        families = build(algebra, t)
    elif fmt == "magma":
        algebra = magma_algebra(s)
        build = enumerate_elementary_filters if command == "filters" else enumerate_elementary_gradings
        families = build(algebra, t)
    elif command == "filters":
        algebra, families = enumerate_category_filters(s, t)
    else:
        algebra, families = enumerate_category_gradings(s, t, prefunctors="--prefunctors" in flags)
    if "--nonzero-only" in flags:
        families = [f for f in families if is_nonzero(algebra, f)]
    return [family_to_doc(f, _STRUCTURES[target], fmt) for f in families], list(map(_family_line, families))


class TestFamilyWriters:
    """write_enumeration with the family encoders over packed families, and the CLI's enumerations,
    against the generic encoder and the line formats."""

    # Two items per write, so the joins between writes are checked too.
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(gio, "_CHUNK", 2)

    def test_report_matches_the_generic_encoder(self):
        for label, families, text, fmt, shape in _wide_enumerations():
            assert families or label == "none"
            assert all(len(f.parts) == shape[1] >= 12 for f in families)
            want = enumeration_report([family_to_doc(f, text, fmt) for f in families])
            assert _written(list(map(_packed, families)), family_item_encoder(text, fmt, *shape), True) == want, label

    def test_lines_match_the_part_listing(self):
        for label, families, _, _, shape in _wide_enumerations():
            want = "".join(_family_line(f) + "\n" for f in families)
            assert _written(list(map(_packed, families)), family_line_encoder(*shape), False) == want, label

    @pytest.mark.parametrize("source, target, argv", _CLI_CASES)
    def test_cli_json_matches_the_generic_encoder(self, source, target, argv, tmp_path):
        items, _ = _expected(source, target, argv)
        assert items
        assert _cli_output(source, target, argv, tmp_path, True) == enumeration_report(items)

    @pytest.mark.parametrize("source, target, argv", _CLI_CASES)
    def test_cli_text_matches_the_line_format(self, source, target, argv, tmp_path):
        _, lines = _expected(source, target, argv)
        assert lines
        assert _cli_output(source, target, argv, tmp_path, False) == "".join(line + "\n" for line in lines)


_CATEGORY_FIXTURES = sorted(DATA_DIR.glob("*.cat"))


@st.composite
def packed_cases(draw):
    """(algebra, indexed_by, maps, masks, target text, target format).  Random maps run on targets of
    1 to 13 elements, so the part key "10" sorts before "2", and on basis sizes 0 to 9, so a field
    can cross a byte window; kernel maps are the homs, the zero homs (whose contracted zero has no
    basis line) and the prefunctor morphism maps of the fixture categories.  The masks over pairs
    (g, h), at bit g*|indexed_by| + h, are random."""
    kind = draw(st.sampled_from(["random maps", "homs", "zero homs", "morphism maps"]))
    budget = Budget(max_nodes=5000)
    if kind == "morphism maps":
        paths = draw(st.tuples(st.sampled_from(_CATEGORY_FIXTURES), st.sampled_from(_CATEGORY_FIXTURES)))
        source, target = (parse_category(path.read_text(encoding="utf-8")) for path in paths)
        algebra, indexed_by, text, fmt = category_algebra(source), adjoin_zero(target), print_category(target), "category"
        try:
            maps = [f.morphism_map for f in enumerate_prefunctors(source, target, budget)]
        except SizeOverflowError:
            assume(False)
    else:
        zero = kind == "zero homs" or (kind == "random maps" and draw(st.booleans()))
        source = draw(magmas(max_order=10 if kind == "random maps" else 4, with_zero=zero))
        if kind == "random maps":
            indexed_by = cyclic_group_magma(draw(st.integers(min_value=1, max_value=13)))
            images = st.integers(min_value=0, max_value=indexed_by.order - 1)
            maps = draw(st.lists(st.tuples(*[images] * source.order), max_size=6))
        else:
            indexed_by = draw(magmas(max_order=4, with_zero=zero))
            try:
                maps = (enumerate_zero_homs if zero else enumerate_homs)(source, indexed_by, budget)
            except SizeOverflowError:
                assume(False)
        algebra, text, fmt = (contracted_algebra if zero else magma_algebra)(source), print_magma(indexed_by), "magma"
    pairs = len(algebra.basis_of_source) * indexed_by.order
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << pairs) - 1), max_size=6))
    return algebra, indexed_by, maps, masks, text, fmt


@settings(max_examples=200, deadline=None)
@given(packed_cases())
def test_packed_families_and_encoders_match_the_references(case):
    """The map packer gives the families of the pair-mask route, in order, and both give the parts of
    tests/pair_families.py, as does the mask packer; the encoders write the packed families as the
    generic encoder and the line listing write the families."""
    algebra, target, maps, masks, text, fmt = case
    width = target.order
    via_maps = list(_families(algebra, target, _packed_maps(algebra, maps, width)))
    via_masks = list(_families(algebra, target, _packed_masks(algebra, [_pair_mask(enumerate(f), width) for f in maps], width)))
    assert via_maps == via_masks
    assert [f.parts for f in via_maps] == pair_families(algebra, target, [enumerate(f) for f in maps])
    filters = list(_families(algebra, target, _packed_masks(algebra, masks, width)))
    decoded = [[divmod(b, width) for b in _bits(mask)] for mask in masks]
    assert [f.parts for f in filters] == pair_families(algebra, target, decoded)
    families = via_maps + filters
    assert all(f == ElementaryFamily(algebra=algebra, target=target, parts=f.parts) for f in families)
    packed = list(_packed_maps(algebra, maps, width)) + list(_packed_masks(algebra, masks, width))
    assert packed == list(map(_packed, families))
    shape = algebra.basis_size, width
    with unittest.mock.patch.object(gio, "_CHUNK", 2):
        items = _written(packed, family_item_encoder(text, fmt, *shape), True)
        lines = _written(packed, family_line_encoder(*shape), False)
    assert items == enumeration_report([family_to_doc(f, text, fmt) for f in families])
    assert lines == "".join(_family_line(f) + "\n" for f in families)
