import io as stringio
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from gradeforge import algebra, cli
from gradeforge import io as gio

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    out, err = stringio.StringIO(), stringio.StringIO()
    code = cli.run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def data(path, name):
    return str(path / name)


def module_command(*argv):
    """The argv and environment of ``python -m gradeforge`` importing the package from this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-m", "gradeforge", *argv], env


def run_module(*argv):
    """``python -m gradeforge`` in a subprocess."""
    argv, env = module_command(*argv)
    return subprocess.run(argv, capture_output=True, text=True, check=False, env=env)


class TestCensus:
    def test_order_two_json(self):
        code, out, _ = run_cli("census", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "10" and len(doc["items"]) == 10

    def test_order_two_table(self):
        code, out, _ = run_cli("census", "2")
        assert code == 0
        assert out.splitlines() == sorted(["aaaa", "baaa", "abaa", "aaba", "aaab", "aabb", "bbaa", "abab", "baba", "abba"])

    def test_order_four_exhausts_budget(self):
        code, _, err = run_cli("census", "4")
        assert code == 2 and "budget" in err

    def test_order_past_the_cap_exits_at_once(self):
        start = time.perf_counter()
        code, out, err = run_cli("census", "3000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err == "budget exhausted: order 3000 exceeds the cap of 64\n"


class TestCanonAndIso:
    def test_canon_prints_the_least_relabelled_table(self, tmp_path):
        # Z3 with the identity at index 2: its form puts the identity first.
        path = tmp_path / "z3.mag"
        path.write_text("magma 3\n1 2 0\n2 0 1\n0 1 2\n", encoding="utf-8")
        assert run_cli("canon", str(path)) == (0, "magma 3\n0 1 2\n1 2 0\n2 0 1\n", "")
        code, out, _ = run_cli("canon", str(path), "--json")
        assert code == 0 and json.loads(out) == {"text": "magma 3\n0 1 2\n1 2 0\n2 0 1\n"}
        assert run_cli("canon", str(path), "--budget", "2") == (2, "", "budget exhausted: search budget exhausted\n")

    def test_iso_exits_one_when_not_isomorphic(self, data_dir):
        same = data(data_dir, "aaab.mag"), data(data_dir, "idem_zero2.mag")
        assert run_cli("iso", *same) == (0, "isomorphic true\n", "")
        assert run_cli("iso", *same, "--json") == (0, '{"isomorphic":true}\n', "")
        assert run_cli("iso", data(data_dir, "aabb.mag"), data(data_dir, "abab.mag")) == (1, "isomorphic false\n", "")
        assert run_cli("iso", data(data_dir, "aabb.mag"), data(data_dir, "g2.mag"))[:2] == (1, "isomorphic false\n")


class TestHom:
    def test_three_maps(self, data_dir):
        code, out, _ = run_cli("hom", data(data_dir, "aaab.mag"), data(data_dir, "aaab.mag"))
        assert code == 0
        assert out.splitlines() == ["0 0", "0 1", "1 1"]

    def test_zero_flag(self, data_dir):
        code, out, _ = run_cli(
            "hom", data(data_dir, "idem_pair_zero3.mag"), data(data_dir, "idem_zero2.mag"), "--zero", "--json"
        )
        assert code == 0
        assert json.loads(out)["items"] == [{"images": ["0", "0", "1"]}]

    def test_missing_zero_is_a_validation_failure(self, data_dir):
        code, _, err = run_cli("hom", data(data_dir, "aaaa.mag"), data(data_dir, "aaab.mag"), "--zero")
        assert code == 1 and "zero" in err


class TestSubmagmas:
    def test_single_operand(self, data_dir):
        code, out, _ = run_cli("submagmas", data(data_dir, "abba.mag"))
        assert code == 0
        assert out.splitlines() == ["{}", "{0}", "{0,1}"]

    def test_zero_product(self, data_dir):
        code, out, _ = run_cli(
            "submagmas", data(data_dir, "idem_pair_zero3.mag"), data(data_dir, "idem_zero2.mag"), "--zero", "--json"
        )
        assert code == 0
        assert json.loads(out)["count"] != "0"

    def test_zero_needs_two_operands(self, data_dir):
        code, _, err = run_cli("submagmas", data(data_dir, "idem_pair_zero3.mag"), "--zero")
        assert code == 1

    def test_zero_product_beyond_the_order_cap_exits_on_budget(self, tmp_path):
        # 41 x 41 = 1,681 pairs, above the default max_order: a budget exit,
        # not a traceback from a search that recurses once per pair.
        null41 = tmp_path / "null41.mag"
        null41.write_text("magma 41\nzero 0\n" + "".join(" ".join(["0"] * 41) + "\n" for _ in range(41)), encoding="utf-8")
        result = run_module("submagmas", str(null41), str(null41), "--zero")
        assert result.returncode == 2
        assert "budget" in result.stderr and "Traceback" not in result.stderr


class TestFunctors:
    def test_four_functors(self, data_dir):
        code, out, _ = run_cli("functors", data(data_dir, "gamma.cat"), data(data_dir, "lambda_z2.cat"), "--json")
        assert code == 0
        assert json.loads(out)["count"] == "4"

    def test_prefunctors_flag(self, data_dir):
        code, out, _ = run_cli(
            "functors", data(data_dir, "gamma.cat"), data(data_dir, "lambda_idem.cat"), "--prefunctors", "--json"
        )
        assert code == 0
        assert json.loads(out)["count"] == "5"

    def test_prefunctor_gradings_of_bare_objects(self, tmp_path):
        # 3^20 prefunctors, one (empty) morphism map: one grading, within the default budget
        (tmp_path / "c20.cat").write_text("category 20 0\n", encoding="utf-8")
        (tmp_path / "c3.cat").write_text("category 3 0\n", encoding="utf-8")
        assert run_cli("gradings", str(tmp_path / "c20.cat"), str(tmp_path / "c3.cat"), "--prefunctors") == (0, "0:{}\n", "")

    def test_groupoid_presentation_operand(self, data_dir):
        code, out, _ = run_cli("functors", data(data_dir, "gz2_presented.cat"), data(data_dir, "lambda_z2.cat"), "--json")
        assert code == 0
        assert json.loads(out)["count"] == "4"


class TestGradingsAndVerify:
    def test_oracle_disagreement_exits_one_without_traceback(self, data_dir, tmp_path, monkeypatch):
        code, out, _ = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "aabb.mag"), "--json")
        family_file = tmp_path / "family.json"
        family_file.write_text(json.dumps(json.loads(out)["items"][0]), encoding="utf-8")
        filter_span = algebra._filter_span
        monkeypatch.setattr(algebra, "_filter_span", lambda a, f: (not filter_span(a, f)[0], None))
        vcode, vout, verr = run_cli("verify", data(data_dir, "aabb.mag"), str(family_file))
        assert vcode == 1
        assert vout == ""
        assert verr.startswith("error: filter:") and "Traceback" not in verr

    def test_large_prime_field_accepted(self, data_dir):
        code, out, _ = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "abab.mag"), "--field", "18446744073709551557")
        assert code == 0 and out

    def test_field_of_64_bits_rejected(self, data_dir):
        code, _, err = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "abab.mag"), "--field", str(2**64 + 13))
        assert code == 1 and err.startswith("error: scalar modulus")

    def test_gradings_then_verify_all_pass(self, data_dir, tmp_path):
        code, out, _ = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "aabb.mag"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "4"
        for i, item in enumerate(doc["items"]):
            family_file = tmp_path / f"family{i}.json"
            family_file.write_text(json.dumps(item), encoding="utf-8")
            vcode, vout, _ = run_cli("verify", data(data_dir, "aabb.mag"), str(family_file), "--json")
            assert vcode == 0
            verdicts = {v["property"]: v["holds"] for v in json.loads(vout)["verdicts"]}
            assert verdicts["filter"] and verdicts["grading"] and verdicts["elementary"]

    def test_category_gradings_verify(self, data_dir, tmp_path):
        code, out, _ = run_cli("gradings", data(data_dir, "gamma.cat"), data(data_dir, "lambda_z2.cat"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == "4"
        family_file = tmp_path / "family.json"
        family_file.write_text(json.dumps(doc["items"][1]), encoding="utf-8")
        vcode, _, _ = run_cli("verify", data(data_dir, "gamma.cat"), str(family_file))
        assert vcode == 0

    def test_zero_gradings_count(self, data_dir):
        code, out, _ = run_cli("gradings", data(data_dir, "g2.mag"), data(data_dir, "z2_with_zero.mag"), "--zero", "--json")
        assert code == 0
        assert json.loads(out)["count"] == "2"

    def test_nonzero_only_filters_constant_grading(self, data_dir):
        code, out, _ = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "aabb.mag"), "--nonzero-only", "--json")
        assert code == 0
        assert json.loads(out)["count"] == "2"

    def test_filters_counts(self, data_dir):
        code, out, _ = run_cli("filters", data(data_dir, "aaaa.mag"), data(data_dir, "aaaa.mag"), "--json")
        assert json.loads(out)["count"] == "9"
        code, out, _ = run_cli("filters", data(data_dir, "abba.mag"), data(data_dir, "abba.mag"), "--json")
        assert json.loads(out)["count"] == "6"


FORMS = pytest.mark.parametrize("form", [(), ("--json",)], ids=["text", "json"])


class TestStreamedFamilies:
    """gradings and filters write their families as they are built, and fail before the first byte."""

    @pytest.mark.parametrize("form, marker", [((), "0:{"), (("--json",), '"kind":"family"')], ids=["text", "json"])
    def test_first_results_are_written_before_a_second_chunk_is_built(self, data_dir, monkeypatch, form, marker):
        # Each family is built as its mask is taken, so the masks taken count the families built.
        taken = [0]

        class CountedMasks(list):
            def __iter__(self):
                for mask in super().__iter__():
                    taken[0] += 1
                    yield mask

        pair_masks = algebra._pair_masks
        monkeypatch.setattr(algebra, "_pair_masks", lambda *args: CountedMasks(pair_masks(*args)))
        taken_at_first_result = []

        class Out(stringio.StringIO):
            def write(self, text):
                if marker in text and not taken_at_first_result:
                    taken_at_first_result.append(taken[0])
                return super().write(text)

        square = data(data_dir, "prod_aabb_aabb.mag")
        assert cli.run(["filters", square, square, *form], Out(), stringio.StringIO()) == 0
        assert taken[0] == 65536
        assert taken_at_first_result[0] <= gio._CHUNK

    @FORMS
    def test_nonzero_only_disagreement_leaves_stdout_empty(self, data_dir, monkeypatch, form):
        # Two families per write, and the oracles disagree only on the last family (every part
        # full), so a check made as the families were written would have sent the first chunks.
        monkeypatch.setattr(gio, "_CHUNK", 2)
        nonzero_span = algebra._nonzero_span

        def disagree_on_the_full_family(a, family):
            verdict = nonzero_span(a, family)
            full = all(len(part) == a.basis_size for part in family.parts)
            return (not verdict[0], None) if full else verdict

        monkeypatch.setattr(algebra, "_nonzero_span", disagree_on_the_full_family)
        source = data(data_dir, "aabb.mag")
        code, out, err = run_cli("filters", source, source, "--nonzero-only", *form)
        assert code == 1 and out == "" and err.startswith("error: nonzero:")
        monkeypatch.setattr(algebra, "_nonzero_span", nonzero_span)
        code, out, _ = run_cli("filters", source, source, "--nonzero-only")
        assert code == 0 and out.splitlines()[-1] == "0:{0,1} 1:{0,1}" and len(out.splitlines()) == 9

    @FORMS
    def test_budget_too_small_for_the_kernel_leaves_stdout_empty(self, data_dir, form):
        square = data(data_dir, "prod_aabb_aabb.mag")
        code, out, err = run_cli("filters", square, square, "--budget", "1000", *form)
        assert code == 2 and out == "" and err.startswith("budget exhausted: ")


class TestZeroFlagWithCategories:
    # A category's algebra is always the contracted algebra of its adjoined
    # zero magma, so --zero has nothing to choose and is refused.
    @pytest.mark.parametrize("command", ["gradings", "filters"])
    def test_families_refuse_zero(self, data_dir, command):
        code, out, err = run_cli(command, data(data_dir, "gamma.cat"), data(data_dir, "lambda_z2.cat"), "--zero")
        assert code == 1 and out == "" and err.startswith("error: --zero")

    def test_verify_refuses_zero(self, data_dir, tmp_path):
        code, out, _ = run_cli("gradings", data(data_dir, "gamma.cat"), data(data_dir, "lambda_z2.cat"), "--json")
        family_file = tmp_path / "family.json"
        family_file.write_text(json.dumps(json.loads(out)["items"][1]), encoding="utf-8")
        code, out, err = run_cli("verify", data(data_dir, "gamma.cat"), str(family_file), "--zero")
        assert code == 1 and out == "" and err.startswith("error: --zero")


class TestCategoryFlagsWithMagmas:
    # --prefunctors and --functors choose the map search behind category
    # gradings; a magma algebra is graded by homomorphisms, so both are refused.
    @pytest.mark.parametrize("flag", ["--prefunctors", "--functors"])
    def test_gradings_refuse_map_flags(self, data_dir, flag):
        code, out, err = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "abab.mag"), flag)
        assert code == 1 and out == "" and err.startswith("error: --prefunctors and --functors need category")


class TestMalformedInput:
    """Documents valid but for one field: a parse error (exit 3) or a budget exit (2), never a traceback."""

    @pytest.fixture
    def verify_with(self, data_dir, tmp_path):
        code, out, _ = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "aabb.mag"), "--json")
        base = json.loads(out)["items"][0]

        def verify(edit=None, **fields):
            doc = fields["doc"] if "doc" in fields else {**base, **fields}
            family_file = tmp_path / "family.json"
            family_file.write_text(json.dumps(doc).replace(*edit or ("", "")), encoding="utf-8")
            return run_cli("verify", data(data_dir, "aabb.mag"), str(family_file))

        return verify

    def assert_parse_error(self, result):
        code, out, err = result
        assert code == 3 and out == "" and err.startswith("parse error:")

    def test_string_and_int_indices_parse(self, verify_with):
        assert verify_with(parts={"0": ["0", 1], "1": []})[0] == 0

    def test_non_numeric_index(self, verify_with):
        self.assert_parse_error(verify_with(parts={"0": ["x"]}))

    def test_overflowing_float_index(self, verify_with):
        self.assert_parse_error(verify_with(parts={"0": [1e400]}))

    def test_fractional_index(self, verify_with):
        self.assert_parse_error(verify_with(parts={"0": [1.5]}))

    def test_boolean_index(self, verify_with):
        self.assert_parse_error(verify_with(parts={"0": [True]}))

    def test_a_missing_part_is_empty(self, verify_with):
        assert verify_with(parts={"0": [0, 1]})[0] == 0

    def test_part_key_with_a_leading_zero(self, verify_with):
        self.assert_parse_error(verify_with(parts={"0": [0], "01": [1]}))

    def test_negative_part_key(self, verify_with):
        self.assert_parse_error(verify_with(parts={"0": [0], "-1": [1]}))

    def test_part_key_past_the_target(self, verify_with):
        self.assert_parse_error(verify_with(parts={"0": [0, 1], "1": [], "7": [0]}))

    def test_parts_as_a_list(self, verify_with):
        self.assert_parse_error(verify_with(parts=[]))

    def test_parts_as_a_string(self, verify_with):
        self.assert_parse_error(verify_with(parts="ab"))

    @pytest.mark.parametrize(
        "edit",
        [
            # Read as its last entry, this part makes the document a grading (exit 0).
            ('"1": ["0", "1"]', '"1": ["0", "1"], "1": []'),
            ('"kind": "family"', '"kind": "family", "kind": "family"'),
            ('"format": "magma"', '"format": "magma", "format": "magma"'),
        ],
        ids=["parts", "top", "target"],
    )
    def test_repeated_key(self, verify_with, edit):
        self.assert_parse_error(verify_with(parts={"0": ["0", "1"], "1": ["0", "1"]}, edit=edit))
        code, out, _ = verify_with(parts={"0": ["0", "1"], "1": []})
        assert code == 0 and "grading true\n" in out

    def test_top_level_list(self, verify_with):
        self.assert_parse_error(verify_with(doc=[1, 2]))

    def test_target_as_a_string(self, verify_with):
        self.assert_parse_error(verify_with(target="x"))

    def test_zero_line_token_must_be_zero(self, tmp_path):
        # Read as 'zero 1', this line made an order-2 magma with zero 1 (exit 0).
        zeroes = tmp_path / "zeroes.mag"
        zeroes.write_text("magma 2\nzeroes 1\n0 1\n1 1\n", encoding="utf-8")
        self.assert_parse_error(run_cli("submagmas", str(zeroes)))

    @pytest.mark.parametrize(
        "text",
        ["magma 2\n0 \u0661\n1 0\n", "magma 0_2\n0 1\n1 0\n", "magma 2\n0 +1\n1 0\n"],
        ids=["arabic-indic-digit", "underscore", "plus-sign"],
    )
    def test_an_int_is_ascii_digits(self, tmp_path, text):
        # int() read each of these, so canon printed "0 1\n1 0" for the first with exit 0.
        path = tmp_path / "spelled.mag"
        path.write_text(text, encoding="utf-8")
        self.assert_parse_error(run_cli("canon", str(path)))

    def test_a_negative_entry_still_fails_validation(self, tmp_path):
        path = tmp_path / "negative.mag"
        path.write_text("magma 2\n0 -1\n1 0\n", encoding="utf-8")
        code, out, err = run_cli("canon", str(path))
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_huge_object_count_in_category_header(self, tmp_path):
        huge = tmp_path / "huge.cat"
        huge.write_text("category 1000000000000000000000 1\nm 0 0 id\nc 0 0 0\n", encoding="utf-8")
        code, out, err = run_cli("functors", str(huge), str(huge))
        assert code == 2 and out == "" and err.startswith("budget exhausted:")
        assert "object count 1000000000000000000000 exceeds the cap of 64" in err


class TestRoundtripCommand:
    def test_reports_all_nine(self, data_dir):
        code, out, _ = run_cli("roundtrip", data(data_dir, "aaaa.mag"), data(data_dir, "aaaa.mag"))
        assert code == 0
        assert out == "checked 9\nholds true\n"


class TestCount:
    def test_matrix_group_gradings(self):
        code, out, _ = run_cli("count", "matrix-group-gradings", "3", "3", "--json")
        assert code == 0
        assert json.loads(out)["closed_form"] == "9"

    def test_surjections_reports_prefactored_value(self):
        code, out, _ = run_cli("count", "surjections", "3", "2", "--json")
        doc = json.loads(out)
        assert doc["closed_form"] == "6" and doc["extras"]["prefactored_value"] == "3"

    def test_abelian(self):
        code, out, _ = run_cli("count", "abelian-homs", "2,2", "2", "--json")
        assert json.loads(out)["closed_form"] == "4"

    def test_subspaces(self):
        code, out, _ = run_cli("count", "subspaces", "2", "3", "--json")
        doc = json.loads(out)
        assert doc["closed_form"] == "15" and doc["extras"]["including_zero_subspace"] == "16"

    @pytest.mark.parametrize("n", ["1", "3000"])
    def test_subspaces_needs_a_prime(self, n):
        code, out, err = run_cli("count", "subspaces", "4", n)
        assert code == 1 and out == "" and err == "error: scalar modulus 4 is not prime\n"

    def test_groupoid_printed(self):
        code, out, _ = run_cli("count", "groupoid-printed", "2", "2", "1", "1", "--json")
        assert json.loads(out)["closed_form"] == "1"

    @pytest.mark.parametrize(
        "params",
        [
            ("groupoid-printed", "10", "10", "2", "2"),  # 1024**(10**10)
            ("matrix-group-gradings", "100000000001", "2"),
            ("surjections", "100000000000", "2"),
            ("subspaces", "2", "1000000"),  # 10**12 products
        ],
    )
    def test_oversized_closed_forms_exit_on_budget(self, params):
        start = time.perf_counter()
        code, out, err = run_cli("count", *params)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and "budget" in err

    def test_result_past_the_integer_print_limit_exits_on_budget(self):
        # within the node budget, but more decimal digits than Python prints
        for params in (("surjections", "3000", "3000"), ("subspaces", "2", "1000")):
            code, out, err = run_cli("count", *params)
            assert code == 2 and out == "" and "print limit" in err

    def test_bounds_admit_large_printable_results(self):
        code, out, _ = run_cli("count", "subspaces", "2", "200")
        assert code == 0 and len(out.split()[1]) > 3000
        code, out, _ = run_cli("count", "surjections", "1", "3000")
        assert code == 0 and out.startswith("closed_form 0\n")

    def test_budget_flag_caps_the_result_size(self):
        assert run_cli("count", "matrix-group-gradings", "101", "2", "--budget", "100")[0] == 0
        code, out, err = run_cli("count", "matrix-group-gradings", "102", "2", "--budget", "100")
        assert code == 2 and out == "" and "budget" in err


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.mag"
        bad.write_text("magma x\n", encoding="utf-8")
        code, _, err = run_cli("hom", str(bad), str(bad))
        assert code == 3 and "parse error" in err

    def test_validation_error(self, tmp_path):
        bad = tmp_path / "bad.mag"
        bad.write_text("magma 2\n0 2\n0 0\n", encoding="utf-8")
        code, _, err = run_cli("hom", str(bad), str(bad))
        assert code == 1

    def test_missing_file(self):
        code, _, err = run_cli("hom", "no-such-file.mag", "no-such-file.mag")
        assert code == 1 and err.startswith("error: cannot read no-such-file.mag")

    def test_usage_error(self):
        code, _, err = run_cli("frobnicate")
        assert code == 1 and err.startswith("usage error: ")

    @FORMS
    def test_closed_pipe_exits_one_without_a_message(self, data_dir, form):
        # The reader takes 100 bytes of the filters (2.1 MB as text, 11.0 MB as JSON) and closes the
        # pipe, as `| head -c 100` does.
        square = data(data_dir, "prod_aabb_aabb.mag")
        argv, env = module_command("filters", square, square, *form)
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1 and err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("operands", [("aabb.mag",), ("prod_aabb_aabb.mag", "prod_aabb_aabb.mag")], ids=["flush", "write"])
    def test_full_device_exits_one_with_an_error_line(self, data_dir, operands):
        # A 17-byte output fails at the final flush, a 2.2 MB one while it is written.
        argv, env = module_command("submagmas", *(data(data_dir, name) for name in operands))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, check=False, env=env)
        assert proc.returncode == 1 and proc.stderr == "error: cannot write output: No space left on device\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("hom", "gamma.cat", "aabb.mag"), "a magma"),
            (("submagmas", "aabb.mag", "gamma.cat"), "a magma"),
            (("functors", "aabb.mag", "gamma.cat"), "a category"),
            (("gradings", "aabb.mag", "gamma.cat"), "a magma"),
            (("filters", "gamma.cat", "aabb.mag"), "a category"),
        ],
    )
    def test_operand_of_the_wrong_kind(self, data_dir, argv, expected):
        code, out, err = run_cli(argv[0], *(data(data_dir, name) for name in argv[1:]))
        assert code == 1 and out == "" and err.startswith("error: ") and f"expected {expected}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "2"),
            ("hom", "aabb.mag", "aabb.mag"),
            ("submagmas", "aabb.mag", "aabb.mag"),
            ("functors", "gamma.cat", "gamma.cat"),
            ("count", "subspaces", "2", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_field_only_where_an_algebra_is_built(self, data_dir, argv):
        operands = (data(data_dir, a) if a.endswith((".mag", ".cat")) else a for a in argv[1:])
        code, out, err = run_cli(argv[0], *operands, "--field", "3")
        assert code == 1 and out == "" and err.startswith("usage error: ") and "--field" in err

    def test_mutually_exclusive_flags_rejected(self, data_dir):
        code, _, err = run_cli(
            "gradings", data(data_dir, "gamma.cat"), data(data_dir, "lambda_z2.cat"), "--prefunctors", "--functors"
        )
        assert code == 1
        code, _, _ = run_cli("census", "2", "--json", "--table")
        assert code == 1

    def test_budget_flag(self, data_dir):
        code, _, err = run_cli("hom", data(data_dir, "aaaa.mag"), data(data_dir, "aaaa.mag"), "--budget", "1")
        assert code == 2


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, data_dir):
        invocations = [
            ("census", "2", "--json"),
            ("hom", data(data_dir, "aabb.mag"), data(data_dir, "abab.mag"), "--json"),
            ("filters", data(data_dir, "abaa.mag"), data(data_dir, "aabb.mag"), "--json"),
            ("gradings", data(data_dir, "gamma.cat"), data(data_dir, "lambda_idem.cat"), "--prefunctors", "--json"),
        ]
        for argv in invocations:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second

    def test_environment_budget(self, data_dir, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_ENV, "1")
        code, _, _ = run_cli("hom", data(data_dir, "aaaa.mag"), data(data_dir, "aaaa.mag"))
        assert code == 2
        monkeypatch.setenv(cli.BUDGET_ENV, "100000")
        code, _, _ = run_cli("hom", data(data_dir, "aaaa.mag"), data(data_dir, "aaaa.mag"))
        assert code == 0

    def test_scalar_field_does_not_change_output(self, data_dir):
        base = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "aabb.mag"), "--json")
        other = run_cli("gradings", data(data_dir, "aabb.mag"), data(data_dir, "aabb.mag"), "--json", "--field", "5")
        assert base == other


def test_module_entry_point(data_dir):
    result = run_module("census", "2")
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 10
