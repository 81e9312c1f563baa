"""Front end: parsing, formats, exit codes, reports, reproductions."""

import argparse
import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import groupcodes
from groupcodes import cli, families
from groupcodes.cli import (
    EXIT_CAP,
    EXIT_INCONSISTENT,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    REPRODUCE_IDS,
    build_parser,
    build_report,
    main,
    parse_report,
    parse_subgroup,
    render_json,
    render_subgroup,
    run_reproduce,
    validate_report,
)
from groupcodes.errors import ParseError
from groupcodes.seqspace import effective_window, subgroups_equal

BLOCKS = "tail: 2\ngen: 1 1\ngen: 0 0 1 1 1\n"
MIXED = "prefix: 2,4 2\ntail: 3\ngen: 1,2 1 | 1 2\ngen: 0,1 0\n"


def run(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


def run_quiet(argv, stdin_text=""):
    """Exit code and stderr of one in-process run, stdin fed from the text."""
    err = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)), redirect_stderr(err):
        code = main(argv, io.StringIO())
    return code, err.getvalue()


class TestParsing:
    def test_blocks(self):
        h = parse_subgroup(BLOCKS)
        assert h.schema.w0 == 0
        assert len(h.gens) == 2
        assert effective_window(h) == (5, 1)

    def test_prefix_and_period(self):
        h = parse_subgroup(MIXED)
        assert h.schema.w0 == 2
        assert h.schema.prefix[0].orders == (2, 4)
        g = h.gens[0]
        assert g.value_at(0).coords == (1, 2)
        assert g.value_at(2).coords == (1,)
        assert g.value_at(4).coords == (1,)

    def test_comments_and_blanks(self):
        text = "# a comment\n\ntail: 2\n  # another\ngen: 1\n"
        h = parse_subgroup(text)
        assert len(h.gens) == 1

    def test_short_generator_padded(self):
        h = parse_subgroup("prefix: 2 2\ntail: 2\ngen: 1\n")
        assert h.gens[0].value_at(1).is_zero()

    def test_render_roundtrip(self):
        for text in (BLOCKS, MIXED, "tail: 4\ngen: | 1 2\n"):
            h = parse_subgroup(text)
            again = parse_subgroup(render_subgroup(h))
            assert again.schema == h.schema
            assert subgroups_equal(again, h)
            assert again.gens == h.gens

    @pytest.mark.parametrize(
        "bad",
        [
            "gen: 1\n",  # no tail at all
            "tail: 2\ntail: 3\n",  # duplicate tail
            "gen: 1\ntail: 2\n",  # generator before tail
            "tail: 2\nprefix: 2\n",  # prefix after tail
            "tail: 2\ngen: 1,1\n",  # residue count mismatch
            "tail: 2\ngen: x\n",  # non-numeric residue
            "tail: 0\n",  # order below 1
            "tail: 2\ngen: 1 |\n",  # empty repeating block
            "mystery: 3\n",  # unknown key
            "tail 2\n",  # missing colon
            "prefix: 2 prefix: 2\ntail: 2\n",  # malformed group token
            "tail: ²\n",  # a digit int() rejects, as an order
            "prefix: ³\ntail: 2\n",  # ... as a prefix order
            "tail: 3\ngen: ² -²\n",  # ... as a residue
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_subgroup(bad)

    def test_digits_int_reads_stay_accepted(self):
        assert parse_subgroup("prefix: ١\ntail: ٣\ngen: ١ -١\n").gens[0].value_at(1).coords == (2,)


class TestReportSchema:
    def test_build_and_validate(self):
        report = build_report(parse_subgroup(BLOCKS))
        validate_report(report)
        assert report["engine_version"]
        assert report["truncation_params"] == {"window": 5, "period": 1}
        props = [v["property"] for v in report["verdicts"]]
        assert props == [
            "weakly_controllable",
            "controllable",
            "uniformly_controllable",
            "strongly_controllable",
        ]
        assert report["invariant_factors"] == [2, 2]

    def test_canonical_roundtrip(self):
        report = build_report(parse_subgroup(MIXED))
        text = render_json(report)
        assert render_json(parse_report(text)) == text

    def test_unknown_field_rejected(self):
        report = build_report(parse_subgroup(BLOCKS))
        report["extra"] = 1
        with pytest.raises(ParseError):
            validate_report(report)

    def test_missing_field_rejected(self):
        report = build_report(parse_subgroup(BLOCKS))
        del report["schema"]
        with pytest.raises(ParseError):
            validate_report(report)

    def test_empty_verdicts_rejected(self):
        report = build_report(parse_subgroup(BLOCKS))
        report["verdicts"] = []
        with pytest.raises(ParseError):
            validate_report(report)

    def test_bad_verdict_shape_rejected(self):
        report = build_report(parse_subgroup(BLOCKS))
        report["verdicts"] = [{"property": "controllable"}]
        with pytest.raises(ParseError):
            validate_report(report)

    def test_certificates_must_be_a_list(self):
        report = build_report(parse_subgroup(BLOCKS))
        for certificates in (5, None):
            with pytest.raises(ParseError):
                validate_report({**report, "certificates": certificates})
        # A one-key mapping has the length of a one-verdict list, but is not a list.
        one = {**report, "verdicts": report["verdicts"][:1], "certificates": report["certificates"][:1]}
        validate_report(one)
        with pytest.raises(ParseError):
            validate_report({**one, "certificates": {"kind": "projection_equality"}})

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            parse_report("[1, 2]")
        with pytest.raises(ParseError):
            parse_report("not json")
        # json raises ValueError on an integer past int's digit limit and
        # RecursionError on deep nesting; both are bad reports.
        with pytest.raises(ParseError):
            parse_report('{"a": ' + "1" * 5000 + "}")
        with pytest.raises(ParseError):
            parse_report("[" * 100000)


class TestCommands:
    def test_check_human(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text(BLOCKS)
        code, text = run(["check", "--input", str(src)])
        assert code == EXIT_OK
        assert "controllable: yes" in text
        assert "least gap 2" in text

    def test_check_json_matches_report(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text(BLOCKS)
        code, text = run(["check", "--input", str(src), "--format", "json"])
        assert code == EXIT_OK
        assert parse_report(text)["truncation_params"]["window"] == 5

    def test_check_cross_check_ok(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text(BLOCKS)
        code, _ = run(["check", "--input", str(src), "--cap", "100"])
        assert code == EXIT_OK

    def test_check_cap_exceeded(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text(BLOCKS)
        code, _ = run(["check", "--input", str(src), "--cap", "3"])
        assert code == EXIT_CAP

    def test_check_cap_zero_refuses_the_trivial_subgroup(self, tmp_path, capsys):
        # The zero element counts, so even a one-element subgroup needs a cap of 1.
        src = tmp_path / "h.txt"
        src.write_text("tail: 2\n")
        assert run(["check", "--input", str(src), "--cap", "0"])[0] == EXIT_CAP
        assert capsys.readouterr().err == "error: enumeration needs 1 elements, cap is 0\n"
        assert run(["check", "--input", str(src), "--cap", "1"])[0] == EXIT_OK

    def test_defect_human_and_csv(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text(BLOCKS)
        code, text = run(["defect", "--input", str(src), "--coords", "0"])
        assert code == EXIT_OK
        assert "defect: 1" in text
        code, text = run(["defect", "--input", str(src), "--coords", "0", "--format", "csv"])
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "parameter,k,image_order,defect"
        assert lines[1] == "0,0,1,1"
        assert lines[2] == "0,1,2,1"

    def test_defect_growth_family(self):
        code, text = run(["defect", "--family", "chain", "--depths", "2..3", "--format", "csv"])
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "parameter,k,image_order,defect"
        assert "2,1,4,1" in lines
        assert "3,2,8,2" in lines

    def test_defect_growth_requires_depths(self):
        code, _ = run(["defect", "--family", "chain"])
        assert code == EXIT_PARSE

    def test_bad_depth_range(self):
        code, _ = run(["defect", "--family", "chain", "--depths", "6..2"])
        assert code == EXIT_PARSE

    def test_kcontrol(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text(BLOCKS)
        code, text = run(["kcontrol", "--input", str(src)])
        assert code == EXIT_OK
        assert "gap 0: no" in text
        assert "gap 2: yes" in text
        assert "least working gap: 2" in text
        code, text = run(["kcontrol", "--input", str(src), "--kmax", "1", "--format", "json"])
        payload = json.loads(text)
        assert payload["least_gap"] is None
        assert payload["results"] == [{"k": 0, "holds": False}, {"k": 1, "holds": False}]

    def test_kcontrol_bytes(self, tmp_path):
        src = tmp_path / "h.txt"
        dst = tmp_path / "k.txt"
        src.write_text(BLOCKS)
        human = "gap 0: no\ngap 1: no\ngap 2: yes\ngap 3: yes\nleast working gap: 2\n"
        assert run(["kcontrol", "--input", str(src), "--kmax", "3"]) == (EXIT_OK, human)
        assert run(["kcontrol", "--input", str(src), "--kmax", "3", "--out", str(dst)]) == (EXIT_OK, "")
        assert dst.read_text() == human
        results = [{"holds": k >= 2, "k": k} for k in range(4)]
        payload = {"kmax": 3, "least_gap": 2, "results": results}
        code, text = run(["kcontrol", "--input", str(src), "--kmax", "3", "--format", "json"])
        assert (code, text) == (EXIT_OK, json.dumps(payload, indent=2) + "\n")
        code, text = run(["kcontrol", "--input", str(src), "--kmax", "1"])
        assert text == "gap 0: no\ngap 1: no\nleast working gap: none up to 1\n"
        code, text = run(["kcontrol", "--input", str(src), "--kmax", "5000"])
        lines = [f"gap {k}: {'yes' if k >= 2 else 'no'}\n" for k in range(5001)]
        assert text == "".join(lines) + "least working gap: 2\n"
        # 5001 JSON entries cross a write block of LINES_PER_WRITE
        results = [{"k": k, "holds": k >= 2} for k in range(5001)]
        payload = {"results": results, "least_gap": 2, "kmax": 5000}
        code, text = run(["kcontrol", "--input", str(src), "--kmax", "5000", "--format", "json"])
        assert (code, text) == (EXIT_OK, json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def test_decompose(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text(MIXED)
        code, text = run(["decompose", "--input", str(src), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(text)
        assert payload["order"] > 0
        assert isinstance(payload["invariant_factors"], list)

    def test_out_file(self, tmp_path):
        src = tmp_path / "h.txt"
        dst = tmp_path / "r.json"
        src.write_text(BLOCKS)
        code, text = run(["report", "--input", str(src), "--out", str(dst)])
        assert code == EXIT_OK
        assert text == ""
        parse_report(dst.read_text())

    @pytest.mark.parametrize("command", [["report"], ["check", "--format", "json"]], ids=["report", "check"])
    def test_report_streams_in_several_writes(self, command, tmp_path, monkeypatch):
        # The report of z2_power_example(4) has about 11000 JSON pieces, several write blocks.
        h = families.z2_power_example(4)
        expected = render_json(build_report(h))
        src, dst = tmp_path / "h.txt", tmp_path / "r.json"
        src.write_text(render_subgroup(h))
        writes = []

        class Stdout(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        assert main([*command, "--input", str(src)], Stdout()) == EXIT_OK
        assert len(writes) > 1 and "".join(writes) == expected
        writes.clear()

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: (writes.append(text), write(text))[1]
            return fh

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        assert main([*command, "--input", str(src), "--out", str(dst)], Stdout()) == EXIT_OK
        assert len(writes) > 1 and "".join(writes) == dst.read_text() == expected

    def test_only_the_chunk_writer_writes(self):
        # Every command streams through _write_chunks; none renders its whole output as one string.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

        def callees(node):
            return {ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}

        writers = [f.name for f in functions if any(c.split(".")[-1] in ("write", "writelines") for c in callees(f))]
        assert writers == ["_write_chunks"]
        rendering = [f.name for f in functions if f.name.startswith("cmd_") and callees(f) & {"render_json", "json.dumps"}]
        assert rendering == []


class TestExitCodes:
    def test_parse_error(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text("junk\n")
        code, _ = run(["check", "--input", str(src)])
        assert code == EXIT_PARSE

    def test_io_error(self):
        code, _ = run(["check", "--input", "/nonexistent/path.txt"])
        assert code == EXIT_IO

    def test_unknown_reproduce_id(self):
        code, _ = run(["reproduce", "--id", "nope"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("command,kmax", [("check", "-1"), ("report", "-1"), ("kcontrol", "-3")])
    def test_negative_kmax(self, command, kmax, tmp_path, capsys):
        src = tmp_path / "h.txt"
        src.write_text(BLOCKS)
        code, text = run([command, "--kmax", kmax, "--input", str(src)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert text == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--kmax" in err

    def test_negative_cap(self, tmp_path, capsys):
        src = tmp_path / "h.txt"
        src.write_text(BLOCKS)
        code, text = run(["check", "--cap", "-1", "--input", str(src)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert text == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--cap" in err

    def test_non_utf8_input(self, tmp_path, capsys):
        src = tmp_path / "h.bin"
        src.write_bytes(b"\xff\xfe")
        code, text = run(["check", "--input", str(src)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert text == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_out_of_memory(self, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("groupcodes.cli.build_report", exhausted)
        code, err = run_quiet(["report"], BLOCKS)
        assert code == EXIT_CAP
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oversized_window_is_refused_before_allocation(self, tmp_path):
        # A 5000-value line gives a 5001-column window; its square echelon basis
        # is refused up front instead of being allocated.
        src = tmp_path / "h.txt"
        src.write_text("tail: 2\ngen: " + " ".join(["1"] * 5000) + "\n")
        argv = [sys.executable, "-m", "groupcodes", "check", "--input", str(src)]
        env = {**os.environ, "PYTHONPATH": str(Path(groupcodes.__file__).parents[1])}
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == EXIT_CAP
        assert done.stdout == ""
        assert done.stderr.startswith("error: a 5001-column echelon form") and done.stderr.count("\n") == 1

    def test_huge_kmax_without_working_gap_finishes(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text("tail: 2\ngen: 0 | 1 0\ngen: 1 | 0 1\n")
        argv = [sys.executable, "-m", "groupcodes", "check", "--kmax", str(10**20), "--input", str(src)]
        env = {**os.environ, "PYTHONPATH": str(Path(groupcodes.__file__).parents[1])}
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
        assert done.returncode == EXIT_OK
        assert "strongly_controllable: no\n" in done.stdout

    def test_check_huge_prime_tail(self, tmp_path):
        src = tmp_path / "h.txt"
        src.write_text("tail: 1000000000000000003\ngen: 1\ngen: 0 5\n")
        code, text = run(["check", "--input", str(src)])
        assert code == EXIT_OK
        assert text.endswith("invariant factors: [1000000000000000003, 1000000000000000003]\n")


ORDERS = st.sampled_from(["1", "2", "3", "4"])
RESIDUES = st.sampled_from(["0", "1", "2", "-1"])
# Digits int() rejects ('²'), digits it reads ('١'), and junk.
BAD_TOKENS = st.sampled_from(["²", "³", "-²", "١", "-١", "-", "|", "0", "x", "1,", ""])
JUNK_LINES = st.sampled_from(["junk", "# comment", "", "tail 2", "tail: 2", "gen: |", "prefix: 2", "bogus: 1"])


@st.composite
def subgroup_texts(draw):
    """A well-formed ``prefix:``/``tail:``/``gen:`` text, then maybe one bad token or one junk line."""
    prefix = draw(st.lists(st.lists(ORDERS, min_size=1, max_size=2), max_size=2))
    tail = draw(st.lists(ORDERS, min_size=1, max_size=2))
    lines = ["prefix: " + " ".join(map(",".join, prefix))] if prefix else []
    lines.append("tail: " + ",".join(tail))
    widths = [len(g) for g in prefix] + [len(tail)] * 3
    for _ in range(draw(st.integers(0, 3))):
        head = [",".join(draw(RESIDUES) for _ in range(w)) for w in widths[: draw(st.integers(0, len(widths)))]]
        block = [",".join(draw(RESIDUES) for _ in tail) for _ in range(draw(st.integers(0, 2)))]
        lines.append("gen: " + " ".join(head) + (" | " + " ".join(block) if block else ""))
    mutation = draw(st.sampled_from(["none", "token", "line"]))
    at = draw(st.integers(0, len(lines) - 1))
    if mutation == "token":
        tokens = lines[at].split(" ")
        where = draw(st.integers(1, len(tokens)))
        tokens[where : where + 1] = [draw(BAD_TOKENS)]
        lines[at] = " ".join(tokens)
    elif mutation == "line":
        lines.insert(at, draw(JUNK_LINES))
    return "\n".join(lines) + "\n"


DEPTH_ENDS = st.sampled_from(["", "1", "2", "²", "-1", "١", "x"])
COMMANDS = (["check"], ["check", "--cap", "30"], ["report"], ["kcontrol"], ["defect"], ["decompose"])


def _long_options():
    """``(command, option)`` for every long option of every subcommand but ``--help``."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, option)
        for command, parser in sub.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    ]


class TestMalformedInputFuzz:
    """Any small grammar-shaped input ends with a defined exit code and at most one error line."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(subgroup_texts(), st.tuples(DEPTH_ENDS, DEPTH_ENDS).map("..".join))
    @example("tail: ²\ngen: 1", "1..2")
    @example("prefix: ³\ntail: 2\ngen: 1", "1..2")
    @example("tail: 2\ngen: ² -²", "1..2")
    @example("tail: 2\ngen: ١", "²..3")
    def test_exit_code_and_one_error_line(self, text, depths):
        runs = [run_quiet(argv, text) for argv in COMMANDS]
        runs.append(run_quiet(["defect", "--family", "chain", f"--depths={depths}"]))
        for code, err in runs:
            assert code in (EXIT_OK, EXIT_PARSE, EXIT_CAP)
            if code != EXIT_OK:
                assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command, option", _long_options())
    def test_option_given_a_bare_double_dash(self, command, option):
        # argparse strips the "--" of "--opt=--" and hands the command an empty list.
        required = ["--id", "thm-7.1"] if command == "reproduce" and option != "--id" else []
        code, err = run_quiet([command, f"{option}=--", *required], BLOCKS)
        assert (code, err) == (EXIT_PARSE, f"error: {option} needs a value\n")

    def test_family_range_past_the_width_limit_builds_no_member(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a family member was built")

        monkeypatch.setattr(families, "chain_family", refuse)
        code, err = run_quiet(["defect", "--family", "chain", "--depths", "2..200"])
        assert code == EXIT_CAP
        assert err == "error: parameter 64 needs a 4160-column window, above the 4096-column limit; try a smaller instance\n"


class TestReproduce:
    def test_registry_complete(self):
        assert set(REPRODUCE_IDS) == {"ex-3.5", "ex-4.6", "ex-5-dense", "thm-7.1"}

    @pytest.mark.parametrize("exp_id", sorted(REPRODUCE_IDS))
    def test_all_claims_pass(self, exp_id):
        result = run_reproduce(exp_id)
        failed = [row["name"] for row in result["claims"] if not row["pass"]]
        assert result["overall"], f"failed claims: {failed}"
        assert result["id"] == exp_id
        assert result["claims"]

    @pytest.mark.parametrize("exp_id", sorted(REPRODUCE_IDS))
    def test_cli_output_shape(self, exp_id):
        code, text = run(["reproduce", "--id", exp_id])
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("all claims hold")

    def test_json_is_canonical(self):
        code, text = run(["reproduce", "--id", "thm-7.1", "--format", "json"])
        assert code == EXIT_OK
        assert render_json(json.loads(text)) == text
