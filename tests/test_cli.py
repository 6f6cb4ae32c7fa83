"""Unit tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def lefdef_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    lef = tmp / "t.lef"
    deff = tmp / "t.def"
    code = main(
        [
            "generate",
            "ispd18_test1",
            "--scale",
            "0.005",
            "--lef",
            str(lef),
            "--def",
            str(deff),
        ]
    )
    assert code == 0
    return lef, deff


class TestGenerate:
    def test_writes_files(self, lefdef_pair, capsys):
        lef, deff = lefdef_pair
        assert lef.exists() and deff.exists()
        assert "MACRO" in lef.read_text()
        assert "COMPONENTS" in deff.read_text()

    def test_unknown_testcase(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "nope",
                "--lef",
                str(tmp_path / "a.lef"),
                "--def",
                str(tmp_path / "a.def"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown testcase 'nope'")
        assert "ispd18_test1" in err and "ispd18_test10" in err
        assert not (tmp_path / "a.lef").exists()


class TestBadCaseArguments:
    """An unknown testcase name or a scale that is not a finite number
    > 0 exits 2 with one error line before any work starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "bogus"],
            ["generate", "ispd18_test1", "--scale", "nan"],
            ["generate", "ispd18_test1", "--scale", "inf"],
            ["generate", "ispd18_test1", "--scale", "0"],
            ["generate", "ispd18_test1", "--scale", "-1"],
            ["suite", "--testcases", "bogus"],
            ["suite", "--testcases", "ispd18_test1", "--scale", "nan"],
            ["qa", "snapshot", "bogus"],
            ["qa", "snapshot", "pinzoo_io", "--scale", "inf"],
            ["compare", "run", "bogus_case"],
            ["compare", "run", "ispd18_test1@nan"],
            ["compare", "run", "pinzoo_hostile@0"],
        ],
        ids=" ".join,
    )
    def test_refused_before_any_work(self, argv, tmp_path, capsys):
        outputs = {
            "generate": ["--lef", str(tmp_path / "a.lef"),
                         "--def", str(tmp_path / "a.def")],
            "suite": [],
            "qa": ["--goldens", str(tmp_path / "goldens")],
            "compare": ["--dir", str(tmp_path / "run")],
        }
        assert main(argv + outputs[argv[0]]) == 2
        err = capsys.readouterr().err
        assert re.search(r"^(repro [a-z ]+: )?error: ", err, re.MULTILINE)
        assert "Traceback" not in err
        # Nothing was written: no LEF/DEF, no golden, no cases/ directory.
        assert list(tmp_path.iterdir()) == []


class TestFlagRanges:
    """An out-of-range ``serve`` or ``render`` flag exits 2 naming the
    flag, before the inputs are read or the daemon starts."""

    @staticmethod
    def _argv(argv, tmp_path) -> list:
        outputs = {
            "serve": ["--socket", str(tmp_path / "pao.sock")],
            "render": ["--svg", str(tmp_path / "out.svg")],
        }
        return argv + outputs[argv[0]] + [
            "--lef", str(tmp_path / "missing.lef"),
            "--def", str(tmp_path / "missing.def"),
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--max-clients", "0"],
            ["serve", "--max-clients", "-1"],
            ["serve", "--request-timeout", "0"],
            ["serve", "--request-timeout", "-5"],
            ["serve", "--request-timeout", "nan"],
            ["serve", "--request-timeout", "inf"],
            ["serve", "--request-timeout", "1e10"],
            ["serve", "--drain-seconds", "-1"],
            ["serve", "--drain-seconds", "nan"],
            ["serve", "--drain-seconds", "inf"],
            ["serve", "--drain-seconds", "1e10"],
            ["render", "--width", "0"],
            ["render", "--width", "-10"],
        ],
        ids=" ".join,
    )
    def test_refused_before_any_work(self, argv, tmp_path, capsys):
        assert main(self._argv(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: " in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--max-clients", "1", "--request-timeout", "0.5",
             "--drain-seconds", "0"],
            ["render", "--width", "1"],
        ],
        ids=" ".join,
    )
    def test_boundary_values_parse(self, argv, tmp_path, capsys):
        # The flags parse; the run then stops at the missing LEF.
        assert main(self._argv(argv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read --lef")


class TestAnalyze:
    def test_paaf_clean_exit(self, lefdef_pair, capsys):
        lef, deff = lefdef_pair
        code = main(["analyze", "--lef", str(lef), "--def", str(deff)])
        out = capsys.readouterr().out
        assert code == 0
        assert "failed pins" in out
        assert "PAAF w/ BCA" in out

    def test_baseline_fails(self, lefdef_pair, capsys):
        lef, deff = lefdef_pair
        code = main(
            [
                "analyze",
                "--lef",
                str(lef),
                "--def",
                str(deff),
                "--baseline",
                "--list-failed",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out

    def test_no_bca_flag(self, lefdef_pair, capsys):
        lef, deff = lefdef_pair
        main(
            ["analyze", "--lef", str(lef), "--def", str(deff), "--no-bca"]
        )
        assert "w/o BCA" in capsys.readouterr().out


class TestRoute:
    def test_route_with_svg(self, lefdef_pair, tmp_path, capsys):
        lef, deff = lefdef_pair
        svg = tmp_path / "routed.svg"
        code = main(
            [
                "route",
                "--lef",
                str(lef),
                "--def",
                str(deff),
                "--svg",
                str(svg),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "routed" in out
        assert svg.exists()
        assert svg.read_text().startswith("<svg")


class TestRender:
    def test_render(self, lefdef_pair, tmp_path, capsys):
        lef, deff = lefdef_pair
        svg = tmp_path / "access.svg"
        code = main(
            ["render", "--lef", str(lef), "--def", str(deff), "--svg", str(svg)]
        )
        assert code == 0
        assert "<line" in svg.read_text()


class TestSuite:
    def test_suite_subset(self, capsys):
        code = main(
            ["suite", "--scale", "0.002", "--testcases", "ispd18_test1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table I" in out
        assert "Table II" in out
        assert "Table III" in out
        assert "ispd18_test1" in out


class TestTopLevel:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestAnalyzeErrors:
    """Bad inputs exit non-zero with a message, never a traceback."""

    def test_missing_lef(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--lef",
                str(tmp_path / "no.lef"),
                "--def",
                str(tmp_path / "no.def"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--lef" in err and "no.lef" in err

    def test_missing_def(self, lefdef_pair, tmp_path, capsys):
        lef, _ = lefdef_pair
        code = main(
            ["analyze", "--lef", str(lef), "--def", str(tmp_path / "no.def")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--def" in err

    def test_unreadable_lef(self, tmp_path, capsys):
        # A directory passes an existence check but cannot be read;
        # the CLI must still fail cleanly.
        code = main(
            ["analyze", "--lef", str(tmp_path), "--def", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_lef(self, lefdef_pair, tmp_path, capsys):
        lef, deff = lefdef_pair
        cut = tmp_path / "cut.lef"
        cut.write_bytes(lef.read_bytes()[:3000])
        code = main(["analyze", "--lef", str(cut), "--def", str(deff)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cut}: ")
        assert err.count("\n") == 1

    def test_truncated_def(self, lefdef_pair, tmp_path, capsys):
        lef, deff = lefdef_pair
        cut = tmp_path / "cut.def"
        cut.write_bytes(deff.read_bytes()[:2000])
        code = main(["analyze", "--lef", str(lef), "--def", str(cut)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {cut}: unexpected end of DEF\n"

    def test_malformed_number_in_def(self, lefdef_pair, tmp_path, capsys):
        lef, deff = lefdef_pair
        text, count = re.subn(
            r"UNITS DISTANCE MICRONS \d+", "UNITS DISTANCE MICRONS x",
            deff.read_text(),
        )
        assert count == 1
        bad = tmp_path / "bad.def"
        bad.write_text(text)
        code = main(["analyze", "--lef", str(lef), "--def", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: expected an integer, got 'x'\n"

    def test_malformed_number_in_lef(self, lefdef_pair, tmp_path, capsys):
        lef, deff = lefdef_pair
        text, count = re.subn(
            r"^(\s+)WIDTH [\d.]+ ;", r"\1WIDTH abc ;", lef.read_text(),
            count=1, flags=re.M,
        )
        assert count == 1
        bad = tmp_path / "bad.lef"
        bad.write_text(text)
        code = main(["analyze", "--lef", str(bad), "--def", str(deff)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: expected a number, got 'abc'\n"

    @pytest.mark.parametrize(
        "line, typo, message",
        [
            (
                "TYPE ROUTING ;",
                "TYPE ROUTNG ;",
                "expected ROUTING or CUT, got 'ROUTNG'",
            ),
            (
                "DIRECTION HORIZONTAL ;",
                "DIRECTION HORIZ ;",
                "expected HORIZONTAL or VERTICAL, got 'HORIZ'",
            ),
            (
                "USE SIGNAL ;",
                "USE SIGNL ;",
                "expected SIGNAL or POWER or GROUND or CLOCK, got 'SIGNL'",
            ),
        ],
        ids=["TYPE", "DIRECTION", "USE"],
    )
    def test_misspelt_keyword_in_lef(
        self, lefdef_pair, tmp_path, capsys, line, typo, message
    ):
        lef, deff = lefdef_pair
        text = lef.read_text()
        assert line in text
        bad = tmp_path / "bad.lef"
        bad.write_text(text.replace(line, typo, 1))
        code = main(["analyze", "--lef", str(bad), "--def", str(deff)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {message}\n"

    def test_lef_cut_between_pin_end_and_name(
        self, lefdef_pair, tmp_path, capsys
    ):
        lef, deff = lefdef_pair
        text = lef.read_text()
        match = re.search(r"^  PIN (\S+)$.*?^  END \1$", text, re.M | re.S)
        assert match
        cut = tmp_path / "cut.lef"
        cut.write_text(text[: match.end() - len(match.group(1))])
        code = main(["analyze", "--lef", str(cut), "--def", str(deff)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {cut}: unexpected end of LEF\n"

    @pytest.mark.parametrize(
        "suffix, pattern, edit, message",
        [
            (
                ".def",
                r"^(- (inst_\S+) .*?;)$",
                r"\1\n\1",
                r"duplicate instance \2",
            ),
            (
                ".def",
                r"^(- (net_\S+) \(.*?;)$",
                r"\1\n\1",
                r"duplicate net \2",
            ),
            (
                ".lef",
                r"^(LAYER (\S+)\n.*?^END \2)$",
                r"\1\n\n\1",
                r"duplicate layer \2",
            ),
            (
                ".lef",
                r"^(MACRO (\S+)\n.*?)^(  PIN (\S+)\n.*?^  END \4)$",
                r"\1\3\n\3",
                r"duplicate pin \4 in master \2",
            ),
            (
                ".def",
                r"^(- (inst_\S+) (\S+) .*?^- (net_\S+) \( \2 )\S+",
                r"\1QQ",
                r"net \4: master \3 of \2 has no pin named 'QQ'",
            ),
        ],
        ids=[
            "duplicate-component",
            "duplicate-net",
            "duplicate-layer",
            "duplicate-pin",
            "undeclared-term-pin",
        ],
    )
    def test_database_error(
        self, lefdef_pair, tmp_path, capsys, suffix, pattern, edit, message
    ):
        """A duplicated name, or a net term naming a pin its master does
        not declare, is a parse error naming it: exit 2, no traceback."""
        lef, deff = lefdef_pair
        good = lef if suffix == ".lef" else deff
        text = good.read_text()
        match = re.search(pattern, text, re.M | re.S)
        assert match
        bad = tmp_path / f"bad{suffix}"
        bad.write_text(
            text[: match.start()] + match.expand(edit) + text[match.end():]
        )
        inputs = (bad, deff) if suffix == ".lef" else (lef, bad)
        code = main(
            ["analyze", "--lef", str(inputs[0]), "--def", str(inputs[1])]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: {match.expand(message)}\n"

    @pytest.mark.parametrize(
        "pattern",
        [
            r"^(- inst_\S+ \S+ \+ PLACED \( \d+ \d+ \) )\w+( ;)$",
            r"^(ROW \S+ \S+ \d+ \d+ )\w+( DO )",
        ],
        ids=["component", "row"],
    )
    def test_unknown_orientation_in_def(
        self, lefdef_pair, tmp_path, capsys, pattern
    ):
        lef, deff = lefdef_pair
        text, count = re.subn(
            pattern, r"\1Q\2", deff.read_text(), count=1, flags=re.M
        )
        assert count == 1
        bad = tmp_path / "bad.def"
        bad.write_text(text)
        code = main(["analyze", "--lef", str(lef), "--def", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: expected an orientation, got 'Q'\n"

    @pytest.mark.parametrize(
        "suffix, pattern, edit, message",
        [
            (
                ".def",
                r"^(TRACKS \S+ -?\d+ DO \d+ STEP )\d+( LAYER (\S+) ;)$",
                r"\g<1>0\2",
                r"TRACKS on \3: track step must be positive",
            ),
            (
                ".def",
                r"^(TRACKS \S+ -?\d+ DO )\d+( STEP \d+ LAYER (\S+) ;)$",
                r"\g<1>0\2",
                r"TRACKS on \3: track count must be positive",
            ),
            (
                ".lef",
                r"^(  PIN (\S+)\n.*?^ +RECT \S+ \S+ \S+ )\S+( ;)$",
                r"\1-5\3",
                r"pin \2: malformed rect",
            ),
            (
                ".lef",
                r"^(VIA (\S+) DEFAULT\n +LAYER \S+ ;\n +RECT \S+ \S+ \S+ )"
                r"\S+( ;)$",
                r"\g<1>0\3",
                r"via \2: bottom enclosure must contain the cut",
            ),
            (
                ".lef",
                r"^( +PARALLELRUNLENGTH [^\n]*\n)",
                r"\1\1",
                r"spacing table must have at least one row/column",
            ),
            (
                ".lef",
                r"^(  PIN (\S+)\n.*?)^( +PORT\n)",
                r"\1\3\3",
                r"pin \2: RECT before any LAYER",
            ),
        ],
        ids=[
            "track-step-0",
            "track-count-0",
            "inverted-pin-rect",
            "via-cut-outside-enclosure",
            "duplicate-prl-line",
            "duplicate-port-line",
        ],
    )
    def test_hostile_value(
        self, lefdef_pair, tmp_path, capsys, suffix, pattern, edit, message
    ):
        """A value the database refuses, or a RECT with no LAYER, is a
        parse error naming the block: exit 2, no traceback."""
        lef, deff = lefdef_pair
        good = lef if suffix == ".lef" else deff
        text = good.read_text()
        match = re.search(pattern, text, re.M | re.S)
        assert match
        bad = tmp_path / f"bad{suffix}"
        bad.write_text(
            text[: match.start()] + match.expand(edit) + text[match.end():]
        )
        inputs = (bad, deff) if suffix == ".lef" else (lef, bad)
        code = main(
            ["analyze", "--lef", str(inputs[0]), "--def", str(inputs[1])]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {match.expand(message)}")
        assert err.count("\n") == 1

    def test_unknown_paircheck_mode(self, lefdef_pair, capsys):
        lef, deff = lefdef_pair
        code = main(
            [
                "analyze",
                "--lef",
                str(lef),
                "--def",
                str(deff),
                "--paircheck-mode",
                "bogus",
            ]
        )
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestQaCli:
    @pytest.fixture(scope="class")
    def goldens_dir(self, tmp_path_factory):
        goldens = tmp_path_factory.mktemp("qa") / "goldens"
        code = main(
            [
                "qa",
                "snapshot",
                "ispd18_test1",
                "--scale",
                "0.005",
                "--goldens",
                str(goldens),
            ]
        )
        assert code == 0
        return goldens

    def test_snapshot_wrote_record(self, goldens_dir):
        assert (goldens_dir / "ispd18_test1@0.005.json").exists()

    def test_check_passes_and_writes_report(
        self, goldens_dir, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        code = main(
            [
                "qa",
                "check",
                "--goldens",
                str(goldens_dir),
                "--json",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out
        data = json.loads(report.read_text())
        assert [e["status"] for e in data["cases"]] == ["ok"]

    def test_diff_identical(self, goldens_dir, capsys):
        code = main(["qa", "diff", "--goldens", str(goldens_dir)])
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_unknown_case_is_clean_error(self, goldens_dir, capsys):
        code = main(
            [
                "qa",
                "check",
                "--goldens",
                str(goldens_dir),
                "--cases",
                "nope@1",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_qa_without_subcommand_shows_help(self, capsys):
        assert main(["qa"]) == 2
        assert "usage" in capsys.readouterr().out
