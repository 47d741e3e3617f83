import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repfn import cli, core
from repfn.cli import build_parser, main
from repfn.core import RepKind, batch_table
from repfn.monotonicity import find_violations
from repfn.sets import parse_set_spec


def verify_suite_names():
    from repfn.verify import SUITE_NAMES

    return SUITE_NAMES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_csv_full_set(self, capsys):
        code, out, err = run_cli(capsys, "table", "--set", "nat", "--max", "6", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,r1,r2,r3"
        assert len(lines) == 8
        assert [int(line.split(",")[1]) for line in lines[1:]] == [1, 2, 3, 4, 5, 6, 7]
        assert err == ""

    def test_json_single_document(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--set", "pow2", "--max", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["r1"] == [0, 0, 0, 0, 1, 0]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "table", "--set", "nat", "--max", "3", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("n,r1,r2,r3")

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "t.csv"
        code, out, err = run_cli(capsys, "table", "--set", "nat", "--max", "3", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_json_document_peaks_at_about_twice_its_length(self):
        # the arrays' texts and their one join; each further copy of them would add about 1x
        obj = batch_table(parse_set_spec("complement(pow2)"), 2**17).to_json_obj()
        tracemalloc.start()
        try:
            doc = cli._json_document(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * len(doc)


def reference_table_csv(t):
    """Table CSV as `%`-formatted rows, blocks of 4096."""
    parts = ["n,r1,r2,r3\n"]
    for lo in range(0, t.max_n + 1, 4096):
        cols = [a[lo : lo + 4096] for a in (t.r1, t.r2, t.r3)]
        block = np.column_stack([np.arange(lo, lo + len(cols[0])), *cols])
        parts.append("%d,%d,%d,%d\n" * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def reference_table_json(t):
    obj = {"set": t.set_spec, "max_n": t.max_n, "r1": t.r1.tolist(), "r2": t.r2.tolist(), "r3": t.r3.tolist()}
    return json.dumps(obj) + "\n"


def reference_violations_csv(report):
    return "n\n" + "".join(f"{n}\n" for n in report.violations)


def reference_violations_json(report):
    d = report.density_upper
    obj = {
        "set": report.set_spec,
        "kind": report.kind.value,
        "strict": report.strict,
        "max_n": report.max_n,
        "count": report.count,
        "density_upper": {"num": d.numerator, "den": d.denominator},
        "violations": report.violations.tolist(),
    }
    return json.dumps(obj) + "\n"


# Both sides of the decimal writer's cutover and of its block size, and
# N = 100003, whose n column gains its sixth digit inside a block.
OUTPUT_MAX_N = sorted(
    {0, 1, 511, 4095, 4096, 4097, 9000}
    | {core._CSV_BLOCK - 1, core._CSV_BLOCK, core._CSV_BLOCK + 1, 2 * core._CSV_BLOCK + 3, 100003}
)


class TestOutputBytes:
    """stdout of `table` and `violations` against the plain formatters at
    every N of OUTPUT_MAX_N; `nat` has no r1 violation, so its non-strict
    lists are empty."""

    @pytest.mark.parametrize("max_n", OUTPUT_MAX_N)
    @pytest.mark.parametrize(
        "spec", ["nat", "pow2", "complement(pow2)", "periodic:01;0110100", "complement(finite:3,7,40)"]
    )
    def test_table_and_violations_match_reference(self, capsys, spec, max_n):
        t = batch_table(parse_set_spec(spec), max_n)
        argv = ("--set", spec, "--max", str(max_n))
        assert run_cli(capsys, "table", *argv, "--format", "csv")[1] == reference_table_csv(t)
        assert run_cli(capsys, "table", *argv, "--format", "json")[1] == reference_table_json(t)
        for kind, strict in (("r1", ()), ("r3", ("--strict",))):
            report = find_violations(t, RepKind(kind), bool(strict))
            v_argv = ("violations", *argv, "--kind", kind, *strict)
            assert run_cli(capsys, *v_argv, "--format", "csv")[1] == reference_violations_csv(report)
            assert run_cli(capsys, *v_argv, "--format", "json")[1] == reference_violations_json(report)


class TestExitCodes:
    def test_malformed_spec_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "table", "--set", "finite:5,3", "--max", "4")
        assert code == 2
        assert out == "" and "finite" in err

    def test_number_past_the_int_limit_is_a_spec_error(self, capsys):
        code, out, err = run_cli(capsys, "density", "--set", "finite:" + "1" * 5000, "--max", "10")
        assert code == 2 and out == ""
        assert err.startswith("set-spec error: number longer than 4300 digits")

    def test_unknown_flag_is_usage_error(self, capsys):
        for argv in (
            ("table", "--set", "nat", "--max", "4", "--frobnicate"),
            ("table", "--set", "nat", "--max", "4", "--strategy", "naive"),
            ("violations", "--set", "nat", "--max", "4", "--strategy", "word"),
            ("verify", "all", "--budget", "1"),
        ):
            assert run_cli(capsys, *argv)[0] == 2, argv

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_budget_exceeded(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--set", "nat", "--max", "99999999", "--budget", "4096"
        )
        assert code == 3
        assert "4096" in err and out == ""

    def test_budget_follows_the_kernel_that_runs(self, capsys):
        # naive work at N = 1000 peaks near 34 KB, with no fft buffers to count
        code, out, _ = run_cli(capsys, "table", "--set", "nat", "--max", "1000", "--budget", "90000")
        assert code == 0 and out.startswith("n,r1,r2,r3\n")
        code, out, _ = run_cli(
            capsys, "table", "--set", "nat", "--max", "262144", "--budget", "4096"
        )
        assert code == 3 and out == ""

    @pytest.mark.parametrize("op", ["table", "violations"])
    def test_budget_charges_the_structural_route(self, capsys, op):
        # the co-sparse route is charged for its own work, not for the FFT's buffers
        argv = (op, "--set", "complement(pow2)", "--max", "131072")
        charge = core._plan(parse_set_spec("complement(pow2)"), 131072, "auto")[2]
        assert charge < 8_000_000 < core._estimate_bytes(131072, "fft")
        code, expected, _ = run_cli(capsys, *argv)
        assert code == 0 and expected.count("\n") == (131074 if op == "table" else 1)
        for budget in (charge, 8_000_000):
            assert run_cli(capsys, *argv, "--budget", str(budget)) == (0, expected, "")
        code, out, err = run_cli(capsys, *argv, "--budget", str(charge - 1))
        assert code == 3 and out == "" and str(charge - 1) in err

    def test_insufficient_complement_not_certified(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--set", "nat")
        assert code == 1
        assert "missing values" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("witness", "--set", "nat", "--max", "16777216"),
            ("witness", "--set", "complement(pow2)", "--max", "16777216"),
            ("render", "--set", "nat", "--max", "4194304", "--format", "svg"),
            ("render", "--set", "nat", "--max", "4194304", "--format", "ascii"),
            ("table", "--set", "complement(pow2)", "--max", "131072"),
        ],
        ids=["witness-nat", "witness-complement-pow2", "render-svg", "render-ascii", "table-complement-pow2"],
    )
    def test_budget_checked_before_allocating(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv, "--budget", "1000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == ""
        assert "1000" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv",
        [("table", "--max", "10"), ("render", "--max", "10", "--format", "svg"), ("witness", "--max", "8")],
        ids=["table", "render-svg", "witness"],
    )
    def test_shift_offset_costs_no_memory(self, capsys, argv):
        # the shifted set is {0, 1, 3, 6}; a shift reads only its inner window
        shifted = "shift(10000000,finite:10000000,10000001,10000003,10000006)"
        plain = "finite:0,1,3,6"
        expected = run_cli(capsys, argv[0], "--set", plain, *argv[1:])[1]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv[0], "--set", shifted, *argv[1:], "--budget", "100000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and err == ""
        assert out == expected.replace(plain, shifted)
        assert peak < 1 << 20

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestViolations:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "violations", "--set", "pow2", "--max", "10", "--kind", "r1"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["violations"] == [4, 6, 8]
        assert obj["density_upper"] == {"num": 3, "den": 10}

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "violations", "--set", "pow2", "--max", "10", "--format", "csv"
        )
        assert code == 0
        assert out == "n\n4\n6\n8\n"

    def test_strict_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "violations", "--set", "nat", "--max", "6", "--kind", "r2", "--strict"
        )
        assert json.loads(out)["violations"] == [0, 2, 4]


class TestDensity:
    def test_pow2(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--set", "pow2", "--max", "1024")
        assert code == 0
        obj = json.loads(out)
        assert obj["member_count"] == 10
        assert obj["ratio"] == {"num": 5, "den": 512}


class TestWitness:
    def test_c2_odd_example(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--set", "complement(finite:2,5)")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 4
        assert obj["case_trace"] == "C2_ODD"
        assert obj["brute_force_first"] == 4
        assert obj["before"] == 2 and obj["after"] == 1

    def test_shifted_includes_inner(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--set", "complement(finite:0,3,8)")
        obj = json.loads(out)
        assert obj["case_trace"] == "SHIFTED" and obj["shift"] == 1
        assert obj["inner"]["case_trace"] == "C2_ODD"

    def test_witness_past_max(self, capsys):
        # --max bounds only the brute-force comparison, not the predictor
        code, out, _ = run_cli(capsys, "witness", "--set", "complement(finite:2,601)")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 600 and obj["case_trace"] == "C2_ODD"
        assert obj["scan_bound"] == 512 and obj["brute_force_first"] is None

    def test_verification_honours_budget(self, capsys):
        code, out, err = run_cli(capsys, "witness", "--set", "complement(finite:2,1000000001)")
        assert code == 3 and out == ""
        assert "resource error" in err
        # the brute-force table to 16 fits in 10000 bytes, the one to 601 does not
        argv = ("witness", "--set", "complement(finite:2,601)", "--max", "16")
        assert run_cli(capsys, *argv, "--budget", "50000")[0] == 0
        code, out, err = run_cli(capsys, *argv, "--budget", "10000")
        assert code == 3 and out == "" and "10000" in err


class TestRender:
    def test_svg_output(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--set", "nat", "--max", "4")
        assert code == 0
        assert out.startswith("<svg")

    def test_ascii_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "render", "--set", "complement(finite:1)", "--max", "4", "--format", "ascii"
        )
        rows = out.strip("\n").split("\n")
        counts = [sum(row[x] == "*" for row in rows) for x in range(5)]
        assert counts == [1, 0, 2, 2, 3]

    def test_ascii_budget_counts_cells(self, capsys):
        # 513 x 513 cells at 3 bytes each fit in 1.5 MB
        argv = ("render", "--set", "empty", "--max", "512", "--format", "ascii")
        code, out, _ = run_cli(capsys, *argv, "--budget", "1500000")
        assert code == 0
        assert out == ("." * 513 + "\n") * 513

    def test_budget_checked_before_building_points(self, capsys):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "render", "--set", "nat", "--max", "3000", "--budget", "1000")
        elapsed = time.perf_counter() - started
        assert code == 3 and out == ""
        assert "1000" in err
        assert elapsed < 0.5

    def test_sparse_svg_fits_its_budget(self, capsys):
        # 17 members and about 200 KB at its traced peak
        argv = ("render", "--set", "pow2", "--max", "100000", "--format", "svg")
        code, out, err = run_cli(capsys, *argv, "--budget", "1000000")
        assert code == 0 and err == ""
        assert out.startswith("<svg") and out.endswith("</svg>\n")


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "closed-forms")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["suite"] == "closed-forms"
        assert payload[0]["passed"] is True

    def test_corrupt_self_test_fails(self, capsys):
        code, out, err = run_cli(capsys, "verify", "closed-forms", "--self-test-corrupt")
        assert code == 1
        payload = json.loads(out)
        assert payload[0]["passed"] is False
        assert "closed-forms" in err

    @pytest.mark.parametrize("suite", verify_suite_names())
    def test_each_corruptible(self, capsys, suite):
        assert run_cli(capsys, "verify", suite, "--self-test-corrupt")[0] == 1

    def test_seed_recorded(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "diagram", "--seed", "123")
        assert json.loads(out)[0]["seed"] == 123

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        # the suite runs and passes; only its report cannot be written
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "verify", "closed-forms", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_suite_rejected(self, capsys):
        assert run_cli(capsys, "verify", "nonsense")[0] == 2


def run_fresh(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repfn", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "COLUMNS": "80"},
    )
    return proc.returncode, proc.stdout


def zero_elapsed(out):
    return re.sub(r'"elapsed_seconds": [0-9.e-]+', '"elapsed_seconds": 0', out)


class TestParserReuse:
    """`main` shares one parser across calls; no call may see another's state."""

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        inproc, fresh = tmp_path / "inproc.csv", tmp_path / "fresh.csv"
        table = ("table", "--set", "pow2", "--max", "5")
        steps = [
            (("table", "--set", "nat", "--max", "4", "--frobnicate"), 2),
            (("--help",), 0),
            (table + ("--format", "json"), 0),
            (table, 0),
            (table + ("--out", "{out}"), 0),
            (table, 0),
            (("verify", "closed-forms", "--self-test-corrupt"), 1),
            (("verify", "closed-forms"), 0),
        ]
        for argv, expected in steps:
            code, out, _ = run_cli(capsys, *(arg.format(out=inproc) for arg in argv))
            fresh_code, fresh_out = run_fresh(*(arg.format(out=fresh) for arg in argv))
            assert code == fresh_code == expected, argv
            assert zero_elapsed(out) == zero_elapsed(fresh_out), argv
        assert inproc.read_text() == fresh.read_text()

    def test_parser_is_built_once(self, capsys, monkeypatch):
        main(["density", "--set", "pow2", "--max", "16"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        calls = [
            ["table", "--set", "nat", "--max", "6"],
            ["violations", "--set", "pow2", "--max", "10"],
            ["density", "--set", "pow2", "--max", "64"],
            ["render", "--set", "nat", "--max", "4", "--format", "ascii"],
            ["table", "--set", "nat"],
        ]
        for argv in calls * 4:
            main(argv)
        capsys.readouterr()
        assert built == []


def parse_or_exit(parser, argv):
    """argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return parser.parse_args(argv)
        except SystemExit:
            return None


# per command its arguments as (option string, argparse keywords), read from the declared grammar
OPTIONS = {name: arguments for name, (_, _, arguments) in cli.GRAMMAR.items()}
PARSER_TOKENS = sorted(set(OPTIONS) | {s for arguments in OPTIONS.values() for s, _ in arguments if s.startswith("-")})
CHOICES = sorted({c for arguments in OPTIONS.values() for _, keywords in arguments for c in keywords.get("choices", ())})
# int() reads "\u0663" (Arabic-Indic three), "1_0" and " 7"
VALUES = ["", "-5", "\u0663", "1_0", " 7", "5", "0", "pow2", "nat", "finite:2,5", "xml", *CHOICES]
OTHER_TOKENS = ["-h", "--help", "--", "--ma", "--se", "--fo", "--st", "--max=5", "--set=pow2", "--strict=1", "junk"]
any_token = st.sampled_from(PARSER_TOKENS + VALUES + OTHER_TOKENS)


def good_values(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    return st.sampled_from(["5", "0", "1_0", " 7", "\u0663"] if keywords.get("type") is int else ["pow2", "nat", "", " 7"])


@st.composite
def token_soups(draw):
    """A command and its options in any order, mostly once each but
    sometimes missing or repeated, with good values or now and then any
    token; then a few tokens replaced by or followed by any token:
    abbreviated and `=` options, help, "--", other commands."""
    name = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [name]
    for string, keywords in draw(st.permutations(OPTIONS[name])):
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
            if string.startswith("-"):  # else verify's positional suite
                argv.append(string)
            if keywords.get("action") != "store_true":
                argv.append(draw(st.one_of(*[good_values(keywords)] * 3, any_token)))
    for i, token, replace in draw(st.lists(st.tuples(st.integers(0, len(argv)), any_token, st.booleans()), max_size=3)):
        argv[i : i + replace] = [token]
    return argv


def plain_requests(out):
    """A plain line of every command but verify, writing its report to out."""
    common = ("--budget", "100000000", "--out", str(out))
    return [
        ["table", "--set", "nat", "--max", "6", "--format", "json", *common],
        ["violations", "--set", "pow2", "--max", "10", "--kind", "r2", "--strict", "--format", "csv", *common],
        ["density", "--set", "pow2", "--max", "64", *common],
        ["witness", "--set", "complement(finite:2,5)", "--max", "20", *common],
        ["witness", "--set", "complement(finite:2,5)", *common],
        ["render", "--set", "nat", "--max", "4", "--format", "ascii", *common],
    ]


# runs the JSON list of command lines it is given in a fresh process, then
# prints how many parsers build_parser() has built
PLAIN_REQUESTS_IN_FRESH_PROCESS = """
import json, sys
from repfn import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
print(cli.build_parser.cache_info().currsize)
"""

# the keywords _read_plain interprets; any other would be misread
READ_KEYWORDS = {"required", "type", "default", "choices", "metavar", "help", "action"}


class TestPlainReader:
    """`main` reads plain argv from the declared table `cli.GRAMMAR`, from
    which `build_parser()` also builds argparse's parser; argparse takes the rest."""

    @settings(max_examples=500, deadline=None)
    @given(token_soups())
    def test_reader_agrees_with_argparse(self, argv):
        read = cli._read_plain(argv)
        if read is not None:
            assert read == parse_or_exit(build_parser(), argv)

    @pytest.fixture
    def top_level_parses(self, monkeypatch):
        """The number of times argparse parses a command line, top level only."""
        parser = build_parser()
        count = []
        parse = parser.parse_known_args

        def counting(*args, **kwargs):
            count.append(1)
            return parse(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
        return count

    def test_every_request_command_is_read_without_argparse(self, capsys, tmp_path, top_level_parses):
        argvs = plain_requests(tmp_path / "out")
        for argv in argvs:
            assert main(argv) == 0, argv
        assert top_level_parses == []
        # every option of every command but verify is on some line above
        used = {token for argv in argvs for token in argv}
        assert used >= {string for name, arguments in OPTIONS.items() if name != "verify" for string, _ in arguments}

    @pytest.mark.parametrize(
        "argv",
        [
            ("--help",),
            ("table", "--max=5", "--set", "nat"),
            ("table", "--ma", "5", "--set", "nat"),
            ("verify", "all"),
        ],
    )
    def test_argparse_parses_what_the_reader_declines(self, capsys, monkeypatch, argv, top_level_parses):
        monkeypatch.setattr(cli.verify, "run_suites", lambda *args, **kwargs: [])  # parsing is under test
        main(list(argv))
        capsys.readouterr()
        assert top_level_parses == [1]

    def test_plain_lines_build_no_parser(self, tmp_path):
        argvs = plain_requests(tmp_path / "out")
        proc = subprocess.run(
            [sys.executable, "-c", PLAIN_REQUESTS_IN_FRESH_PROCESS, json.dumps(argvs)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    @pytest.mark.parametrize("name", sorted(cli.GRAMMAR))
    def test_the_reader_interprets_every_keyword_of_the_grammar(self, name):
        # so that a future nargs, append, const or dest fails here instead of being misread
        for string, keywords in cli.GRAMMAR[name][2]:
            assert set(keywords) <= READ_KEYWORDS, (name, string)
            assert keywords.get("action", "store_true") == "store_true", (name, string)
            # argparse passes a string default through type; the reader takes it as it is
            assert not (isinstance(keywords.get("default"), str) and "type" in keywords), (name, string)
            # a long option, whose dest is its name; or a positional, which sends its command to argparse
            assert string.startswith("--") or not string.startswith("-"), (name, string)
        assert (name in cli._PLAIN) == (name != "verify")


class TestDataStreamPurity:
    def test_json_stream_parses_in_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repfn", "table", "--set", "pow2", "--max", "8",
             "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)

    def test_errors_go_to_stderr_in_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repfn", "table", "--set", "wat", "--max", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr != ""

    @pytest.mark.parametrize("depth", [1200, 10**4])
    @pytest.mark.parametrize("prefix", ["complement(", "shift(0,"])
    def test_deep_nesting_is_a_spec_error_in_subprocess(self, prefix, depth):
        spec = prefix * depth + "pow2" + ")" * depth
        proc = subprocess.run(
            [sys.executable, "-m", "repfn", "density", "--set", spec, "--max", "100"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr and "nested deeper than 64" in proc.stderr
