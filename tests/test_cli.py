import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import integration as ig
from sci_workbench import koopman as kp
from sci_workbench import spectral as sp
from sci_workbench.catalog import (
    default_catalog_path,
    diagonal_from_json,
    function_from_json,
    load_catalog,
    reduction_from_json,
)
from sci_workbench.cli import (
    dispatch,
    main,
    parse_diagonal_spec,
    parse_function_spec,
    to_jsonable,
)
from sci_workbench.errors import CatalogError, NonFiniteReport, UsageError
from sci_workbench.reductions import verify_reduction


class TestDispatch:
    def test_integrate_tower_near_half(self):
        report = dispatch(
            ["integrate", "tower", "--interval", "0", "1", "--function", "poly:0,1", "--n", "1024"]
        )
        assert report.passed
        assert report.result["value"] == "1023/2048"
        assert abs(eval_fraction(report.result["value"]) - 0.5) < 1e-3

    def test_family_classify_examples(self):
        report = dispatch(["family", "classify", "--heights", "0,2", "--k", "2"])
        result = report.result
        assert (result["pointwise_exact"], result["witness_sharp"], result["worst_case_exact"]) == (
            False,
            True,
            True,
        )

    def test_counterexample_id_reports_clash(self):
        report = dispatch(["degrees", "counterexample", "--class", "id"])
        assert report.passed
        assert report.result["checks"][0]["name"] == "output carriers clash"

    def test_adversary(self):
        report = dispatch(["integrate", "adversary", "--points", "1/2"])
        assert report.passed
        assert report.result["u"] == "1/8" and report.result["v"] == "3/8"

    def test_spectral_decide_agrees(self):
        report = dispatch(
            ["spectral", "decide", "--diagonal", "harmonic:1/2,1/2", "--z", "1/2"]
        )
        assert report.passed
        assert report.result["oracle"] == 0

    def test_koopman_apeps(self):
        report = dispatch(
            ["koopman", "finite", "--map", "2,1", "--target", "apeps", "--epsilon", "0.1"]
        )
        assert report.passed

    def test_usage_error(self):
        with pytest.raises(UsageError):
            dispatch(["integrate", "tower", "--interval", "0"])

    def test_exit_codes(self, capsys):
        assert main(["family", "classify", "--heights", "1", "--k", "1"]) == 0
        capsys.readouterr()
        assert main(["no-such-command"]) == 2

    def test_family_classify_negative_level_exits_2(self, capsys):
        assert main(["family", "classify", "--heights", "1,2", "--k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("bad argument value:")

    def test_reduce_verify_missing_param_exits_2(self, capsys):
        argv = ["reduce", "verify", "--spec", '{"rule":"integration_affine","params":{}}']
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("catalog error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["spectral", "stabilize", "--diagonal", "const:1", "--z", "1/2", "--stabilizer", "const:1/2"],
         "error: UncertifiedStabilizer: cannot certify spectrum of const:1/2 away from [0,1]\n"),
        (["spectral", "decide", "--diagonal", "enum:0,1", "--z", "1/3", "--n2", "100000000"],
         "error: BudgetExceeded: decide[0,1]@(100000000,7) would need 100000000 dyadic bits,"
         " over the budget of 1000000 dyadic bits\n"),
        (["spectral", "decide", "--diagonal", "const:1", "--z", "1/2", "--domain", "1", "0"],
         "bad argument value: need a <= b, got [1, 0]\n"),
        (["spectral", "decide", "--diagonal", "const:1", "--z", "2"],
         "error: WindowOutsideDomain: window point 2 outside [0,1]\n"),
    ], ids=["uncertified-stabilizer", "decide-budget", "reversed-domain", "window-outside-domain"])
    def test_spectral_errors_print_the_domain_as_an_interval(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message

    def test_json_reports_are_byte_identical(self, capsys):
        argv = ["--json", "certify", "package", "--family", "integration", "--samples", "20"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == "sci-workbench/run-report@1"
        assert payload["seed"] == 0

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("SCI_WORKBENCH_SEED", "42")
        report = dispatch(["integrate", "reduce", "--interval", "0", "2", "--samples", "10"])
        assert report.seed == 42


NON_OBJECT_SPECS = {
    "identity-problem-is-a-number": ["reduce", "verify", "--spec",
                                     '{"rule":"identity","params":{"problem":5}}'],
    "stabilizer-is-a-number": ["reduce", "verify", "--spec",
                               '{"rule":"spectral_forward","params":{"domain":["0","1"],'
                               '"stabilizer":5,"pairs":[]}}'],
    "function-is-a-number": ["reduce", "verify", "--spec",
                             '{"rule":"identity","params":{"problem":{"problem":"integration",'
                             '"params":{"interval":["0","1"],"functions":[7]}}}}'],
    "catalog-entry-is-a-number": ["--catalog", "{catalog}", "spectral", "reduce"],
}


@pytest.mark.parametrize("argv", NON_OBJECT_SPECS.values(), ids=NON_OBJECT_SPECS.keys())
def test_non_object_spec_values_exit_2(argv, tmp_path, capsys):
    catalog = tmp_path / "catalog.json"
    catalog.write_text('{"schema": "sci-workbench/catalog@1", "entries": [5]}')
    assert main([arg.replace("{catalog}", str(catalog)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("catalog error:") and "Traceback" not in err


def test_spectral_reduce_takes_the_domain_of_the_catalog(tmp_path, capsys):
    pairs = [{"diagonal": {"kind": "const", "value": "2"}, "z": "2"},
             {"diagonal": {"kind": "finite_list", "values": ["0", "3/2"], "tail": "3/2"}, "z": "1"},
             {"diagonal": {"kind": "enum", "lo": "0", "hi": "2"}, "z": "5/3"}]
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"schema": "sci-workbench/catalog@1", "entries": [
        {"problem": "spectral_source", "params": {"domain": ["0", "2"], "pairs": pairs}}]}))
    argv = ["--catalog", str(catalog), "spectral", "reduce", "--stabilizer", "const:5", "--samples", "8"]
    report = dispatch(argv)
    assert report.passed
    assert (report.result["forward"], report.result["backward"]) == ("stabilize[const:5]", "strip[const:5]")
    assert "domain" not in report.parameters
    # the domain is the catalog's, so the option that restated it is gone
    assert main([*argv, "--domain", "0", "2"]) == 2
    assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --domain 0 2")


EMPTY_CATALOG_PROBLEMS = {
    "integration": '{"problem":"integration","params":{"interval":["0","1"],"functions":[]}}',
    "koopman": '{"problem":"koopman","params":{"weights":["1"],"maps":[]}}',
    "spectral-source": '{"problem":"spectral_source","params":{"domain":["0","1"],"pairs":[]}}',
}


@pytest.mark.parametrize("problem", EMPTY_CATALOG_PROBLEMS.values(), ids=EMPTY_CATALOG_PROBLEMS.keys())
def test_verify_over_an_empty_input_catalog_exits_2(problem, capsys):
    spec = '{"rule":"identity","params":{"problem":%s}}' % problem
    assert main(["reduce", "verify", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: EmptyInputClass:") and "Traceback" not in captured.err
    assert captured.out == ""


ROOT = Path(__file__).resolve().parents[1]
README_CLI = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
README_COMMANDS = [
    shlex.split(line)[1:]
    for line in README_CLI.split("```sh", 1)[1].split("```", 1)[0].strip().splitlines()
]


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(c[:2]) for c in README_COMMANDS])
def test_readme_cli_examples_pass(argv, capsys):
    assert main(argv) == 0


THREE_INTERVAL_COMPOSE_JSON = """{
  "checks": [
    {
      "measured": 0.0,
      "name": "composed reduction verifies",
      "passed": true,
      "tolerance": null
    },
    {
      "measured": 1,
      "name": "blockwise width law",
      "passed": true,
      "tolerance": 1
    }
  ],
  "command": "reduce compose",
  "parameters": {
    "intervals": "0,1;0,2;0,4",
    "samples": 60
  },
  "result": {
    "composed": "affine[[0,1]->[0,2]]>>affine[[0,2]->[0,4]]",
    "probe_width": 1,
    "report": {
      "max_discrepancy": 0.0,
      "queries_per_sample": 20,
      "query_failures": 0,
      "samples": 60,
      "seed": 0,
      "target_failures": 0,
      "tol": 1e-09
    }
  },
  "schema": "sci-workbench/run-report@1",
  "seed": 0
}
"""


class TestReduceCompose:
    def test_three_interval_report_is_unchanged(self, monkeypatch, capsys):
        monkeypatch.delenv("SCI_WORKBENCH_SEED", raising=False)
        assert main(["--json", "reduce", "compose", "--intervals", "0,1;0,2;0,4"]) == 0
        assert capsys.readouterr().out == THREE_INTERVAL_COMPOSE_JSON

    def test_every_interval_of_the_chain_is_composed(self):
        report = dispatch(["reduce", "compose", "--intervals", "0,1;0,2;0,4;0,8", "--samples", "20"])
        assert report.passed
        assert report.result["composed"] == (
            "affine[[0,1]->[0,2]]>>affine[[0,2]->[0,4]]>>affine[[0,4]->[0,8]]"
        )
        assert [(c.name, c.passed) for c in report.checks] == [
            ("composed reduction verifies", True), ("blockwise width law", True)]
        assert report.result["report"]["samples"] == 20 and report.result["report"]["query_failures"] == 0

    def test_a_chain_longer_than_the_bound_exits_2_before_any_work(self, monkeypatch, capsys):
        from sci_workbench import cli

        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(ig, "make_problem", no_work)
        chain = ";".join(f"0,{k}" for k in range(1, cli._MAX_CHAIN + 2))
        assert main(["reduce", "compose", "--intervals", chain]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --intervals holds {cli._MAX_CHAIN + 1} intervals, more than the {cli._MAX_CHAIN}")
        assert "Traceback" not in err
        monkeypatch.undo()
        chain = ";".join(f"0,{k}" for k in range(1, cli._MAX_CHAIN + 1))
        assert main(["reduce", "compose", "--intervals", chain, "--samples", "2"]) == 0

    def test_a_link_whose_ratio_has_no_double_folds_away(self):
        # the second link scales by 10^4299 / 4, beyond any double; the fold's ratio is 1/4
        report = dispatch(["reduce", "compose", "--intervals", "0,1;0,1e4299;0,4", "--samples", "20"])
        assert report.passed and report.result["report"]["query_failures"] == 0

    @pytest.mark.parametrize("part", ["0,2,3", "0", ""])
    def test_a_part_that_is_not_an_interval_is_named(self, part, capsys):
        assert main(["reduce", "compose", "--intervals", f"0,1;{part};0,4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --intervals part {part!r} is not an interval a,b")
        assert "Traceback" not in err


FUNCTION_KINDS = ("poly", "sine", "bump")


def test_readme_spellings_match_catalog_json():
    examples = re.findall(r"`([^`]+)`", README_CLI.split("Examples:", 1)[1].split("\n\n", 1)[0])
    documented = {}
    for line in (ROOT / "docs" / "catalog-schema.md").read_text().splitlines():
        cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) == 4 and cells[3].startswith("`{"):
            documented[cells[2].strip("`")] = json.loads(cells[3].strip("`"))
    assert sorted(examples) == sorted(documented)
    assert {data["kind"] for data in documented.values()} == {
        *FUNCTION_KINDS, "const", "finite_list", "harmonic", "enum"
    }
    for spelling, data in documented.items():
        if data["kind"] in FUNCTION_KINDS:
            assert parse_function_spec(spelling) == function_from_json(data)
        else:
            assert parse_diagonal_spec(spelling) == diagonal_from_json(data)


FRACTIONS = st.fractions(max_denominator=10**6)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
ORDERED = st.tuples(FRACTIONS, FRACTIONS).filter(lambda p: p[0] != p[1]).map(sorted)
FUNCTIONS = st.one_of(
    st.lists(FRACTIONS, min_size=0, max_size=5).map(lambda cs: ig.Polynomial(tuple(cs))),
    # a Sine exists only where its Lipschitz bound amplitude * frequency is finite
    st.tuples(FLOATS, FLOATS.filter(bool))
    .filter(lambda p: math.isfinite(p[0] * p[1]))
    .map(lambda p: ig.Sine(*p)),
    ORDERED.map(lambda p: ig.Bump(*p)),
)
DIAGONALS = st.one_of(
    FRACTIONS.map(sp.constant_diagonal),
    st.builds(lambda vs, t: sp.FiniteThenConstant(tuple(vs), t),
              st.lists(FRACTIONS, max_size=5), FRACTIONS),
    st.builds(sp.HarmonicSequence, FRACTIONS, FRACTIONS.filter(bool)),
    ORDERED.map(lambda p: sp.RationalEnumeration(*p)),
)


@settings(max_examples=200, deadline=None)
@given(FUNCTIONS, DIAGONALS)
def test_spec_labels_round_trip(function, diagonal):
    assert parse_function_spec(function.label()) == function
    assert parse_diagonal_spec(diagonal.label()) == diagonal


BAD_SINES = ["sine:inf,1", "sine:nan,1", "sine:1,0", "sine:1,-inf"]


@pytest.mark.parametrize("spec", BAD_SINES)
def test_non_finite_or_zero_frequency_sine_exits_2(spec, capsys):
    argv = ["--json", "integrate", "tower", "--interval", "0", "1", "--function", spec, "--n", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: bad function spec") and "Traceback" not in captured.err
    assert captured.out == ""


def test_sine_with_overflowing_lipschitz_bound_exits_2(capsys):
    argv = ["--json", "integrate", "tower", "--interval", "0", "1", "--function",
            "sine:1e308,1e308", "--n", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: bad function spec") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_non_finite_epsilon_exits_2_by_name(eps, capsys):
    argv = ["--json", "koopman", "finite", "--map", "2,3,1", "--target", "apeps", f"--epsilon={eps}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad argument value: eps must be a positive finite number")
    assert "Traceback" not in captured.err and captured.out == ""


def test_non_finite_report_exits_2(capsys):
    # a finite Lipschitz bound, but the stage sum of four values near 1.7e308 overflows
    argv = ["--json", "integrate", "tower", "--interval", "0", "1", "--function",
            "sine:1.7e308,1", "--n", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: NonFiniteReport: result.") and "Traceback" not in captured.err
    assert captured.out == ""
    with pytest.raises(NonFiniteReport):
        dispatch(argv[1:])


@pytest.mark.parametrize("argv, path", [
    (["koopman", "finite", "--map", "2,1", "--epsilon", "nan"], "parameters.epsilon is nan"),
    (["koopman", "finite", "--map", "2,1", "--target", "ap", "--grid", "0", "1", "0", "1", "nan"],
     "parameters.grid[4] is nan"),
    (["koopman", "finite", "--map", "2,1", "--target", "ap", "--grid", "0", "inf", "0", "1", "0.5"],
     "parameters.grid[1] is inf"),
], ids=["epsilon", "grid-spacing", "grid-end"])
def test_non_finite_parameter_exits_2_by_name_in_both_modes(argv, path, capsys):
    # the ap target reads neither option, but the report would still print it
    for flag in (["--json"], []):
        assert main([*flag, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: NonFiniteReport: {path}, which strict JSON cannot encode\n"
        assert captured.out == ""


def test_the_report_walk_names_a_non_finite_complex_part():
    with pytest.raises(NonFiniteReport, match=r"^value\.z\[1\] is nan, which strict JSON"):
        to_jsonable({"z": complex(1.0, math.nan)})
    with pytest.raises(NonFiniteReport, match=r"^result\[0\]\[0\] is inf, which strict JSON"):
        to_jsonable([complex(math.inf, 0.0)], "result")


OUT_OF_DOUBLE_RANGE = {
    "integrate-tower": ["integrate", "tower", "--interval", "0", "1e400", "--function", "sine:1,1",
                        "--n", "4"],
    "reduce-pullback": ["reduce", "pullback", "--interval", "0", "1e400", "--n", "4", "--function",
                        "sine:1,1"],
    "koopman-weights": ["koopman", "finite", "--map", "2,1", "--weights", "1e400,1", "--target", "apeps",
                        "--epsilon", "0.5", "--grid", "-1.5", "1.5", "-1.5", "1.5", "0.1"],
}


@pytest.mark.parametrize("argv", OUT_OF_DOUBLE_RANGE.values(), ids=OUT_OF_DOUBLE_RANGE.keys())
def test_rational_out_of_double_range_exits_2(argv, capsys):
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad argument value: ") and "Traceback" not in captured.err
    assert captured.out == ""


def test_exact_pullback_runs_on_a_length_with_no_double(capsys):
    # the length ratio is 10^400: no float answer needs it as a double
    assert main(["--json", "reduce", "pullback", "--interval", "0", "1e-400", "--n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {"stage": 4, "pulled_back": "3/8", "native": "3/8"}


@pytest.mark.parametrize("argv, named", [
    (["integrate", "reduce", "--interval", "0", "1e-400", "--samples", "3"], "an affine image's scale"),
    (["reduce", "pullback", "--interval", "0", "1e-400", "--n", "4", "--function", "sine:1,1"],
     "the length ratio of affine[[0,1]->[0,1/1" + "0" * 400 + "]]"),
], ids=["integrate-reduce", "reduce-pullback-sine"])
def test_float_answer_scaled_out_of_double_range_is_named(argv, named, capsys):
    for flag in (["--json"], []):
        assert main([*flag, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"bad argument value: {named} is about 10^400, which is out of double range,"
            " so no float can be scaled by it\n"
        )
        assert captured.out == ""


@pytest.mark.parametrize("command", ["integrate-tower", "reduce-pullback"])
@pytest.mark.parametrize("a, b, named", [("0", "1e400", "B = 1e400"), ("-1e400", "0", "A = -1e400")])
def test_sine_endpoint_out_of_double_range_is_named(command, a, b, named, capsys):
    argv = list(OUT_OF_DOUBLE_RANGE[command])
    at = argv.index("--interval")
    argv[at + 1 : at + 3] = [a, b]
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"bad argument value: --interval {named} is out of double range, which a sine function needs\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("b, n, named", [("1e400", "4", "error bound of about 10^799"),
                                         ("1e200", "1", "error bound of about 10^399")])
def test_exact_bound_out_of_double_range_is_named(b, n, named, capsys):
    # the polynomial is exact at any endpoint, but the check reports the bound as a double
    argv = ["--json", "integrate", "tower", "--interval", "0", b, "--function", "poly:1,1", "--n", n]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"bad argument value: --interval 0 {b} gives a left-endpoint {named}, " \
        "which is out of double range\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["spectral", "decide", "--diagonal", "const:1", "--z", "1e1000000"],
     "usage error: rational '1e1000000' has a decimal exponent beyond 4300 in magnitude\n"),
    (["integrate", "tower", "--interval", "0", "1E5000", "--function", "poly:1", "--n", "4"],
     "usage error: rational '1E5000' has a decimal exponent beyond 4300 in magnitude\n"),
    (["integrate", "tower", "--interval", "0", "1", "--function", "poly:1e-9999", "--n", "4"],
     "usage error: bad function spec 'poly:1e-9999': rational '1e-9999' has a decimal exponent"
     " beyond 4300 in magnitude\n"),
    (["spectral", "decide", "--diagonal", "const:1", "--z", "1e\u0669\u0669\u0669\u0669\u0669\u0669"],
     "usage error: rational '1e\u0669\u0669\u0669\u0669\u0669\u0669' has a decimal exponent"
     " beyond 4300 in magnitude\n"),
], ids=["z", "interval", "mini-grammar", "arabic-indic-digits"])
def test_huge_decimal_exponent_exits_2_before_parsing(argv, message, capsys):
    # Fraction would build 10**exponent in full, whatever script the exponent's digits are in
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


@pytest.mark.parametrize("argv, message", [
    # a literal at the exponent bound: 10^4300 has 4301 digits, and the problem's name prints it
    (["integrate", "tower", "--interval", "0", "1e4300", "--function", "poly:1", "--n", "2"],
     "usage error: rational '1e4300' has a numerator of 4301 digits"),
    # a computed value: the exact integral 10^5000 / 2 of x over [0, 10^2500]
    (["integrate", "tower", "--interval", "0", "1e2500", "--function", "poly:0,1", "--n", "2"],
     "error: UnprintableReport: result.value has a numerator of 5000 digits"),
    # a point p = 1 / (3 * 10^4299): the tent's area (1 - p) / 4 has the denominator 12 * 10^4299
    (["integrate", "adversary", "--points", "1/3" + "0" * 4299],
     "error: UnprintableReport: result.integral has a denominator of 4301 digits"),
], ids=["endpoint", "integral", "adversary"])
def test_exact_value_too_long_to_print_exits_2_by_name(argv, message, print_limit, capsys):
    for flag in (["--json"], []):
        assert main([*flag, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{message}, more than the 4300 the interpreter prints\n"
        assert captured.out == ""


def test_exact_value_at_the_print_limit_prints(print_limit, capsys):
    assert main(["--json", "integrate", "tower", "--interval", "0", "1e4299", "--function", "poly:1", "--n", "2"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["value"] == result["exact"] == "1" + "0" * 4299


def _catalog_with(tmp_path, end: str) -> str:
    """A catalog whose entry 0 is an integration over [0, end], ``end`` written into the JSON as is,
    followed by the packaged entries; the spectral commands use the packaged spectral source."""
    packaged = json.loads(default_catalog_path().read_text(encoding="utf-8"))
    path = tmp_path / "catalog.json"
    entries = ",".join(json.dumps(entry) for entry in packaged["entries"])
    path.write_text(
        f'{{"schema": "{packaged["schema"]}", "entries": [{{"problem": "integration",'
        f' "params": {{"interval": ["0", {end}]}}}}, {entries}]}}',
        encoding="utf-8",
    )
    return str(path)


def _verify_spec(end: str) -> str:
    return f'{{"rule": "integration_affine", "params": {{"target": ["0", {end}]}}}}'


#: Every door a rational literal comes in by: the literal -> (argv, the refusal's prefix).
#: A JSON door writes the literal into the document as a string or as an integer.
LITERAL_DOORS = {
    "rational": lambda v, tmp: (
        ["integrate", "tower", "--interval", "0", v, "--function", "poly:1", "--n", "2"], "usage error: "),
    "poly-field": lambda v, tmp: (
        ["integrate", "tower", "--interval", "0", "1", "--function", f"poly:{v}", "--n", "2"],
        f"usage error: bad function spec 'poly:{v}': "),
    "const-field": lambda v, tmp: (
        ["spectral", "reduce", "--stabilizer", f"const:{v}", "--samples", "2"],
        f"usage error: bad diagonal spec 'const:{v}': "),
    "spec-string": lambda v, tmp: (
        ["reduce", "verify", "--spec", _verify_spec(json.dumps(v)), "--samples", "2"], "catalog error: "),
    "spec-integer": lambda v, tmp: (
        ["reduce", "verify", "--spec", _verify_spec(v), "--samples", "2"], "catalog error: "),
    "catalog-string": lambda v, tmp: (
        ["--catalog", _catalog_with(tmp, json.dumps(v)), "spectral", "reduce", "--samples", "2"],
        f"catalog error: {tmp / 'catalog.json'}: entry 0: "),
    "catalog-integer": lambda v, tmp: (
        ["--catalog", _catalog_with(tmp, v), "spectral", "reduce", "--samples", "2"],
        f"catalog error: {tmp / 'catalog.json'}: "),
    # an image is a point of 1..N, so the literal spells 1 with leading zeros, which int counts
    "map": lambda v, tmp: (["koopman", "finite", "--map", v[:-1].replace("1", "0") + "1"], "usage error: --map: "),
    "heights": lambda v, tmp: (["family", "classify", "--heights", f"0,{v}", "--k", "1"], "usage error: --heights: "),
}


@pytest.mark.parametrize("print_limit", [4300, 640], indirect=True, ids=["default-limit", "lowered-limit"])
@pytest.mark.parametrize("door, spelling", [
    (door, spelling) for door in LITERAL_DOORS for spelling in ("written-out", "exponent")
    if spelling == "written-out" or door not in ("spec-integer", "catalog-integer", "map")
])  # a JSON integer has no exponent, and a map image is a small integer
def test_every_door_takes_a_literal_up_to_the_print_limit_and_refuses_one_digit_more(
    door, spelling, print_limit, tmp_path, capsys
):
    for digits, code in ((print_limit, 0), (print_limit + 1, 2)):
        literal = "1" + "0" * (digits - 1) if spelling == "written-out" else f"1e{digits - 1}"
        argv, prefix = LITERAL_DOORS[door](literal, tmp_path)
        assert main(["--json", *argv]) == code, (door, digits)
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and json.loads(out)["schema"] == "sci-workbench/run-report@1"
        else:
            shown = argv[argv.index("--map") + 1] if door == "map" else literal
            assert err == f"{prefix}rational {shown!r} has a numerator of {digits} digits," \
                f" more than the {print_limit} the interpreter prints\n"
            assert out == ""


def test_decimal_digits_counts_without_a_string(print_limit):
    from sci_workbench.core import _decimal_digits

    for n in (0, 1, 9, 10, 99, 100, 2**64, 10**17 - 1, 10**17, 10**4299, 10**4300 - 1):
        assert _decimal_digits(n) == _decimal_digits(-n) == len(str(n))
    assert _decimal_digits(10**4300) == 4301 and _decimal_digits(10**9999 - 1) == 9999


@pytest.mark.parametrize("argv, message", [
    (["koopman", "finite", "--map", "3/2,1"], "--map takes integers, got '3/2,1'"),
    (["koopman", "finite", "--map", "2,x"], "--map: expected a rational like 3/4, got 'x'"),
    (["koopman", "finite", "--map", "2,1", "--weights", "1,"], "--weights: expected a rational like 3/4, got ''"),
    (["family", "classify", "--heights", "0,1e4301", "--k", "1"],
     "--heights: rational '1e4301' has a decimal exponent beyond 4300 in magnitude"),
    (["integrate", "adversary", "--points", "1/2,1/0"], "--points: expected a rational like 3/4, got '1/0'"),
], ids=["map-fraction", "map-text", "weights-empty", "heights-exponent", "points-zero-denominator"])
def test_list_entries_pass_the_gate_and_name_their_option(argv, message, capsys):
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n" and captured.out == ""


def test_list_entries_read_as_the_gate_reads_them(capsys):
    # an integer entry may be spelled as any whole rational, as the gate reads it
    assert main(["--json", "koopman", "finite", "--map", "4/2,1.0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["queries"] == 2


def test_enumeration_scan_that_finds_no_entry_exits_2_by_name(capsys):
    # [0, 10^10] holds no entry within 3/32 of 1/2 among the integers it enumerates first
    assert main(["--json", "spectral", "decide", "--diagonal", "enum:0,1e10", "--z", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: BudgetExceeded: enum:0,10000000000: none of its first 99999 entries lies" \
        " within 3/32 of 1/2\n"
    assert captured.out == ""


def test_malformed_rational_keeps_its_usage_message(capsys):
    assert main(["spectral", "decide", "--diagonal", "const:1", "--z", "1/0"]) == 2
    assert capsys.readouterr().err == "usage error: expected a rational like 3/4, got '1/0'\n"


def test_usage_error_between_identical_calls_leaves_the_report_unchanged(capsys):
    # the parser is built once per process, so a failed parse must leave nothing behind
    argv = ["--json", "integrate", "reduce", "--interval", "0", "2", "--samples", "8"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["--json", "integrate", "reduce", "--interval", "0", "--samples", "x", "--bogus"]) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "human"])
def test_closed_stdout_exits_cleanly(json_flag):
    # the read end is closed before the command starts, so its first write meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "sci_workbench.cli", *json_flag, "koopman", "finite", "--map", "2,1"]
    try:
        done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode in (0, 1, 2)
    assert done.stderr == b""


NUMPY_FREE_COMMANDS = {
    "integrate-tower": ["integrate", "tower", "--interval", "0", "1", "--function", "poly:0,1", "--n", "16"],
    # these three load the default catalog, Koopman entries included
    "spectral-reduce": ["spectral", "reduce", "--stabilizer", "const:5", "--samples", "4"],
    "degrees-join": ["degrees", "join", "--samples", "4"],
    "certify-package": ["certify", "package", "--family", "spectral", "--samples", "4"],
}


def _run_fresh(script: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter, with ``flags``, that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *flags, "-c", script], capture_output=True, env=env, timeout=120)


NUMPY_LOADED = "repr(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS.values(), ids=NUMPY_FREE_COMMANDS.keys())
def test_command_process_never_imports_numpy(argv):
    # only the Koopman computations need numpy; a fresh process running another command must not load it
    done = _run_fresh(f"import sys; from sci_workbench.cli import main; code = main({['--json', *argv]!r}); "
                                f"sys.stderr.write({NUMPY_LOADED}); sys.exit(code)")
    assert done.returncode == 0
    assert json.loads(done.stdout)["command"] == " ".join(argv[:2])
    assert done.stderr == b"[]"


@pytest.mark.parametrize("statement", [
    "load_catalog()", "sys.exit(main(['reduce', 'verify', '--spec', SPEC, '--samples', '4']))",
], ids=["catalog", "spec"])
def test_catalog_and_spec_files_are_read_as_utf8(statement, tmp_path):
    # a read in the locale's encoding warns under these flags, and the warning is an error
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rule": "integration_affine", "params": {"target": ["0", "2"]}}), encoding="utf-8")
    script = (f"import sys; from sci_workbench.catalog import load_catalog; from sci_workbench.cli import main; "
              f"SPEC = {str(spec)!r}; {statement}")
    done = _run_fresh(script, "-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""


@pytest.mark.parametrize("argv, message", [
    (["--catalog", "{file}", "spectral", "reduce"], "catalog error: cannot read catalog {file}: "),
    (["reduce", "verify", "--spec", "{file}"], "usage error: cannot read --spec file '{file}': "),
], ids=["catalog", "spec"])
def test_undecodable_file_exits_2(argv, message, tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"schema": "caf\u00e9"}'.encode("latin-1"))
    assert main([arg.replace("{file}", str(bad)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message.replace("{file}", str(bad))) and "can't decode byte 0xe9" in err


def test_spectral_imports_neither_integration_nor_numpy():
    # the spectral domain is the interval of core, so the spectral family stands without integration
    done = _run_fresh("import sys; import sci_workbench.spectral; sys.stderr.write(repr(sorted(m for m in sys.modules "
                      "if m == 'sci_workbench.integration' or m.split('.')[0] == 'numpy')))")
    assert done.returncode == 0
    assert done.stderr == b"[]"


def test_koopman_construction_never_imports_numpy_until_the_first_computation(capsys):
    script = f"""
import sys
from sci_workbench import catalog, certificates, cli, core, degrees, errors, integration, koopman, reductions, spectral

load = catalog.load_catalog(catalog.default_catalog_path())
assert any(entry.kind == "koopman" for entry in load.entries)
space = koopman.FiniteSpace((1, 2, 3))
target = koopman.ap_eps(0.25, koopman.GridSpec(-1.5, 1.5, -1.5, 1.5, 0.0625))
problem = koopman.make_problem(space, (koopman.MapTable((2, 3, 1)),), target)
tower = koopman.height0_algorithm(space, target)
sys.stderr.write({NUMPY_LOADED} + "\\n")
code = cli.main(["--json", "koopman", "finite", "--map", "2,3,1"])
sys.stderr.write(repr("numpy" in sys.modules))
sys.exit(code)
"""
    done = _run_fresh(script)
    assert done.returncode == 0
    before, after = done.stderr.decode().split("\n", 1)
    assert before == "[]"
    assert after == "True"
    assert main(["--json", "koopman", "finite", "--map", "2,3,1"]) == 0
    assert done.stdout.decode() == capsys.readouterr().out


def test_over_budget_grid_message_is_short_and_names_the_budget(capsys):
    # 4e300 steps a side: the exact point count has 602 digits
    argv = ["koopman", "finite", "--map", "1", "--target", "apeps", "--epsilon", "0.5",
            "--grid", "-2", "2", "-2", "2", "1e-300"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: BadGrid: grid has 1.600 x 10^601 points, more than the budget 1000000\n"
    assert captured.out == ""


def test_tiny_frequency_sine_passes_its_error_bound():
    report = dispatch(["integrate", "tower", "--interval", "0", "1", "--function", "sine:1,1e-9",
                       "--n", "4"])
    assert report.passed
    assert report.result["exact"] == pytest.approx(5e-10, rel=1e-12)


NEGATIVE_LEFT = {
    "integrate-tower": ["integrate", "tower", "--interval", "{a}", "1", "--function", "poly:0,1",
                        "--n", "8"],
    "integrate-reduce": ["integrate", "reduce", "--interval", "{a}", "1", "--samples", "20"],
    "reduce-pullback": ["reduce", "pullback", "--interval", "{a}", "1", "--n", "8"],
}


@pytest.mark.parametrize("argv", NEGATIVE_LEFT.values(), ids=NEGATIVE_LEFT.keys())
def test_negative_left_endpoint_is_a_value(argv, capsys):
    plain = [arg.replace("{a}", "-3/2") for arg in argv]
    spaced = [arg.replace("{a}", " -3/2") for arg in argv]
    assert main(["--json", *plain]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["parameters"]["interval"] == ["-3/2", "1"]
    expected = dispatch(spaced)
    assert report["result"] == expected.result
    assert report["checks"] == to_jsonable(expected.checks)


@pytest.mark.parametrize("fields", [(float("inf"), 1.0), (1.0, float("nan")), (1.0, 0.0)])
def test_catalog_rejects_bad_sine(fields, tmp_path):
    amplitude, frequency = fields
    with pytest.raises(ValueError):
        function_from_json({"kind": "sine", "amplitude": amplitude, "frequency": frequency})
    entry = {"problem": "integration", "params": {"interval": ["0", "1"], "functions": [
        {"kind": "sine", "amplitude": amplitude, "frequency": frequency}]}}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"schema": "sci-workbench/catalog@1", "entries": [entry]}))
    with pytest.raises(CatalogError, match="sine"):
        load_catalog(path)


def test_empty_poly_spelling_is_the_zero_polynomial():
    assert parse_function_spec("poly:") == ig.Polynomial(()) == function_from_json(
        {"kind": "poly", "coeffs": []}
    )


BAD_GRIDS = {
    "nan-spacing": ["-1.5", "1.5", "-1.5", "1.5", "nan"],
    "inf-spacing": ["-1.5", "1.5", "-1.5", "1.5", "inf"],
    "inf-corner": ["-1.5", "inf", "-1.5", "1.5", "0.02"],
    "over-budget": ["-1.5", "1.5", "-1.5", "1.5", "1e-4"],
}


@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
def test_bad_grid_exits_2_before_any_grid_point(grid, monkeypatch, capsys):
    from sci_workbench import koopman as kp

    def no_grid(*args):
        raise AssertionError("grid evaluated")

    monkeypatch.setattr(kp.GridSpec, "points", no_grid)
    monkeypatch.setattr(kp, "_sigma_inf_many", no_grid)
    argv = ["--json", "koopman", "finite", "--map", "2,1", "--target", "apeps",
            "--epsilon", "0.1", "--grid", *grid]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BadGrid:") and "Traceback" not in captured.err
    assert captured.out == ""


OVERSIZED = {
    "integrate-tower-n": ["integrate", "tower", "--interval", "0", "1", "--function", "poly:0,1",
                          "--n", "2000000"],
    "spectral-decide-n1": ["spectral", "decide", "--diagonal", "const:2", "--z", "1",
                           "--n1", "2000000"],
    "spectral-decide-n2": ["spectral", "decide", "--diagonal", "const:2", "--z", "1",
                           "--n2", "1000001"],
    "reduce-pullback-n": ["reduce", "pullback", "--interval", "0", "2", "--n", "2000000"],
    "integrate-reduce-samples": ["integrate", "reduce", "--interval", "0", "2",
                                 "--samples", "10000000"],
    "spectral-reduce-samples": ["spectral", "reduce", "--samples", "10000000"],
    "reduce-verify-samples": ["reduce", "verify", "--spec",
                              '{"rule": "integration_affine", "params": {"target": ["0", "2"]}}',
                              "--samples", "10000000"],
    "reduce-compose-samples": ["reduce", "compose", "--intervals", "0,1;0,2;0,4",
                               "--samples", "10000000"],
    "certify-package-samples": ["certify", "package", "--family", "integration",
                                "--samples", "10000000"],
    "degrees-join-samples": ["degrees", "join", "--samples", "10000000"],
}
# the same requests with counts too long to print: the budget message names them by magnitude
OVERSIZED.update({
    f"{name}-4300-digits": OVERSIZED[name][:-1] + ["9" * 4300]
    for name in ("integrate-reduce-samples", "certify-package-samples", "degrees-join-samples",
                 "reduce-verify-samples", "spectral-decide-n1")
})


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_request_exits_2_before_any_work(argv, monkeypatch, capsys):
    from sci_workbench import core

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(ig, "_grid_ids", no_work)
    monkeypatch.setattr(sp, "fixed_query_algorithm", no_work)
    monkeypatch.setattr(core.InputCatalog, "sample", no_work)
    monkeypatch.setattr(core.QueryFamily, "sample_keys", no_work)
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BudgetExceeded:") and "Traceback" not in captured.err
    assert captured.out == ""


# enum diagonals 1/999999937 wide: their first term has a denominator near 5 x 10^8
NARROW_ENUM = {
    "decide": ["spectral", "decide", "--diagonal", "enum:1/999999937,2/999999937", "--z", "3/1999999874"],
    "reduce": ["spectral", "reduce", "--stabilizer", "enum:1999999875/999999937,1999999876/999999937",
               "--samples", "4"],
}


@pytest.mark.parametrize("argv", NARROW_ENUM.values(), ids=NARROW_ENUM.keys())
def test_narrow_enumeration_exits_2_before_the_scan(argv, capsys):
    assert main(["--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BudgetExceeded: rational-enumeration[")
    assert "999999937 denominators" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("target", [["--target", "ap"], ["--target", "apeps", "--epsilon", "0.5",
                                                "--grid", "-1.5", "1.5", "-1.5", "1.5", "0.5"]])
def test_oversized_koopman_map_exits_2_before_any_matrix_work(target, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("matrix work started")

    monkeypatch.setattr(np.linalg, "svd", no_work)
    monkeypatch.setattr(np.linalg, "eigvals", no_work)
    cycle = ",".join(str(i % 1001 + 1) for i in range(1, 1002))
    assert main(["--json", "koopman", "finite", "--map", cycle, *target]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: BudgetExceeded: koopman-matrix[N=1001]")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("n,grid", [(64, []), (135, ["--grid", "-1.25", "1.25", "-1.25", "1.25", "0.125"])])
def test_costly_apeps_request_exits_2_before_any_svd(n, grid, monkeypatch, capsys):
    # cost in grid points x N^3: 22801 x 64^3 on the default grid, 441 x 135^3 on a small one
    def no_work(*args, **kwargs):
        raise AssertionError("SVD work started")

    monkeypatch.setattr(np.linalg, "svd", no_work)
    cycle = ",".join(str(i % n + 1) for i in range(1, n + 1))
    argv = ["--json", "koopman", "finite", "--map", cycle, "--target", "apeps", "--epsilon", "0.5", *grid]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: BudgetExceeded: sigma_ap_eps[N={n}] would need ")
    assert "grid points x N^3" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["--catalog", "{dir}", "spectral", "reduce"],
                                  ["reduce", "verify", "--spec", "{dir}"]])
def test_directory_as_path_exits_2(argv, tmp_path, capsys):
    assert main([arg.replace("{dir}", str(tmp_path)) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(tmp_path) in err


def eval_fraction(text):
    from fractions import Fraction

    return float(Fraction(text))


class TestCatalog:
    def test_default_catalog_spectral_pairs(self, default_catalog):
        source = default_catalog.first("spectral_source").problem
        assert len(source.inputs) >= 30

    def test_degenerate_interval_flagged(self, default_catalog):
        degenerate = [
            entry.problem
            for entry in default_catalog.entries
            if entry.kind == "integration" and entry.problem.params.degenerate
        ]
        assert degenerate and degenerate[0].params.a == degenerate[0].params.b == 5

    def test_unknown_kind_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"schema": "sci-workbench/catalog@1",
                 "entries": [{"problem": "frobnicate", "params": {}}]}
            )
        )
        with pytest.raises(CatalogError) as exc:
            load_catalog(bad)
        assert "entry 0" in str(exc.value)

    def test_float_smuggling_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"schema": "sci-workbench/catalog@1",
                 "entries": [{"problem": "integration", "params": {"interval": [0.5, 1]}}]}
            )
        )
        with pytest.raises(CatalogError):
            load_catalog(bad)

    def test_invalid_json_located(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CatalogError) as exc:
            load_catalog(bad)
        assert "line" in str(exc.value)

    def test_default_path_exists(self):
        assert default_catalog_path().exists()

    def test_named_reduction_rules(self):
        affine = reduction_from_json(
            {"rule": "integration_affine", "params": {"target": ["0", "2"]}}
        )
        assert verify_reduction(affine, 30).passed
        with pytest.raises(CatalogError):
            reduction_from_json({"rule": "bespoke", "params": {}})


class TestJsonEncoding:
    def test_fractions_and_complex(self):
        from fractions import Fraction

        encoded = to_jsonable({"q": Fraction(3, 4), "z": 1 + 2j, "t": (1, None)})
        assert encoded == {"q": "3/4", "z": [1.0, 2.0], "t": [1, None]}


WEIGHTS_OUT_OF_RANGE = {
    "double-is-zero": ("1e-400,1", "weight 1 of 2 is out of double range: its double is 0.0"),
    "double-is-inf": ("1,1e400", "weight 2 of 2 is out of double range: its double is inf"),
    "norm-overflows": ("1e-200,1e200", "weights 2 and 1 put the weighted matrix out of double range"),
    "entry-overflows": ("1e-320,1e300", "weights 2 and 1 put the weighted matrix out of double range"),
}


@pytest.mark.parametrize("weights,message", WEIGHTS_OUT_OF_RANGE.values(), ids=WEIGHTS_OUT_OF_RANGE.keys())
def test_apeps_weights_out_of_double_range_exit_2_before_any_svd(weights, message, monkeypatch, capsys):
    import warnings

    def no_work(*args, **kwargs):
        raise AssertionError("SVD work started")

    monkeypatch.setattr(np.linalg, "svd", no_work)
    argv = ["--json", "koopman", "finite", "--map", "2,1", "--weights", weights, "--target", "apeps",
            "--epsilon", "0.5", "--grid", "-1.5", "1.5", "-1.5", "1.5", "0.1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert captured.err.startswith(f"bad argument value: {message}")
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    assert captured.out == ""
