import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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


def test_integrate_tower_process_never_imports_numpy():
    # only koopman needs numpy; a fresh process running another command must not load it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    script = ("import sys; from sci_workbench.cli import main; "
              "code = main(['--json', 'integrate', 'tower', '--interval', '0', '1', '--function', 'poly:0,1', "
              "'--n', '16']); sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))); "
              "sys.exit(code)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
    assert done.returncode == 0
    assert json.loads(done.stdout)["command"] == "integrate tower"
    assert done.stderr == b"[]"


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


@pytest.mark.parametrize("target", [["--target", "ap"], ["--target", "apeps", "--epsilon", "0.5",
                                                "--grid", "-1.5", "1.5", "-1.5", "1.5", "0.5"]])
def test_oversized_koopman_map_exits_2_before_any_matrix_work(target, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("matrix work started")

    monkeypatch.setattr(kp.np.linalg, "svd", no_work)
    monkeypatch.setattr(kp.np.linalg, "eigvals", no_work)
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

    monkeypatch.setattr(kp.np.linalg, "svd", no_work)
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

    monkeypatch.setattr(kp.np.linalg, "svd", no_work)
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
