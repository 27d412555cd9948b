import json

import pytest

from sci_workbench.catalog import (
    default_catalog_path,
    load_catalog,
    reduction_from_json,
)
from sci_workbench.cli import dispatch, main, to_jsonable
from sci_workbench.errors import CatalogError, UsageError
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
