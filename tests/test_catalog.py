import json
import os
from fractions import Fraction

import pytest

from sci_workbench import catalog
from sci_workbench.catalog import load_catalog, parse_fraction
from sci_workbench.errors import CatalogError


@pytest.fixture
def built():
    """The memo of built catalogs, empty before and after the test."""
    catalog._build_catalog.cache_clear()
    yield catalog._build_catalog
    catalog._build_catalog.cache_clear()


def _document(*intervals) -> str:
    entries = [{"problem": "integration", "params": {"interval": list(iv)}} for iv in intervals]
    return json.dumps({"schema": catalog.CATALOG_SCHEMA, "entries": entries})


def test_the_packaged_catalog_is_built_once(built, monkeypatch):
    calls, problem_from_json = [], catalog.problem_from_json

    def counted(entry):
        calls.append(entry)
        return problem_from_json(entry)

    monkeypatch.setattr(catalog, "problem_from_json", counted)
    first = load_catalog()
    assert load_catalog() is first
    assert load_catalog(catalog.default_catalog_path()) is first
    assert len(calls) == len(first.entries)


def test_new_bytes_with_the_old_size_and_mtime_are_built_again(built, tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(_document(("0", "1")), encoding="utf-8")
    stat = path.stat()
    first = load_catalog(path)
    path.write_text(_document(("0", "2")), encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    second = load_catalog(path)
    assert second is not first
    assert [e.problem.params.b for e in first.entries] == [1]
    assert [e.problem.params.b for e in second.entries] == [2]


def test_a_malformed_document_raises_alike_on_every_load_and_is_not_kept(built, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(_document(("1", "0")), encoding="utf-8")
    errors = []
    for _ in range(2):
        with pytest.raises(CatalogError) as exc:
            load_catalog(path)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and "entry 0" in errors[0]
    assert built.cache_info().currsize == 0


def test_at_most_the_bound_of_documents_is_kept(built, tmp_path):
    for b in range(catalog._BUILT_DOCUMENTS + 3):
        path = tmp_path / f"catalog{b}.json"
        path.write_text(_document(("0", str(b))), encoding="utf-8")
        load_catalog(path)
    assert built.cache_info().currsize == catalog._BUILT_DOCUMENTS


@pytest.mark.parametrize("text, value", [
    ("1e4300", 10**4300), ("-2E-4300", Fraction(-2, 10**4300)), ("1e0004300", 10**4300),
    ("1e\u0664\u0663\u0660\u0660", 10**4300), ("3/4", Fraction(3, 4)), (" 1.5e1 ", 15),
], ids=["bound", "negative-bound", "leading-zeros", "arabic-indic-bound", "ratio", "spaced"])
def test_a_decimal_exponent_up_to_the_bound_parses(text, value):
    assert parse_fraction(text) == value


@pytest.mark.parametrize("text", [
    "1e4301", "1e-4301", "1E+4_301", "5e" + "9" * 50, "1e1000000",
    "1e\u0669\u0669\u0669\u0669\u0669\u0669", "1e\uff19\uff19\uff19\uff19\uff19",
], ids=["above", "negative", "underscore", "long", "million", "arabic-indic", "full-width"])
def test_a_decimal_exponent_beyond_the_bound_is_refused(text):
    with pytest.raises(CatalogError, match="decimal exponent beyond 4300 in magnitude") as exc:
        parse_fraction(text)
    assert exc.value.__cause__ is None
