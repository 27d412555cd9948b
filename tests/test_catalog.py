import json
import os
import sys
from fractions import Fraction

import pytest

from sci_workbench import catalog
from sci_workbench.catalog import load_catalog, parse_fraction, parse_json
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
    ("1e4299", 10**4299), ("-2E-4299", Fraction(-2, 10**4299)), ("1e0004299", 10**4299),
    ("1e\u0664\u0662\u0669\u0669", 10**4299), ("-2E-4300", Fraction(-1, 5 * 10**4299)),
    ("3/4", Fraction(3, 4)), (" 1.5e1 ", 15),
], ids=["bound", "negative-bound", "leading-zeros", "arabic-indic-bound", "reduced", "ratio", "spaced"])
def test_a_decimal_exponent_up_to_the_bound_parses(text, value, print_limit):
    # 10^4299 is the largest power of ten that prints; the value counts, not its spelling
    assert parse_fraction(text) == value


@pytest.mark.parametrize("text, term", [
    ("1e4300", "a numerator"), ("-1E-4300", "a denominator"), ("1e0004300", "a numerator"),
    ("1e\u0664\u0663\u0660\u0660", "a numerator"), ("1" + "0" * 4300, "a numerator"),
    ("0" * 4299 + "1.5", "a numerator"), ("1/" + "0" * 4300 + "3", "a denominator"),
], ids=["bound", "negative-bound", "leading-zeros", "arabic-indic-bound", "written-out", "decimals", "ratio"])
def test_a_literal_beyond_the_print_limit_is_refused_by_its_digit_count(text, term, print_limit):
    # the exponent is within the cost bound, but the value, or the digits int would convert, do not print
    with pytest.raises(CatalogError) as exc:
        parse_fraction(text)
    assert str(exc.value) == f"rational {text!r} has {term} of 4301 digits, more than the 4300 the interpreter prints"
    assert exc.value.__cause__ is None


def test_an_int_beyond_the_print_limit_is_refused_without_its_repr(print_limit):
    assert parse_fraction(10**4300 - 1) == 10**4300 - 1
    with pytest.raises(CatalogError, match="^rational has a numerator of 4301 digits, more than the 4300"):
        parse_fraction(10**4300)


def test_a_limit_of_zero_refuses_no_digits(print_limit):
    sys.set_int_max_str_digits(0)
    assert parse_fraction("1e4300") == 10**4300
    assert parse_json("[" + "9" * 5000 + "]") == [10**5000 - 1]


def test_json_integers_pass_the_gate(print_limit):
    assert parse_json('{"a": [-12, 0, 3], "b": "1/2"}') == {"a": [-12, 0, 3], "b": "1/2"}
    assert type(parse_json("7")) is int
    with pytest.raises(CatalogError, match="^rational '-1000.*0' has a numerator of 4301 digits"):
        parse_json("[-1" + "0" * 4300 + "]")


@pytest.mark.parametrize("text", [
    "1e4301", "1e-4301", "1E+4_301", "5e" + "9" * 50, "1e1000000",
    "1e\u0669\u0669\u0669\u0669\u0669\u0669", "1e\uff19\uff19\uff19\uff19\uff19",
], ids=["above", "negative", "underscore", "long", "million", "arabic-indic", "full-width"])
def test_a_decimal_exponent_beyond_the_bound_is_refused(text):
    with pytest.raises(CatalogError, match="decimal exponent beyond 4300 in magnitude") as exc:
        parse_fraction(text)
    assert exc.value.__cause__ is None
