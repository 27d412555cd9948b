"""JSON catalogs of problems and the named-rule reduction registry.

A catalog document is ``{"schema": ..., "entries": [{"problem": <kind>,
"params": {...}}, ...]}``; rationals are encoded as strings ("1/3") or
ints so nothing passes through floating point on the exact paths.  The
schema is documented in docs/catalog-schema.md.  Reduction specifications
name shipped construction rules; free-form reductions are not accepted.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from . import integration, spectral
from .core import Interval, Problem, _decimal_digits
from .errors import CatalogError, UnprintableReport, WorkbenchError
from .reductions import Reduction, identity_reduction

CATALOG_SCHEMA = "sci-workbench/catalog@1"

#: Largest decimal exponent a rational literal may carry: a cost guard, which
#: bounds the power of ten that ``Fraction`` builds (10**4300 is about 14,300 bits).
_MAX_EXPONENT = 4300
#: ``Fraction`` reads an exponent in any Unicode decimal digits, so ``\d`` matches them all.
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*\Z")


def _bound_exponent(text: str, error: type[WorkbenchError]) -> None:
    """Raise ``error`` if ``text`` carries a decimal exponent beyond the bound, before any power of ten is built."""
    match = _EXPONENT.search(text)
    if match is None:
        return
    magnitude = 0
    for digit in match[1].replace("_", ""):
        magnitude = 10 * magnitude + int(digit)
        if magnitude > _MAX_EXPONENT:
            raise error(f"rational {text!r} has a decimal exponent beyond {_MAX_EXPONENT} in magnitude")


def _require_printable(value, name: str, error: type[WorkbenchError] = UnprintableReport) -> None:
    """Raise ``error``, naming ``value``, if it has more digits than the interpreter prints.

    An exact number counts its numerator and denominator; a text, the digits ``Fraction`` converts
    for them, leading zeros included, as ``int`` counts them. Any other value passes.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:  # no limit
        return
    if isinstance(value, str) and len(value) > limit:  # a shorter text has fewer digits
        numerator, _, denominator = _EXPONENT.split(value)[0].partition("/")
        terms = {"a numerator of ": numerator, "a denominator of ": denominator}
    elif isinstance(value, Fraction):
        terms = {"a numerator of ": value.numerator, "a denominator of ": value.denominator}
    elif type(value) is int:
        terms = {"": value}
    else:
        return
    for term, part in terms.items():
        if isinstance(part, str):
            digits = sum(map(str.isdecimal, part))
        else:  # below 2^(3 * limit) = 8^limit < 10^limit, a number has at most limit digits
            digits = _decimal_digits(part) if part.bit_length() > 3 * limit else 0
        if digits > limit:
            raise error(f"{name} has {term}{digits} digits, more than the {limit} the interpreter prints")


def parse_fraction(value, error: type[WorkbenchError] = CatalogError) -> Fraction:
    """The one gate for an outside rational literal, a string or an int; each refusal raises ``error``.

    It refuses a float or a bool; a decimal exponent beyond the bound, before
    ``Fraction`` builds the power of ten; text that is no rational; and a
    numerator or denominator with more digits than the interpreter prints,
    counted in the text before parsing and in the value after, so that every
    name and report built from the value prints.
    """
    if isinstance(value, (bool, float)):
        raise error(f"exact rational expected, got {value!r}; encode as string or int")
    name = f"rational {value!r}" if isinstance(value, str) else "rational"  # a long int has no repr
    if isinstance(value, str):
        _bound_exponent(value, error)
        _require_printable(value, name, error)
    try:
        result = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise error(f"expected a rational like 3/4, got {value!r}") from None
    _require_printable(result, name, error)
    return result


def parse_json(text: str):
    """JSON whose integers pass the gate, so that one too long to convert is refused by its digit count."""
    return json.loads(text, parse_int=lambda literal: int(parse_fraction(literal)))


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise CatalogError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def function_from_json(data: dict) -> integration.FunctionDescription:
    kind = _object(data, "a function description").get("kind")
    if kind == "poly":
        return integration.Polynomial(tuple(parse_fraction(c) for c in data["coeffs"]))
    if kind == "sine":
        return integration.Sine(float(data["amplitude"]), float(data["frequency"]))
    if kind == "bump":
        return integration.Bump(parse_fraction(data["u"]), parse_fraction(data["v"]))
    raise CatalogError(f"unknown function kind {kind!r}")


def diagonal_from_json(data: dict) -> spectral.DiagonalSpec:
    kind = _object(data, "a diagonal description").get("kind")
    if kind == "const":
        return spectral.constant_diagonal(parse_fraction(data["value"]))
    if kind == "finite_list":
        return spectral.FiniteThenConstant(
            tuple(parse_fraction(v) for v in data["values"]),
            parse_fraction(data["tail"]),
        )
    if kind == "harmonic":
        return spectral.HarmonicSequence(parse_fraction(data["base"]), parse_fraction(data["coef"]))
    if kind == "enum":
        return spectral.RationalEnumeration(parse_fraction(data["lo"]), parse_fraction(data["hi"]))
    raise CatalogError(f"unknown diagonal kind {kind!r}")


def _interval(raw, error: type[WorkbenchError] = CatalogError) -> Interval:
    """A two-element ``[a, b]`` array of exact rationals: an integration interval or a spectral domain."""
    return Interval(*(parse_fraction(v, error) for v in raw))


def _spectral_pairs(params: dict, j_domain: Interval) -> tuple[spectral.Pair, ...]:
    pairs = []
    for raw in params["pairs"]:
        spec = diagonal_from_json(_object(raw, "a spectral pair")["diagonal"])
        window = spectral.Window(parse_fraction(raw["z"]), j_domain)
        pairs.append((spec, window))
    return tuple(pairs)


def _stabilization_params(params: dict) -> tuple[Interval, spectral.StabilizerSpec, tuple]:
    """Domain, certified stabilizer and pairs of a stabilized problem or reduction."""
    j_domain = _interval(params["domain"])
    stabilizer = spectral.StabilizerSpec.certify(diagonal_from_json(params["stabilizer"]), j_domain)
    return j_domain, stabilizer, _spectral_pairs(params, j_domain)


def _koopman_target(raw) -> tuple:
    # deferred: the CLI imports this module for every command, and one that loads no
    # Koopman entry (integrate tower) never imports the Koopman layer
    from . import koopman

    if raw == "ap":
        return koopman.AP
    if isinstance(raw, dict) and "ap_eps" in raw:
        spec = raw["ap_eps"]
        grid = koopman.GridSpec(*(float(v) for v in spec["grid"]))
        return koopman.ap_eps(float(spec["eps"]), grid)
    raise CatalogError(f"unknown koopman target {raw!r}")


def problem_from_json(entry: dict) -> Problem:
    """Build the typed problem for one catalog entry."""
    entry = _object(entry, "a catalog entry")
    kind = entry.get("problem")
    params = entry.get("params")
    if not isinstance(params, dict):
        raise CatalogError("entry needs a params object")

    if kind == "integration":
        iv = _interval(params["interval"])
        functions = None
        if "functions" in params:
            functions = tuple(function_from_json(f) for f in params["functions"])
        return integration.make_problem(iv, functions)

    if kind == "spectral_source":
        j_domain = _interval(params["domain"])
        return spectral.source_problem(j_domain, _spectral_pairs(params, j_domain))

    if kind == "spectral_stabilized":
        return spectral.stabilized_problem(*_stabilization_params(params))

    if kind == "koopman":
        from . import koopman  # deferred, as in _koopman_target

        space = koopman.FiniteSpace(tuple(parse_fraction(w) for w in params["weights"]))
        tables = tuple(koopman.MapTable(tuple(m)) for m in params["maps"])
        return koopman.make_problem(space, tables, _koopman_target(params.get("target", "ap")))

    raise CatalogError(f"unknown problem kind {kind!r}")


@dataclass(frozen=True)
class CatalogEntry:
    """One typed entry; shared by every load of its document, so read-only, ``params`` included."""

    kind: str
    problem: Problem
    params: dict


@dataclass(frozen=True)
class Catalog:
    path: str
    entries: tuple[CatalogEntry, ...]

    def problems(self, kind: str | None = None) -> list[Problem]:
        return [e.problem for e in self.entries if kind is None or e.kind == kind]

    def first(self, kind: str) -> CatalogEntry:
        for entry in self.entries:
            if entry.kind == kind:
                return entry
        raise CatalogError(f"catalog has no {kind!r} entry")


def default_catalog_path() -> Path:
    return Path(resources.files("sci_workbench").joinpath("data/default_catalog.json"))


#: Distinct catalog documents kept built: a process reads one or two, a test a few more.
_BUILT_DOCUMENTS = 4


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load and type-check a catalog document; errors carry the entry location.

    The file is read on every call, and its typed catalog is built once per
    process for each distinct content at each location: loads of the same
    bytes return the same :class:`Catalog`, so its entries, their problems
    and their raw ``params`` are shared and read-only. Only a process that
    loads one document more than once, as one calling ``cli.main`` in a loop
    does, saves time; a single CLI command loads its catalog once.
    """
    location = Path(path) if path is not None else default_catalog_path()
    try:
        data = location.read_bytes()
    except FileNotFoundError as exc:
        raise CatalogError(f"catalog file not found: {location}") from exc
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {location}: {exc}") from exc
    return _build_catalog(str(location), data)


@lru_cache(maxsize=_BUILT_DOCUMENTS)
def _build_catalog(location: str, data: bytes) -> Catalog:
    """The typed catalog of one UTF-8 document; an error is raised again on every load, never kept."""
    try:
        document = parse_json(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise CatalogError(f"cannot read catalog {location}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(f"{location}: invalid JSON at line {exc.lineno}") from exc
    except CatalogError as exc:  # an integer the gate refused
        raise CatalogError(f"{location}: {exc}") from exc

    if not isinstance(document, dict) or document.get("schema") != CATALOG_SCHEMA:
        raise CatalogError(f"{location}: expected schema {CATALOG_SCHEMA!r}")
    raw_entries = document.get("entries")
    if not isinstance(raw_entries, list):
        raise CatalogError(f"{location}: entries must be a list")

    entries = []
    for index, raw in enumerate(raw_entries):
        try:
            problem = problem_from_json(raw)
        except CatalogError as exc:
            raise CatalogError(f"{location}: entry {index}: {exc}") from exc
        except (WorkbenchError, KeyError, TypeError, ValueError) as exc:
            raise CatalogError(f"{location}: entry {index}: {exc!r}") from exc
        entries.append(CatalogEntry(raw["problem"], problem, raw.get("params", {})))
    return Catalog(location, tuple(entries))


def reduction_from_json(spec: dict) -> Reduction:
    """Instantiate one of the shipped, named reduction rules.

    Rules: "identity" (over any catalog entry), "integration_affine"
    (between two interval problems; source defaults to the unit interval),
    "spectral_forward" / "spectral_backward" (two sides of block-diagonal
    stabilization).  A malformed spec raises :class:`CatalogError`.
    """
    rule = _object(spec, "a reduction spec").get("rule")
    try:
        return _named_reduction(rule, spec.get("params", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"reduction rule {rule!r}: bad params: {exc!r}") from exc


def _named_reduction(rule, params) -> Reduction:
    if rule == "identity":
        return identity_reduction(problem_from_json(params["problem"]))

    if rule == "integration_affine":
        target_problem = integration.make_problem(_interval(params["target"]))
        source_problem = None
        if "source" in params:
            source_problem = integration.make_problem(_interval(params["source"]))
        return integration.affine_reduction(target_problem, source_problem)

    if rule in ("spectral_forward", "spectral_backward"):
        forward, backward = spectral.stabilization_reductions(*_stabilization_params(params))
        return forward if rule == "spectral_forward" else backward

    raise CatalogError(f"unknown reduction rule {rule!r}; only shipped named rules are accepted")
