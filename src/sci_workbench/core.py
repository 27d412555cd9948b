"""Computational problems, query oracles, general algorithms and towers.

The model: an input is a finite symbolic description that carries both an
exact reference oracle (used by the target map and by verification) and a
query interface.  Algorithms never see the input itself, only the answers
to their queries.  That makes the locality law of general algorithms hold
by construction, and :func:`check_locality` exists as a regression guard
against protocols that smuggle input identity some other way.

A protocol asks its queries in rounds: each :class:`Ask` names the ids of
one round and receives their answers together.  A non-adaptive algorithm
(see :func:`fixed_query_algorithm`) asks one round; an adaptive one chooses
each later round from the answers to the earlier ones.
:func:`run_algorithm` answers each round with one :meth:`QueryFamily.answer`.

Limits are never computed.  Towers are evaluated at finite multi-indices,
and :func:`probe_convergence` reports finite-stage stabilization instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Generator, Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    FactorizationMismatch,
    IndexArityMismatch,
    ProtocolViolation,
    UnknownQuery,
)

# Structured query ids are plain tuples, e.g. ("ev", Fraction(1, 2)) or
# ("mu", 3, 3).  Algorithms only ever name finitely many of them, which is
# how countably (or uncountably) indexed families stay addressable.
QueryId = tuple

#: Hard cap on the queries of one run; guarantees every run terminates.
DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class Interval:
    """The closed rational interval [a, b], a <= b; an integration interval or a spectral domain."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not (isinstance(self.a, Fraction) and isinstance(self.b, Fraction)):
            raise TypeError("interval endpoints must be Fractions; use interval()")
        if self.a > self.b:
            raise ValueError(f"need a <= b, got [{self.a}, {self.b}]")

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    @property
    def length(self) -> Fraction:
        return self.b - self.a

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]"


def interval(a, b) -> Interval:
    """Build an interval from ints, strings or Fractions."""
    return Interval(Fraction(a), Fraction(b))


@dataclass(frozen=True, init=False)
class Ask:
    """Protocol step: one round of query ids; ``send`` returns their answers as a tuple."""

    query_ids: tuple[QueryId, ...]

    def __init__(self, *query_ids: QueryId):
        object.__setattr__(self, "query_ids", query_ids)


class Query:
    """A single evaluation map, resolved from a family by its id."""

    __slots__ = ("id", "evaluate")

    def __init__(self, id: QueryId, evaluate: Callable[[Any], Any]):
        self.id = id
        self.evaluate = evaluate

    def __repr__(self) -> str:
        return f"Query({self.id!r})"


def _same(key):
    """The default draw-key map: a key is its own id."""
    return key


def _randbelow(rng, n: int) -> int:
    """An index below ``n`` drawn as ``rng.randrange(n)`` and ``rng.choice`` draw it.

    ``random.Random`` draws ``getrandbits(n.bit_length())`` until the result
    is below ``n``; ``n.bit_length()``, not ``(n - 1).bit_length()``, so a
    power of two may need a second call.  This is that loop, one call frame
    and one C call per try, so every draw and the rng state after it equal
    ``randrange``'s.  The standard library does not promise to keep that
    loop, so ``tests/test_draws.py`` checks the equality on every supported
    Python.
    """
    if n < 1:
        raise ValueError(f"cannot draw an index below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class QueryFamily:
    """A (possibly infinite) family of evaluation maps addressed by structured ids.

    ``resolver`` maps a query id to an evaluation callable, or ``None`` when
    the id is not a member.  ``canonical_ids`` is the finite,
    catalog-accessible sample used by default for verification sampling and
    consistency checks; ``sampler`` may widen that to a rule-based draw.
    A family constructed via :meth:`empty` has no members at all, which the
    appendix constructions rely on.

    Verification draws keys, not ids.  ``sampler(rng)`` returns a cheap
    hashable draw key and ``key_id`` maps it to the member id it stands
    for; ``key_id`` is a function, so equal keys name equal ids, and a
    family whose equal ids share one key (the integration grid, say) lets
    verification build each id once.  Without ``key_id`` a key is its own
    id, and a draw from ``canonical_ids`` always is.
    """

    def __init__(
        self,
        name: str,
        resolver: Callable[[QueryId], Callable[[Any], Any] | None] | None,
        *,
        canonical_ids: Iterable[QueryId] = (),
        sampler: Callable[[Any], Any] | None = None,
        key_id: Callable[[Any], QueryId] | None = None,
        separators: Callable[[Any, Any], Iterable[QueryId]] | None = None,
    ):
        self.name = name
        self._resolver = resolver
        self.canonical_ids = tuple(canonical_ids)
        self._sampler = sampler
        self.key_id = key_id if key_id is not None else _same
        self._separators = separators

    @classmethod
    def empty(cls, name: str) -> "QueryFamily":
        return cls(name, None)

    @property
    def is_empty(self) -> bool:
        return self._resolver is None

    def resolve(self, query_id: QueryId) -> Query:
        if self._resolver is not None:
            evaluate = self._resolver(query_id)
            if evaluate is not None:
                return Query(query_id, evaluate)
        raise UnknownQuery(f"{query_id!r} is not a member of {self.name}")

    def answer(self, query_ids: Iterable[QueryId], input) -> tuple:
        """Answer one round on ``input``: one resolve and one evaluation per id, in order."""
        return tuple([self.resolve(qid).evaluate(input) for qid in query_ids])

    def __contains__(self, query_id: QueryId) -> bool:
        return self._resolver is not None and self._resolver(query_id) is not None

    def sample_keys(self, rng, count: int) -> list:
        """Deterministic-in-seed draw of ``count`` member keys for verification (see :attr:`key_id`)."""
        if self.is_empty:
            return []
        if self._sampler is not None:
            return [self._sampler(rng) for _ in range(count)]
        ids = self.canonical_ids
        if not ids:
            return []
        n = len(ids)
        return [ids[_randbelow(rng, n)] for _ in range(count)]

    def sample_ids(self, rng, count: int) -> list[QueryId]:
        """The ids of the keys :meth:`sample_keys` draws, with the same rng calls."""
        key_id = self.key_id
        return [key_id(key) for key in self.sample_keys(rng, count)]

    def separator_ids(self, input_a, input_b) -> Iterator[QueryId]:
        """Candidate ids for separating two catalog inputs (consistency checks)."""
        if self._separators is not None:
            yield from self._separators(input_a, input_b)
        else:
            yield from self.canonical_ids


class InputCatalog:
    """Finite description set for a problem's input class, plus a sampler.

    ``admits`` widens membership beyond the listed descriptions to the whole
    input class the problem is defined on (e.g. encoded inputs produced by a
    reduction remain admissible).  The listed members are what tests and
    consistency checks iterate over.
    """

    def __init__(
        self,
        members: Iterable[Any],
        *,
        admits: Callable[[Any], bool] | None = None,
        sampler: Callable[[Any], Any] | None = None,
    ):
        self.members = tuple(members)
        self._admits = admits
        self._sampler = sampler

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def admits(self, candidate) -> bool:
        if self._admits is not None:
            return self._admits(candidate)
        return candidate in self.members

    def sample(self, rng):
        if self._sampler is not None:
            return self._sampler(rng)
        members = self.members
        return members[_randbelow(rng, len(members))]


@dataclass(frozen=True)
class OutputSpace:
    """A metric output space, described by its distance on sampled points."""

    name: str
    distance: Callable[[Any, Any], Any]
    carrier: tuple | None = None  # finite carriers only; None when unbounded


@dataclass(frozen=True)
class Problem:
    """A computational problem: target map, input catalog, metric output space, query family."""

    name: str
    inputs: InputCatalog
    output_space: OutputSpace
    target: Callable[[Any], Any]
    queries: QueryFamily
    params: Any = None  # family-specific construction data, for reports


@dataclass(frozen=True)
class QueryTrace:
    """The ordered query ids of one completed run, and their answers in the same order."""

    ids: tuple[QueryId, ...]
    values: tuple

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def steps(self) -> tuple[tuple[QueryId, Any], ...]:
        """The (query id, value) pairs, built on each call."""
        return tuple(zip(self.ids, self.values))


@dataclass(frozen=True)
class GeneralAlgorithm:
    """A protocol that reads its input only through queries.

    ``protocol`` is a zero-argument generator function: each run yields
    :class:`Ask` rounds, receives each round's answers through ``send``, and
    returns the output.  Because the input is never passed in, two inputs
    with identical answer sequences are indistinguishable to the protocol.
    """

    name: str
    protocol: Callable[[], Generator[Ask, tuple, Any]]
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be a positive integer")


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of ``abs(n)``, counted without converting it to a string."""
    n = abs(n)
    # 2^(b-1) <= n < 2^b for b bits, so the count is this estimate or one more
    estimate = max(1, math.floor((n.bit_length() - 1) * math.log10(2)) + 1)
    return estimate + 1 if n >= 10**estimate else estimate


def _magnitude(x) -> str:
    """``x``'s size as ``about 10^k``, from the digits of its integer part, without printing it."""
    return f"about 10^{_decimal_digits(abs(x.numerator) // x.denominator) - 1}"


def check_budget(name: str, count: int, unit: str = "queries", budget: int = DEFAULT_BUDGET) -> None:
    """Refuse, before anything is allocated, a request for more than ``budget`` of ``unit``.

    A count with more digits than the interpreter prints is named by its magnitude.
    """
    if count > budget:
        try:
            amount = str(count)
        except ValueError:
            amount = _magnitude(count)
        raise BudgetExceeded(f"{name} would need {amount} {unit}, over the budget of {budget} {unit}")


def fixed_query_algorithm(
    name: str,
    query_ids: Sequence[QueryId],
    finish: Callable[[tuple], Any],
    budget: int = DEFAULT_BUDGET,
) -> GeneralAlgorithm:
    """Non-adaptive algorithm: one round asking ``query_ids``, then ``finish(answers)``."""
    ask = Ask(*query_ids)
    if not ask.query_ids:
        raise ValueError("a general algorithm must ask at least one query")

    def protocol():
        return finish((yield ask))

    return GeneralAlgorithm(name, protocol, budget)


def constant_algorithm(name: str, query_id: QueryId, value) -> GeneralAlgorithm:
    """Protocol that asks a single query (for a nonempty trace) and outputs ``value``."""
    return fixed_query_algorithm(name, (query_id,), lambda _: value)


def run_algorithm(alg: GeneralAlgorithm, problem: Problem, input) -> tuple[Any, QueryTrace]:
    """Drive ``alg`` against ``problem``'s query oracle on ``input``, round by round.

    Each yielded :class:`Ask` must name at least one id.  A round that would
    take the run over its budget is refused before any of its ids is
    resolved; otherwise one :meth:`QueryFamily.answer` call answers it and
    the answers are sent back as one tuple.  The result is the
    output with the exact ordered trace, and repeated runs are bit-identical.

    A one-round run's trace holds that round's id and answer tuples
    themselves; later rounds are gathered in lists, converted once at the end.
    """
    if not problem.inputs.admits(input):
        raise ValueError(f"input {input!r} is not admissible for {problem.name}")
    answer = problem.queries.answer
    run = alg.protocol()
    ids: Sequence[QueryId] = ()
    values: Sequence = ()
    answers = None
    while True:
        try:
            step = run.send(answers)
        except StopIteration as done:
            if not ids:
                raise ProtocolViolation(
                    f"{alg.name} finished without querying; completed runs need a nonempty query set"
                ) from None
            return done.value, QueryTrace(tuple(ids), tuple(values))
        if not isinstance(step, Ask) or not step.query_ids:
            raise ProtocolViolation(f"{alg.name} emitted {step!r}, expected a nonempty Ask")
        if len(ids) + len(step.query_ids) > alg.budget:
            raise BudgetExceeded(f"{alg.name} exceeded its budget of {alg.budget} queries")
        answers = answer(step.query_ids, input)
        if not ids:
            ids, values = step.query_ids, answers
        elif type(ids) is tuple:
            ids, values = [*ids, *step.query_ids], [*values, *answers]
        else:
            ids += step.query_ids
            values += answers


@dataclass(frozen=True)
class LocalityReport:
    """Outcome of replaying one input's answers against another's trace."""

    passed: bool
    premise_holds: bool
    detail: str


def check_locality(alg: GeneralAlgorithm, problem: Problem, input_a, input_b) -> LocalityReport:
    """Check the defining implication of general algorithms on a catalog pair.

    If ``input_b`` answers every query in ``input_a``'s trace identically,
    the two runs must produce the same output and the same emitted query
    sequence.  Protocols built here cannot fail this (they never see the
    input), so a failure indicates a protocol that leaks input identity.
    """
    out_a, trace_a = run_algorithm(alg, problem, input_a)
    answers_b = problem.queries.answer(trace_a.ids, input_b)
    for qid, want, got in zip(trace_a.ids, trace_a.values, answers_b):
        if got != want:
            return LocalityReport(True, False, f"inputs disagree on {qid!r}; implication is vacuous")
    out_b, trace_b = run_algorithm(alg, problem, input_b)
    if trace_b.ids != trace_a.ids:
        return LocalityReport(False, True, "emitted query sequences differ on agreeing inputs")
    if problem.output_space.distance(out_a, out_b) != 0:
        return LocalityReport(False, True, "outputs differ on agreeing inputs")
    return LocalityReport(True, True, "agreeing inputs produced identical runs")


@dataclass(frozen=True)
class Tower:
    """A height-``k`` family of general algorithms indexed by multi-indices.

    ``stages`` receives the multi-index ``(n_k, ..., n_1)`` (outermost level
    first; the empty tuple at height 0).  For height 0 the single algorithm
    is required to equal the target on the catalog; that is certified by
    :func:`finite_query_factorization`, not assumed here.
    """

    name: str
    height: int
    stages: Callable[[tuple[int, ...]], GeneralAlgorithm]

    def stage(self, multi_index: Sequence[int]) -> GeneralAlgorithm:
        idx = tuple(multi_index)
        if len(idx) != self.height:
            raise IndexArityMismatch(
                f"{self.name} has height {self.height}, got multi-index of length {len(idx)}"
            )
        return self.stages(idx)


def evaluate_tower(tower: Tower, multi_index: Sequence[int], problem: Problem, input):
    """Output of the stage algorithm at one finite multi-index."""
    value, _ = run_algorithm(tower.stage(multi_index), problem, input)
    return value


@dataclass(frozen=True)
class ConvergenceReport:
    """Finite-stage stabilization record for the outermost tower level."""

    stages: tuple
    values: tuple
    distances: tuple
    tol: Any
    tail: int
    stabilized: bool
    final: Any


def probe_convergence(
    tower: Tower,
    problem: Problem,
    input,
    schedule: Sequence,
    tol,
    tail: int = 1,
) -> ConvergenceReport:
    """Probe iterated limits along a finite schedule, innermost level first.

    ``schedule`` is either one increasing stage list applied to every level
    or one list per level (outermost first).  For height >= 2, the inner
    levels are swept over their full schedule for each outer stage and the
    deepest value stands in for the inner limit.  Non-stabilization is a
    report outcome, not an error.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if tower.height == 0:
        value = evaluate_tower(tower, (), problem, input)
        return ConvergenceReport(((),), (value,), (), tol, tail, True, value)

    levels = _per_level_schedules(schedule, tower.height)

    def resolved(prefix: tuple[int, ...]):
        level = len(prefix)
        if level == tower.height:
            return evaluate_tower(tower, prefix, problem, input)
        last = None
        for n in levels[level]:
            last = resolved(prefix + (n,))
        return last

    values = [resolved((n,)) for n in levels[0]]
    distance = problem.output_space.distance
    distances = tuple(distance(a, b) for a, b in zip(values, values[1:]))
    stabilized = len(distances) >= tail and all(d < tol for d in distances[-tail:])
    return ConvergenceReport(
        tuple(levels[0]), tuple(values), distances, tol, tail, stabilized, values[-1]
    )


def _per_level_schedules(schedule: Sequence, height: int) -> list[list[int]]:
    entries = list(schedule)
    if not entries:
        raise ValueError("schedule must be nonempty")
    if all(isinstance(e, int) for e in entries):
        return [entries] * height
    levels = [list(e) for e in entries]
    if len(levels) != height or any(not lvl for lvl in levels):
        raise ValueError("need one nonempty stage list per tower level")
    return levels


def finite_query_factorization(problem: Problem, query_ids: Sequence[QueryId], table) -> Tower:
    """Certify that the target factors through finitely many fixed queries.

    ``table`` maps the tuple of query values to the output (a mapping or a
    callable).  The factorization identity is checked eagerly on every
    catalog input; on success the returned height-0 tower's single algorithm
    asks exactly the given queries in order and outputs via the table.
    """
    ids = tuple(query_ids)
    if not ids:
        raise ValueError("a factorization needs at least one query")
    if callable(table):
        lookup = table
    else:
        def lookup(key, _table=table):
            try:
                return _table[key]
            except KeyError as exc:
                raise FactorizationMismatch(f"no table row for query values {key!r}") from exc

    distance = problem.output_space.distance
    for member in problem.inputs:
        key = problem.queries.answer(ids, member)
        produced = lookup(key)
        if distance(problem.target(member), produced) != 0:
            raise FactorizationMismatch(
                f"table output {produced!r} differs from target on {member!r}"
            )

    alg = fixed_query_algorithm(f"table[{problem.name}]", ids, lookup)
    return Tower(f"factorization[{problem.name}]", 0, lambda _idx, _alg=alg: _alg)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of checking the separating-query condition on a finite catalog."""

    pairs_checked: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


#: Separator candidates tried per target-distinct pair by :func:`check_consistency`.
CONSISTENCY_CANDIDATES = 4096


def check_consistency(problem: Problem) -> ConsistencyReport:
    """Check that some catalog-accessible query separates every target-distinct pair."""
    distance = problem.output_space.distance
    members = problem.inputs.members
    checked = 0
    failures = []
    for a, b in itertools.combinations(members, 2):
        if distance(problem.target(a), problem.target(b)) == 0:
            continue
        checked += 1
        for qid in itertools.islice(problem.queries.separator_ids(a, b), CONSISTENCY_CANDIDATES):
            query = problem.queries.resolve(qid)
            if query.evaluate(a) != query.evaluate(b):
                break
        else:
            failures.append((a, b))
    return ConsistencyReport(checked, tuple(failures))
