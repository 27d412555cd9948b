"""Finite-query evaluation reductions and their decoder-regular refinement.

A reduction from a source problem to a target problem is an encoder on
inputs, a decoder on outputs (tagged with its declared regularity class),
and a per-target-query simulation plan: finitely many source queries plus a
combiner reproducing the target query on encoded inputs.  Verification
samples the two defining equations; decoder-class membership is a declared
tag and is never machine-verified, since continuity is not decidable from
black-box access.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Number
from typing import Any, Callable

from .core import (
    DEFAULT_BUDGET,
    Ask,
    GeneralAlgorithm,
    Problem,
    QueryId,
    Tower,
    check_budget,
)
from .errors import EmptyInputClass, PlanGap, ProblemMismatch, TagIncompatible


class DecoderClass(enum.Enum):
    """Declared regularity family of a decoding map."""

    CONT = "cont"
    BOR = "bor"
    ID = "id"


_COMPOSE_TABLE = {
    (DecoderClass.CONT, DecoderClass.CONT): DecoderClass.CONT,
    (DecoderClass.BOR, DecoderClass.BOR): DecoderClass.BOR,
    (DecoderClass.CONT, DecoderClass.BOR): DecoderClass.BOR,
    (DecoderClass.BOR, DecoderClass.CONT): DecoderClass.BOR,
}


def decoder_compose_class(a: DecoderClass, b: DecoderClass, *, same_space: bool = True) -> DecoderClass:
    """Composition table for decoder class tags.

    The identity-only class composes only with itself, and only when the
    output spaces coincide; space identity is supplied by the caller because
    metric-space equality is not observable from the maps.
    """
    if a is DecoderClass.ID and b is DecoderClass.ID:
        if not same_space:
            raise TagIncompatible("identity decoders compose only over one and the same space")
        return DecoderClass.ID
    try:
        return _COMPOSE_TABLE[(a, b)]
    except KeyError:
        raise TagIncompatible(f"no composition rule for ({a.value}, {b.value})") from None


@dataclass(frozen=True)
class Decoder:
    """Decoding map from the target's output space to the source's, with its tag."""

    map: Callable[[Any], Any]
    class_tag: DecoderClass
    name: str = "decoder"


@dataclass(frozen=True)
class PlanEntry:
    """Simulation of one target query: source query ids and the combiner."""

    source_ids: tuple[QueryId, ...]
    combine: Callable[[tuple], Any]

    @property
    def width(self) -> int:
        return len(self.source_ids)


class QueryPlan:
    """Total rule from target query ids to plan entries.

    Plans are rule-based rather than extensional because target families may
    be infinite.  ``rule`` returns ``None`` for ids it does not cover.
    :meth:`entry` is the one coverage rule: a target query needs a nonempty
    block of source queries, so an uncovered id and an empty block are gaps.
    """

    def __init__(self, name: str, rule: Callable[[QueryId], PlanEntry | None]):
        self.name = name
        self.rule = rule

    def entry(self, query_id: QueryId) -> PlanEntry | None:
        """The rule's entry for ``query_id``, or ``None`` for a gap."""
        entry = self.rule(query_id)
        return entry if entry is not None and entry.source_ids else None


@dataclass(frozen=True)
class Reduction:
    """A finite-query evaluation reduction source <= target."""

    name: str
    source: Problem
    target: Problem
    encoder: Callable[[Any], Any]
    decoder: Decoder
    plan: QueryPlan
    # the primitives a composite chains, first to last, from which its maps derive; set by compose
    # only, so a primitive or a dataclasses.replace copy has none and composes as one opaque link
    links: tuple = field(default=(), init=False, repr=False)


def _blockwise(entries) -> tuple[tuple[QueryId, ...], Callable[[tuple], tuple]]:
    """Concatenated source ids of ``entries``, and the split of their answers into one value per entry."""
    source_ids: list[QueryId] = []
    spans = []
    for entry in entries:
        lo = len(source_ids)
        source_ids += entry.source_ids
        spans.append((entry.combine, lo, len(source_ids)))

    def split(values: tuple) -> tuple:
        return tuple([combine(values[lo:hi]) for combine, lo, hi in spans])

    return tuple(source_ids), split


def _take_first(values: tuple):
    """Combiner of a width-1 plan entry that relays its source answer unchanged."""
    return values[0]


def identity_reduction(problem: Problem) -> Reduction:
    """The reflexivity witness: identity encoder/decoder, each query simulating itself."""

    def rule(query_id: QueryId):
        if query_id in problem.queries:
            return PlanEntry((query_id,), _take_first)
        return None

    return Reduction(
        name=f"identity[{problem.name}]",
        source=problem,
        target=problem,
        encoder=lambda a: a,
        decoder=Decoder(lambda y: y, DecoderClass.CONT, "identity"),
        plan=QueryPlan("identity", rule),
    )


def compose(first: Reduction, second: Reduction) -> Reduction:
    """Blockwise composition: ``first`` (R <= Q) then ``second`` (Q <= P) gives R <= P.

    The composite chains the links of ``first`` then of ``second`` flat, so it is associative by
    structure: encoders run first to last, decoder maps last to first, and a query of P expands
    link by link, last first, into the blockwise sum of the widths; a gap in any link stays a gap.
    """
    if first.target is not second.source:
        raise ProblemMismatch(
            f"{first.name} ends at {first.target.name} but {second.name} starts at {second.source.name}"
        )
    same_space = (
        first.source.output_space.name
        == first.target.output_space.name
        == second.target.output_space.name
    )
    tag = decoder_compose_class(first.decoder.class_tag, second.decoder.class_tag, same_space=same_space)
    links = (first.links or (first,)) + (second.links or (second,))

    def encoder(a):
        for link in links:
            a = link.encoder(a)
        return a

    def decoder_map(y):
        for link in reversed(links):
            y = link.decoder.map(y)
        return y

    def rule(query_id: QueryId):
        ids, splits = (query_id,), []
        for link in reversed(links):
            entries = [link.plan.entry(qid) for qid in ids]
            if any(entry is None for entry in entries):
                return None
            ids, split = _blockwise(entries)
            splits.append(split)

        def combine(values: tuple):
            for split in reversed(splits):
                values = split(values)
            return values[0]

        return PlanEntry(ids, combine)

    composite = Reduction(
        name=f"{first.name}>>{second.name}",
        source=first.source,
        target=second.target,
        encoder=encoder,
        decoder=Decoder(decoder_map, tag, f"{first.decoder.name}.{second.decoder.name}"),
        plan=QueryPlan(f"{first.plan.name}>>{second.plan.name}", rule),
    )
    object.__setattr__(composite, "links", links)
    return composite


@dataclass(frozen=True)
class VerificationReport:
    """Sampled check of a reduction's two defining equations."""

    samples: int
    queries_per_sample: int
    target_failures: int
    query_failures: int
    max_discrepancy: float
    tol: float
    seed: int
    # the reduction checked; kept out of the repr, equality and JSON reports
    reduction: Reduction | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return (
            self.target_failures == 0
            and self.query_failures == 0
            and self.max_discrepancy <= self.tol
        )


def _is_exact(value) -> bool:
    if isinstance(value, (bool, int, Fraction)):
        return True
    if isinstance(value, tuple):
        return all(_is_exact(v) for v in value)
    return False


def _mismatch(want, got, gap, tol: float) -> bool:
    """Exact data must agree exactly; float-tainted data gets the tolerance, and a NaN gap fails."""
    if _is_exact(want) and _is_exact(got):
        return gap != 0
    return not gap <= tol


def verify_reduction(
    reduction: Reduction,
    sample_count: int = 100,
    tol: float = 1e-9,
    *,
    queries_per_sample: int = 20,
    seed: int = 0,
) -> VerificationReport:
    """Sample catalog inputs and plan-covered queries against the two defining equations.

    Sampling runs in two phases.  The draw phase takes every sample in the
    order the rng gives it.  A new input is keyed by identity (the table
    keeps it alive, so inputs need not be hashable) and is encoded and
    checked for admission once.  An admitted draw then draws its target
    query keys (see :class:`QueryFamily`), tallied per input as distinct
    key -> draw count.  The check phase visits each distinct admitted
    input once: one target check, one round of the ids of its distinct
    covered keys (in first-draw order) on the encoded input, and one round
    of their concatenated plan blocks on the source input.  Every map in
    the two equations is a function, so a repeated draw cannot change its
    outcome: each failure counts once per draw, and the report equals a
    check of every draw in turn.  The table holds one count per distinct
    drawn (input, key) pair, at most ``sample_count * queries_per_sample``,
    which the budget check caps at ``DEFAULT_BUDGET``.  ``key_id`` and the
    plan are functions too, so each distinct key is turned into its id,
    and that id expanded through ``plan.entry``, once per call, whichever
    inputs drew it; that memo holds at most as many entries as the table
    holds counts.

    A plan gap is a query failure.  Equal query answers are settled by
    that comparison.  Unequal numeric answers add their gap to
    ``max_discrepancy``; exact numbers must agree exactly, numbers involving
    floating point within ``tol``.  Other unequal answers (tuples, say)
    fail.  Targets compare through the output distance in the same way as
    numbers.  A NaN gap, of a query or of a target, is a failure and leaves
    ``max_discrepancy`` finite.  An encoded input the target does not admit
    counts as a target failure per draw and draws no keys.  Failures are
    report content, never exceptions.  Every sample draws at least one
    query, so a plan that covers no id cannot pass: a ``sample_count`` or
    ``queries_per_sample`` below 1 raises ValueError.  A source with an
    empty input catalog raises :class:`EmptyInputClass`, and more than
    ``DEFAULT_BUDGET`` sampled queries raise :class:`BudgetExceeded`, both
    before any sampling.  The report records ``reduction``, which the
    certificates check it against.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if queries_per_sample < 1:
        raise ValueError("queries_per_sample must be >= 1")
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    source, target = reduction.source, reduction.target
    if len(source.inputs) == 0:
        raise EmptyInputClass(f"{source.name} has an empty input catalog, so there is nothing to sample")
    check_budget(f"verify[{reduction.name}]", sample_count * queries_per_sample)
    rng = random.Random(seed)
    distance = source.output_space.distance
    key_id = target.queries.key_id
    target_failures = 0
    query_failures = 0
    max_discrepancy = 0.0

    # id(a) -> [a, encoded, admitted draws, Counter of target key draws or None if refused]
    table: dict[int, list] = {}
    expanded: dict = {}  # target key -> (its id, plan.entry(id) or None for a gap)
    for _ in range(sample_count):
        a = source.inputs.sample(rng)
        row = table.get(id(a))
        if row is None:
            encoded = reduction.encoder(a)
            row = table[id(a)] = [a, encoded, 0, Counter() if target.inputs.admits(encoded) else None]
        tally = row[3]
        if tally is None:
            target_failures += 1
            continue
        row[2] += 1
        tally.update(target.queries.sample_keys(rng, queries_per_sample))

    for a, encoded, draws, tally in table.values():
        if tally is None:
            continue
        want = source.target(a)
        got = reduction.decoder.map(target.target(encoded))
        gap = distance(want, got)
        max_discrepancy = max(max_discrepancy, float(gap))
        if _mismatch(want, got, gap, tol):
            target_failures += draws

        covered, entries, counts = [], [], []
        for key, count in tally.items():
            slot = expanded.get(key)
            if slot is None:
                qid = key_id(key)
                slot = expanded[key] = (qid, reduction.plan.entry(qid))
            qid, entry = slot
            if entry is None:
                query_failures += count
            else:
                covered.append(qid)
                entries.append(entry)
                counts.append(count)
        source_ids, split = _blockwise(entries)
        wanted = target.queries.answer(covered, encoded)
        for want_q, got_q, count in zip(wanted, split(source.queries.answer(source_ids, a)), counts):
            if want_q == got_q:
                continue
            if isinstance(want_q, Number) and isinstance(got_q, Number):
                gap_q = abs(want_q - got_q)
                max_discrepancy = max(max_discrepancy, float(gap_q))
                if _mismatch(want_q, got_q, gap_q, tol):
                    query_failures += count
            else:
                query_failures += count

    return VerificationReport(
        samples=sample_count,
        queries_per_sample=queries_per_sample,
        target_failures=target_failures,
        query_failures=query_failures,
        max_discrepancy=max_discrepancy,
        tol=tol,
        seed=seed,
        reduction=reduction,
    )


def _gap(plan: QueryPlan, query_id: QueryId):
    raise PlanGap(f"plan {plan.name} has no nonempty block for query {query_id!r}")


def pullback_algorithm(reduction: Reduction, algorithm: GeneralAlgorithm) -> GeneralAlgorithm:
    """Simulate a target-problem algorithm on the source through the query plan.

    Each round of target queries becomes one round of source queries: the
    plan entry of every target id is expanded once, the round asks the
    concatenated blocks, and each block's combiner answers its target query.
    The output is the decoded target output.  The source trace is the
    concatenation of the blocks, so it stays a pure function of the source
    answers and locality is preserved.  A round holding a plan gap (see
    :meth:`QueryPlan.entry`) raises :class:`PlanGap` when it is asked.
    """
    plan = reduction.plan
    decode = reduction.decoder.map

    def protocol():
        inner = algorithm.protocol()
        answers = None
        while True:
            try:
                step = inner.send(answers)
            except StopIteration as done:
                return decode(done.value)
            if not isinstance(step, Ask):
                answers = yield step  # passed through; run_algorithm rejects it
                continue
            entries = [plan.entry(qid) or _gap(plan, qid) for qid in step.query_ids]
            source_ids, split = _blockwise(entries)
            answers = split((yield Ask(*source_ids)))

    name = f"pullback[{algorithm.name}|{reduction.name}]"
    return GeneralAlgorithm(name, protocol, max(algorithm.budget, DEFAULT_BUDGET))


def pullback_tower(reduction: Reduction, tower: Tower) -> Tower:
    """Pull a tower back stage by stage; the height is unchanged."""
    return Tower(
        name=f"pullback[{tower.name}|{reduction.name}]",
        height=tower.height,
        stages=lambda idx: pullback_algorithm(reduction, tower.stage(idx)),
    )


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the one structural obstruction check this module certifies."""

    verdict: str  # "infeasible" | "unknown"
    reason: str

    @property
    def infeasible(self) -> bool:
        return self.verdict == "infeasible"


def structural_feasibility(source: Problem, target: Problem) -> FeasibilityVerdict:
    """Certify the empty-family obstruction; everything else stays Unknown.

    Every plan block needs at least one source query, so a target with a
    nonempty query family is out of reach of a source with an empty one.
    No reduction-existence claim is ever made in the other direction.
    """
    if not target.queries.is_empty and source.queries.is_empty:
        return FeasibilityVerdict(
            "infeasible",
            "target queries need simulation blocks of width >= 1 but the source family is empty",
        )
    return FeasibilityVerdict("unknown", "no structural obstruction detected")
