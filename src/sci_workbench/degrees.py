"""Directedness witnesses and non-lattice counterexamples for transport degrees.

The join of two problems with nonempty catalogs and nonempty query families
is their tagged disjoint union: cross-tag outputs sit at distance exactly 2,
queries are padded by 0 off their own tag, and a tag query reveals the
component.  The meet is the one-point problem with a constant query.  Both
come with explicit reductions that verify exactly on rational data.

The counterexample demos replay only the finitely checkable steps of the
non-existence arguments; the universally quantified remainder is recorded
prose, never a faked check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InputCatalog, OutputSpace, Problem, QueryFamily, _randbelow
from .errors import EmptyInputClass, EmptyQueryFamily, TagIncompatible
from .reductions import (
    Decoder,
    DecoderClass,
    PlanEntry,
    QueryPlan,
    Reduction,
    _take_first,
    decoder_compose_class,
    structural_feasibility,
)

TAG_QUERY = ("tag",)
CONST_QUERY = ("const",)
POINT = "*"


@dataclass(frozen=True)
class JoinResult:
    problem: Problem
    left: Reduction  # p0 <= join
    right: Reduction  # p1 <= join


def upper_bound_join(p0: Problem, p1: Problem) -> JoinResult:
    """Tagged disjoint union with both transport witnesses.

    Each component encodes by tagging; the decoder restricts to the identity
    on its own tag and sends the other component to the pivot target value.
    Own padded queries replay the underlying query, foreign padded queries
    and the tag query are simulated by a pivot query with constant combiner.
    """
    components = (p0, p1)
    for p in components:
        if len(p.inputs) == 0:
            raise EmptyInputClass(f"{p.name} has an empty input catalog")
        if p.queries.is_empty or not p.queries.canonical_ids:
            raise EmptyQueryFamily(f"{p.name} has no catalog-accessible queries")

    members = tuple((i, a) for i, p in enumerate(components) for a in p.inputs)

    def distance(left, right):
        (i, x), (j, y) = left, right
        if i != j:
            return 2
        return min(1, components[i].output_space.distance(x, y))

    def resolver(qid):
        if qid == TAG_QUERY:
            return lambda tagged: tagged[0]
        if (
            isinstance(qid, tuple)
            and len(qid) == 3
            and qid[0] == "pad"
            and qid[1] in (0, 1)
            and qid[2] in components[qid[1]].queries
        ):
            tag = qid[1]
            inner = components[tag].queries.resolve(qid[2])
            return lambda tagged: inner.evaluate(tagged[1]) if tagged[0] == tag else 0
        return None

    canonical = (TAG_QUERY,) + tuple(
        ("pad", i, qid) for i, p in enumerate(components) for qid in p.queries.canonical_ids[:4]
    )

    # a draw is keyed by the tag query itself or by (i, the component's draw key);
    # the checks above leave every component family something to draw
    def sampler(rng):
        if _randbelow(rng, 8) == 0:
            return TAG_QUERY
        i = _randbelow(rng, 2)
        return i, components[i].queries.sample_keys(rng, 1)[0]

    def key_id(key):
        if key == TAG_QUERY:
            return TAG_QUERY
        i, inner = key
        return ("pad", i, components[i].queries.key_id(inner))

    def separators(a, b):
        yield TAG_QUERY
        if a[0] == b[0]:
            for qid in components[a[0]].queries.separator_ids(a[1], b[1]):
                yield ("pad", a[0], qid)

    def admits(candidate):
        return (
            isinstance(candidate, tuple)
            and len(candidate) == 2
            and candidate[0] in (0, 1)
            and components[candidate[0]].inputs.admits(candidate[1])
        )

    join = Problem(
        name=f"join[{p0.name}|{p1.name}]",
        inputs=InputCatalog(members, admits=admits),
        output_space=OutputSpace(f"tagged[{p0.output_space.name}|{p1.output_space.name}]", distance),
        target=lambda tagged: (tagged[0], components[tagged[0]].target(tagged[1])),
        queries=QueryFamily(
            f"padded[{p0.queries.name}|{p1.queries.name}]",
            resolver,
            canonical_ids=canonical,
            sampler=sampler,
            key_id=key_id,
            separators=separators,
        ),
        params={"components": (p0.name, p1.name)},
    )

    def reduction_into(i: int) -> Reduction:
        component = components[i]
        pivot_query = component.queries.canonical_ids[0]
        pivot_value = component.target(component.inputs.members[0])

        def decode(tagged, _i=i, _pivot=pivot_value):
            tag, point = tagged
            return point if tag == _i else _pivot

        def rule(qid, _i=i, _pq=pivot_query):
            if qid == TAG_QUERY:
                return PlanEntry((_pq,), lambda _vals, _tag=_i: _tag)
            if isinstance(qid, tuple) and len(qid) == 3 and qid[0] == "pad":
                if qid[1] == _i and qid[2] in component.queries:
                    return PlanEntry((qid[2],), _take_first)
                if qid[1] == 1 - _i and qid[2] in components[1 - _i].queries:
                    return PlanEntry((_pq,), lambda _vals: 0)
            return None

        return Reduction(
            name=f"tag{i}[{component.name}<={join.name}]",
            source=component,
            target=join,
            encoder=lambda a, _i=i: (_i, a),
            decoder=Decoder(decode, DecoderClass.CONT, f"restrict-tag{i}"),
            plan=QueryPlan(f"pad-tag{i}", rule),
        )

    return JoinResult(join, reduction_into(0), reduction_into(1))


@dataclass(frozen=True)
class MeetResult:
    problem: Problem
    left: Reduction  # meet <= p0
    right: Reduction  # meet <= p1


def _one_point_problem(name: str, space: str, point=0, *, queries: bool = True) -> Problem:
    """The one input ``POINT``, mapped to ``point``; the one constant query, or none at all."""
    return Problem(
        name=name,
        inputs=InputCatalog((POINT,)),
        output_space=OutputSpace(space, lambda p, q: 0, carrier=(point,)),
        target=lambda _a: point,
        queries=QueryFamily(
            "constant",
            lambda qid: (lambda _a: 0) if qid == CONST_QUERY else None,
            canonical_ids=(CONST_QUERY,),
        )
        if queries
        else QueryFamily.empty("empty"),
    )


def singleton_problem() -> Problem:
    """One input, one output point, one constant query."""
    return _one_point_problem("singleton", "point")


def lower_bound_meet(p0: Problem, p1: Problem) -> MeetResult:
    """The one-point lower bound under any pair with nonempty catalogs.

    The encoder pins the pivot input; every target query is simulated by the
    constant query with the pivot's value baked into the combiner, and the
    decoder is constant.
    """
    for p in (p0, p1):
        if len(p.inputs) == 0:
            raise EmptyInputClass(f"{p.name} has an empty input catalog")

    meet = singleton_problem()

    def reduction_into(component: Problem) -> Reduction:
        pivot = component.inputs.members[0]

        def rule(qid, _c=component, _pivot=pivot):
            if qid in _c.queries:
                value = _c.queries.resolve(qid).evaluate(_pivot)
                return PlanEntry((CONST_QUERY,), lambda _vals, _v=value: _v)
            return None

        return Reduction(
            name=f"meet[{meet.name}<={component.name}]",
            source=meet,
            target=component,
            encoder=lambda _a, _pivot=pivot: _pivot,
            decoder=Decoder(lambda _y: 0, DecoderClass.CONT, "constant-0"),
            plan=QueryPlan(f"pivot[{component.name}]", rule),
        )

    return MeetResult(meet, reduction_into(p0), reduction_into(p1))


def counterexample_pair() -> tuple[Problem, Problem]:
    """The empty-family obstruction pair for the continuous and Borel classes.

    The first problem has one input, a constant target and no queries at all
    (legal: the separating condition is vacuous for constant targets).  The
    second has two inputs with distinct outputs separated by one query.
    """
    p0 = _one_point_problem("no-queries", "point", queries=False)
    p1 = Problem(
        name="two-point",
        inputs=InputCatalog(("a", "b")),
        output_space=OutputSpace("bit", lambda p, q: 0 if p == q else 1, carrier=(0, 1)),
        target=lambda x: 0 if x == "a" else 1,
        queries=QueryFamily(
            "separator",
            lambda qid: (lambda x: 0 if x == "a" else 1) if qid == ("e",) else None,
            canonical_ids=(("e",),),
        ),
    )
    return p0, p1


def identity_class_pair() -> tuple[Problem, Problem]:
    """Two one-point problems whose output carriers {0} and {1} already clash."""
    return (_one_point_problem("carrier-zero", "point[0]", 0),
            _one_point_problem("carrier-one", "point[1]", 1))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CounterexampleReport:
    decoder_class: str
    checks: tuple[CheckResult, ...]
    recorded_argument: str

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def counterexample_demo(class_tag: DecoderClass | str) -> CounterexampleReport:
    """Replay the checkable steps showing the degree order has no joins.

    For the continuous and Borel classes: a common upper bound of the
    obstruction pair would need an empty query family (no simulation block
    can be filled from an empty source family), hence a constant target,
    which cannot decode onto the two-point member's distinct outputs.  For
    the identity-only class: the two one-point problems have different
    output carriers, and identity decoders pin the upper bound's space to
    both at once.
    """
    tag = DecoderClass(class_tag) if not isinstance(class_tag, DecoderClass) else class_tag

    if tag in (DecoderClass.CONT, DecoderClass.BOR):
        p0, p1 = counterexample_pair()
        feasibility = structural_feasibility(p0, p1)
        targets = {p1.target("a"), p1.target("b")}
        query = p1.queries.resolve(("e",))
        checks = (
            CheckResult(
                "source family empty",
                p0.queries.is_empty,
                f"{p0.name} carries no evaluation maps",
            ),
            CheckResult(
                "structural obstruction",
                feasibility.infeasible,
                feasibility.reason,
            ),
            CheckResult(
                "two-point target is non-constant",
                len(targets) == 2,
                f"target values {sorted(targets)}",
            ),
            CheckResult(
                "separating query witnesses consistency",
                query.evaluate("a") != query.evaluate("b"),
                "e(a) != e(b)",
            ),
        )
        prose = (
            "Any common upper bound would have to simulate its queries from the "
            "empty source family, forcing its own family empty; the separating "
            "condition then forces a constant target, and no decoder turns one "
            "constant into the two distinct outputs checked above. The "
            "quantification over all candidate upper bounds is recorded prose, "
            "not a machine check."
        )
        return CounterexampleReport(tag.value, checks, prose)

    q0, q1 = identity_class_pair()
    carrier0, carrier1 = q0.output_space.carrier, q1.output_space.carrier
    try:
        decoder_compose_class(DecoderClass.ID, DecoderClass.ID, same_space=False)
        pinned = False
    except TagIncompatible:
        pinned = True
    checks = (
        CheckResult(
            "output carriers clash",
            carrier0 != carrier1,
            f"{carrier0} vs {carrier1}",
        ),
        CheckResult(
            "identity decoders pin the space",
            pinned,
            "decoder_compose_class(id, id) raises TagIncompatible across two output spaces",
        ),
    )
    prose = (
        "With identity-only decoders, each transport forces the upper bound's "
        "output space to equal the component's; the two carriers differ, so no "
        "common upper bound exists. The carrier clash and the refusal of identity "
        "decoders to compose across two spaces are machine-checked."
    )
    return CounterexampleReport(tag.value, checks, prose)
