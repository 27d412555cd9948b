"""Family-level sharpness calculus and the certificate inference rules.

Heights enter as interval-valued knowledge with provenance: a tower witness
caps the height from above, a verified reduction transfers a lower bound
from an exact source, and externally proved classifications enter as
recorded facts (see ``docs/recorded-heights.md``) that the engine trusts
but never re-derives.  Unknown is a first-class flag; no operation guesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .core import Tower
from .errors import IndeterminateHeight, MissingClause, UnverifiedReduction
from .reductions import Reduction, VerificationReport

#: Upper bound standing for "no tower known at any height".
UNBOUNDED = math.inf


@dataclass(frozen=True)
class HeightInterval:
    """What is currently known about one problem's exact height."""

    lb: int
    ub: Union[int, float]  # int or UNBOUNDED

    def __post_init__(self):
        if self.lb < 0:
            raise ValueError("heights are nonnegative")
        if self.lb > self.ub:
            raise ValueError(f"empty interval [{self.lb}, {self.ub}]")

    @property
    def exact(self) -> bool:
        return self.lb == self.ub

    def __str__(self) -> str:
        return f"={self.lb}" if self.exact else f"[{self.lb}, {self.ub}]"


@dataclass(frozen=True)
class TowerWitness:
    """Upper-bound provenance: a concrete tower of the stated height."""

    tower_name: str
    height: int


@dataclass(frozen=True)
class RecordedFact:
    """Provenance for externally proved heights; ``source`` keys into the recorded-facts registry."""

    source: str


@dataclass(frozen=True)
class TransferredLB:
    """Lower bound pulled along a verified reduction from an exact source."""

    reduction_name: str
    source_problem: str
    source_height: int


Provenance = Union[TowerWitness, RecordedFact, TransferredLB]


@dataclass(frozen=True)
class HeightCertificate:
    problem_id: str
    interval: HeightInterval
    provenance: tuple[Provenance, ...]

    def __post_init__(self):
        for item in self.provenance:
            if isinstance(item, TowerWitness) and self.interval.ub > item.height:
                raise ValueError("a tower witness caps ub at the witness height")
            if isinstance(item, TransferredLB) and self.interval.lb < item.source_height:
                raise ValueError("a transferred bound keeps lb at least the source height")


def exact_certificate(problem_id: str, height: int, source: str) -> HeightCertificate:
    """Certificate for an externally proved exact height, entered as a recorded fact."""
    return HeightCertificate(problem_id, HeightInterval(height, height), (RecordedFact(source),))


def tower_upper_bound(problem_id: str, tower: Tower) -> HeightCertificate:
    """Certificate ub <= tower height from a concrete tower witness."""
    return HeightCertificate(
        problem_id,
        HeightInterval(0, tower.height),
        (TowerWitness(tower.name, tower.height),),
    )


def merge_certificates(a: HeightCertificate, b: HeightCertificate) -> HeightCertificate:
    """Intersect two certificates for the same problem; bounds only ever tighten.

    The provenance is the union of both, in first-seen order, so merging is
    a meet: commutative and associative up to provenance order, and
    idempotent.
    """
    if a.problem_id != b.problem_id:
        raise ValueError("cannot merge certificates for different problems")
    interval = HeightInterval(max(a.interval.lb, b.interval.lb), min(a.interval.ub, b.interval.ub))
    return HeightCertificate(a.problem_id, interval, tuple(dict.fromkeys(a.provenance + b.provenance)))


@dataclass(frozen=True)
class FamilyRecord:
    """A nonempty family of member certificates, keyed by problem id."""

    certificates: Mapping[str, HeightCertificate]

    def __post_init__(self):
        if not self.certificates:
            raise ValueError("families are nonempty")

    def exact_heights(self) -> dict[str, int]:
        heights = {}
        for member_id, cert in self.certificates.items():
            if not cert.interval.exact:
                raise IndeterminateHeight(
                    f"{member_id} has strict interval {cert.interval}; classification needs exact heights"
                )
            heights[member_id] = cert.interval.lb
        return heights


@dataclass(frozen=True)
class SharpnessVerdict:
    """The three family-level flags at level k; ``None`` means Unknown."""

    k: int
    pointwise_exact: bool | None
    witness_sharp: bool | None
    worst_case_exact: bool | None

    def flags(self) -> tuple:
        return (self.pointwise_exact, self.witness_sharp, self.worst_case_exact)


def classify_family(record: FamilyRecord, k: int) -> SharpnessVerdict:
    """Evaluate the three sharpness notions on a record of exact heights.

    Pointwise: every member has height k.  Witness: every member is <= k and
    some member attains k.  Worst-case: the supremum of the heights is k,
    which over these well-ordered values coincides with the witness flag.
    No height is negative, so a negative k raises ValueError.
    """
    if k < 0:
        raise ValueError(f"the level k must be >= 0, got {k}")
    heights = list(record.exact_heights().values())
    pointwise = all(h == k for h in heights)
    witness = all(h <= k for h in heights) and any(h == k for h in heights)
    worst = max(heights) == k
    return SharpnessVerdict(k, pointwise, witness, worst)


VerifiedReduction = tuple[Reduction, VerificationReport]


def _require_verified(item: VerifiedReduction, source_id: str) -> Reduction:
    reduction, report = item
    if not report.passed:
        raise UnverifiedReduction(f"{reduction.name} has a failing verification report")
    if report.reduction is not reduction:
        raise UnverifiedReduction(f"{reduction.name} is paired with a report that did not check it")
    if reduction.source.name != source_id:
        raise UnverifiedReduction(
            f"{reduction.name} starts at {reduction.source.name}, expected {source_id}"
        )
    return reduction


def _transferred_lower_bound(reduction: Reduction, source_id: str, k: int) -> HeightCertificate:
    """Certificate lb >= k for the target of a verified reduction from a height-k source."""
    return HeightCertificate(
        reduction.target.name,
        HeightInterval(k, UNBOUNDED),
        (TransferredLB(reduction.name, source_id, k),),
    )


def transfer_lower_bound(
    source_cert: HeightCertificate,
    reductions: Sequence[VerifiedReduction],
) -> list[HeightCertificate]:
    """Give every reduction target the source's exact height as a lower bound.

    This is the executable face of lower-bound transfer: a verified
    reduction pulls any tower on the target back to the source, so no target
    can sit strictly below an exact source.
    """
    if not source_cert.interval.exact:
        raise IndeterminateHeight(f"source certificate must be exact, got {source_cert.interval}")
    k = source_cert.interval.lb
    certificates = []
    for item in reductions:
        reduction = _require_verified(item, source_cert.problem_id)
        certificates.append(_transferred_lower_bound(reduction, source_cert.problem_id, k))
    return certificates


def sufficiency_package(
    source_cert: HeightCertificate,
    reductions: Mapping[str, VerifiedReduction],
    upper_bounds: Mapping[str, HeightCertificate],
) -> tuple[FamilyRecord, SharpnessVerdict]:
    """The principal-source package: source exact at k, one verified reduction
    per member, member upper bounds at k; concludes pointwise exactness at k.

    This is :func:`transport_saturation` with the singleton basis
    ``{source}`` and every member assigned to it, so it raises
    :class:`MissingClause` in the same clause order.
    """
    source_id = source_cert.problem_id
    assignment = {member_id: source_id for member_id in upper_bounds}
    return transport_saturation({source_id: source_cert}, assignment, reductions, upper_bounds)


def transport_saturation(
    basis: Mapping[str, HeightCertificate],
    assignment: Mapping[str, str],
    reductions: Mapping[str, VerifiedReduction],
    upper_bounds: Mapping[str, HeightCertificate],
) -> tuple[FamilyRecord, SharpnessVerdict]:
    """Pointwise exactness from an exact level-k transport basis.

    Every member is assigned some basis element that reduces into it; with a
    singleton basis this is :func:`sufficiency_package`.  Raises
    :class:`MissingClause` naming the first failing clause, checked in this
    order: C1 when the basis is empty or not exact at one level k, then C2
    for every member (no assigned basis element, or no verified reduction
    from it into the member), then C3 for every member (upper bound above k).
    """
    if not basis:
        raise MissingClause("C1", "the transport basis is empty")
    levels = set()
    for basis_id, cert in basis.items():
        if not cert.interval.exact:
            raise MissingClause("C1", f"basis element {basis_id} is not exact: {cert.interval}")
        levels.add(cert.interval.lb)
    if len(levels) != 1:
        raise MissingClause("C1", f"basis elements sit at different levels {sorted(levels)}")
    (k,) = levels

    members = dict(upper_bounds)
    if not members:
        raise ValueError("the family is nonempty; supply at least one member upper bound")

    verified = {}
    for member_id in members:
        if member_id not in assignment:
            raise MissingClause("C2", f"{member_id} has no assigned basis element")
        basis_id = assignment[member_id]
        if basis_id not in basis:
            raise MissingClause("C2", f"{member_id} is assigned unknown basis element {basis_id}")
        if member_id not in reductions:
            raise MissingClause("C2", f"no reduction from {basis_id} to {member_id}")
        try:
            reduction = _require_verified(reductions[member_id], basis_id)
        except UnverifiedReduction as exc:
            raise MissingClause("C2", str(exc)) from exc
        if reduction.target.name != member_id:
            raise MissingClause(
                "C2", f"reduction for {member_id} actually targets {reduction.target.name}"
            )
        verified[member_id] = reduction

    for member_id, cert in members.items():
        if cert.interval.ub > k:
            raise MissingClause("C3", f"{member_id} has upper bound {cert.interval.ub} > {k}")

    certified = {}
    for member_id, cert in members.items():
        lower = _transferred_lower_bound(verified[member_id], assignment[member_id], k)
        certified[member_id] = merge_certificates(lower, cert)
    record = FamilyRecord(certified)
    return record, classify_family(record, k)


#: Cone-membership states accepted by :func:`principal_ambient_check`.
REDUCED, NOT_REDUCED, UNKNOWN = "reduced", "not_reduced", "unknown"


def principal_ambient_check(
    ambient: FamilyRecord,
    source_cert: HeightCertificate,
    cone_membership: Mapping[str, str],
    subfamilies: Mapping[str, Sequence[str]],
) -> dict[str, SharpnessVerdict]:
    """Family verdicts inside a principal ambient class.

    When every ambient member sits at height <= k and the exact layer equals
    the source's upper cone, a subfamily is pointwise exact at k iff every
    member is reduced into, and witness-sharp iff some member is.  Unknown
    memberships propagate as Unknown flags rather than guesses.
    """
    if not source_cert.interval.exact:
        raise IndeterminateHeight(f"source certificate must be exact, got {source_cert.interval}")
    k = source_cert.interval.lb
    for member_id, cert in ambient.certificates.items():
        if cert.interval.ub > k:
            raise ValueError(f"ambient member {member_id} has upper bound above {k}")

    verdicts = {}
    for name, member_ids in subfamilies.items():
        if not member_ids:
            raise ValueError(f"subfamily {name} is empty; families are nonempty")
        states = []
        for member_id in member_ids:
            if member_id not in ambient.certificates:
                raise ValueError(f"{member_id} is not an ambient member")
            state = cone_membership.get(member_id, UNKNOWN)
            if state not in (REDUCED, NOT_REDUCED, UNKNOWN):
                raise ValueError(f"bad cone membership {state!r} for {member_id}")
            states.append(state)

        if all(s == REDUCED for s in states):
            pointwise: bool | None = True
        elif any(s == NOT_REDUCED for s in states):
            pointwise = False
        else:
            pointwise = None

        if any(s == REDUCED for s in states):
            witness: bool | None = True
        elif all(s == NOT_REDUCED for s in states):
            witness = False
        else:
            witness = None

        verdicts[name] = SharpnessVerdict(k, pointwise, witness, witness)
    return verdicts


#: Externally proved exact heights, keyed into docs/recorded-heights.md.
#: These are data for the classifier, never re-derived at runtime.
RECORDED_HEIGHTS: dict[str, int] = {
    "integration/unit-interval": 1,
    "spectral/singleton-window-source": 2,
    "koopman/finite-space": 0,
    "koopman/witness/ap-eps": 2,
    "koopman/witness/ap": 3,
    "koopman/witness/modulus/ap-eps": 1,
    "koopman/witness/modulus/ap": 2,
}


def recorded_certificate(key: str, problem_id: str | None = None) -> HeightCertificate:
    """Certificate for one entry of the recorded-heights registry."""
    try:
        height = RECORDED_HEIGHTS[key]
    except KeyError:
        raise KeyError(f"no recorded height under {key!r}") from None
    return exact_certificate(problem_id or key, height, f"recorded-heights:{key}")


def describe_certificate(cert: HeightCertificate) -> list[str]:
    """Human-readable derivation lines for CLI trees."""
    lines = [f"{cert.problem_id}  height {cert.interval}"]
    for item in cert.provenance:
        if isinstance(item, TowerWitness):
            lines.append(f"  - upper bound {item.height}: tower witness {item.tower_name}")
        elif isinstance(item, TransferredLB):
            lines.append(
                f"  - lower bound {item.source_height}: transferred along {item.reduction_name}"
                f" from {item.source_problem}"
            )
        elif isinstance(item, RecordedFact):
            lines.append(f"  - recorded fact: {item.source}")
    return lines
