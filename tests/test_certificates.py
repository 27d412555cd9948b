import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench import certificates as ct
from sci_workbench import integration as ig
from sci_workbench.errors import IndeterminateHeight, MissingClause, UnverifiedReduction
from sci_workbench.cli import to_jsonable
from sci_workbench.reductions import PlanEntry, QueryPlan, verify_reduction


def record_of(*heights):
    return ct.FamilyRecord(
        {f"m{i}": ct.exact_certificate(f"m{i}", h, "test") for i, h in enumerate(heights)}
    )


class TestHeightInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ct.HeightInterval(3, 1)

    def test_unbounded_upper(self):
        interval = ct.HeightInterval(2, ct.UNBOUNDED)
        assert not interval.exact and interval.ub == math.inf

    def test_merge_tightens(self):
        a = ct.HeightCertificate("p", ct.HeightInterval(1, ct.UNBOUNDED), ())
        b = ct.HeightCertificate("p", ct.HeightInterval(0, 1), ())
        merged = ct.merge_certificates(a, b)
        assert merged.interval.exact and merged.interval.lb == 1

    def test_tower_witness_caps_ub(self):
        tower = ig.rectangle_tower(ig.interval(0, 2))
        cert = ct.tower_upper_bound("integration[0,2]", tower)
        assert cert.interval.ub == 1


class TestClassifyFamily:
    @pytest.mark.parametrize(
        "heights,k,expected",
        [
            ((2, 2, 2), 2, (True, True, True)),
            ((0, 2), 2, (False, True, True)),
            ((1, 3), 2, (False, False, False)),
        ],
    )
    def test_spec_examples(self, heights, k, expected):
        assert ct.classify_family(record_of(*heights), k).flags() == expected

    def test_exhaustive_truth_table(self):
        # independent restatement of the three definitions, evaluated literally
        for size in range(1, 5):
            for heights in itertools.combinations_with_replacement(range(4), size):
                for k in range(4):
                    verdict = ct.classify_family(record_of(*heights), k)
                    pointwise = set(heights) == {k}
                    witness = max(heights) <= k and k in heights
                    worst = max(heights) == k
                    assert verdict.flags() == (pointwise, witness, worst)
                    assert verdict.witness_sharp == verdict.worst_case_exact
                    if verdict.pointwise_exact:
                        assert verdict.witness_sharp

    def test_strict_interval_rejected(self):
        record = ct.FamilyRecord(
            {"p": ct.HeightCertificate("p", ct.HeightInterval(0, 2), ())}
        )
        with pytest.raises(IndeterminateHeight):
            ct.classify_family(record, 1)


@st.composite
def certificates_around(draw, height):
    """A certificate for problem "p" whose interval holds ``height``, with
    provenance drawn from small pools so that merges meet repeats."""
    lb = draw(st.integers(0, height))
    ub = draw(st.sampled_from([ct.UNBOUNDED, *range(height, 6)]))
    items = [st.builds(ct.RecordedFact, st.sampled_from("abc")),
             st.builds(ct.TransferredLB, st.sampled_from(["r", "s"]), st.just("src"), st.integers(0, lb))]
    if ub != ct.UNBOUNDED:
        items.append(st.builds(ct.TowerWitness, st.sampled_from(["t", "u"]), st.integers(ub, 6)))
    provenance = draw(st.lists(st.one_of(items), max_size=4, unique=True))
    return ct.HeightCertificate("p", ct.HeightInterval(lb, ub), tuple(provenance))


def triples_around_one_height():
    return st.integers(0, 5).flatmap(lambda h: st.tuples(*[certificates_around(h)] * 3))


class TestMergeIsAMeet:
    def test_merging_a_certificate_with_itself_keeps_it(self):
        cert = ct.exact_certificate("p", 2, "x")
        assert ct.merge_certificates(cert, cert) == cert

    @settings(max_examples=60, deadline=None)
    @given(triples_around_one_height())
    def test_meet_laws(self, triple):
        a, b, c = triple
        merge = ct.merge_certificates
        ab = merge(a, b)
        assert merge(a, a) == a
        assert ab.interval == merge(b, a).interval
        assert set(ab.provenance) == set(merge(b, a).provenance)
        assert merge(ab, c) == merge(a, merge(b, c))
        assert a.interval.lb <= ab.interval.lb and b.interval.lb <= ab.interval.lb
        assert ab.interval.ub <= a.interval.ub and ab.interval.ub <= b.interval.ub
        assert set(ab.provenance) == set(a.provenance) | set(b.provenance)
        assert len(ab.provenance) == len(set(ab.provenance))


class TestTrichotomyLaw:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12), st.integers(0, 6))
    def test_pointwise_implies_witness_iff_worst_case(self, heights, k):
        pointwise, witness, worst = ct.classify_family(record_of(*heights), k).flags()
        assert witness == worst
        assert not pointwise or witness

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=8))))
    def test_witness_without_pointwise_is_strict(self, case):
        k, lower = case
        verdict = ct.classify_family(record_of(k, *lower), k)
        assert verdict.flags() == (False, True, True)


@pytest.fixture
def integration_pipeline():
    unit = ig.make_problem(ig.interval(0, 1))
    source_cert = ct.recorded_certificate("integration/unit-interval", unit.name)
    reductions, upper_bounds = {}, {}
    for iv in (ig.interval(0, 2), ig.interval(-1, 3)):
        member = ig.make_problem(iv)
        reduction = ig.affine_reduction(member, unit)
        reductions[member.name] = (reduction, verify_reduction(reduction, 60))
        upper_bounds[member.name] = ct.tower_upper_bound(member.name, ig.rectangle_tower(iv))
    return source_cert, reductions, upper_bounds


class TestTransferLowerBound:
    def test_interval_members_get_lb_one(self, integration_pipeline):
        source_cert, reductions, _ = integration_pipeline
        certs = ct.transfer_lower_bound(source_cert, list(reductions.values()))
        assert {c.problem_id for c in certs} == set(reductions)
        assert all(c.interval.lb == 1 for c in certs)

    def test_empty_list_no_certificates(self, integration_pipeline):
        source_cert, _, _ = integration_pipeline
        assert ct.transfer_lower_bound(source_cert, []) == []

    def test_unverified_rejected(self, integration_pipeline):
        source_cert, reductions, _ = integration_pipeline
        (reduction, _), *_ = reductions.values()
        from sci_workbench.reductions import VerificationReport

        bad_report = VerificationReport(1, 1, 1, 0, 0.0, 1e-9, 0)
        with pytest.raises(UnverifiedReduction):
            ct.transfer_lower_bound(source_cert, [(reduction, bad_report)])

    def test_never_lowers_existing_lb(self, integration_pipeline):
        source_cert, reductions, _ = integration_pipeline
        existing = ct.HeightCertificate("x", ct.HeightInterval(2, 2), ())
        (item,) = [v for k, v in reductions.items() if "0,2" in k]
        (new,) = ct.transfer_lower_bound(source_cert, [item])
        renamed = ct.HeightCertificate(existing.problem_id, new.interval, new.provenance)
        merged = ct.merge_certificates(existing, renamed)
        assert merged.interval.lb >= existing.interval.lb


class TestSufficiencyPackage:
    def test_integration_family_exact_one(self, integration_pipeline):
        record, verdict = ct.sufficiency_package(*integration_pipeline)
        assert verdict.flags() == (True, True, True)
        assert all(c.interval.exact and c.interval.lb == 1 for c in record.certificates.values())

    def test_consistent_with_classifier(self, integration_pipeline):
        record, _ = ct.sufficiency_package(*integration_pipeline)
        assert ct.classify_family(record, 1).flags() == (True, True, True)

    def test_missing_reduction_is_c2(self, integration_pipeline):
        source_cert, reductions, upper_bounds = integration_pipeline
        partial = dict(reductions)
        partial.popitem()
        with pytest.raises(MissingClause) as exc:
            ct.sufficiency_package(source_cert, partial, upper_bounds)
        assert exc.value.clause == "C2"

    def test_inexact_source_is_c1(self, integration_pipeline):
        _, reductions, upper_bounds = integration_pipeline
        loose = ct.HeightCertificate("integration[0,1]", ct.HeightInterval(0, 1), ())
        with pytest.raises(MissingClause) as exc:
            ct.sufficiency_package(loose, reductions, upper_bounds)
        assert exc.value.clause == "C1"

    def test_weak_upper_bound_is_c3(self, integration_pipeline):
        source_cert, reductions, upper_bounds = integration_pipeline
        weak = dict(upper_bounds)
        member = next(iter(weak))
        weak[member] = ct.HeightCertificate(member, ct.HeightInterval(0, 2), ())
        with pytest.raises(MissingClause) as exc:
            ct.sufficiency_package(source_cert, reductions, weak)
        assert exc.value.clause == "C3"


class TestReportBinding:
    """A report vouches only for the reduction it checked."""

    @pytest.fixture
    def swapped(self, integration_pipeline):
        # the combiner adds 1, so this reduction fails its own verification
        source_cert, reductions, upper_bounds = integration_pipeline
        member = ig.make_problem(ig.interval(0, 2)).name
        good, good_report = reductions[member]
        plus_one = QueryPlan("plus-one", lambda qid: PlanEntry(
            good.plan.rule(qid).source_ids, lambda values, _e=good.plan.rule(qid): _e.combine(values) + 1
        ))
        broken = dataclasses.replace(good, plan=plus_one)
        assert good_report.passed and not verify_reduction(broken, 60).passed
        return source_cert, {**reductions, member: (broken, good_report)}, upper_bounds, member

    def test_report_records_its_reduction_outside_repr_equality_and_json(self, integration_pipeline):
        _, reductions, _ = integration_pipeline
        reduction, report = next(iter(reductions.values()))
        assert report.reduction is reduction
        unbound = dataclasses.replace(report, reduction=None)
        assert unbound == report and repr(unbound) == repr(report)
        assert "reduction" not in to_jsonable(report)

    def test_transfer_lower_bound_refuses_another_reductions_report(self, swapped):
        source_cert, reductions, _, member = swapped
        with pytest.raises(UnverifiedReduction, match="did not check it"):
            ct.transfer_lower_bound(source_cert, [reductions[member]])

    def test_sufficiency_package_refuses_it(self, swapped):
        source_cert, reductions, upper_bounds, _ = swapped
        with pytest.raises(MissingClause) as exc:
            ct.sufficiency_package(source_cert, reductions, upper_bounds)
        assert exc.value.clause == "C2" and "did not check it" in str(exc.value)

    def test_transport_saturation_refuses_it(self, swapped):
        source_cert, reductions, upper_bounds, _ = swapped
        basis = {source_cert.problem_id: source_cert}
        assignment = dict.fromkeys(upper_bounds, source_cert.problem_id)
        with pytest.raises(MissingClause) as exc:
            ct.transport_saturation(basis, assignment, reductions, upper_bounds)
        assert exc.value.clause == "C2" and "did not check it" in str(exc.value)


class TestTransportSaturation:
    def test_singleton_basis_matches_package(self, integration_pipeline):
        source_cert, reductions, upper_bounds = integration_pipeline
        basis = {source_cert.problem_id: source_cert}
        assignment = {member: source_cert.problem_id for member in upper_bounds}
        record_a, verdict_a = ct.transport_saturation(basis, assignment, reductions, upper_bounds)
        record_b, verdict_b = ct.sufficiency_package(source_cert, reductions, upper_bounds)
        assert verdict_a == verdict_b
        assert {m: c.interval for m, c in record_a.certificates.items()} == {
            m: c.interval for m, c in record_b.certificates.items()
        }

    def test_two_element_basis(self):
        unit = ig.make_problem(ig.interval(0, 1))
        two = ig.make_problem(ig.interval(0, 2))
        basis = {
            unit.name: ct.recorded_certificate("integration/unit-interval", unit.name),
            two.name: ct.exact_certificate(two.name, 1, "derived-in-test"),
        }
        reductions, upper_bounds, assignment = {}, {}, {}
        for iv, origin in ((ig.interval(-1, 3), unit), (ig.interval(3, 7), two)):
            member = ig.make_problem(iv)
            reduction = ig.affine_reduction(member, origin)
            assignment[member.name] = origin.name
            reductions[member.name] = (reduction, verify_reduction(reduction, 50))
            upper_bounds[member.name] = ct.tower_upper_bound(member.name, ig.rectangle_tower(iv))
        record, verdict = ct.transport_saturation(basis, assignment, reductions, upper_bounds)
        assert verdict.flags() == (True, True, True)
        assert all(c.interval.exact for c in record.certificates.values())

    def test_member_without_assignment(self, integration_pipeline):
        source_cert, reductions, upper_bounds = integration_pipeline
        basis = {source_cert.problem_id: source_cert}
        with pytest.raises(MissingClause) as exc:
            ct.transport_saturation(basis, {}, reductions, upper_bounds)
        assert exc.value.clause == "C2"

    def test_c2_is_checked_for_every_member_before_c3(self, integration_pipeline):
        source_cert, reductions, upper_bounds = integration_pipeline
        weak_id, missing_id = upper_bounds
        weak = dict(upper_bounds)  # the weak member is listed first
        weak[weak_id] = ct.HeightCertificate(weak_id, ct.HeightInterval(0, 2), ())
        partial = {m: r for m, r in reductions.items() if m != missing_id}
        basis = {source_cert.problem_id: source_cert}
        assignment = {member: source_cert.problem_id for member in weak}
        with pytest.raises(MissingClause) as package:
            ct.sufficiency_package(source_cert, partial, weak)
        with pytest.raises(MissingClause) as saturation:
            ct.transport_saturation(basis, assignment, partial, weak)
        assert package.value.clause == saturation.value.clause == "C2"


class TestPrincipalAmbient:
    @pytest.fixture
    def interval_ambient(self):
        members = {
            "integration[0,1]": 1,
            "integration[0,2]": 1,
            "integration[3,3]": 0,
            "integration[5,5]": 0,
        }
        ambient = ct.FamilyRecord(
            {name: ct.HeightCertificate(name, ct.HeightInterval(0, 1), ()) for name in members}
        )
        membership = {
            name: (ct.REDUCED if height == 1 else ct.NOT_REDUCED)
            for name, height in members.items()
        }
        source = ct.recorded_certificate("integration/unit-interval", "integration[0,1]")
        return ambient, source, membership

    def test_nondegenerate_subfamily_pointwise(self, interval_ambient):
        ambient, source, membership = interval_ambient
        verdicts = ct.principal_ambient_check(
            ambient, source, membership,
            {"nondegenerate": ["integration[0,1]", "integration[0,2]"]},
        )
        assert verdicts["nondegenerate"].flags() == (True, True, True)

    def test_mixed_subfamily_witness_only(self, interval_ambient):
        ambient, source, membership = interval_ambient
        verdicts = ct.principal_ambient_check(
            ambient, source, membership,
            {"mixed": ["integration[0,2]", "integration[3,3]"]},
        )
        assert verdicts["mixed"].flags() == (False, True, True)

    def test_all_degenerate_fails_both(self, interval_ambient):
        ambient, source, membership = interval_ambient
        verdicts = ct.principal_ambient_check(
            ambient, source, membership,
            {"degenerate": ["integration[3,3]", "integration[5,5]"]},
        )
        assert verdicts["degenerate"].flags() == (False, False, False)

    def test_unknown_propagates(self, interval_ambient):
        ambient, source, membership = interval_ambient
        membership = dict(membership)
        membership["integration[0,2]"] = ct.UNKNOWN
        verdicts = ct.principal_ambient_check(
            ambient, source, membership,
            {"hazy": ["integration[0,1]", "integration[0,2]"]},
        )
        assert verdicts["hazy"].pointwise_exact is None
        assert verdicts["hazy"].witness_sharp is True
