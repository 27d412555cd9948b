from fractions import Fraction

import pytest

from sci_workbench import degrees as dg
from sci_workbench import integration as ig
from sci_workbench import spectral as sp
from sci_workbench.core import check_consistency
from sci_workbench.errors import EmptyInputClass, EmptyQueryFamily
from sci_workbench.reductions import identity_reduction, verify_reduction


@pytest.fixture
def poly_problem():
    return ig.make_problem(
        ig.interval(0, 1),
        (ig.polynomial(1), ig.polynomial(0, 1), ig.polynomial(0, 0, 1)),
    )


@pytest.fixture
def joined(poly_problem, spectral_source):
    return dg.upper_bound_join(poly_problem, spectral_source)


class TestJoin:
    def test_both_reductions_verify_exactly(self, joined):
        for reduction in (joined.left, joined.right):
            report = verify_reduction(reduction, 80)
            assert report.passed and report.max_discrepancy == 0.0

    def test_tag_query_reads_the_tag(self, joined, poly_problem):
        tag = joined.problem.queries.resolve(dg.TAG_QUERY)
        assert tag.evaluate((0, poly_problem.inputs.members[0])) == 0

    def test_foreign_padded_query_is_zero(self, joined, poly_problem, spectral_source):
        inner = spectral_source.queries.canonical_ids[0]
        padded = joined.problem.queries.resolve(("pad", 1, inner))
        assert padded.evaluate((0, poly_problem.inputs.members[0])) == 0

    def test_own_padded_query_passes_through(self, joined, poly_problem):
        qid = ("ev", Fraction(1, 2))
        padded = joined.problem.queries.resolve(("pad", 0, qid))
        f = ig.polynomial(0, 0, 1)
        assert padded.evaluate((0, f)) == Fraction(1, 4)

    def test_cross_tag_distance_exactly_two(self, joined):
        d = joined.problem.output_space.distance
        assert d((0, Fraction(1, 2)), (1, 0)) == 2
        assert d((0, Fraction(1, 2)), (0, Fraction(1, 2))) == 0
        assert d((0, Fraction(0)), (0, Fraction(5))) == 1  # capped same-tag distance

    def test_metric_axioms_on_samples(self, joined, rng):
        members = joined.problem.inputs.members
        target = joined.problem.target
        d = joined.problem.output_space.distance
        points = [target(rng.choice(members)) for _ in range(12)]
        for x in points:
            assert d(x, x) == 0
            for y in points:
                assert d(x, y) == d(y, x) >= 0
                for z in points:
                    assert d(x, z) <= d(x, y) + d(y, z)

    def test_join_problem_is_consistent(self, joined):
        assert check_consistency(joined.problem).passed

    def test_empty_query_family_rejected(self, poly_problem):
        p0, _ = dg.counterexample_pair()
        with pytest.raises(EmptyQueryFamily):
            dg.upper_bound_join(p0, poly_problem)


class TestMeet:
    def test_reductions_verify_on_mixed_pair(self, poly_problem, spectral_source):
        met = dg.lower_bound_meet(poly_problem, spectral_source)
        for reduction in (met.left, met.right):
            report = verify_reduction(reduction, 80)
            assert report.passed and report.max_discrepancy == 0.0

    def test_combiner_bakes_in_pivot_value(self, poly_problem, spectral_source):
        met = dg.lower_bound_meet(poly_problem, spectral_source)
        qid = ("ev", Fraction(1, 2))
        entry = met.left.plan.entry(qid)
        pivot = poly_problem.inputs.members[0]
        want = poly_problem.queries.resolve(qid).evaluate(pivot)
        assert entry.source_ids == (dg.CONST_QUERY,)
        assert entry.combine((0,)) == want

    def test_meet_reduces_to_itself(self):
        meet = dg.singleton_problem()
        assert verify_reduction(identity_reduction(meet), 10).passed

    def test_empty_catalog_rejected(self, poly_problem):
        from sci_workbench.core import InputCatalog, OutputSpace, Problem, QueryFamily

        empty = Problem(
            "empty", InputCatalog(()), OutputSpace("point", lambda p, q: 0),
            lambda a: 0, QueryFamily.empty("none"),
        )
        with pytest.raises(EmptyInputClass):
            dg.lower_bound_meet(empty, poly_problem)


class TestCounterexamples:
    @pytest.mark.parametrize("tag", ["cont", "bor"])
    def test_structural_route(self, tag):
        report = dg.counterexample_demo(tag)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "structural obstruction" in names
        assert "two-point target is non-constant" in names
        assert "recorded prose" in report.recorded_argument

    def test_identity_route_carrier_clash(self):
        report = dg.counterexample_demo("id")
        assert report.passed
        clash = report.checks[0]
        assert clash.name == "output carriers clash"
        assert "(0,)" in clash.detail and "(1,)" in clash.detail

    def test_identity_route_checks_decoder_composition(self, monkeypatch):
        check = dg.counterexample_demo("id").checks[1]
        assert check.name == "identity decoders pin the space" and check.passed
        monkeypatch.setattr(dg, "decoder_compose_class", lambda a, b, same_space=True: a)
        assert not dg.counterexample_demo("id").checks[1].passed

    def test_deterministic(self):
        assert dg.counterexample_demo("cont") == dg.counterexample_demo("cont")
        assert dg.counterexample_demo("id") == dg.counterexample_demo("id")

    def test_one_point_problems_keep_their_names_and_carriers(self):
        no_queries, _ = dg.counterexample_pair()
        problems = (dg.singleton_problem(), no_queries, *dg.identity_class_pair())
        assert [(p.name, p.output_space.name, p.output_space.carrier, p.target(dg.POINT),
                 p.queries.name, p.queries.canonical_ids, p.queries.is_empty) for p in problems] == [
            ("singleton", "point", (0,), 0, "constant", (dg.CONST_QUERY,), False),
            ("no-queries", "point", (0,), 0, "empty", (), True),
            ("carrier-zero", "point[0]", (0,), 0, "constant", (dg.CONST_QUERY,), False),
            ("carrier-one", "point[1]", (1,), 1, "constant", (dg.CONST_QUERY,), False),
        ]
        assert all(p.inputs.members == (dg.POINT,) for p in problems)

    def test_two_point_member_separates(self):
        _, p1 = dg.counterexample_pair()
        assert p1.target("a") != p1.target("b")
        assert check_consistency(p1).passed


class TestRandomPairs:
    def test_join_and_meet_over_random_nondegenerate_pairs(self, spectral_source, rng):
        pool = [
            ig.make_problem(ig.interval(0, 1), (ig.polynomial(1), ig.polynomial(0, 1))),
            ig.make_problem(ig.interval(-1, 2), (ig.polynomial(0, 1), ig.polynomial(2))),
            ig.make_problem(ig.interval(0, 3), (ig.polynomial(0, 0, 1),)),
            spectral_source,
            dg.singleton_problem(),
        ]
        for _ in range(20):
            p0, p1 = rng.choice(pool), rng.choice(pool)
            joined = dg.upper_bound_join(p0, p1)
            assert verify_reduction(joined.left, 30, seed=1).passed
            assert verify_reduction(joined.right, 30, seed=1).passed
            met = dg.lower_bound_meet(p0, p1)
            assert verify_reduction(met.left, 30, seed=1).passed
            assert verify_reduction(met.right, 30, seed=1).passed
