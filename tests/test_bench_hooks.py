"""The library hooks the traced benchmark run reads.

``bench/worker.py`` empties and reads the two memo counters around its
traced phase, and ``bench/tracing.py`` rebuilds each resolved query as
``core.Query(id, evaluate)``.  A library change that drops one of them
would break ``bench/run.py --trace 1``, which no other tier-1 test runs.
"""

from fractions import Fraction

import pytest

from sci_workbench import core
from sci_workbench import integration as ig
from sci_workbench import spectral as sp


@pytest.mark.parametrize("memo", [ig._grid_ids, sp._rational_block], ids=["grid_ids", "rational_block"])
def test_memo_counters(memo):
    info = memo.cache_info()
    assert {"hits", "misses", "currsize"} <= set(info._fields)
    assert all(isinstance(getattr(info, field), int) for field in ("hits", "misses", "currsize"))
    assert callable(memo.cache_clear)


def test_grid_ids_counts_every_build_and_keeps_none():
    ig._grid_ids.cache_clear()
    tower = ig.rectangle_tower(ig.interval(0, 1))
    tower.stage((8,)), tower.stage((8,)), ig.grid_nodes(ig.interval(0, 1), 8)
    info = ig._grid_ids.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 0)


def test_resolve_returns_a_query_the_tracer_can_rebuild():
    problem = ig.make_problem(ig.interval(0, 1))
    qid = ("ev", Fraction(1, 2))
    query = problem.queries.resolve(qid)
    assert isinstance(query, core.Query) and query.id == qid
    rebuilt = core.Query(query.id, query.evaluate)
    assert (rebuilt.id, rebuilt.evaluate(ig.polynomial(0, 1))) == (qid, Fraction(1, 2))
