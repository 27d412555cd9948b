"""Verification draws through ``core._randbelow`` against the ``random`` calls they replace.

``_randbelow(rng, n)`` reproduces the ``getrandbits`` rejection loop with
which ``random.Random`` draws ``randrange`` and ``choice``.  The references
below are the sampler bodies as they were written on those calls; every
converted sampler must give the same keys and leave the same rng state, so
sampled reports stay equal to theirs.  ``random`` does not promise that
algorithm across versions, so this file runs on every interpreter the
project supports.
"""

import random

import pytest

from sci_workbench import degrees as dg
from sci_workbench import integration as ig
from sci_workbench import spectral as sp
from sci_workbench.core import InputCatalog, QueryFamily, _randbelow

SIZES = (1, 2, 3, 4, 7, 8, 9, 12, 17, 65, 1000, 2**20 + 3)
DRAWS = 2000
SEEDS = range(20)

# --- references: the sampler bodies on randrange and choice -----------------


def old_integration_sampler(rng):
    den = rng.choice((8, 16, 32, 64))
    return rng.randrange(den + 1) * (64 // den)


def old_window_sampler(sample_entry, rng):
    kind = rng.randrange(4)
    if kind == 0:
        return ("rho", rng.randrange(1, 13))
    return sample_entry(rng, kind)


def old_source_entry(rng, kind):
    if kind == 1:
        return ("mu", rng.randrange(1, 9), rng.randrange(1, 9))
    j = rng.randrange(1, 9)
    return ("mu", j, j)


def old_stabilized_entry(rng, kind):
    i, j = rng.randrange(1, 7), rng.randrange(1, 7)
    r, s = rng.choice(((1, 1), (2, 2), (1, 2), (2, 1)))
    if kind == 1:
        return ("nu", i, r, i, s)
    return ("nu", i, r, j, s)


def old_join_sampler(inner, rng):
    if rng.randrange(8) == 0:
        return dg.TAG_QUERY
    i = rng.randrange(2)
    return i, inner[i](rng)


def old_canonical_draw(family):
    return lambda rng: rng.choice(family.canonical_ids)


# --- the helper ---------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_helper_draws_as_randrange_and_choice(n):
    pool = list(range(n))
    for seed in range(300):
        rng = random.Random(seed)
        got = [_randbelow(rng, n) for _ in range(8)]
        refs = [random.Random(seed) for _ in range(3)]
        assert got == [refs[0].randrange(n) for _ in range(8)]
        assert got == [refs[1].randrange(1, n + 1) - 1 for _ in range(8)]
        assert got == [refs[2].choice(pool) for _ in range(8)]
        after = rng.random()
        assert all(ref.random() == after for ref in refs)


@pytest.mark.parametrize("n", [0, -1])
def test_helper_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        _randbelow(random.Random(0), n)


# --- every converted sampler --------------------------------------------------


def same_stream(draws, reference):
    """``draws(rng)`` returns DRAWS keys; they and the rng state must equal the reference's."""
    for seed in SEEDS:
        rng, ref = random.Random(seed), random.Random(seed)
        got = draws(rng)
        want = [reference(ref) for _ in range(DRAWS)]
        assert got == want, seed
        assert rng.getstate() == ref.getstate(), seed


def keys_of(family):
    return lambda rng: family.sample_keys(rng, DRAWS)


def test_input_catalog_sample(spectral_source):
    members = spectral_source.inputs.members
    catalog = InputCatalog(members)
    same_stream(lambda rng: [catalog.sample(rng) for _ in range(DRAWS)], lambda rng: rng.choice(members))


def test_input_catalog_sampler_hook_is_called_unchanged():
    hook = lambda rng: ("hook", rng.randrange(10))  # noqa: E731
    catalog = InputCatalog((1, 2, 3), sampler=hook)
    same_stream(lambda rng: [catalog.sample(rng) for _ in range(DRAWS)], hook)


def test_canonical_draw():
    family = QueryFamily("five", lambda qid: None, canonical_ids=(("a",), ("b",), ("c",), ("d",), ("e",)))
    same_stream(keys_of(family), old_canonical_draw(family))


def test_integration_sampler():
    same_stream(keys_of(ig.make_problem(ig.interval(-1, 2)).queries), old_integration_sampler)


def test_window_samplers(spectral_source):
    domain = spectral_source.params["domain"]
    pairs = spectral_source.inputs.members
    stabilizer = sp.StabilizerSpec.certify(sp.constant_diagonal(5), domain)
    same_stream(keys_of(sp.source_problem(domain, pairs).queries),
                lambda rng: old_window_sampler(old_source_entry, rng))
    same_stream(keys_of(sp.stabilized_problem(domain, stabilizer, pairs).queries),
                lambda rng: old_window_sampler(old_stabilized_entry, rng))


def test_padded_join_sampler(spectral_source):
    unit = ig.make_problem(ig.interval(0, 1))
    point = dg.singleton_problem()
    spectral = lambda rng: old_window_sampler(old_source_entry, rng)  # noqa: E731
    for (p0, draw0), (p1, draw1) in [
        ((unit, old_integration_sampler), (spectral_source, spectral)),
        ((point, old_canonical_draw(point.queries)), (unit, old_integration_sampler)),
    ]:
        join = dg.upper_bound_join(p0, p1).problem
        same_stream(keys_of(join.queries), lambda rng: old_join_sampler((draw0, draw1), rng))
