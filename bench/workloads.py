"""The four benchmark workloads: input generators and checked ops.

Each workload draws its inputs from the seed as plain data (rationals,
tuples, strings); only ``run`` turns them into library objects and calls the
library.  The kind of each op follows a fixed rotation (one "block"), so runs
with different seeds do the same mix of work; the seed draws the inputs of
every op.  Every op checks its output against an exact reference and
reports the oracle queries it answered.

Calls into the library go through module attributes (``lib.core.run_algorithm``)
so that the traced run's timing wrappers see them.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from tracing import Counter, counted_plan, counted_tower

RECT_N = tuple(2**k for k in range(4, 13))
DECIDE_N1 = (4, 16, 64, 256, 1024, 4096)
PROBE_SCHEDULE = (16, 32, 64, 128, 256, 512)
PULLBACK_N = (16, 32, 64, 128, 256)
KOOPMAN_N = (4, 8, 16, 32)
KOOPMAN_EPS = (1.0, 0.5)
#: N and eps of the one op per block on the finest grid (1849 points): its
#: Hausdorff check compares two sets of about 1500 points, more than 1e6 pairs
KOOPMAN_FINE = (32, 0.25)
VERIFY_TOL = 1e-9  # declared tolerance for float (sine) data, as in the library


@dataclass
class OpResult:
    ok: bool
    queries: int


@dataclass(frozen=True)
class Spec:
    kind: str  # label used for per-kind statistics
    data: tuple
    valid: bool = True  # False: a malformed request whose expected outcome is a refusal


START_DENS = (1, 2, 3, 4, 5, 8)
WIDTH_DENS = (1, 2, 3, 4, 6)


def _rational(rng, lo: int, hi: int, dens=START_DENS) -> Fraction:
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _interval(rng, dens=START_DENS, width_dens=WIDTH_DENS) -> tuple[Fraction, Fraction]:
    a = _rational(rng, -4, 4, dens)
    return a, a + _rational(rng, 1, 6, width_dens)


def _distinct_intervals(rng, count: int) -> list[tuple[Fraction, Fraction]]:
    chosen: dict = {}
    while len(chosen) < count:
        chosen.setdefault(_interval(rng), None)
    return list(chosen)


FUNCTION_KINDS = ("poly", "bump", "sine", "affine")
EXACT_FUNCTION_KINDS = ("poly", "bump", "affine")
DIAGONAL_KINDS = ("const", "list", "harmonic", "enum")
ROUNDS = 4  # each block repeats its op sequence with the categories rotated


def _integrand(rng, kind: str, a: Fraction, b: Fraction) -> tuple:
    """Plain description: polynomial of degree 0-5, tent, sine, or an affine image."""
    if kind == "poly":
        return ("poly", tuple(_rational(rng, -2, 2) for _ in range(rng.randint(1, 6))))
    if kind == "bump":
        cuts = sorted(rng.sample(range(0, 9), 2))
        return ("bump", a + (b - a) * Fraction(cuts[0], 8), a + (b - a) * Fraction(cuts[1], 8))
    if kind == "sine":
        return ("sine", rng.choice((0.5, 1.0, 2.0)), rng.choice((1.0, 2.0, 3.0)))
    base = _integrand(rng, rng.choice(("poly", "bump")), Fraction(0), Fraction(1))
    alpha = _rational(rng, 1, 2)
    return ("affine", base, _rational(rng, -2, 2), alpha, _rational(rng, -1, 1))


def build_function(ig, data: tuple):
    kind = data[0]
    if kind == "poly":
        return ig.Polynomial(data[1])
    if kind == "bump":
        return ig.Bump(data[1], data[2])
    if kind == "sine":
        return ig.Sine(data[1], data[2])
    return ig.AffineImage(build_function(ig, data[1]), data[2], data[3], data[4])


def _within(value, exact, bound) -> bool:
    if all(isinstance(v, (int, Fraction)) for v in (value, exact, bound)):
        return abs(value - exact) <= bound
    return abs(float(value) - float(exact)) <= float(bound) + VERIFY_TOL


def _power_of_four_bucket(n: int) -> int:
    bucket = 4
    while bucket < n:
        bucket *= 4
    return bucket


def verification_queries(samples: int, queries_per_sample: int, width: int) -> int:
    """Queries answered by ``verify_reduction``: each sampled target query plus its source block."""
    return samples * queries_per_sample * (1 + width)


class Workload:
    """Shared plumbing: seeded op generators, the run helper and counters."""

    name = ""
    window = 0  # ops covered by the exact-count fingerprint; at most one block

    def __init__(self, lib, seed: int, tracer):
        self.lib = lib
        self.seed = seed
        self.tracer = tracer
        self.counters: dict[str, Counter] | None = None
        self.setup(random.Random(f"{self.name}/setup/{seed}"))

    def setup(self, rng) -> None:
        raise NotImplementedError

    def block(self) -> tuple:
        raise NotImplementedError

    def draw(self, rng, kind) -> Spec:
        raise NotImplementedError

    def run(self, spec: Spec) -> OpResult:
        """Run one op; by default the method named after the op kind."""
        return getattr(self, "_" + spec.kind)(*spec.data)

    def specs(self):
        """Endless op stream: the fixed block rotation, inputs drawn from the seed."""
        rng = random.Random(f"{self.name}/ops/{self.seed}")
        while True:
            for kind in self.block():
                yield self.draw(rng, kind)

    def count(self, on: bool) -> None:
        """Switch the counting wrappers (traced run only) on or off."""
        self.counters = {k: Counter() for k in ("protocol", "inner", "rules")} if on else None

    def run_stage(self, span: str, alg, problem, input):
        """Run one algorithm; in the traced run also count its protocol steps."""
        core = self.lib.core
        if self.counters is not None:
            alg = dataclasses.replace(alg, protocol=self.counters["protocol"].wrap(alg.protocol))
        value, trace = self.tracer.call(span, core.run_algorithm, alg, problem, input)
        if self.counters is not None:
            self.tracer.add("core.counted_queries", len(trace))
        return value, trace

    def verify(self, reduction, samples: int, seed: int):
        reductions = self.lib.reductions
        report = reductions.verify_reduction(reduction, samples, seed=seed)
        probe = reduction.target.queries.canonical_ids[0]
        width = reduction.plan.entry(probe).width
        return report, verification_queries(report.samples, report.queries_per_sample, width)


class Towers(Workload):
    """Native tower stages on exact rationals: rectangle and decision towers, probes."""

    name = "towers"
    window = 48
    POOL = 96  # 96 intervals x 9 stage sizes = 864 keys, more than the 512-entry grid cache

    def setup(self, rng):
        lib = self.lib
        ig, sp = lib.integration, lib.spectral
        catalog = lib.catalog.load_catalog()
        self.source = catalog.first("spectral_source").problem
        self.pairs = self.source.inputs.members
        self.decision = sp.decision_tower(self.source.params["domain"])
        self.stab = [sp.stabilization_stages(spec, window) for spec, window in self.pairs]
        self.gap = [spec.spectrum_distance(window.z) > 0 for spec, window in self.pairs]
        self.pairs_of = {
            kind: [i for i, (spec, _) in enumerate(self.pairs) if spec.label().startswith(kind + ":")]
            for kind in DIAGONAL_KINDS
        }
        # the denominators set the cost of the exact arithmetic, so every seed
        # gets the same mix of them, in turn; the seed draws the numerators
        pool: dict = {}
        while len(pool) < self.POOL:
            k = len(pool)
            dens = (START_DENS[k % len(START_DENS)],), (WIDTH_DENS[k % len(WIDTH_DENS)],)
            pool.setdefault(_interval(rng, *dens), None)
        self.intervals = [ig.Interval(a, b) for a, b in pool]
        self.problems = [ig.make_problem(iv) for iv in self.intervals]
        self.towers = [ig.rectangle_tower(iv) for iv in self.intervals]

    def block(self):
        kinds = []
        for r in range(ROUNDS):
            for i, n in enumerate(RECT_N):
                kinds.append(("rectangle", n, FUNCTION_KINDS[(i + r) % 4]))
                if i < len(DECIDE_N1):
                    kinds.append(("decision", DECIDE_N1[i], DIAGONAL_KINDS[(i + r) % 4]))
            kinds.append(("probe", PROBE_SCHEDULE, FUNCTION_KINDS[r]))
        return tuple(kinds)

    def draw(self, rng, kind):
        op, size, category = kind
        if op == "decision":
            return Spec(op, (rng.choice(self.pairs_of[category]), rng.randrange(7), size))
        k = rng.randrange(self.POOL)
        iv = self.intervals[k]
        return Spec(op, (k, _integrand(rng, category, iv.a, iv.b), size))

    def _rectangle(self, k, integrand, n):
        lib, T = self.lib, self.tracer
        ig = lib.integration
        iv, problem = self.intervals[k], self.problems[k]
        f = build_function(ig, integrand)
        alg = T.call("integration.stage_build", self.towers[k].stage, (n,))
        value, trace = self.run_stage("towers.rectangle_stage", alg, problem, f)
        T.add(f"integration.us_per_query.n{n}", T.last * 1e6, len(trace))
        with T.span("integration.reference"):
            exact = f.integral(iv.a, iv.b)
            bound = ig.quadrature_error_bound(f, iv, n)
        return OpResult(len(trace) == n and _within(value, exact, bound), len(trace))

    def _decision(self, i, offset, n1):
        lib, T = self.lib, self.tracer
        pair = self.pairs[i]
        n2, least_n1 = self.stab[i]
        if self.gap[i]:
            n2 += offset  # past stabilization only the outer index may grow freely
        else:
            n1 = max(n1, least_n1)
        alg = T.call("spectral.stage_build", self.decision.stage, (n2, n1))
        value, trace = self.run_stage("towers.decision_stage", alg, self.source, pair)
        T.add(f"spectral.us_per_query.n{_power_of_four_bucket(n1)}", T.last * 1e6, len(trace))
        oracle = T.call("spectral.oracle", lib.spectral.exact_decision_oracle, *pair)
        return OpResult(value == oracle and len(trace) == n1 + 1, len(trace))

    def _probe(self, k, integrand, schedule):
        lib, T = self.lib, self.tracer
        ig = lib.integration
        iv = self.intervals[k]
        f = build_function(ig, integrand)
        report = lib.core.probe_convergence(
            self.towers[k], self.problems[k], f, schedule, tol=Fraction(1)
        )
        exact = T.call("integration.reference", f.integral, iv.a, iv.b)
        ok = report.stages == schedule and all(
            _within(value, exact, ig.quadrature_error_bound(f, iv, n))
            for n, value in zip(schedule, report.values)
        )
        return OpResult(ok, sum(schedule))


class Transport(Workload):
    """Certificate jobs: verified reductions, pulled-back towers and family verdicts."""

    name = "transport"
    window = 16
    SAMPLES = (8, 12, 16)

    def setup(self, rng):
        lib = self.lib
        ig, sp = lib.integration, lib.spectral
        catalog = lib.catalog.load_catalog()
        self.source = catalog.first("spectral_source").problem
        self.domain = self.source.params["domain"]
        self.pairs = self.source.inputs.members
        self.decision = sp.decision_tower(self.domain)
        self.unit = ig.make_problem(ig.interval(0, 1))
        self.unit_tower = ig.rectangle_tower(ig.interval(0, 1))

    SEQUENCE = (
        ("integration", 16), ("spectral", 16), ("compose", 3),
        ("integration", 32), ("join", 0), ("integration", 64),
        ("spectral", 64), ("meet", 0), ("integration", 128),
        ("compose", 4), ("integration", 256), ("spectral", 256),
    )  # fmt: skip

    def block(self):
        # the category index c rotates member counts, verdicts, integrand and stabilizer kinds
        return tuple(
            (op, size, (j + r) % ROUNDS)
            for r in range(ROUNDS)
            for j, (op, size) in enumerate(self.SEQUENCE)
        )

    def draw(self, rng, kind):
        op, size, c = kind
        samples, vseed = self.SAMPLES[c % 3], rng.randrange(2**31)
        if op == "integration":
            members = _distinct_intervals(rng, 2 + c % 3)
            verdict = ("package", "saturate")[c % 2]
            integrand = _integrand(rng, EXACT_FUNCTION_KINDS[c % 3], Fraction(0), Fraction(1))
            data = (members, verdict, integrand)
        elif op == "spectral":
            stabilizer = self._stabilizer(rng, DIAGONAL_KINDS[c])
            data = (stabilizer, rng.randrange(len(self.pairs)), rng.randint(1, 8))
        elif op == "compose":
            data = (_distinct_intervals(rng, size),)
        else:
            a, b = _interval(rng)
            coeffs = [tuple(_rational(rng, -2, 2) for _ in range(rng.randint(1, 4))) for _ in range(3)]
            data = ((a, b), tuple(coeffs))
        return Spec(op, (size, samples, vseed) + data)

    @staticmethod
    def _stabilizer(rng, kind: str) -> tuple:
        """A diagonal whose spectrum keeps a certified distance from the domain [0, 1]."""
        if kind == "const":
            return ("const", rng.choice((-3, -2, -1, 2, 3, 5, 7)))
        if kind == "list":
            return ("list", tuple(_rational(rng, 2, 4) for _ in range(2)), _rational(rng, 2, 4))
        if kind == "harmonic":
            return ("harmonic", rng.choice((2, 3)), rng.choice((Fraction(1, 2), 1)))
        lo = rng.choice((2, 3))
        return ("enum", lo, lo + 1)

    def _diagonal(self, data):
        sp = self.lib.spectral
        kind = data[0]
        if kind == "const":
            return sp.constant_diagonal(data[1])
        if kind == "list":
            return sp.FiniteThenConstant(data[1], data[2])
        if kind == "harmonic":
            return sp.HarmonicSequence(Fraction(data[1]), Fraction(data[2]))
        return sp.RationalEnumeration(Fraction(data[1]), Fraction(data[2]))

    def _pullback(self, reduction, tower, stage, problem, encoded, native_tower, native_problem, input):
        """Pulled-back stage against the native stage; returns (equal, queries)."""
        lib, T = self.lib, self.tracer
        if self.counters is not None:
            tower = counted_tower(lib.core, tower, self.counters["inner"])
            reduction = counted_plan(lib.reductions, reduction, self.counters["rules"])
        pulled = lib.reductions.pullback_tower(reduction, tower)
        got, trace = self.run_stage("reductions.pullback", pulled.stage(stage), problem, encoded)
        size = stage[-1]
        T.add(f"reductions.pullback.ms.n{size}", T.last * 1e3)
        T.add("reductions.pullback.source_queries", len(trace))
        want, native = self.run_stage("reductions.native_stage", native_tower.stage(stage),
                                      native_problem, input)
        return got == want and len(trace) == len(native), len(trace) + len(native)

    def _integration(self, n, samples, vseed, members, verdict, integrand):
        lib, T = self.lib, self.tracer
        ig, ct = lib.integration, lib.certificates
        unit, ok, queries = self.unit, True, 0
        verified, upper, towers = {}, {}, []
        for a, b in members:
            iv = ig.Interval(a, b)
            member = ig.make_problem(iv)
            reduction = ig.affine_reduction(member, unit)
            report, asked = self.verify(reduction, samples, vseed)
            ok &= report.passed
            queries += asked
            verified[member.name] = (reduction, report)
            towers.append((reduction, ig.rectangle_tower(iv)))
            upper[member.name] = ct.tower_upper_bound(member.name, towers[-1][1])
        f = build_function(ig, integrand)
        reduction, tower = towers[0]
        equal, asked = self._pullback(reduction, tower, (n,), unit, f, self.unit_tower, unit, f)
        ok &= equal
        cert = ct.recorded_certificate("integration/unit-interval", unit.name)
        with T.span("certificates.verdict"):
            if verdict == "package":
                _, result = ct.sufficiency_package(cert, verified, upper)
            else:
                assignment = dict.fromkeys(upper, unit.name)
                _, result = ct.transport_saturation({unit.name: cert}, assignment, verified, upper)
        return OpResult(ok and result.flags() == (True, True, True), queries + asked)

    def _spectral(self, n1, samples, vseed, stabilizer_data, pair_index, n2):
        lib, T = self.lib, self.tracer
        sp, ct = lib.spectral, lib.certificates
        stabilizer = sp.StabilizerSpec.certify(self._diagonal(stabilizer_data), self.domain)
        forward, backward = sp.stabilization_reductions(
            self.domain, stabilizer, self.pairs, source=self.source
        )
        forward_report, asked_f = self.verify(forward, samples, vseed)
        backward_report, asked_b = self.verify(backward, samples, vseed)
        member = forward.target
        pair = self.pairs[pair_index]
        equal, asked = self._pullback(
            backward, self.decision, (n2, n1), member, forward.encoder(pair),
            self.decision, self.source, pair,
        )
        cert = ct.recorded_certificate("spectral/singleton-window-source", self.source.name)
        witness = ct.tower_upper_bound(member.name, lib.reductions.pullback_tower(backward, self.decision))
        with T.span("certificates.verdict"):
            _, result = ct.sufficiency_package(
                cert, {member.name: (forward, forward_report)}, {member.name: witness}
            )
        ok = forward_report.passed and backward_report.passed and equal
        return OpResult(ok and result.flags() == (True, True, True), asked_f + asked_b + asked)

    def _compose(self, _length, samples, vseed, chain):
        ig, rd = self.lib.integration, self.lib.reductions
        problems = [ig.make_problem(ig.Interval(a, b)) for a, b in chain]
        composed = ig.affine_reduction(problems[1], problems[0])
        for previous, nxt in zip(problems[1:], problems[2:]):
            first, second = composed, ig.affine_reduction(nxt, previous)
            composed = rd.compose(first, second)
        report, asked = self.verify(composed, samples, vseed)
        probe = composed.target.queries.canonical_ids[1]
        width = composed.plan.entry(probe).width
        expected = sum(first.plan.entry(mid).width for mid in second.plan.entry(probe).source_ids)
        return OpResult(report.passed and width == expected, asked)

    def _operands(self, interval, coeffs):
        ig = self.lib.integration
        functions = tuple(ig.Polynomial(c) for c in coeffs)
        return ig.make_problem(ig.Interval(*interval), functions), self.source

    def _join(self, _size, samples, vseed, interval, coeffs):
        T = self.tracer
        p0, p1 = self._operands(interval, coeffs)
        joined = T.call("degrees.construct", self.lib.degrees.upper_bound_join, p0, p1)
        left, asked_l = self.verify(joined.left, samples, vseed)
        right, asked_r = self.verify(joined.right, samples, vseed)
        cross = joined.problem.output_space.distance((0, Fraction(0)), (1, 0))
        return OpResult(left.passed and right.passed and cross == 2, asked_l + asked_r)

    def _meet(self, _size, samples, vseed, interval, coeffs):
        T = self.tracer
        p0, p1 = self._operands(interval, coeffs)
        met = T.call("degrees.construct", self.lib.degrees.lower_bound_meet, p0, p1)
        left, asked_l = self.verify(met.left, samples, vseed)
        right, asked_r = self.verify(met.right, samples, vseed)
        return OpResult(left.passed and right.passed, asked_l + asked_r)


def eps_grid(eps: float) -> tuple[float, ...]:
    """Square covering the closed unit disk (which holds every spectrum) plus an eps margin."""
    spacing = eps / 4
    reach = 1 + eps + spacing
    return (-reach, reach, -reach, reach, spacing)


def grid_points(grid) -> int:
    lo, hi, _, _, spacing = grid
    side = int((hi - lo) / spacing + 1e-9) + 1
    return side * side


def _map_table(rng, n: int, permutation: bool) -> tuple[int, ...]:
    if permutation:
        image = list(range(1, n + 1))
        rng.shuffle(image)
        return tuple(image)
    return tuple(rng.randint(1, n) for _ in range(n))


def _weights(rng, n: int) -> tuple[Fraction, ...]:
    if rng.random() < 0.5:
        return (Fraction(1),) * n
    return tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(n))


class Koopman(Workload):
    """Spectral targets on finite spaces: structural AP and grid-SVD ap_eps."""

    name = "koopman"
    window = 8

    def setup(self, rng):
        self.lib.catalog.load_catalog()

    def block(self):
        # three structural ops per grid op: the median op is a structural one,
        # while the grid ops carry most of the time and set the tail.  Maps
        # with tails cost more than permutations, so which kind of map an op
        # takes is fixed by its place in the block, never drawn.  The one
        # fine-grid op takes a map with tails, whose pseudospectrum is widest;
        # with one per four rounds, a run holds about five, and even on a
        # machine twice as fast no more than the ten samples the tail keeps
        # beyond it, so the tail stays on the N = 32 grid ops rather than at
        # the edge between the two
        kinds = []
        for r in range(ROUNDS):
            for e, eps in enumerate(KOOPMAN_EPS):
                for i, n in enumerate(KOOPMAN_N):
                    kinds += [("ap", n, None, True), ("ap", n, None, False),
                              ("ap", n, None, (i + r) % 2 == 0),
                              ("ap_eps", n, eps, (i + e + r) % 2 == 0)]
        return tuple(kinds) + (("ap_eps", *KOOPMAN_FINE, False),)

    def draw(self, rng, kind):
        op, n, eps, permutation = kind
        return Spec(op, (n, _map_table(rng, n, permutation), _weights(rng, n), eps))

    def run(self, spec):
        lib, T = self.lib, self.tracer
        kp = lib.koopman
        n, image, weights, eps = spec.data
        space, table = kp.FiniteSpace(weights), kp.MapTable(image)
        if eps is None:
            target = kp.AP
        else:
            grid = eps_grid(eps)
            target = kp.ap_eps(eps, kp.GridSpec(*grid))
        problem = kp.make_problem(space, (table,), target)
        collapse = kp.height0_algorithm(space, target)
        output, trace = self.run_stage("koopman.collapse", collapse.stage(()), problem, table)
        direct = T.call("koopman.target", problem.target, table)
        if eps is not None:
            T.add(f"koopman.ap_eps.us_per_grid_point.N{n}", T.last * 1e6, grid_points(grid))
            T.add(f"koopman.ap_eps.ms.grid{grid_points(grid)}", T.last * 1e3)
        ok = len(trace) == n and kp.hausdorff(output, direct) == 0.0
        if eps is None:
            matrix = kp.koopman_matrix(space, table)
            numeric = T.call("koopman.eigen_oracle", kp.eigenvalue_oracle, matrix)
            ok = ok and kp.hausdorff(output, numeric) <= 1e-10
        return OpResult(ok, len(trace))


class Cli(Workload):
    """In-process ``cli.main(["--json", ...])`` over all 16 subcommands, plus malformed requests."""

    name = "cli"
    window = 34
    SEED_ENV = "SCI_WORKBENCH_SEED"
    SAMPLES = (10, 20)
    MALFORMED = ("bad-interval", "bad-diagonal", "bad-map", "verify-missing-target")

    def setup(self, rng):
        lib = self.lib
        catalog = lib.catalog.load_catalog()
        lib.cli.build_parser()
        source = catalog.first("spectral_source").problem
        self.pairs = [(spec.label(), str(window.z)) for spec, window in source.inputs.members]
        with open(catalog.path) as handle:
            document = json.load(handle)
        raw = next(e for e in document["entries"] if e["problem"] == "spectral_source")
        self.raw_pairs = raw["params"]["pairs"]

    COMMANDS = (
        "integrate-tower", "integrate-adversary", "integrate-reduce",
        "spectral-decide", "spectral-stabilize", "spectral-reduce",
        "koopman-finite", "family-classify", "certify-package", "certify-saturate",
        "degrees-join", "degrees-meet", "degrees-counterexample",
        "reduce-verify", "reduce-compose", "reduce-pullback",
    )  # fmt: skip

    def block(self):
        # each round: the sixteen subcommands, then one malformed request; the
        # round also picks the variant of the commands whose cost depends on it
        return tuple(
            kind
            for r, bad in enumerate(self.MALFORMED)
            for kind in tuple((command, r) for command in self.COMMANDS) + (("malformed", bad),)
        )

    def draw(self, rng, kind):
        env_seed = rng.randrange(1000)
        command, detail = kind
        if command == "malformed":
            return Spec("cli.malformed", (detail, self._malformed_argv(rng, detail), env_seed), False)
        argv = getattr(self, "_argv_" + command.replace("-", "_"))(rng, detail)
        return Spec(f"cli.{command}", (command, argv, env_seed))

    # -- argument generators: (rng, round) -> argv ----------------------------

    @staticmethod
    def _interval_args(rng) -> list[str]:
        # argparse reads a negative fraction such as -3/2 as an option flag, so
        # intervals passed through ``--interval`` start at 0 or above
        a = _rational(rng, 0, 4)
        return [str(a), str(a + _rational(rng, 1, 6, (1, 2, 3, 4, 6)))]

    @staticmethod
    def _function_arg(rng, kind: str, a: Fraction, b: Fraction) -> str:
        if kind == "poly":
            return "poly:" + ",".join(str(_rational(rng, -2, 2)) for _ in range(rng.randint(1, 4)))
        if kind == "bump":
            cuts = sorted(rng.sample(range(0, 9), 2))
            u, v = (a + (b - a) * Fraction(c, 8) for c in cuts)
            return f"bump:{u},{v}"
        return f"sine:{rng.choice((0.5, 1.0))},{rng.choice((1.0, 2.0))}"

    def _samples(self, r) -> list[str]:
        return ["--samples", str(self.SAMPLES[r % 2])]

    def _stabilizer_arg(self, rng) -> str:
        return f"const:{rng.choice((-3, -1, 2, 5, 9))}"

    def _argv_integrate_tower(self, rng, r):
        a, b = self._interval_args(rng)
        f = self._function_arg(rng, ("poly", "bump", "sine", "poly")[r], Fraction(a), Fraction(b))
        n = (16, 64, 256, 1024)[r]
        return ["integrate", "tower", "--interval", a, b, "--function", f, "--n", str(n)]

    def _argv_integrate_adversary(self, rng, r):
        points = {Fraction(rng.randint(0, 16), 16) for _ in range(rng.randint(1, 6))}
        return ["integrate", "adversary", "--points", ",".join(str(p) for p in sorted(points))]

    def _argv_integrate_reduce(self, rng, r):
        return ["integrate", "reduce", "--interval", *self._interval_args(rng), *self._samples(r)]

    def _argv_spectral_decide(self, rng, r):
        label, z = rng.choice(self.pairs)
        return ["spectral", "decide", "--diagonal", label, "--z", z]

    def _argv_spectral_stabilize(self, rng, r):
        label, z = rng.choice(self.pairs)
        return ["spectral", "stabilize", "--diagonal", label, "--z", z,
                "--stabilizer", self._stabilizer_arg(rng)]

    def _argv_spectral_reduce(self, rng, r):
        return ["spectral", "reduce", "--stabilizer", self._stabilizer_arg(rng), *self._samples(r)]

    def _argv_koopman_finite(self, rng, r):
        n = rng.randint(2, 6)
        image = _map_table(rng, n, r < 2)
        weights = _weights(rng, n)
        argv = ["koopman", "finite", "--map", ",".join(map(str, image)),
                "--weights", ",".join(str(w) for w in weights)]
        if r % 2 == 0:
            return argv + ["--target", "ap"]
        eps = KOOPMAN_EPS[r // 2]
        return argv + ["--target", "apeps", "--epsilon", str(eps), "--grid", *map(str, eps_grid(eps))]

    def _argv_family_classify(self, rng, r):
        heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        k = rng.randint(0, 3)
        return ["family", "classify", "--heights", ",".join(map(str, heights)), "--k", str(k)]

    def _argv_certify_package(self, rng, r):
        family = ("integration", "spectral")[r % 2]
        return ["certify", "package", "--family", family, *self._samples(r // 2)]

    def _argv_certify_saturate(self, rng, r):
        return ["certify", "saturate", *self._samples(r)]

    def _argv_degrees_join(self, rng, r):
        return ["degrees", "join", *self._samples(r)]

    def _argv_degrees_meet(self, rng, r):
        return ["degrees", "meet", *self._samples(r)]

    def _argv_degrees_counterexample(self, rng, r):
        return ["degrees", "counterexample", "--class", ("cont", "bor", "id", "cont")[r]]

    def _argv_reduce_verify(self, rng, r):
        rule = ("integration_affine", "spectral_forward", "spectral_backward", "integration_affine")[r]
        if rule == "integration_affine":
            params = {"target": self._interval_args(rng)}
        else:
            pairs = rng.sample(self.raw_pairs, rng.randint(2, 6))
            stabilizer = {"kind": "const", "value": str(rng.choice((-3, -1, 2, 5, 9)))}
            params = {"domain": ["0", "1"], "stabilizer": stabilizer, "pairs": pairs}
        spec = json.dumps({"rule": rule, "params": params})
        return ["reduce", "verify", "--spec", spec, *self._samples(r)]

    def _argv_reduce_compose(self, rng, r):
        chain: dict = {}
        while len(chain) < 3 + r % 2:
            chain.setdefault(tuple(self._interval_args(rng)), None)
        intervals = ";".join(f"{a},{b}" for a, b in chain)
        return ["reduce", "compose", "--intervals", intervals, *self._samples(r)]

    def _argv_reduce_pullback(self, rng, r):
        a, b = self._interval_args(rng)
        f = self._function_arg(rng, ("poly", "bump")[r % 2], Fraction(0), Fraction(1))
        n = (8, 16, 32, 64)[r]
        return ["reduce", "pullback", "--interval", a, b, "--n", str(n), "--function", f]

    def _malformed_argv(self, rng, which):
        if which == "bad-interval":  # a > b: the library refuses the interval
            a, b = self._interval_args(rng)
            return ["integrate", "tower", "--interval", b, a, "--function", "poly:1", "--n", "8"]
        if which == "bad-diagonal":
            return ["spectral", "decide", "--diagonal", f"bogus:{rng.randint(1, 9)}", "--z", "1/2"]
        if which == "bad-map":  # image value outside 1..N
            n = rng.randint(2, 5)
            return ["koopman", "finite", "--map", ",".join([str(n + 1)] + ["1"] * (n - 1))]
        # a named rule with its required parameter missing
        return ["reduce", "verify", "--spec", '{"rule":"integration_affine","params":{}}']

    # -- running --------------------------------------------------------------

    def run(self, spec):
        kind, argv, env_seed = spec.data
        os.environ[self.SEED_ENV] = str(env_seed)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.lib.cli.main(["--json", *argv])
        if not spec.valid:
            return OpResult(code == 2 and not out.getvalue() and "Traceback" not in err.getvalue(), 0)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue()[-300:]}")
        report = json.loads(out.getvalue())
        ok = (
            report["seed"] == env_seed
            and bool(report["checks"])
            and all(check["passed"] for check in report["checks"])
        )
        return OpResult(ok, self._queries(kind, report))

    @staticmethod
    def _queries(kind: str, report: dict) -> int:
        """Oracle queries a command answered, as far as its report shows them.

        Verification reports carry their sample counts; every shipped plan
        simulates a target query with one source query.  The certify and
        counterexample commands report no counts and contribute none.
        """
        result = report["result"]

        def verified(*keys):
            return sum(
                verification_queries(result[k]["samples"], result[k]["queries_per_sample"], 1)
                for k in keys
            )

        if kind == "integrate-tower":
            return result["stage"]
        if kind == "integrate-adversary":
            return 8  # two runs of the stage-4 rectangle protocol
        if kind in ("integrate-reduce", "reduce-verify", "reduce-compose"):
            return verified("report")
        if kind == "spectral-decide":
            return 1 + result["n1"]
        if kind == "spectral-reduce":
            return verified("forward_report", "backward_report")
        if kind == "koopman-finite":
            return result["queries"]
        if kind in ("degrees-join", "degrees-meet"):
            return verified("left", "right")
        if kind == "reduce-pullback":
            return 2 * result["stage"]
        return 0


WORKLOADS = {cls.name: cls for cls in (Towers, Transport, Koopman, Cli)}
