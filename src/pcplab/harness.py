"""Experiment orchestration: one trial loop, adversary registries and reports.

One ExperimentConfig describes a complete run — which verifier (ldt, lc,
zerotest, pcp), honest vs. adversarial instance, sampled vs. exhaustive
randomness — and run_experiment turns it into a RateEstimate plus a
machine-readable report.  ``build_experiment`` reduces every experiment to
one ``Experiment`` record: the counted oracles, how to draw one verifier
randomness, how to enumerate all of them, and the check of one randomness.
``execute`` runs any record, sampled or exhaustive, through the same loop.
Everything downstream of the master seed is deterministic: per-trial seeds
come from a keyed hash of (master seed, trial index), so execution order (or
a future parallel driver) cannot change the outcome, and two runs with the
same config produce byte-identical reports (modulo the elapsed_ms field,
which is excluded from the canonical encoding).

The reported rate is always the frequency of the *monitored failure event*:
a verifier Reject, except for the local-correction soundness experiment where
the event is a silent miscorrection (Accept with a value different from the
true P(alpha); Rejects there are the benign outcome the bound permits).

Randomness accounting: CountingRng charges ceil(log2 size) bits per draw, and
the loop asserts after every sampled trial that the bits actually drawn
equal the closed-form budget, computed once per run from the dimensions of
the instance the run built (randomness_budget gives the same number for a
bare config).

Query accounting: the loop asserts that every trial spent exactly the
queries its verifier promises, from one tally of the counted oracles per
trial (the tally after one trial is the tally before the next, since nothing
queries between trials).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

from . import pcp
from .field import Field
from .ldt import ldt_check, local_correct
from .oracles import CorruptionSpec, corrupt, honest_oracles, materialize
from .pcp import (
    Graph,
    PcpInstance,
    PcpProof,
    PcpRandomness,
    fewest_conflicts_coloring,
    pcp_prove,
)
from .poly import MultiPoly, random_poly
from .variety import Variety, make_variety, vanishes_on
from .zerotest import (
    ZeroProof,
    ZeroRandomness,
    enumerate_randomness,
    randomness_space_size,
    zero_certificate,
    zero_prove,
    zero_verify,
)

# Two-sided normal quantiles for 95% / 99% Wilson intervals.
Z95 = 1.959963984540054
Z99 = 2.5758293035489004

EXPERIMENTS = ("ldt", "lc", "zerotest", "pcp")
MODES = ("completeness", "soundness")
SAMPLINGS = ("sampled", "exhaustive")


class ConfigError(ValueError):
    """Invalid or infeasible experiment configuration."""


def wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # at the boundary outcomes the endpoints are exactly 0 / 1; don't let
    # floating-point residue of center - half leak through
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


class CountingRng:
    """random.Random facade that bills ceil(log2 size) bits per draw.

    ``randrange`` draws as CPython's ``Random.randrange`` does, by rejection
    on ``getrandbits(size.bit_length())`` (``_randbelow_with_getrandbits``),
    so the stream is the same as ``random.Random(seed)``'s.
    """

    __slots__ = ("_rng", "_getrandbits", "bits")

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits
        self.bits = 0

    def randrange(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            start, size = 0, start
        else:
            size = stop - start
        if size < 1:
            raise ValueError("empty randrange")
        self.bits += (size - 1).bit_length()
        getrandbits = self._getrandbits
        k = size.bit_length()
        r = getrandbits(k)
        while r >= size:
            r = getrandbits(k)
        return start + r


def _derive_seed(master: int, label: bytes) -> int:
    key = (master % 2 ** 64).to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(label, key=key, digest_size=8).digest(), "little")


def trial_seed(master: int, index: int) -> int:
    """Keyed per-trial seed; independent of execution order."""
    return _derive_seed(master, b"trial:" + index.to_bytes(8, "little"))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str                # ldt | lc | zerotest | pcp
    q: int
    degree: int = 0                # verifier degree tag (pcp: 0 = derive from variety)
    nvars: int = 0                 # ambient dimension for ldt/lc
    variety: str = ""              # VarietySpec grammar, for zerotest/pcp
    graph: str = ""                # "complete:<n>" or an edge-list file, for pcp
    mode: str = "completeness"
    sampling: str = "sampled"
    trials: int = 1000
    seed: int = 0
    adversary: str = ""
    delta: float = 0.0
    reps: int = 1
    budget: int = 10 ** 6          # cap on exhaustive spaces and table sizes


@dataclass(frozen=True)
class RateEstimate:
    trials: int
    rejects: int
    rate: float
    ci95: tuple[float, float]
    ci99: tuple[float, float]
    queries_per_trial: int
    randomness_bits_per_trial: int
    elapsed_ms: int

    @property
    def accepts(self) -> int:
        return self.trials - self.rejects


def _validate(cfg: ExperimentConfig) -> Callable | None:
    """Reject configs whose measurement means nothing; resolve the adversary.

    Returns the soundness adversary from the experiment's registry, or None
    in completeness mode.
    """
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.sampling not in SAMPLINGS:
        raise ConfigError(f"unknown sampling {cfg.sampling!r}")
    try:
        Field(cfg.q)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.reps < 1:
        raise ConfigError("reps must be >= 1")
    if not 0.0 <= cfg.delta <= 1.0:
        raise ConfigError("delta must lie in [0, 1]")
    if cfg.sampling == "exhaustive" and cfg.reps != 1:
        raise ConfigError("exhaustive mode enumerates each tuple once; reps must be 1")
    if cfg.experiment in ("ldt", "lc"):
        if cfg.nvars < 1:
            raise ConfigError(f"{cfg.experiment} experiments need nvars >= 1")
        if not 0 <= cfg.degree < cfg.q:
            raise ConfigError(f"{cfg.experiment} needs 0 <= degree < q = {cfg.q}, "
                              f"got degree {cfg.degree}")
        _require_enumerable(cfg, _lines_space_size(cfg.q, cfg.nvars))
    if cfg.experiment in ("zerotest", "pcp") and not cfg.variety:
        raise ConfigError(f"{cfg.experiment} experiments need a variety spec")
    if cfg.experiment == "pcp":
        if not cfg.graph:
            raise ConfigError("pcp experiments need a graph")
        if cfg.sampling == "exhaustive":
            raise ConfigError("the pcp randomness space is far too large to enumerate")
    registry = ADVERSARIES[cfg.experiment]
    if cfg.mode == "completeness":
        if cfg.adversary:
            raise ConfigError(f"completeness mode runs the honest proof; "
                              f"adversary {cfg.adversary!r} has no effect")
        if cfg.delta > 0.0:
            raise ConfigError(f"completeness mode corrupts nothing; "
                              f"delta {cfg.delta} has no effect")
        return None
    # an ldt or lc soundness run that names no adversary corrupts points
    name = cfg.adversary or ("corrupt-point" if cfg.experiment in ("ldt", "lc") else "")
    if not name:
        raise ConfigError("soundness mode needs an adversary name")
    if name not in registry:
        raise ConfigError(f"unknown {cfg.experiment} adversary {name!r}; "
                          f"choices: {sorted(registry)}")
    # delta is a corruption rate: only the corrupt-* adversaries read it
    if "corrupt" in name and cfg.delta == 0.0:
        raise ConfigError(f"adversary {name!r} needs delta > 0")
    if "corrupt" not in name and cfg.delta > 0.0:
        raise ConfigError(f"adversary {name!r} corrupts nothing; "
                          f"delta {cfg.delta} has no effect")
    return registry[name]


def _require_enumerable(cfg: ExperimentConfig, size: int) -> None:
    """Refuse an exhaustive run whose space exceeds the budget, before
    anything is built."""
    if cfg.sampling == "exhaustive" and size > cfg.budget:
        raise ConfigError(f"exhaustive space has {size} tuples, "
                          f"above the budget of {cfg.budget}")


# -- randomness budget -------------------------------------------------------

def _bits_per_element(q: int) -> int:
    return (q - 1).bit_length()          # ceil(log2 q)


def _bits_for_nonzero(q: int) -> int:
    return (q - 2).bit_length()          # ceil(log2 (q-1))


def _budget(cfg: ExperimentConfig, m: int = 0, k: int = 0, kp: int = 0) -> int:
    """Closed-form verifier bits per trial from the instance dimensions:
    m and k of the variety (zerotest, pcp) and k' of V×V (pcp)."""
    B = _bits_per_element(cfg.q)
    T = _bits_for_nonzero(cfg.q)
    if cfg.experiment == "ldt":
        per = 2 * cfg.nvars * B + T
    elif cfg.experiment == "lc":
        per = cfg.nvars * B + T          # alpha is an input, not a verifier coin
    elif cfg.experiment == "zerotest":
        per = (2 * (m + k) + m) * B + T
    else:
        per = (12 * m + 2 * k + 2 * kp) * B + T
    return cfg.reps * per


def randomness_budget(cfg: ExperimentConfig) -> int:
    """Exact verifier bits per trial (closed formula; reps multiply)."""
    _validate(cfg)
    if cfg.experiment == "zerotest":
        variety = _zerotest_variety(cfg)
        return _budget(cfg, variety.m, variety.complexity)
    if cfg.experiment == "pcp":
        inst, _ = _pcp_instance(cfg)
        return _budget(cfg, inst.m, inst.k, inst.kprime)
    return _budget(cfg)


# -- instance construction ---------------------------------------------------

def _instance_rng(cfg: ExperimentConfig) -> random.Random:
    return random.Random(_derive_seed(cfg.seed, b"instance"))


def _variety_for(cfg: ExperimentConfig):
    try:
        return make_variety(Field(cfg.q), cfg.variety)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad variety spec {cfg.variety!r}: {exc}") from exc


def load_graph(spec: str, points: int | None = None) -> Graph:
    """``complete:<n>`` for K_n, otherwise a path to an edge-list file.

    A graph with more vertices than ``points`` (the variety's point count)
    has no embedding; it is a ValueError, raised before K_n's C(n, 2) edges
    are built.
    """
    def check(n: int) -> None:
        if points is not None and n > points:
            raise ValueError(f"graph has {n} vertices but the variety only {points} points")

    if spec.startswith("complete:"):
        n = int(spec.split(":", 1)[1])
        check(n)
        return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
    graph = Graph.from_file(spec)
    check(graph.n)
    return graph


def _pcp_instance(cfg: ExperimentConfig) -> tuple[PcpInstance, list[int] | None]:
    """The instance and the graph's proper coloring, which completeness mode
    needs; soundness mode needs a graph with none, within the search cap, and
    gets None.  Only allowance 0 of the coloring search decides this."""
    variety = _variety_for(cfg)
    try:
        graph = load_graph(cfg.graph, len(variety.points))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad graph {cfg.graph!r}: {exc}") from exc
    try:
        colors = fewest_conflicts_coloring(graph, variety.field, proper_only=True)
    except ValueError as exc:        # no proper coloring, above the search cap
        if cfg.mode == "soundness":
            raise ConfigError(str(exc)) from exc
        colors = None
    if cfg.mode == "completeness" and colors is None:
        raise ConfigError("graph is not 3-colorable; completeness mode needs a proper coloring")
    if cfg.mode == "soundness" and colors is not None:
        raise ConfigError(
            "graph is 3-colorable, so the improper-coloring adversaries would "
            "build an honest proof; soundness mode needs a graph with no proper "
            "3-coloring")
    inst = PcpInstance(variety, graph)
    if cfg.degree not in (0, inst.d):
        raise ConfigError(
            f"degree {cfg.degree} contradicts the variety's extension degree {inst.d}"
        )
    return inst, colors


def _require_vanishing_room(variety: Variety, degree: int) -> None:
    """Below every generator's degree the only vanishing polynomial is 0,
    and a zero test at that degree would measure nothing."""
    if all(g.degree() > degree for g in variety.gens):
        raise ConfigError(
            f"every generator of the vanishing ideal has degree above {degree}, so the "
            f"only vanishing polynomial of that degree is 0; raise the degree")


def _zerotest_variety(cfg: ExperimentConfig) -> Variety:
    variety = _variety_for(cfg)
    _require_enumerable(cfg, randomness_space_size(variety))
    _require_vanishing_room(variety, cfg.degree)
    return variety


def random_vanishing_poly(variety: Variety, degree: int, rng: random.Random) -> MultiPoly:
    """Random element of the vanishing ideal with certified degree <= degree.

    Raises ConfigError when no generator has degree <= ``degree``.
    """
    field = variety.field
    m = variety.m
    _require_vanishing_room(variety, degree)
    acc = MultiPoly.zero(field, m, cap=degree)
    for g in variety.gens:
        room = degree - g.degree()
        if room < 0:
            continue
        acc = acc.add(random_poly(field, m, room, rng).mul(g))
    return acc


def _nonvanishing_poly(variety: Variety, degree: int, rng: random.Random) -> MultiPoly:
    field = variety.field
    while True:
        p = random_poly(field, variety.m, degree, rng)
        if not vanishes_on(p, variety):
            return p


# -- adversary registries ----------------------------------------------------
#
# ldt and lc adversaries receive the honest pair (f, flines), delta and the
# instance rng, and return the pair the verifier queries: keyed corruption of
# a delta-fraction of the point table, the lines table, or both (under keys
# derived from one draw).

def _corrupting(point: bool, lines: bool) -> Callable:
    def adversary(f, flines, delta, rng):
        key = rng.getrandbits(63)
        if point:
            f = corrupt(f, CorruptionSpec(delta=delta, key=key))
        if lines:
            flines = corrupt(flines, CorruptionSpec(delta=delta, key=key ^ 1))
        return f, flines
    return adversary


LDT_ADVERSARIES: dict[str, Callable] = {
    "corrupt-point": _corrupting(True, False),
    "corrupt-lines": _corrupting(False, True),
    "corrupt-both": _corrupting(True, True),
}

LC_ADVERSARIES: dict[str, Callable] = {"corrupt-point": LDT_ADVERSARIES["corrupt-point"]}


# Each zerotest adversary receives (variety, degree, delta, rng) and returns the
# certificate-side ZeroProof; the point function f stays honest for a fixed
# non-vanishing P, matching the regime the soundness statement quantifies
# over.  The docstrings say which verifier check the construction attacks.

def _zt_wrong_poly(variety, degree, delta, rng) -> ZeroProof:
    """Honest proof of a different, genuinely vanishing polynomial.

    Attacks nothing structurally — the certificate is self-consistent — so the
    verifier must catch the f[alpha] cross-check against M(alpha, phi(alpha)).
    """
    return zero_prove(random_vanishing_poly(variety, degree, rng), variety, degree)


def _zt_zero_cert(variety, degree, delta, rng) -> ZeroProof:
    """M identically zero: passes the low-degree and at-zero checks, fails
    the f[alpha] comparison wherever f is nonzero."""
    return zero_certificate(variety, degree)


def _zt_random_cert(variety, degree, delta, rng) -> ZeroProof:
    """Random low-degree M with matching lines: self-consistent, but fails
    the M(x, 0) = 0 check and the f[alpha] comparison almost everywhere."""
    field = variety.field
    m_poly = random_poly(field, variety.m + variety.complexity, degree, rng)
    point, lines = honest_oracles(m_poly, degree)
    return ZeroProof(point, lines)


def _zt_corrupt_cert(variety, degree, delta, rng) -> ZeroProof:
    """Honest certificate of a different vanishing polynomial with the point
    table corrupted on a delta-fraction: attacks the low-degree test's
    tolerance as well as the value checks."""
    base = zero_prove(random_vanishing_poly(variety, degree, rng), variety, degree)
    spec = CorruptionSpec(delta=delta, key=rng.getrandbits(63))
    return ZeroProof(corrupt(base.point, spec), base.lines)


def _zt_inconsistent_lines(variety, degree, delta, rng) -> ZeroProof:
    """Point and lines tables honest for two different certificates: attacks
    the point-vs-line consistency checks directly."""
    p1 = random_vanishing_poly(variety, degree, rng)
    while True:
        # certificates are canonical and M(x, φ(x)) = P, so they differ
        # exactly when the polynomials do
        p2 = random_vanishing_poly(variety, degree, rng)
        if p2 != p1:
            return ZeroProof(zero_prove(p1, variety, degree).point,
                             zero_prove(p2, variety, degree).lines)


ZEROTEST_ADVERSARIES: dict[str, Callable] = {
    "wrong-poly": _zt_wrong_poly,
    "zero-cert": _zt_zero_cert,
    "random-cert": _zt_random_cert,
    "corrupt-cert": _zt_corrupt_cert,
    "inconsistent-lines": _zt_inconsistent_lines,
}


# Each PCP adversary receives (proof, inst, delta, rng) and returns the proof
# the verifier queries.  ``proof`` is the improper pipeline: pcp_prove on the
# graph's fewest-conflicts coloring, which in soundness mode is improper, so
# its conflict certificate is the all-zero one and the conflict zero test
# carries the rejection.

def _pcp_improper(proof, inst, delta, rng) -> PcpProof:
    """The improper pipeline itself."""
    return proof


def _pcp_corrupt_color(proof, inst, delta, rng) -> PcpProof:
    """Improper pipeline plus a delta-corrupted coloring table: attacks the
    color low-degree test and the validity identity simultaneously."""
    spec = CorruptionSpec(delta=delta, key=rng.getrandbits(63))
    return replace(proof, color=corrupt(proof.color, spec))


def _pcp_zero_certs(proof, inst, delta, rng) -> PcpProof:
    """Improper pipeline with both certificates zeroed: the validity zero
    test must now reject whenever the validity polynomial is nonzero."""
    return replace(
        proof,
        validity_cert=zero_certificate(inst.variety, 3 * inst.d),
        conflict_cert=zero_certificate(inst.variety2, 6 * inst.d),
    )


PCP_ADVERSARIES: dict[str, Callable] = {
    "improper-pipeline": _pcp_improper,
    "corrupt-color": _pcp_corrupt_color,
    "zero-certs": _pcp_zero_certs,
}

ADVERSARIES: dict[str, dict[str, Callable]] = {
    "ldt": LDT_ADVERSARIES,
    "lc": LC_ADVERSARIES,
    "zerotest": ZEROTEST_ADVERSARIES,
    "pcp": PCP_ADVERSARIES,
}


# -- experiments -------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    """A built experiment: what one trial draws, queries and decides.

    ``check(r)`` is True on the monitored failure event for one verifier
    randomness ``r``; ``sample(rng)`` draws one ``r``; ``space()`` enumerates
    every ``r`` (``space_size`` of them) for exhaustive runs.  ``bits`` is the
    closed-form verifier bits per trial, reps included.
    """

    cfg: ExperimentConfig
    started: float                      # perf_counter() when the build began
    counted: tuple                      # the oracles a trial queries
    sample: Callable
    check: Callable
    queries_per_rep: int
    bits: int
    space: Callable[[], Iterable] | None = None
    space_size: int = 0
    proof: PcpProof | None = None


def _lines_space_size(q: int, m: int) -> int:
    """Number of (a | alpha, b, t) tuples of the ldt and lc verifiers."""
    return q ** (2 * m) * (q - 1)


def _lines_space(q: int, m: int):
    """Every (a | alpha, b, t) of the ldt and lc verifiers, in lexicographic order."""
    pts = list(itertools.product(range(q), repeat=m))
    for a in pts:
        for b in pts:
            for t in range(1, q):
                yield a, b, t


def _ldt_lc(cfg: ExperimentConfig, adversary, started: float) -> Experiment:
    """The line test and the local corrector share one randomness shape:
    a point a (ldt) or alpha (lc), a direction b and a nonzero t."""
    field = Field(cfg.q)
    q, m, degree = cfg.q, cfg.nvars, cfg.degree
    lc = cfg.experiment == "lc"
    soundness = cfg.mode == "soundness"
    rng0 = _instance_rng(cfg)
    p = random_poly(field, m, degree, rng0)
    f, flines = honest_oracles(p, degree)
    fixed_alpha = field.sample_point(rng0, m) if lc else None
    if adversary is not None:
        f, flines = adversary(f, flines, cfg.delta, rng0)
    elif cfg.sampling == "exhaustive":
        # table-backed copies; _validate keeps q^{2m} within the budget
        f, flines = materialize(f, cfg.budget), materialize(flines, cfg.budget)

    def sample(rng: CountingRng):
        # alpha is the location being corrected — an input, not a coin — so
        # it is fixed (soundness) or comes from the uncounted stream
        if not lc:
            first = field.sample_point(rng, m)
        else:
            first = fixed_alpha if soundness else field.sample_point(rng._rng, m)
        return first, field.sample_point(rng, m), field.sample(rng, nonzero=True)

    # the last alpha checked and P(alpha): soundness fixes alpha and an
    # exhaustive run enumerates it outermost, so each distinct alpha is
    # evaluated once there, with no table that grows with the trial count
    last = [None, 0]

    def check_lc(r) -> bool:
        alpha, b, t = r
        v = local_correct(degree, f, flines, alpha, b, t)
        if alpha != last[0]:
            last[0], last[1] = alpha, p.eval(alpha)
        wrong = v.value != last[1]
        if soundness:
            return v.accepted and wrong         # silent miscorrection
        return not v.accepted or wrong

    def check_ldt(r) -> bool:
        a, b, t = r
        return not ldt_check(degree, f, flines, a, b, t).accepted

    return Experiment(cfg, started, (f, flines), sample, check_lc if lc else check_ldt, 2,
                      _budget(cfg), lambda: _lines_space(q, m), _lines_space_size(q, m))


def _zerotest(cfg: ExperimentConfig, adversary, started: float) -> Experiment:
    variety = _zerotest_variety(cfg)
    degree = cfg.degree
    rng0 = _instance_rng(cfg)
    if adversary is None:
        p = random_vanishing_poly(variety, degree, rng0)
        proof = zero_prove(p, variety, degree)
    else:
        p = _nonvanishing_poly(variety, degree, rng0)
        proof = adversary(variety, degree, cfg.delta, rng0)
    f = honest_oracles(p, degree)[0]
    return Experiment(cfg, started, (f, proof.point, proof.lines),
                      lambda rng: ZeroRandomness.sample(variety, rng),
                      lambda r: not zero_verify(variety, degree, f, proof, r).accepted, 7,
                      _budget(cfg, variety.m, variety.complexity),
                      lambda: enumerate_randomness(variety), randomness_space_size(variety))


def _pcp(cfg: ExperimentConfig, adversary, started: float) -> Experiment:
    inst, colors = _pcp_instance(cfg)
    if colors is None:               # soundness: the fewest-conflicts coloring
        colors = fewest_conflicts_coloring(inst.graph, inst.field)
    # called through this module's binding, the one the benchmark's span
    # tracer wraps
    proof = pcp_prove(inst, colors)
    if adversary is not None:
        proof = adversary(proof, inst, cfg.delta, _instance_rng(cfg))
    verify = pcp.pcp_verify
    return Experiment(cfg, started, tuple(proof.oracles().values()),
                      lambda rng: PcpRandomness.sample(inst, rng),
                      lambda r: not verify(inst, proof, r).accepted, 24,
                      _budget(cfg, inst.m, inst.k, inst.kprime), proof=proof)


_BUILDERS = {"ldt": _ldt_lc, "lc": _ldt_lc, "zerotest": _zerotest, "pcp": _pcp}


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    """Validate cfg and build its instance, proof and trial functions."""
    started = time.perf_counter()
    adversary = _validate(cfg)
    return _BUILDERS[cfg.experiment](cfg, adversary, started)


def run_experiment(cfg: ExperimentConfig, out: str | Path | None = None
                   ) -> tuple[RateEstimate, dict]:
    """Execute cfg; optionally write the JSON report to ``out``."""
    return execute(build_experiment(cfg), out)


def _total_queries(counted) -> int:
    return sum(o.queries for o in counted)


def execute(exp: Experiment, out: str | Path | None = None
            ) -> tuple[RateEstimate, dict]:
    """Run every trial of a built experiment; optionally write the JSON
    report to ``out``.

    Sampled trials draw from a per-trial CountingRng and must draw exactly
    the closed-form bits; exhaustive runs enumerate the whole space once.
    Every trial must spend exactly the queries the verifier promises.
    """
    cfg = exp.cfg
    exhaustive = cfg.sampling == "exhaustive"
    if exhaustive:
        inputs, size = exp.space(), exp.space_size
    else:
        inputs, size = range(cfg.trials), cfg.trials
    sample, check, counted, reps = exp.sample, exp.check, exp.counted, cfg.reps
    expected_queries = exp.queries_per_rep * reps
    trials = rejects = 0
    tally = _total_queries(counted)
    for x in inputs:
        if exhaustive:
            bad = check(x)
        else:
            rng = CountingRng(trial_seed(cfg.seed, x))
            bad = False
            for _ in range(reps):
                if check(sample(rng)):
                    bad = True
            if rng.bits != exp.bits:
                raise AssertionError(
                    f"randomness accounting drift: drew {rng.bits} bits, "
                    f"formula says {exp.bits}")
        if bad:
            rejects += 1
        before, tally = tally, _total_queries(counted)
        if tally - before != expected_queries:
            raise AssertionError(
                f"query count drift: {tally - before} != {expected_queries}")
        trials += 1
    if trials != size:
        raise AssertionError("enumeration produced the wrong space size")
    elapsed_ms = int((time.perf_counter() - exp.started) * 1000)
    est = RateEstimate(
        trials=trials,
        rejects=rejects,
        rate=rejects / trials,
        ci95=wilson(rejects, trials, Z95),
        ci99=wilson(rejects, trials, Z99),
        queries_per_trial=expected_queries,
        randomness_bits_per_trial=exp.bits,
        elapsed_ms=elapsed_ms,
    )
    report = {
        "experiment": cfg.experiment,
        "config": asdict(cfg),
        "trials": est.trials,
        "accepts": est.accepts,
        "rejects": est.rejects,
        "rate": est.rate,
        "ci95": list(est.ci95),
        "ci99": list(est.ci99),
        "queries_per_trial": est.queries_per_trial,
        "randomness_bits_per_trial": est.randomness_bits_per_trial,
        "seed": cfg.seed,
        "elapsed_ms": est.elapsed_ms,
    }
    if out is not None:
        Path(out).write_bytes(report_bytes(report, include_elapsed=True))
    return est, report


# -- reports -----------------------------------------------------------------

def report_bytes(report: dict, include_elapsed: bool = False) -> bytes:
    """Canonical JSON encoding; elapsed_ms is excluded by default so equal
    runs compare byte-identical."""
    body = dict(report)
    if not include_elapsed:
        body.pop("elapsed_ms", None)
    return (json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n").encode()


def sweep_to_csv(reports: Iterable[dict], path: str | Path) -> None:
    """Flat results table for a batch of runs (e.g. an adversary sweep)."""
    fields = [
        "experiment", "mode", "adversary", "delta", "q", "variety", "graph",
        "degree", "trials", "accepts", "rejects", "rate",
        "ci99_lo", "ci99_hi", "queries_per_trial",
        "randomness_bits_per_trial", "seed",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rep in reports:
            cfg = rep["config"]
            writer.writerow({
                "experiment": rep["experiment"],
                "mode": cfg["mode"],
                "adversary": cfg["adversary"],
                "delta": cfg["delta"],
                "q": cfg["q"],
                "variety": cfg["variety"],
                "graph": cfg["graph"],
                "degree": cfg["degree"],
                "trials": rep["trials"],
                "accepts": rep["accepts"],
                "rejects": rep["rejects"],
                "rate": rep["rate"],
                "ci99_lo": rep["ci99"][0],
                "ci99_hi": rep["ci99"][1],
                "queries_per_trial": rep["queries_per_trial"],
                "randomness_bits_per_trial": rep["randomness_bits_per_trial"],
                "seed": rep["seed"],
            })


# -- presets -----------------------------------------------------------------
#
# Three desk-scale families, one per classical parameter regime the variety
# machinery supports: a small cube, a Hamming-ball (degree-1) set, and a
# power of a ball.  Trial counts and seeds are defaults chosen for sub-second
# runs; override via dataclasses.replace.

PRESETS: dict[str, ExperimentConfig] = {
    "polylog": ExperimentConfig(
        experiment="zerotest", q=5, variety="cube:H=0,1;m=2", degree=4,
        mode="completeness", sampling="sampled", trials=2000, seed=7,
    ),
    "hadamard-like": ExperimentConfig(
        experiment="zerotest", q=5, variety="ball1:n=3", degree=2,
        mode="completeness", sampling="sampled", trials=2000, seed=7,
    ),
    "n-eps": ExperimentConfig(
        experiment="zerotest", q=7, variety="pow:(ball1:n=2)^2", degree=4,
        mode="completeness", sampling="sampled", trials=1000, seed=7,
    ),
}
