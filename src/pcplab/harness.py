"""Experiment orchestration: Monte Carlo / exhaustive drivers and reports.

One ExperimentConfig describes a complete run — which verifier (ldt, lc,
zerotest, pcp), honest vs. adversarial instance, sampled vs. exhaustive
randomness — and run_experiment turns it into a RateEstimate plus a
machine-readable report.  Everything downstream of the master seed is
deterministic: per-trial seeds come from a keyed hash of (master seed, trial
index), so execution order (or a future parallel driver) cannot change the
outcome, and two runs with the same config produce byte-identical reports
(modulo the elapsed_ms field, which is excluded from the canonical encoding).

The reported rate is always the frequency of the *monitored failure event*:
a verifier Reject, except for the local-correction soundness experiment where
the event is a silent miscorrection (Accept with a value different from the
true P(alpha); Rejects there are the benign outcome the bound permits).

Randomness accounting: CountingRng charges ceil(log2 size) bits per draw, and
the drivers assert after every sampled trial that the bits actually drawn
equal the closed-form budget, computed once per run from the dimensions of
the instance the run built (randomness_budget gives the same number for a
bare config).
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

from .field import Field
from .ldt import ldt_check, local_correct
from .oracles import (
    CorruptionSpec,
    LinesOracle,
    OracleBudgetError,
    PointOracle,
    corrupt,
    honest_oracles,
    materialize,
)
from .pcp import (
    Graph,
    PcpInstance,
    PcpProof,
    PcpRandomness,
    best_effort_coloring,
    claim_polynomials,
    pcp_prove,
    proper_3_coloring,
)
from .poly import MultiPoly, random_poly
from .variety import (
    GrobnerSet,
    NoCertificateError,
    make_variety,
    product,
    vanishes_on,
)
from .zerotest import (
    ZeroProof,
    ZeroRandomness,
    randomness_space_size,
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
    """random.Random facade that bills ceil(log2 size) bits per draw."""

    __slots__ = ("_rng", "bits")

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.bits = 0

    def randrange(self, start: int, stop: int | None = None) -> int:
        size = start if stop is None else stop - start
        if size < 1:
            raise ValueError("empty randrange")
        self.bits += (size - 1).bit_length()
        return self._rng.randrange(start, stop) if stop is not None else self._rng.randrange(start)

    def getrandbits(self, k: int) -> int:
        self.bits += k
        return self._rng.getrandbits(k)


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


def _validate(cfg: ExperimentConfig) -> None:
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
        if cfg.degree < 0:
            raise ConfigError("degree must be >= 0")
    if cfg.experiment in ("zerotest", "pcp") and not cfg.variety:
        raise ConfigError(f"{cfg.experiment} experiments need a variety spec")
    if cfg.experiment == "pcp" and not cfg.graph:
        raise ConfigError("pcp experiments need a graph")
    if cfg.mode == "soundness" and cfg.experiment in ("zerotest", "pcp") and not cfg.adversary:
        raise ConfigError("soundness mode needs an adversary name")
    if "corrupt" in cfg.adversary and cfg.delta == 0.0:
        raise ConfigError(f"adversary {cfg.adversary!r} needs delta > 0")


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
        _, gset = _variety_for(cfg)
        return _budget(cfg, gset.variety.m, gset.complexity)
    if cfg.experiment == "pcp":
        inst = _pcp_instance(cfg)
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


def load_graph(spec: str) -> Graph:
    """``complete:<n>`` for K_n, otherwise a path to an edge-list file."""
    if spec.startswith("complete:"):
        n = int(spec.split(":", 1)[1])
        return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
    return Graph.from_file(spec)


def _pcp_instance(cfg: ExperimentConfig) -> PcpInstance:
    _, gset = _variety_for(cfg)
    try:
        graph = load_graph(cfg.graph)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad graph {cfg.graph!r}: {exc}") from exc
    inst = PcpInstance(gset, graph)
    if cfg.degree not in (0, inst.d):
        raise ConfigError(
            f"degree {cfg.degree} contradicts the variety's degree bound {inst.d}"
        )
    return inst


def random_vanishing_poly(gset: GrobnerSet, degree: int, rng: random.Random) -> MultiPoly:
    """Random element of the vanishing ideal with certified degree <= degree."""
    field = gset.variety.field
    m = gset.variety.m
    acc = MultiPoly.zero(field, m, cap=degree)
    for g in gset.gens:
        room = degree - g.degree()
        if room < 0:
            continue
        acc = acc.add(random_poly(field, m, room, rng).mul(g))
    return acc


def _nonvanishing_poly(gset: GrobnerSet, degree: int, rng: random.Random) -> MultiPoly:
    field = gset.variety.field
    while True:
        p = random_poly(field, gset.variety.m, degree, rng)
        if not vanishes_on(p, gset.variety):
            return p


def _zero_zero_proof(field: Field, s: int, degree: int) -> ZeroProof:
    point, lines = honest_oracles(MultiPoly.zero(field, s, cap=degree), degree)
    return ZeroProof(point, lines)


# -- adversary registries ----------------------------------------------------
#
# Each zerotest adversary receives (gset, degree, delta, rng) and returns the
# certificate-side ZeroProof; the point function f stays honest for a fixed
# non-vanishing P, matching the regime the soundness statement quantifies
# over.  The docstrings say which verifier check the construction attacks.

def _zt_wrong_poly(gset, degree, delta, rng) -> ZeroProof:
    """Honest proof of a different, genuinely vanishing polynomial.

    Attacks nothing structurally — the certificate is self-consistent — so the
    verifier must catch the f[alpha] cross-check against M(alpha, phi(alpha)).
    """
    return zero_prove(random_vanishing_poly(gset, degree, rng), gset, degree)


def _zt_zero_cert(gset, degree, delta, rng) -> ZeroProof:
    """M identically zero: passes the low-degree and at-zero checks, fails
    the f[alpha] comparison wherever f is nonzero."""
    field = gset.variety.field
    return _zero_zero_proof(field, gset.variety.m + gset.complexity, degree)


def _zt_random_cert(gset, degree, delta, rng) -> ZeroProof:
    """Random low-degree M with matching lines: self-consistent, but fails
    the M(x, 0) = 0 check and the f[alpha] comparison almost everywhere."""
    field = gset.variety.field
    m_poly = random_poly(field, gset.variety.m + gset.complexity, degree, rng)
    point, lines = honest_oracles(m_poly, degree)
    return ZeroProof(point, lines)


def _zt_corrupt_cert(gset, degree, delta, rng) -> ZeroProof:
    """Honest certificate of a different vanishing polynomial with the point
    table corrupted on a delta-fraction: attacks the low-degree test's
    tolerance as well as the value checks."""
    base = zero_prove(random_vanishing_poly(gset, degree, rng), gset, degree)
    spec = CorruptionSpec(delta=delta, key=rng.getrandbits(63), mode="point")
    return ZeroProof(corrupt(base.point, spec), base.lines)


def _zt_inconsistent_lines(gset, degree, delta, rng) -> ZeroProof:
    """Point and lines tables honest for two different certificates: attacks
    the point-vs-line consistency checks directly."""
    p1 = zero_prove(random_vanishing_poly(gset, degree, rng), gset, degree)
    while True:
        p2 = zero_prove(random_vanishing_poly(gset, degree, rng), gset, degree)
        if p2.point.poly != p1.point.poly:
            return ZeroProof(p1.point, p2.lines)


ZEROTEST_ADVERSARIES: dict[str, Callable] = {
    "wrong-poly": _zt_wrong_poly,
    "zero-cert": _zt_zero_cert,
    "random-cert": _zt_random_cert,
    "corrupt-cert": _zt_corrupt_cert,
    "inconsistent-lines": _zt_inconsistent_lines,
}


# PCP adversaries receive (inst, delta, rng) and return a full PcpProof.

def _improper_proof(inst: PcpInstance, rng) -> PcpProof:
    """Best-effort coloring pushed through the honest pipeline; certificates
    that cannot exist (conflict polynomial not vanishing) are replaced by the
    all-zero certificate, so the conflict zero test carries the rejection."""
    colors = best_effort_coloring(inst.graph, inst.field)
    if not inst.graph.conflicts(colors, inst.field.q):
        raise ConfigError(
            "graph is 3-colorable, so the improper-coloring adversaries would "
            "build an honest proof; soundness mode needs a graph with no proper "
            "3-coloring")
    chi, validity, conflict = claim_polynomials(inst, colors)
    d = inst.d
    try:
        validity_cert = zero_prove(validity, inst.gset, 3 * d)
    except NoCertificateError:
        validity_cert = _zero_zero_proof(inst.field, inst.m + inst.k, 3 * d)
    try:
        conflict_cert = zero_prove(conflict, inst.gset2, 6 * d)
    except NoCertificateError:
        conflict_cert = _zero_zero_proof(inst.field, 2 * inst.m + inst.kprime, 6 * d)
    color_pt, color_ln = honest_oracles(chi, d)
    validity_pt, validity_ln = honest_oracles(validity, 3 * d)
    conflict_pt, conflict_ln = honest_oracles(conflict, 6 * d)
    return PcpProof(color_pt, color_ln, validity_pt, validity_ln, validity_cert,
                    conflict_pt, conflict_ln, conflict_cert)


def _pcp_improper(inst, delta, rng) -> PcpProof:
    return _improper_proof(inst, rng)


def _pcp_corrupt_color(inst, delta, rng) -> PcpProof:
    """Improper pipeline plus a delta-corrupted coloring table: attacks the
    color low-degree test and the validity identity simultaneously."""
    proof = _improper_proof(inst, rng)
    spec = CorruptionSpec(delta=delta, key=rng.getrandbits(63), mode="point")
    return replace(proof, color=corrupt(proof.color, spec))


def _pcp_zero_certs(inst, delta, rng) -> PcpProof:
    """Improper pipeline with both certificates zeroed: the validity zero
    test must now reject whenever the validity polynomial is nonzero."""
    proof = _improper_proof(inst, rng)
    return replace(
        proof,
        validity_cert=_zero_zero_proof(inst.field, inst.m + inst.k, 3 * inst.d),
        conflict_cert=_zero_zero_proof(inst.field, 2 * inst.m + inst.kprime, 6 * inst.d),
    )


PCP_ADVERSARIES: dict[str, Callable] = {
    "improper-pipeline": _pcp_improper,
    "corrupt-color": _pcp_corrupt_color,
    "zero-certs": _pcp_zero_certs,
}


# -- trial drivers -----------------------------------------------------------

def _total_queries(counted) -> int:
    return sum(o.queries for o in counted)


def _check_space(cfg: ExperimentConfig, size: int) -> None:
    if size > cfg.budget:
        raise ConfigError(
            f"exhaustive space has {size} tuples, above the budget of {cfg.budget}"
        )


def _run_trials(
    cfg: ExperimentConfig,
    counted,
    trial: Callable[[CountingRng | None], bool],
    exhaustive_space: Iterable | None,
    space_size: int,
    queries_per_rep: int,
    expected_bits: int,
) -> tuple[int, int, int, int]:
    """Shared loop: returns (trials, rejects, queries_per_trial, bits_per_trial).

    ``expected_bits`` is the closed-form budget for the run's instance;
    every sampled trial must draw exactly that many bits.
    """
    expected_queries = queries_per_rep * cfg.reps
    rejects = 0
    if cfg.sampling == "exhaustive":
        _check_space(cfg, space_size)
        trials = 0
        for r in exhaustive_space:
            before = _total_queries(counted)
            if trial(r):
                rejects += 1
            used = _total_queries(counted) - before
            if used != expected_queries:
                raise AssertionError(
                    f"query count drift: {used} != {expected_queries}")
            trials += 1
        if trials != space_size:
            raise AssertionError("enumeration produced the wrong space size")
        return trials, rejects, expected_queries, expected_bits
    for i in range(cfg.trials):
        rng = CountingRng(trial_seed(cfg.seed, i))
        before = _total_queries(counted)
        bad = False
        for _ in range(cfg.reps):
            if trial(rng):
                bad = True
        if bad:
            rejects += 1
        used = _total_queries(counted) - before
        if used != expected_queries:
            raise AssertionError(f"query count drift: {used} != {expected_queries}")
        if rng.bits != expected_bits:
            raise AssertionError(
                f"randomness accounting drift: drew {rng.bits} bits, "
                f"formula says {expected_bits}")
    return cfg.trials, rejects, expected_queries, expected_bits


def _maybe_materialize(cfg: ExperimentConfig, point: PointOracle, lines: LinesOracle):
    """Table-backed copies for exhaustive loops when the domains fit."""
    try:
        return materialize(point, cfg.budget), materialize(lines, cfg.budget)
    except OracleBudgetError:
        return point, lines


def _run_ldt(cfg: ExperimentConfig) -> tuple[int, int, int, int]:
    field = Field(cfg.q)
    rng0 = _instance_rng(cfg)
    p = random_poly(field, cfg.nvars, cfg.degree, rng0)
    f, flines = honest_oracles(p, cfg.degree)
    if cfg.mode == "soundness":
        adv = cfg.adversary or "corrupt-point"
        if adv not in ("corrupt-point", "corrupt-lines", "corrupt-both"):
            raise ConfigError(f"unknown ldt adversary {adv!r}")
        key = rng0.getrandbits(63)
        if adv in ("corrupt-point", "corrupt-both"):
            f = corrupt(f, CorruptionSpec(delta=cfg.delta, key=key, mode="point"))
        if adv in ("corrupt-lines", "corrupt-both"):
            spec = CorruptionSpec(delta=cfg.delta, key=key ^ 1, mode="lines")
            flines = corrupt(flines, spec)
    elif cfg.sampling == "exhaustive":
        f, flines = _maybe_materialize(cfg, f, flines)
    counted = [f, flines]
    q, m = cfg.q, cfg.nvars

    def sampled_trial(rng: CountingRng) -> bool:
        a = field.sample_point(rng, m)
        b = field.sample_point(rng, m)
        t = field.sample(rng, nonzero=True)
        return not ldt_check(cfg.degree, f, flines, a, b, t).accepted

    if cfg.sampling == "sampled":
        return _run_trials(cfg, counted, sampled_trial, None, 0, 2, _budget(cfg))
    pts = list(itertools.product(range(q), repeat=m))
    space = ((a, b, t) for a in pts for b in pts for t in range(1, q))

    def enum_trial(r) -> bool:
        a, b, t = r
        return not ldt_check(cfg.degree, f, flines, a, b, t).accepted

    return _run_trials(cfg, counted, enum_trial, space, len(pts) ** 2 * (q - 1), 2,
                       _budget(cfg))


def _run_lc(cfg: ExperimentConfig) -> tuple[int, int, int, int]:
    field = Field(cfg.q)
    rng0 = _instance_rng(cfg)
    p = random_poly(field, cfg.nvars, cfg.degree, rng0)
    f, flines = honest_oracles(p, cfg.degree)
    fixed_alpha = field.sample_point(rng0, cfg.nvars)
    if cfg.mode == "soundness":
        adv = cfg.adversary or "corrupt-point"
        if adv != "corrupt-point":
            raise ConfigError(f"unknown lc adversary {adv!r}")
        spec = CorruptionSpec(delta=cfg.delta, key=rng0.getrandbits(63), mode="point")
        f = corrupt(f, spec)
    elif cfg.sampling == "exhaustive":
        f, flines = _maybe_materialize(cfg, f, flines)
    counted = [f, flines]
    q, m = cfg.q, cfg.nvars
    soundness = cfg.mode == "soundness"

    def check(alpha, b, t) -> bool:
        v = local_correct(cfg.degree, f, flines, alpha, b, t)
        truth = p.eval(alpha)
        if soundness:
            return v.accepted and v.value != truth      # silent miscorrection
        return (not v.accepted) or v.value != truth

    def sampled_trial(rng: CountingRng) -> bool:
        # alpha is the location being corrected — an input, not a coin — so
        # it comes from an uncounted stream (fixed in soundness mode).
        if soundness:
            alpha = fixed_alpha
        else:
            alpha = field.sample_point(rng._rng, m)
        b = field.sample_point(rng, m)
        t = field.sample(rng, nonzero=True)
        return check(alpha, b, t)

    if cfg.sampling == "sampled":
        return _run_trials(cfg, counted, sampled_trial, None, 0, 2, _budget(cfg))
    pts = list(itertools.product(range(q), repeat=m))
    space = ((al, b, t) for al in pts for b in pts for t in range(1, q))

    def enum_trial(r) -> bool:
        return check(*r)

    return _run_trials(cfg, counted, enum_trial, space, len(pts) ** 2 * (q - 1), 2,
                       _budget(cfg))


def _run_zerotest(cfg: ExperimentConfig) -> tuple[int, int, int, int]:
    _, gset = _variety_for(cfg)
    rng0 = _instance_rng(cfg)
    if cfg.mode == "completeness":
        p = random_vanishing_poly(gset, cfg.degree, rng0)
        proof = zero_prove(p, gset, cfg.degree)
    else:
        if cfg.adversary not in ZEROTEST_ADVERSARIES:
            raise ConfigError(f"unknown zerotest adversary {cfg.adversary!r}")
        p = _nonvanishing_poly(gset, cfg.degree, rng0)
        proof = ZEROTEST_ADVERSARIES[cfg.adversary](gset, cfg.degree, cfg.delta, rng0)
    f = honest_oracles(p, cfg.degree)[0]
    counted = [f, proof.point, proof.lines]
    bits = _budget(cfg, gset.variety.m, gset.complexity)

    def trial_sampled(rng: CountingRng) -> bool:
        r = ZeroRandomness.sample(gset, rng)
        return not zero_verify(gset, cfg.degree, f, proof, r).accepted

    if cfg.sampling == "sampled":
        return _run_trials(cfg, counted, trial_sampled, None, 0, 7, bits)

    from .zerotest import enumerate_randomness

    def trial_enum(r) -> bool:
        return not zero_verify(gset, cfg.degree, f, proof, r).accepted

    return _run_trials(cfg, counted, trial_enum, enumerate_randomness(gset),
                       randomness_space_size(gset), 7, bits)


def _run_pcp(cfg: ExperimentConfig) -> tuple[int, int, int, int]:
    inst = _pcp_instance(cfg)
    rng0 = _instance_rng(cfg)
    if cfg.mode == "completeness":
        colors = proper_3_coloring(inst.graph, inst.field)
        if colors is None:
            raise ConfigError(
                "graph is not 3-colorable; completeness mode needs a proper coloring")
        proof = pcp_prove(inst, colors)
    else:
        if cfg.adversary not in PCP_ADVERSARIES:
            raise ConfigError(f"unknown pcp adversary {cfg.adversary!r}")
        proof = PCP_ADVERSARIES[cfg.adversary](inst, cfg.delta, rng0)
    counted = [
        proof.color, proof.color_lines,
        proof.validity, proof.validity_lines,
        proof.validity_cert.point, proof.validity_cert.lines,
        proof.conflict, proof.conflict_lines,
        proof.conflict_cert.point, proof.conflict_cert.lines,
    ]
    from .pcp import pcp_verify

    def trial(rng: CountingRng) -> bool:
        r = PcpRandomness.sample(inst, rng)
        return not pcp_verify(inst, proof, r).accepted

    bits = _budget(cfg, inst.m, inst.k, inst.kprime)
    if cfg.sampling == "exhaustive":
        raise ConfigError(
            f"pcp randomness space of about 2^{bits} tuples cannot be enumerated")
    return _run_trials(cfg, counted, trial, None, 0, 24, bits)


_DISPATCH = {
    "ldt": _run_ldt,
    "lc": _run_lc,
    "zerotest": _run_zerotest,
    "pcp": _run_pcp,
}


# -- reports -----------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig, out: str | Path | None = None
                   ) -> tuple[RateEstimate, dict]:
    """Execute cfg; optionally write the JSON report to ``out``."""
    _validate(cfg)
    start = time.perf_counter()
    trials, rejects, queries, bits = _DISPATCH[cfg.experiment](cfg)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    est = RateEstimate(
        trials=trials,
        rejects=rejects,
        rate=rejects / trials,
        ci95=wilson(rejects, trials, Z95),
        ci99=wilson(rejects, trials, Z99),
        queries_per_trial=queries,
        randomness_bits_per_trial=bits,
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


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}") from None
