"""Experiment harness: intervals, seeds, budgets, drivers, reports, presets."""

import csv
import hashlib
import json
import math
import random
from dataclasses import replace

import pytest

from pcplab.field import Field
from pcplab.harness import (
    ConfigError,
    CountingRng,
    Experiment,
    ExperimentConfig,
    PCP_ADVERSARIES,
    PRESETS,
    Z95,
    Z99,
    ZEROTEST_ADVERSARIES,
    build_experiment,
    execute,
    load_graph,
    randomness_budget,
    random_vanishing_poly,
    report_bytes,
    run_experiment,
    sweep_to_csv,
    trial_seed,
    wilson,
)
from pcplab.variety import make_variety, vanishes_on


# -- Wilson intervals ---------------------------------------------------------

def test_wilson_coverage_against_exact_binomial():
    # the 95% interval must cover the true p with probability in a sane band;
    # computed exactly by summing binomial weights of the covering outcomes
    for p in (0.1, 0.3, 0.5):
        for n in (20, 50):
            coverage = sum(
                math.comb(n, k) * p ** k * (1 - p) ** (n - k)
                for k in range(n + 1)
                if wilson(k, n, Z95)[0] <= p <= wilson(k, n, Z95)[1]
            )
            assert 0.92 <= coverage <= 0.99, (p, n, coverage)


def test_wilson_nesting_and_edges():
    for k, n in [(0, 10), (3, 10), (10, 10), (500, 1000)]:
        lo95, hi95 = wilson(k, n, Z95)
        lo99, hi99 = wilson(k, n, Z99)
        assert lo99 <= lo95 <= hi95 <= hi99
        assert 0.0 <= lo95 and hi95 <= 1.0
    assert wilson(0, 50, Z95)[0] == 0.0
    assert wilson(50, 50, Z95)[1] == 1.0


def test_wilson_center_monotone_in_successes():
    centers = [sum(wilson(k, 40, Z95)) / 2 for k in range(41)]
    assert centers == sorted(centers)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson(1, 0, Z95)
    with pytest.raises(ValueError):
        wilson(5, 4, Z95)


# -- counting rng and seeds ---------------------------------------------------

def test_counting_rng_bills_by_range_size():
    rng = CountingRng(0)
    rng.randrange(5)          # sizes 5 -> 3 bits
    assert rng.bits == 3
    rng.randrange(1, 5)       # size 4 -> 2 bits
    assert rng.bits == 5
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_counting_rng_matches_plain_random():
    a = CountingRng(1234)
    b = random.Random(1234)
    assert [a.randrange(17) for _ in range(20)] == [b.randrange(17) for _ in range(20)]


def test_counting_rng_is_random_randrange_in_both_call_forms():
    # CountingRng draws by its own rejection loop on getrandbits; the stream
    # must stay random.Random(seed).randrange's, from size 1 (no choice) to
    # sizes just past a power of two (most rejections) and past 2^32
    sizes = (1, 2, 3, 256, 257, 2 ** 32, 4294967311)
    for seed in range(200):
        counted, plain = CountingRng(seed), random.Random(seed)
        for size in sizes:
            assert counted.randrange(size) == plain.randrange(size), (seed, size)
            start = seed - 100
            assert (counted.randrange(start, start + size)
                    == plain.randrange(start, start + size)), (seed, size)
        assert counted.bits == 2 * sum((size - 1).bit_length() for size in sizes)


def test_trial_seed_is_pure_and_spread():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    seeds = {trial_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert trial_seed(42, 1) != trial_seed(43, 1)
    # order of evaluation is irrelevant by construction
    late = trial_seed(7, 999)
    early = trial_seed(7, 0)
    assert (trial_seed(7, 0), trial_seed(7, 999)) == (early, late)


# -- randomness budgets -------------------------------------------------------

def test_budget_formulas_small_field():
    # over F_5: 3 bits per element, 2 bits for a nonzero element
    ldt = ExperimentConfig(experiment="ldt", q=5, nvars=2, degree=2)
    assert randomness_budget(ldt) == 2 * 2 * 3 + 2 == 14
    lc = ExperimentConfig(experiment="lc", q=5, nvars=2, degree=2)
    assert randomness_budget(lc) == 2 * 3 + 2 == 8
    zt = ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1;m=1", degree=2)
    assert randomness_budget(zt) == (2 * (1 + 1) + 1) * 3 + 2 == 17
    pcp = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3")
    assert randomness_budget(pcp) == (12 * 1 + 2 * 1 + 2 * 2) * 5 + 4 == 94


def test_budget_linear_in_reps():
    cfg = ExperimentConfig(experiment="ldt", q=5, nvars=2, degree=2)
    assert randomness_budget(replace(cfg, reps=3)) == 3 * randomness_budget(cfg)


def test_budget_grows_linearly_with_cube_dimension():
    # k = m for boolean cubes, so the bits are (2(m+k)+m)B + T = 15m + 2 over F_5
    budgets = [
        randomness_budget(ExperimentConfig(
            experiment="zerotest", q=5, variety=f"cube:H=0,1;m={m}", degree=2 * m))
        for m in (1, 2, 3)
    ]
    assert budgets == [17, 32, 47]


# -- drivers ------------------------------------------------------------------

def test_ldt_completeness_exhaustive():
    cfg = ExperimentConfig(experiment="ldt", q=5, nvars=1, degree=2,
                           sampling="exhaustive", seed=3)
    est, report = run_experiment(cfg)
    assert est.trials == 5 * 5 * 4 == 100
    assert est.rejects == 0
    assert est.queries_per_trial == 2
    assert report["rate"] == 0.0


def test_ldt_soundness_detects_heavy_corruption():
    cfg = ExperimentConfig(experiment="ldt", q=5, nvars=1, degree=2,
                           mode="soundness", sampling="exhaustive",
                           adversary="corrupt-point", delta=0.9, seed=1)
    est, _ = run_experiment(cfg)
    assert est.rejects > 0
    assert est.randomness_bits_per_trial == 2 * 3 + 2


def test_lc_completeness_sampled_bits_checked():
    # the driver asserts the drawn bits equal the formula inside every trial
    cfg = ExperimentConfig(experiment="lc", q=5, nvars=2, degree=2, trials=200, seed=5)
    est, _ = run_experiment(cfg)
    assert est.rejects == 0
    assert est.queries_per_trial == 2
    assert est.randomness_bits_per_trial == 8


def test_lc_soundness_monitors_miscorrection_not_rejects():
    # honest lines + corrupted points can trigger Rejects but never a silent
    # wrong value, so the monitored rate is exactly zero
    cfg = ExperimentConfig(experiment="lc", q=5, nvars=1, degree=2,
                           mode="soundness", sampling="exhaustive",
                           adversary="corrupt-point", delta=0.5, seed=2)
    est, _ = run_experiment(cfg)
    assert est.rate == 0.0


def test_zerotest_completeness_sampled():
    cfg = ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1;m=1",
                           degree=2, trials=300, seed=11)
    est, _ = run_experiment(cfg)
    assert est.rejects == 0
    assert est.queries_per_trial == 7
    assert est.randomness_bits_per_trial == 17


def test_zerotest_exhaustive_budget_enforced():
    cfg = ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1;m=1",
                           degree=2, sampling="exhaustive", budget=1000)
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert "12500" in str(err.value)


def test_zerotest_exhaustive_within_budget():
    cfg = ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1;m=1",
                           degree=2, sampling="exhaustive", seed=4)
    est, _ = run_experiment(cfg)
    assert est.trials == 12500
    assert est.rejects == 0


def test_zerotest_soundness_adversary():
    cfg = ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1;m=1",
                           degree=2, mode="soundness", adversary="wrong-poly",
                           trials=300, seed=8)
    est, _ = run_experiment(cfg)
    assert est.rejects > 0


def test_pcp_completeness_and_queries():
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", trials=50, seed=6)
    est, _ = run_experiment(cfg)
    assert est.rejects == 0
    assert est.queries_per_trial == 24
    assert est.randomness_bits_per_trial == 94


def test_pcp_soundness_improper_graph():
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="points:IGNORED",
                           graph="complete:4", mode="soundness",
                           adversary="improper-pipeline", trials=30, seed=9)
    cfg = replace(cfg, variety="cube:H=0,1,2,3;m=1")
    est, _ = run_experiment(cfg)
    assert est.rejects > 0


def test_pcp_exhaustive_is_rejected():
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", sampling="exhaustive")
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_reps_multiply_queries_and_bits():
    cfg = ExperimentConfig(experiment="ldt", q=5, nvars=1, degree=2,
                           trials=100, reps=3, seed=12)
    est, _ = run_experiment(cfg)
    assert est.queries_per_trial == 6
    assert est.randomness_bits_per_trial == 3 * 8


class _Counted:
    queries = 0


def _fake_experiment(check, sample=lambda rng: None, bits=0):
    """Two sampled trials over one counted fake oracle, promising 2 queries."""
    cfg = ExperimentConfig(experiment="ldt", q=5, nvars=1, degree=2, trials=2)
    oracle = _Counted()
    return Experiment(cfg, 0.0, (oracle,), sample, lambda r: check(oracle), 2, bits)


def test_query_drift_is_caught_on_the_first_trial():
    # 1 query, then 3: the run's total is the promised 2 per trial, but each
    # trial is wrong, so the check must be per trial
    spent = []

    def check(oracle):
        oracle.queries += 3 if spent else 1
        spent.append(oracle.queries)
        return False

    with pytest.raises(AssertionError, match="query count drift: 1 != 2"):
        execute(_fake_experiment(check))
    assert spent == [1]


def test_randomness_drift_is_caught():
    def check(oracle):
        oracle.queries += 2
        return False

    with pytest.raises(AssertionError, match="randomness accounting drift: drew 2 bits"):
        execute(_fake_experiment(check, sample=lambda rng: rng.randrange(4), bits=1))


# -- config validation --------------------------------------------------------

@pytest.mark.parametrize("bad", [
    dict(experiment="nope", q=5, nvars=1),
    dict(experiment="ldt", q=5, nvars=1, mode="sideways"),
    dict(experiment="ldt", q=5, nvars=1, sampling="psychic"),
    dict(experiment="ldt", q=6, nvars=1),
    dict(experiment="ldt", q=5, nvars=0),
    dict(experiment="ldt", q=5, nvars=1, degree=-1),
    dict(experiment="ldt", q=5, nvars=1, trials=0),
    dict(experiment="ldt", q=5, nvars=1, reps=0),
    dict(experiment="ldt", q=5, nvars=1, delta=1.5),
    dict(experiment="ldt", q=5, nvars=1, sampling="exhaustive", reps=2),
    dict(experiment="zerotest", q=5),
    dict(experiment="zerotest", q=5, variety="cube:H=0,1;m=1", mode="soundness"),
    dict(experiment="pcp", q=5, variety="ball1:n=2"),
    dict(experiment="ldt", q=5, nvars=1, mode="soundness",
         adversary="corrupt-point", delta=0.0),
    # degree tags >= q, where the line test's soundness bounds do not apply
    dict(experiment="ldt", q=5, nvars=1, degree=7),
    dict(experiment="lc", q=5, nvars=1, degree=5),
    # soundness with the default corrupt-point adversary at delta = 0
    dict(experiment="ldt", q=5, nvars=1, degree=2, mode="soundness"),
    dict(experiment="lc", q=5, nvars=1, degree=2, mode="soundness"),
    # an adversary named in completeness mode would be ignored
    dict(experiment="ldt", q=5, nvars=1, degree=2, adversary="bogus"),
    dict(experiment="zerotest", q=5, variety="cube:H=0,1;m=1", degree=2,
         adversary="wrong-poly"),
    # unknown adversaries are rejected before anything is built
    dict(experiment="ldt", q=5, nvars=1, degree=2, mode="soundness",
         adversary="bogus", delta=0.1),
    dict(experiment="lc", q=5, nvars=1, degree=2, mode="soundness",
         adversary="corrupt-lines", delta=0.1),
    dict(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1", graph="complete:3",
         sampling="exhaustive"),
    # a delta that nothing reads: only the corrupt-* adversaries corrupt
    dict(experiment="pcp", q=17, variety="cube:H=0,1,2,3;m=1", graph="complete:4",
         mode="soundness", adversary="improper-pipeline", delta=0.5),
    dict(experiment="zerotest", q=5, variety="cube:H=0,1;m=1", degree=2,
         mode="soundness", adversary="wrong-poly", delta=0.5),
    dict(experiment="ldt", q=5, nvars=1, degree=2, delta=0.5),
    # exhaustive spaces above the enumeration budget
    dict(experiment="ldt", q=7, nvars=3, degree=2, sampling="exhaustive", budget=10),
    dict(experiment="zerotest", q=5, variety="ball1:n=2", degree=2,
         sampling="exhaustive", budget=10),
    # more graph vertices than variety points
    dict(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1", graph="complete:5",
         mode="soundness", adversary="improper-pipeline"),
    # no proper coloring, and above the fewest-conflicts search's vertex cap
    dict(experiment="pcp", q=5, variety="ball1:n=12", graph="complete:13",
         mode="soundness", adversary="improper-pipeline"),
])
def test_config_validation(bad):
    cfg = ExperimentConfig(**bad)
    with pytest.raises(ConfigError) as budget_err:
        randomness_budget(cfg)
    with pytest.raises(ConfigError) as build_err:
        build_experiment(cfg)
    assert str(build_err.value) == str(budget_err.value)


def test_unknown_adversaries_rejected():
    zt = ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1;m=1",
                          degree=2, mode="soundness", adversary="mystery", trials=5)
    with pytest.raises(ConfigError):
        run_experiment(zt)
    pcp = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", mode="soundness",
                           adversary="mystery", trials=5)
    with pytest.raises(ConfigError):
        run_experiment(pcp)
    ldt = ExperimentConfig(experiment="ldt", q=5, nvars=1, degree=2,
                           mode="soundness", adversary="mystery", delta=0.1, trials=5)
    with pytest.raises(ConfigError):
        run_experiment(ldt)


def test_pcp_degree_must_match_variety():
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", degree=5, trials=5)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_bad_variety_and_graph_become_config_errors():
    with pytest.raises(ConfigError):
        randomness_budget(ExperimentConfig(
            experiment="zerotest", q=5, variety="garbage:", degree=2))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(
            experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
            graph="/does/not/exist", trials=5))


# -- reports ------------------------------------------------------------------

REPORT_KEYS = {
    "experiment", "config", "trials", "accepts", "rejects", "rate",
    "ci95", "ci99", "queries_per_trial", "randomness_bits_per_trial",
    "seed", "elapsed_ms",
}


def test_report_schema_and_determinism(tmp_path):
    cfg = ExperimentConfig(experiment="ldt", q=5, nvars=1, degree=2,
                           trials=100, seed=21)
    est1, rep1 = run_experiment(cfg, out=tmp_path / "run.json")
    est2, rep2 = run_experiment(cfg)
    assert set(rep1) == REPORT_KEYS
    assert report_bytes(rep1) == report_bytes(rep2)
    assert rep1["accepts"] + rep1["rejects"] == rep1["trials"]
    on_disk = json.loads((tmp_path / "run.json").read_text())
    assert "elapsed_ms" in on_disk
    assert report_bytes(on_disk) == report_bytes(rep1)


def test_report_bytes_canonical_ordering():
    rep = {"b": 1, "a": 2, "elapsed_ms": 99}
    assert report_bytes(rep) == b'{"a":2,"b":1}\n'
    assert report_bytes(rep, include_elapsed=True) == b'{"a":2,"b":1,"elapsed_ms":99}\n'


def test_estimate_fields_consistent():
    cfg = ExperimentConfig(experiment="zerotest", q=5, variety="ball1:n=2",
                           degree=2, mode="soundness", adversary="zero-cert",
                           trials=400, seed=13)
    est, rep = run_experiment(cfg)
    assert est.rate == est.rejects / est.trials
    assert est.ci95 == wilson(est.rejects, est.trials, Z95)
    assert est.ci99 == wilson(est.rejects, est.trials, Z99)
    assert rep["rate"] == est.rate


def test_sweep_to_csv(tmp_path):
    cfgs = [
        ExperimentConfig(experiment="ldt", q=5, nvars=1, degree=2, trials=50, seed=1),
        ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1;m=1",
                         degree=2, mode="soundness", adversary="zero-cert",
                         trials=50, seed=2),
    ]
    reports = [run_experiment(c)[1] for c in cfgs]
    path = tmp_path / "sweep.csv"
    sweep_to_csv(reports, path)
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 2
    assert rows[0]["experiment"] == "ldt"
    assert rows[1]["adversary"] == "zero-cert"
    assert int(rows[0]["trials"]) == 50
    assert float(rows[1]["ci99_lo"]) <= float(rows[1]["rate"]) <= float(rows[1]["ci99_hi"])


# -- adversary registries and helpers ----------------------------------------

def test_adversary_registries():
    assert set(ZEROTEST_ADVERSARIES) == {
        "wrong-poly", "zero-cert", "random-cert", "corrupt-cert",
        "inconsistent-lines",
    }
    assert set(PCP_ADVERSARIES) == {"improper-pipeline", "corrupt-color", "zero-certs"}


def test_random_vanishing_poly_rejects_degree_below_every_generator():
    # the cube's one generator x(x-1)(x-2) has degree 3: below that, the only
    # vanishing polynomial is 0 and its proof would pass vacuously
    variety = make_variety(Field(5), "cube:H=0,1,2;m=1")
    with pytest.raises(ConfigError):
        random_vanishing_poly(variety, 2, random.Random(0))
    assert random_vanishing_poly(variety, 3, random.Random(0)).degree() == 3
    for mode, adversary in (("completeness", ""), ("soundness", "inconsistent-lines"),
                            ("soundness", "wrong-poly")):
        cfg = ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1,2;m=1",
                               degree=1, mode=mode, adversary=adversary, trials=5)
        with pytest.raises(ConfigError):
            run_experiment(cfg)


def test_random_vanishing_poly_vanishes():
    variety = make_variety(Field(5), "ball1:n=2")
    rng = random.Random(17)
    for _ in range(20):
        p = random_vanishing_poly(variety, 3, rng)
        assert vanishes_on(p, variety)
        assert p.degree() <= 3


def test_load_graph_forms(tmp_path):
    k4 = load_graph("complete:4")
    assert k4.n == 4 and len(k4.edges) == 6
    f = tmp_path / "g.txt"
    f.write_text("2\n0 1\n")
    g = load_graph(str(f))
    assert g.n == 2 and len(g.edges) == 1


# -- presets ------------------------------------------------------------------

def test_preset_shapes():
    # boolean-cube regime: as many generators as dimensions
    v = make_variety(Field(5), PRESETS["polylog"].variety)
    assert v.complexity == v.m == 2
    # Hamming-ball regime: everything extends at degree 1
    v = make_variety(Field(5), PRESETS["hadamard-like"].variety)
    assert v.extension_degree == 1
    # power regime: extension degree equals the power exponent
    v = make_variety(Field(7), PRESETS["n-eps"].variety)
    assert v.extension_degree == 2 * 1  # two degree-1 factors


def test_presets_are_runnable():
    for name in PRESETS:
        cfg = replace(PRESETS[name], trials=40)
        est, _ = run_experiment(cfg)
        assert est.rejects == 0, name


# -- pinned report bytes ------------------------------------------------------
#
# One small run per experiment, mode and sampling the harness accepts, and one
# per adversary (ldt 3, lc 1, zerotest 5, pcp 3), with the SHA-256 of each
# canonical report.  The pins were taken before the four experiment drivers
# were merged into one loop, so they prove that the loop draws, queries and
# counts in the same order.

_LDT = dict(experiment="ldt", q=5, nvars=2, degree=2, trials=40)
_LDT_X = dict(experiment="ldt", q=5, nvars=1, degree=2, sampling="exhaustive")
_LC = dict(_LDT, experiment="lc")
_LC_X = dict(_LDT_X, experiment="lc")
_ZT = dict(experiment="zerotest", q=5, variety="ball1:n=2", degree=2, trials=40)
_ZT_X = dict(experiment="zerotest", q=3, variety="cube:H=0,1;m=1", degree=2,
             sampling="exhaustive")
_PCP = dict(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1", graph="complete:3",
            trials=10)
_PCP_BAD = dict(experiment="pcp", q=17, variety="cube:H=0,1,2,3;m=1",
                graph="complete:4", mode="soundness", trials=10)
_SOUND = dict(mode="soundness")

PINNED_REPORTS = [
    (dict(_LDT, seed=1, reps=2),
     "ba2018c1a0bfdafdb67ef41403bbfc28fc6f8716f1ccf2e6a45c064f085e7b1a"),
    (dict(_LDT_X, seed=2),
     "f5376e8bbfcccecf9291110c3439ffde050c87fd0a68018cb1048a8549b6bba9"),
    (dict(_LDT, **_SOUND, seed=3, delta=0.2),
     "87ffabde45fa152db09bd38eace4810fc2003c15fbb9239d9712d3f8083cf854"),
    (dict(_LDT, **_SOUND, seed=4, adversary="corrupt-point", delta=0.2),
     "8ff7aaeb4d3c1c4159830d98e3c82e249ab505282e789e92b0b27a29cd2f87f9"),
    (dict(_LDT, **_SOUND, seed=5, adversary="corrupt-lines", delta=0.2),
     "c65975513cdac7e3b7b12b1ee009c0b4c09317c3520588c1a9a58a9aeb677725"),
    (dict(_LDT, **_SOUND, seed=6, adversary="corrupt-both", delta=0.2),
     "ac1a3caa05947cf33bf570543e474616fd84cafdcfd2d3b62e14ef73cda2c651"),
    (dict(_LDT_X, **_SOUND, seed=7, adversary="corrupt-both", delta=0.3),
     "d2003bfc0f14ee261322f443e9c39652a7d4cf1e8d7d4e4374537950bec97460"),
    (dict(_LC, seed=8, reps=2),
     "a1a599bc22cbdc8ed1aed9098ee2dbf88a45abbaed327bd78c07a207ede4ad4e"),
    (dict(_LC_X, seed=9),
     "7111e08eb811b480090e5de2718a340a4065dfee1bbd8fb045951ad093398ea2"),
    (dict(_LC, **_SOUND, seed=10, adversary="corrupt-point", delta=0.3),
     "b358f37093a02faabf8eb3caf5e26cf028a7a654ac1920b07ab4aa09a256faee"),
    (dict(_LC_X, **_SOUND, seed=11, adversary="corrupt-point", delta=0.4),
     "ee67faf521f9ac3f16f0948af2eacc880cce89593e8fb3736f3fe3cc7f513422"),
    (dict(_LC, **_SOUND, seed=12, delta=0.3),
     "9f9bcf29bc0052abc3c697fce3ca4346addf4ea3d002809f5dcdd8fb2a379242"),
    (dict(_ZT, seed=13, reps=2),
     "08c135aa1668d99f6616b4910bfdc3992516c19e6af099ef2822bff1f3a5ec23"),
    (dict(_ZT_X, seed=14),
     "19d585515618dbbd217854a6eacf2e2ebad81e194ae4cd89efdb2ceb1cd62788"),
    (dict(_ZT, **_SOUND, seed=15, adversary="wrong-poly"),
     "2044f3163ccade7a85b8f841cd2920ac16aab363b6e94c24a44f62581eab2e59"),
    (dict(_ZT, **_SOUND, seed=16, adversary="zero-cert"),
     "c3e6043722ebe5bab8a31834fceb98a54dfee6b6498f9bf47dd55526bebe46f4"),
    (dict(_ZT, **_SOUND, seed=17, adversary="random-cert"),
     "c3c4094d958d3e38c44056018849bd8aa5a91d545ba277a6ae61007d194c60c3"),
    (dict(_ZT, **_SOUND, seed=18, adversary="corrupt-cert", delta=0.2),
     "973113bfec15277cef025749ce6a8aea0e45e2c7b32369732b20efa8066aceb2"),
    (dict(_ZT, **_SOUND, seed=19, adversary="inconsistent-lines"),
     "9490f0534a4ac86de90b6c71e872ecdf8a6c657c57603852adcc36585a9b6f89"),
    (dict(_ZT_X, **_SOUND, seed=20, adversary="corrupt-cert", delta=0.3),
     "d072a0c49106f09969edba239795bc05ac7a18d1869e2da28a9ace4efa3f57f1"),
    (dict(_PCP, seed=21, reps=2),
     "45c15dd5587c1d094c6f62ca074161ee25578e0bbc1a5c9dde7203970dd0c214"),
    (dict(_PCP_BAD, seed=22, adversary="improper-pipeline"),
     "ef287ae3e430d8cd3d86074e82bad979fcd3bba3d898600e3288c65ec749fc36"),
    (dict(_PCP_BAD, seed=23, adversary="corrupt-color", delta=0.1),
     "88d8389e7436902fa8a40e41ba90456b48f10abd796fa6f6320580c972ff1246"),
    (dict(_PCP_BAD, seed=24, adversary="zero-certs"),
     "0b279ae6c50eda10682b4126ae922a1b0ec3e5da62d2f730f8f1157c29dbd030"),
]


def test_pinned_reports_cover_every_run_shape():
    shapes = {(c["experiment"], c.get("mode", "completeness"),
               c.get("sampling", "sampled")) for c, _ in PINNED_REPORTS}
    for experiment in ("ldt", "lc", "zerotest"):
        for mode in ("completeness", "soundness"):
            for sampling in ("sampled", "exhaustive"):
                assert (experiment, mode, sampling) in shapes
    assert ("pcp", "completeness", "sampled") in shapes
    assert ("pcp", "soundness", "sampled") in shapes
    named = {(c["experiment"], c["adversary"]) for c, _ in PINNED_REPORTS if "adversary" in c}
    assert {a for e, a in named if e == "ldt"} == {"corrupt-point", "corrupt-lines",
                                                  "corrupt-both"}
    assert {a for e, a in named if e == "lc"} == {"corrupt-point"}
    assert {a for e, a in named if e == "zerotest"} == set(ZEROTEST_ADVERSARIES)
    assert {a for e, a in named if e == "pcp"} == set(PCP_ADVERSARIES)


def test_pinned_report_bytes():
    for cfg, pin in PINNED_REPORTS:
        _, report = run_experiment(ExperimentConfig(**cfg))
        assert hashlib.sha256(report_bytes(report)).hexdigest() == pin, cfg
