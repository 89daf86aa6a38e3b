"""Ten acceptance gates, one test each, with pinned tolerances and budgets.

Each test prints a single ``criterion N PASS`` line (visible with ``-s`` or in
failure output) and enforces its own wall-clock budget.  Brute-force oracles
used here are written inline and never call back into the package's own linear
algebra, so they are independent evidence, not self-confirmation.
"""

import itertools
import math
import time
from pathlib import Path

from pcplab.field import Field
from pcplab.harness import (
    ExperimentConfig,
    CountingRng,
    randomness_budget,
    run_experiment,
    sweep_to_csv,
)
from pcplab.pcp import PcpInstance, PcpRandomness, Graph
from pcplab.poly import MultiPoly
from pcplab.variety import Variety, make_variety, vanishing_certificate
from pcplab.zerotest import ZeroRandomness

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def _done(num: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {num} PASS: {detail} [{elapsed:.1f}s]")


# -- independent mod-q linear algebra (oracle; deliberately tiny) -------------

def _rref_mod(rows, q):
    rows = [[x % q for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _rank_mod(rows, q):
    return len(_rref_mod(rows, q)[1])


def _kernel_mod(rows, q, ncols):
    red, pivots = _rref_mod(rows, q)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-red[i][fc]) % q
        basis.append(vec)
    return basis


def _monos(m, d):
    out = []
    for k in range(d + 1):
        for combo in itertools.combinations_with_replacement(range(m), k):
            e = [0] * m
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def _eval_mono(point, exps, q):
    v = 1
    for x, e in zip(point, exps):
        v = v * pow(x, e, q) % q
    return v


def _emat(points, m, d, q):
    ms = _monos(m, d)
    return [[_eval_mono(p, e, q) for e in ms] for p in points], ms


def _brute_min_degree(points, m, q):
    d = 0
    while True:
        rows, _ = _emat(points, m, d, q)
        if _rank_mod(rows, q) == len(points):
            return d
        d += 1


def _brute_complexity(points, m, q):
    """Per-degree recount of the generating-set construction."""
    n = len(points)
    total = 0
    degree = 0
    rows_prev, monos_prev = _emat(points, m, degree, q)
    kernel_prev = _kernel_mod(rows_prev, q, len(monos_prev))
    while True:
        rank_below = len(monos_prev) - len(kernel_prev)
        degree += 1
        rows, monos = _emat(points, m, degree, q)
        index = {e: j for j, e in enumerate(monos)}
        nullity = len(monos) - _rank_mod(rows, q)
        reach = []
        for vec in kernel_prev:
            reach.append(vec + [0] * (len(monos) - len(monos_prev)))
            for var in range(m):
                shifted = [0] * len(monos)
                for j, c in enumerate(vec):
                    if c:
                        e = list(monos_prev[j])
                        e[var] += 1
                        shifted[index[tuple(e)]] = c
                reach.append(shifted)
        total += nullity - (_rank_mod(reach, q) if reach else 0)
        rows_prev, monos_prev = rows, monos
        kernel_prev = _kernel_mod(rows_prev, q, len(monos_prev))
        if rank_below == n:
            return total


# -- criteria -----------------------------------------------------------------

def test_criterion_01_family_exactness():
    start = time.perf_counter()
    # one-dimensional coordinate sets: one generator, extension degree |H|-1
    for q in (5, 7):
        field = Field(q)
        for coords in ([0, 1], [1, 2, 3], [0, 1, 2, 3], list(range(q))):
            v = make_variety(field, f"cube:H={','.join(map(str, coords))};m=1")
            assert v.complexity == 1
            assert v.extension_degree == len(coords) - 1
            assert _brute_complexity(v.points, 1, q) == 1
    # weight-<=1 boolean points: extension degree 1, at most n(n+1)/2
    # generators, count re-derived by per-degree rank brute force
    for n in (1, 2, 3, 4):
        v = make_variety(Field(5), f"ball1:n={n}")
        assert v.extension_degree == 1
        assert v.complexity <= n * (n + 1) // 2
        assert v.complexity == _brute_complexity(v.points, n, 5)
    # cubes: at most m generators, extension degree (|H|-1)m
    for coords, m in (([0, 1], 1), ([0, 1], 2), ([0, 1], 3), ([0, 1, 2], 2)):
        v = make_variety(Field(5), f"cube:H={','.join(map(str, coords))};m={m}")
        assert v.complexity <= m
        assert v.extension_degree == (len(coords) - 1) * m
    # powers of balls: k <= (n^2 + nc)/(2c) with n total variables, d = c
    for base_n, c in ((2, 2), (3, 2)):
        v = make_variety(Field(5), f"pow:(ball1:n={base_n})^{c}")
        n = base_n * c
        assert v.m == n
        assert v.complexity <= (n * n + n * c) // (2 * c)
        assert v.extension_degree == c
    _done(1, start, 10.0,
          "line/ball/cube/power complexity and extension degrees exact")


def test_criterion_02_certificate_fixture():
    start = time.perf_counter()
    F5 = Field(5)
    g1 = MultiPoly(F5, 2, {(2, 0): 1}, cap=2)            # x1^2
    g2 = MultiPoly(F5, 2, {(1, 1): 1, (0, 2): 4}, cap=2)  # x1*x2 - x2^2
    p = MultiPoly(F5, 2, {(0, 3): 1}, cap=3)              # x2^3
    h1, h2 = vanishing_certificate(p, [g1, g2])
    assert h1.terms == {(0, 1): 1}                # x2
    assert h2.terms == {(1, 0): 4, (0, 1): 4}     # -(x1 + x2)
    assert h1.mul(g1).degree() <= 3 and h2.mul(g2).degree() <= 3
    residual = h1.mul(g1).add(h2.mul(g2)).sub(p.with_cap(4))
    assert residual.is_zero()
    _done(2, start, 1.0, "two-generator cofactor identity recovered exactly")


def test_criterion_03_extension_degree_brute_force():
    start = time.perf_counter()
    checked = 0
    for q in (5, 7):
        field = Field(q)
        for m in (1, 2):
            domain = list(itertools.product(range(q), repeat=m))
            for n in (1, 2, 3, 4):
                # structured prefix + two spread-out seeded selections per cell
                selections = [domain[:n]]
                for stride in (7, 11):
                    sel = [domain[(stride * i * i + stride) % len(domain)] for i in range(2 * n)]
                    uniq = sorted(set(sel))[:n]
                    if len(uniq) == n:
                        selections.append(uniq)
                for pts in selections:
                    v = Variety(field, pts)
                    assert v.extension_degree == _brute_min_degree(v.points, m, q)
                    for values in itertools.product(range(q), repeat=n):
                        ext = v.low_degree_extension(values)
                        assert ext.degree() <= v.extension_degree
                        for pt, want in zip(v.points, values):
                            assert ext.eval(pt) == want
                    checked += 1
    _done(3, start, 60.0,
          f"{checked} varieties: minimal degree matches brute force, "
          "all q^|V| functions extend exactly")


def test_criterion_04_ldt_lc_exhaustive_completeness():
    start = time.perf_counter()
    for i in range(20):
        for experiment in ("ldt", "lc"):
            cfg = ExperimentConfig(experiment=experiment, q=7, nvars=2, degree=2,
                                   sampling="exhaustive", seed=1000 + i)
            est, _ = run_experiment(cfg)
            assert est.trials == 7 ** 4 * 6 == 14406
            assert est.rejects == 0, (experiment, i)
            assert est.queries_per_trial == 2
    _done(4, start, 60.0,
          "20 random degree-2 polynomials over F_7^2: zero rejections "
          "across all 14406 (a,b,t) and (alpha,b,t)")


def test_criterion_05_lc_correction_bound():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="lc", q=101, nvars=1, degree=4,
                           mode="soundness", adversary="corrupt-point",
                           delta=0.05, trials=10 ** 4, seed=505)
    est, _ = run_experiment(cfg)
    bound = 2 * math.sqrt(0.05) + 4 / 100
    assert est.ci99[1] <= bound, (est.rate, est.ci99, bound)
    _done(5, start, 60.0,
          f"silent-miscorrection rate {est.rate:.4f}, 99% upper "
          f"{est.ci99[1]:.4f} <= {bound:.4f}")


def test_criterion_06_zerotest_exhaustive_completeness(tmp_path):
    start = time.perf_counter()
    pts = tmp_path / "two_points.txt"
    pts.write_text("1\n2\n")
    cfg = ExperimentConfig(experiment="zerotest", q=5, variety=f"points:{pts}",
                           degree=2, sampling="exhaustive", seed=6)
    est, _ = run_experiment(cfg)
    assert est.trials == 12500
    assert est.rejects == 0
    assert est.queries_per_trial == 7  # constant; drift asserted every trial
    _done(6, start, 10.0, "12500/12500 accepts at exactly 7 queries per trial")


def test_criterion_07_zerotest_soundness_families():
    start = time.perf_counter()
    rates = {}
    for adversary, delta in (
        ("wrong-poly", 0.0),
        ("zero-cert", 0.0),
        ("random-cert", 0.0),
        ("corrupt-cert", 0.05),
        ("inconsistent-lines", 0.0),
    ):
        cfg = ExperimentConfig(experiment="zerotest", q=101, variety="ball1:n=2",
                               degree=4, mode="soundness", adversary=adversary,
                               delta=delta, trials=10 ** 4, seed=707)
        est, _ = run_experiment(cfg)
        assert est.ci99[0] >= 0.04, (adversary, est.rate, est.ci99)
        rates[adversary] = est.rate
    _done(7, start, 600.0,
          "all certificate-adversary families rejected with 99% lower bound "
          f">= 0.04 (rates {rates})")


def test_criterion_08_pcp_completeness():
    start = time.perf_counter()
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", trials=10 ** 5, seed=808)
    est, _ = run_experiment(cfg)
    assert est.rejects == 0
    assert est.queries_per_trial == 24
    _done(8, start, 600.0,
          "100000/100000 accepts for the triangle proof at 24 queries per trial")


def test_criterion_09_pcp_soundness_menu():
    start = time.perf_counter()
    menu = (
        ("improper-pipeline", 0.0),
        ("corrupt-color", 0.02),
        ("corrupt-color", 0.05),
        ("zero-certs", 0.0),
    )
    reports = []
    for i, (adversary, delta) in enumerate(menu):
        cfg = ExperimentConfig(experiment="pcp", q=257, variety="cube:H=0,1;m=2",
                               graph="complete:4", mode="soundness",
                               adversary=adversary, delta=delta,
                               trials=10 ** 4, seed=900 + i)
        est, report = run_experiment(cfg)
        assert est.ci99[0] > 0.0, (adversary, delta, est.rate)
        reports.append(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    sweep_to_csv(reports, RESULTS_DIR / "pcp_soundness.csv")
    rates = [r["rate"] for r in reports]
    _done(9, start, 1800.0,
          f"K_4 adversary menu rejected (rates {rates}); table written to "
          "results/pcp_soundness.csv")


def test_criterion_10_randomness_budgets():
    start = time.perf_counter()

    def drawn_bits(cfg: ExperimentConfig) -> int:
        field = Field(cfg.q)
        rng = CountingRng(0)
        if cfg.experiment in ("ldt", "lc"):
            if cfg.experiment == "ldt":
                rng.draw(cfg.q, cfg.nvars)
            rng.draw(cfg.q, cfg.nvars)
            rng.draw(cfg.q - 1, 1)
        elif cfg.experiment == "zerotest":
            ZeroRandomness.sample(make_variety(field, cfg.variety), rng)
        else:
            n = int(cfg.graph.split(":")[1])
            inst = PcpInstance(make_variety(field, cfg.variety), Graph.from_edges(
                n, list(itertools.combinations(range(n), 2))))
            PcpRandomness.sample(inst, rng)
        return rng.bits

    acceptance_configs = [
        ExperimentConfig(experiment="ldt", q=7, nvars=2, degree=2),
        ExperimentConfig(experiment="lc", q=7, nvars=2, degree=2),
        ExperimentConfig(experiment="lc", q=101, nvars=1, degree=4),
        ExperimentConfig(experiment="zerotest", q=5, variety="cube:H=0,1;m=1",
                         degree=2),
        ExperimentConfig(experiment="zerotest", q=101, variety="ball1:n=2",
                         degree=4),
        ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                         graph="complete:3"),
        # criterion 9's instance, in its mode: K4 has no proper 3-coloring
        ExperimentConfig(experiment="pcp", q=257, variety="cube:H=0,1;m=2",
                         graph="complete:4", mode="soundness",
                         adversary="improper-pipeline"),
    ]
    for cfg in acceptance_configs:
        assert randomness_budget(cfg) == drawn_bits(cfg), cfg

    # linear growth in the total dimension count at fixed q
    zt = [randomness_budget(ExperimentConfig(
        experiment="zerotest", q=5, variety=f"cube:H=0,1;m={m}", degree=2 * m))
        for m in (1, 2, 3)]
    assert zt == [15 * m + 2 for m in (1, 2, 3)]
    pcp = [randomness_budget(ExperimentConfig(
        experiment="pcp", q=17, variety=f"cube:H=0,1;m={m}", graph="complete:2"))
        for m in (1, 2, 3)]
    assert [b - a for a, b in zip(pcp, pcp[1:])] == [90, 90]  # (12+2+4) * 5
    _done(10, start, 60.0,
          "closed-form budgets equal instrumented draws; growth linear in "
          "(m + k) per field element")
