"""The benchmark's span tracer still sees every layer of a run.

``perfbench/spans.py`` wraps pcplab functions at the names their callers
look up when they call them.  A refactor that binds one of those names once,
at import time, would leave the wrapper unused and zero the per-layer
metrics without any error; this test catches that.
"""

import sys
from pathlib import Path

from pcplab import harness, ldt, pcp
from pcplab.harness import ExperimentConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

CONFIGS = [
    ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2,3;m=1",
                     graph="complete:4", mode="soundness", adversary="corrupt-color",
                     delta=0.1, trials=20, seed=3),
    ExperimentConfig(experiment="ldt", q=5, nvars=1, degree=2,
                     sampling="exhaustive", seed=4),
    ExperimentConfig(experiment="lc", q=5, nvars=1, degree=2,
                     sampling="exhaustive", seed=4),
]


def test_tracer_labels_every_query_and_counts_the_verifiers():
    tracer = spans.Tracer()
    estimates = []
    tracer.install()
    try:
        for run_id, cfg in enumerate(CONFIGS):
            tracer.begin_run(run_id)
            estimates.append(harness.run_experiment(cfg)[0])
    finally:
        tracer.uninstall()
    assert harness.ldt_check is ldt.ldt_check       # uninstalled
    assert not hasattr(pcp.pcp_verify, "__wrapped__")
    assert tracer.missing == []

    stats = tracer.aggregate(0, len(tracer.start))
    for run_id, est in enumerate(estimates):
        labelled, unlabelled = spans.query_calls(stats[run_id])
        assert unlabelled == 0
        assert labelled == est.trials * est.queries_per_trial
    pcp_est, ldt_est, lc_est = estimates
    assert pcp_est.trials == 20 and pcp_est.queries_per_trial == 24
    assert stats[0]["pcp.pcp_verify"]["calls"] == pcp_est.trials
    assert ldt_est.trials == 5 * 5 * 4
    assert stats[1]["ldt.ldt_check"]["calls"] == ldt_est.trials
    # the corrector's call site in the harness is wrapped too
    assert lc_est.trials == 5 * 5 * 4
    assert stats[2]["ldt.local_correct"]["calls"] == lc_est.trials
    assert "ldt.ldt_check" not in stats[2]
    # oracles hold the polynomial's eval and restrict from the moment they are
    # built, so one built before install would bypass these wrappers; the
    # counts are pinned (the ldt ones are the 5 + 25 materialized entries;
    # lc adds one P(alpha) per distinct alpha, 5 in the exhaustive space).
    # A FactoredPoly runs its factors' compiled code without calling these
    # methods, and the all-zero conflict certificate (K4 has no proper
    # coloring) answers without a polynomial, so the pcp counts are the
    # direct MultiPoly calls of 20 trials: 1 restrict per trial (the chi-hat
    # lines query) and 4 evals per trial (3 chi-hat reads behind the
    # corrupted color table and 1 edge-polynomial check in pcp_verify).  phi's
    # 3 generator values per trial (1 on V, 2 on V x V) come from each
    # variety's generated function (Variety.phi), not from MultiPoly.eval
    poly_calls = [(st["poly.restrict"]["calls"], st["poly.eval"]["calls"])
                  for st in (stats[0], stats[1], stats[2])]
    assert poly_calls == [(20, 80), (25, 5), (25, 10)]


def test_tracer_role_names_are_the_proof_roles():
    # queries are labelled by these names; a role renamed in PcpProof alone
    # would leave its queries unlabelled
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", trials=1, seed=5)
    assert tuple(harness.build_experiment(cfg).proof.oracles()) == spans.PROOF_ORACLES


def test_certificates_divide_and_only_interpolations_solve():
    # pcp completeness builds two certificates by division and interpolates
    # two functions (chi-hat on V, the edge polynomial on V x V) off the
    # variety's own sweep, so nothing runs Matrix.solve; both certificates
    # are counted as zerotest's vanishing_certificate spans, and a product
    # interpolating through its factors records one low_degree_extension
    # span, so a certificate built around the prover, an interpolation that
    # recurses through the public method, or a linear solve, fails
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", trials=5, seed=5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_run(0)
        harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    stats = tracer.aggregate(0, len(tracer.start))[0]
    assert "linalg.solve" not in stats
    assert stats["variety.low_degree_extension"]["calls"] == 2
    assert stats["variety.vanishing_certificate"]["calls"] == 2
