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
    pcp_est, ldt_est = estimates
    assert pcp_est.trials == 20 and pcp_est.queries_per_trial == 24
    assert stats[0]["pcp.pcp_verify"]["calls"] == pcp_est.trials
    assert ldt_est.trials == 5 * 5 * 4
    assert stats[1]["ldt.ldt_check"]["calls"] == ldt_est.trials
    # oracles hold the polynomial's eval and restrict from the moment they are
    # built, so one built before install would bypass these wrappers; the
    # counts are pinned (the ldt ones are the 5 + 25 materialized entries).
    # A FactoredPoly runs its factors' compiled code without calling these
    # methods, so the pcp counts are the direct MultiPoly calls of 20 trials:
    # 4 restricts per trial (1 chi-hat lines query, 3 lines queries of the
    # all-zero conflict certificate, since K4 has no proper coloring) and 10
    # evals per trial (3 chi-hat reads behind the corrupted color table, 3
    # point queries of the zero certificate, 1 edge-polynomial check in
    # pcp_verify, and 3 generator values for phi: 1 on V, 2 on V x V)
    poly_calls = [(st["poly.restrict"]["calls"], st["poly.eval"]["calls"])
                  for st in (stats[0], stats[1])]
    assert poly_calls == [(80, 200), (25, 5)]


def test_tracer_role_names_are_the_proof_roles():
    # queries are labelled by these names; a role renamed in PcpProof alone
    # would leave its queries unlabelled
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", trials=1, seed=5)
    assert tuple(harness.build_experiment(cfg).proof.oracles()) == spans.PROOF_ORACLES


def test_certificates_divide_and_only_interpolations_solve():
    # pcp completeness builds two certificates by division, which runs no
    # Matrix.solve, and interpolates two functions, each one Matrix.solve
    # over the standard monomials (3x3 and 9x9 cells); both certificates are
    # counted as zerotest's vanishing_certificate spans, so a certificate
    # built around the prover, or one that solves a linear system, fails
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
    assert (stats["linalg.solve"]["calls"], stats["linalg.solve"]["work"]) == (2, 90)
    assert stats["variety.vanishing_certificate"]["calls"] == 2
