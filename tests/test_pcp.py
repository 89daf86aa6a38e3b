"""Graph 3-coloring PCP: graphs, claim polynomials, prover, 24-query verifier."""

import hashlib
import random
from dataclasses import replace

import pytest

from pcplab.field import Field
from pcplab.harness import (
    ConfigError,
    ExperimentConfig,
    _bits_per_element,
    load_graph,
    run_experiment,
)
from pcplab.pcp import (
    CONFLICT_OFFSETS,
    Graph,
    PcpInstance,
    PcpProof,
    PcpRandomness,
    best_effort_coloring,
    claim_polynomials,
    color_residues,
    implied_proof_size,
    pcp_prove,
    pcp_verify,
    proper_3_coloring,
    validate_coloring,
)
from pcplab.variety import (
    NoCertificateError,
    Variety,
    make_variety,
    vanishing_certificate,
    vanishes_on,
)

F5 = Field(5)
F17 = Field(17)


def k3_instance():
    variety = Variety(F17, [(0,), (1,), (2,)])
    graph = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    return PcpInstance(variety, graph)


# -- graphs -------------------------------------------------------------------

def test_graph_from_edges():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 3)])
    assert len(g.edges) == 2  # (1,0) collapses onto (0,1)
    assert g.has_edge(1, 0) and g.has_edge(3, 2)
    assert not g.has_edge(0, 0)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])


def test_graph_from_file(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("# triangle plus a duplicate edge\n3\n0 1\n1 2\n0 2\n0 1\n")
    g = Graph.from_file(f)
    assert g.n == 3 and len(g.edges) == 3
    (tmp_path / "empty.txt").write_text("\n# only comments\n")
    with pytest.raises(ValueError):
        Graph.from_file(tmp_path / "empty.txt")
    (tmp_path / "loop.txt").write_text("2\n1 1\n")
    with pytest.raises(ValueError):
        Graph.from_file(tmp_path / "loop.txt")


def test_conflicts_counts_equal_colored_edges():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.conflicts([1, 1, 0], 5) == 1
    assert g.conflicts([1, 0, 1], 5) == 0
    assert g.conflicts([4, -1, 4], 5) == 2  # -1 ≡ 4


# -- colorings ----------------------------------------------------------------

def test_color_residues():
    assert color_residues(F5) == (4, 0, 1)
    assert color_residues(F17) == (16, 0, 1)


def test_validate_coloring():
    g = Graph.from_edges(2, [(0, 1)])
    assert validate_coloring(F5, g, [-1, 1]) == [4, 1]
    with pytest.raises(ValueError):
        validate_coloring(F5, g, [0])
    with pytest.raises(ValueError):
        validate_coloring(F5, g, [0, 2])


def test_proper_coloring_search():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    colors = proper_3_coloring(triangle, F17)
    assert colors is not None
    assert triangle.conflicts(colors, 17) == 0
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert proper_3_coloring(k4, F17) is None


def test_best_effort_coloring_k4():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    colors = best_effort_coloring(k4, F17)
    assert k4.conflicts(colors, 17) == 1  # K_4 always has one bad edge
    big = Graph.from_edges(13, [])
    with pytest.raises(ValueError):
        best_effort_coloring(big, F17)


# -- edge extension -----------------------------------------------------------

def test_edge_extension_empty_graph_is_zero():
    variety = Variety(F5, [(0,), (1,)])
    e = PcpInstance(variety, Graph.from_edges(2, [])).edge_poly
    assert e.is_zero()


def test_edge_extension_single_edge():
    variety = Variety(F5, [(0,), (1,)])
    e = PcpInstance(variety, Graph.from_edges(2, [(0, 1)])).edge_poly
    # x + y - 2xy: the symmetric indicator of {(0,1), (1,0)} on {0,1}^2
    assert e.terms == {(1, 0): 1, (0, 1): 1, (1, 1): 3}
    for x in range(2):
        for y in range(2):
            assert e.eval((x, y)) == (1 if x != y else 0)


def test_edge_extension_triangle():
    inst = k3_instance()
    e = inst.edge_poly
    assert e.degree() <= 2 * inst.d
    for i in range(3):
        for j in range(3):
            assert e.eval((i, j)) == (1 if i != j else 0)


# -- instances and claim polynomials -----------------------------------------

def test_instance_shape():
    inst = k3_instance()
    assert (inst.m, inst.k, inst.d) == (1, 1, 2)
    assert inst.kprime == 2
    assert inst.field.q == 17


def test_instance_rejects_oversized_graph():
    variety = Variety(F17, [(0,), (1,), (2,)])
    with pytest.raises(ValueError):
        PcpInstance(variety, Graph.from_edges(4, []))


def test_claim_polynomials_proper():
    inst = k3_instance()
    colors = proper_3_coloring(inst.graph, F17)
    chi, validity, conflict = claim_polynomials(inst, colors)
    v = inst.variety
    for pt, c in zip(v.points, colors):
        assert chi.eval(pt) == c
    assert vanishes_on(validity, v)
    assert vanishes_on(conflict, inst.variety2)
    assert chi.degree() <= inst.d
    assert validity.degree() <= 3 * inst.d
    assert conflict.degree() <= 6 * inst.d


def test_claim_polynomials_improper_conflict_value():
    inst = k3_instance()
    _, _, conflict = claim_polynomials(inst, [1, 1, 0])  # edge (0,1) clashes
    # at the clashing pair the product over offsets is (-1)(1)(-2)(2) = 4
    assert conflict.eval((0, 1)) == 4
    assert conflict.eval((1, 0)) == 4
    assert conflict.eval((1, 2)) == 0


def test_improper_coloring_proof_is_rejected():
    # B has no certificate, so the prover publishes the all-zero one and the
    # verifier must catch the clash
    inst = k3_instance()
    proof = pcp_prove(inst, [1, 1, 0])
    rng = random.Random(4)
    rejected = sum(
        not pcp_verify(inst, proof, PcpRandomness.sample(inst, rng)) for _ in range(300)
    )
    assert rejected > 0


def test_prover_raises_for_a_vanishing_claim_without_certificate():
    # with only the x-side generator, B of a proper coloring vanishes on V×V
    # but has no certificate; only an improper coloring earns the zero one
    inst = k3_instance()
    inst.variety2.gens = inst.variety2.gens[:inst.k]
    with pytest.raises(NoCertificateError):
        pcp_prove(inst, proper_3_coloring(inst.graph, F17))


def test_single_vertex_graph():
    variety = Variety(F5, [(3,)])
    inst = PcpInstance(variety, Graph.from_edges(1, []))
    assert inst.d == 0
    proof = pcp_prove(inst, [1])
    r = PcpRandomness.sample(inst, random.Random(0))
    assert pcp_verify(inst, proof, r)


# -- proofs and verification --------------------------------------------------

def test_proof_oracle_tags():
    inst = k3_instance()
    proof = pcp_prove(inst, proper_3_coloring(inst.graph, F17))
    d = inst.d
    assert proof.color.degree == d and proof.color.s == 1
    assert proof.validity.degree == 3 * d
    assert proof.conflict.degree == 6 * d and proof.conflict.s == 2
    assert proof.validity_cert.point.degree == 3 * d
    assert proof.validity_cert.point.s == 1 + inst.k
    assert proof.conflict_cert.point.degree == 6 * d
    assert proof.conflict_cert.point.s == 2 + inst.kprime


def test_honest_proof_accepts_sampled_randomness():
    inst = k3_instance()
    proof = pcp_prove(inst, proper_3_coloring(inst.graph, F17))
    rng = random.Random(7)
    for _ in range(200):
        r = PcpRandomness.sample(inst, rng)
        assert pcp_verify(inst, proof, r)


def test_verifier_spends_exactly_24_queries():
    inst = k3_instance()
    proof = pcp_prove(inst, proper_3_coloring(inst.graph, F17))
    r = PcpRandomness.sample(inst, random.Random(1))
    pcp_verify(inst, proof, r)
    per_oracle = [
        proof.color.queries, proof.color_lines.queries,
        proof.validity.queries, proof.validity_lines.queries,
        proof.conflict.queries, proof.conflict_lines.queries,
        proof.validity_cert.point.queries, proof.validity_cert.lines.queries,
        proof.conflict_cert.point.queries, proof.conflict_cert.lines.queries,
    ]
    assert per_oracle == [3, 1, 3, 1, 3, 1, 3, 3, 3, 3]
    assert sum(per_oracle) == 24


def test_zeroed_certificates_rejected_somewhere():
    from dataclasses import replace

    from pcplab.oracles import honest_oracles
    from pcplab.poly import MultiPoly
    from pcplab.zerotest import ZeroProof

    inst = k3_instance()
    colors = best_effort_coloring(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), F17)
    proof = pcp_prove(inst, colors)
    zero_a = MultiPoly.zero(F17, 1 + inst.k, cap=3 * inst.d)
    bad = replace(proof, validity_cert=ZeroProof(*honest_oracles(zero_a, 3 * inst.d)))
    rng = random.Random(3)
    rejected = sum(
        not pcp_verify(inst, bad, PcpRandomness.sample(inst, rng)) for _ in range(300)
    )
    assert rejected > 0


def test_amplified_verifier():
    # amplification is the harness's reps: a trial rejects iff any of its
    # reps independent verifier invocations rejects
    cfg = ExperimentConfig(experiment="pcp", q=17, variety="cube:H=0,1,2;m=1",
                           graph="complete:3", trials=5, seed=2)
    one, _ = run_experiment(cfg)
    five, _ = run_experiment(replace(cfg, reps=5))
    assert one.rejects == five.rejects == 0
    assert five.queries_per_trial == 5 * one.queries_per_trial == 120
    assert five.randomness_bits_per_trial == 5 * one.randomness_bits_per_trial
    with pytest.raises(ConfigError):
        run_experiment(replace(cfg, reps=0))
    bad = replace(cfg, graph="complete:4", variety="cube:H=0,1,2,3;m=1",
                  mode="soundness", adversary="zero-certs", trials=20)
    single, _ = run_experiment(bad)
    amplified, _ = run_experiment(replace(bad, reps=3))
    assert amplified.rejects >= single.rejects > 0


def test_implied_proof_size():
    inst = k3_instance()
    proof = pcp_prove(inst, proper_3_coloring(inst.graph, F17))
    sizes = implied_proof_size(proof)
    parts = {k: v for k, v in sizes.items() if k != "total_bits"}
    assert tuple(parts) == tuple(proof.oracles())
    assert len(parts) == 10
    assert sizes["total_bits"] == sum(parts.values())
    # dominated by the conflict-certificate lines table over F_17^8
    assert parts["conflict_cert.lines"] == 17 ** 8 * 13 * 5
    assert sizes["total_bits"] > 10 ** 11


def test_implied_proof_size_entry_bits_match_the_budget_above_2_53():
    # 2^53 < q = 2^53 + 5: log2 in floating point rounds q down to 2^53, one
    # bit short of the ceil(log2 q) the randomness budget charges per element
    q = 9007199254740997
    variety = Variety(Field(q), [(0,), (1,)])
    inst = PcpInstance(variety, Graph.from_edges(2, [(0, 1)]))
    sizes = implied_proof_size(pcp_prove(inst, [0, 1]))
    assert _bits_per_element(q) == 54
    assert sizes["color"] == q * 54
    assert sizes["color_lines"] == q ** 2 * (inst.d + 1) * 54


def test_conflict_offsets_frozen():
    assert CONFLICT_OFFSETS == (1, -1, 2, -2)


def test_large_conflict_certificate_pinned():
    # the benchmark's K3 instance (q=257, cube:H=0,1;m=2): its conflict
    # certificate is a 1820 x 4004 solve with 8008 nonzeros; the cofactors'
    # canonical text is pinned as the dense elimination computed it
    field = Field(257)
    variety = make_variety(field, "cube:H=0,1;m=2")
    graph = load_graph("complete:3")
    inst = PcpInstance(variety, graph)
    _, _, conflict = claim_polynomials(inst, proper_3_coloring(graph, field))
    cert = vanishing_certificate(conflict.expand(), inst.variety2.gens)
    assert cert.bound == 12
    assert [hashlib.sha256(h.text().encode()).hexdigest() for h in cert.cofactors] == [
        "7b825bd2edfaf7c87029d549ebea69c3bf3c61a24f79dcbf01c6a2e216f7a499",
        "3187be1f826e51cb2f5a32f683d086955110904dfa1dc8ba1077ae2ef99e48cb",
        "8dd82ec89e65bdac279d9380cbe6e7922980b26b7f5cbd5a4168cd7262662ba1",
        "ceb0d2e631a5a240e2fcde3f67baddb5670874c66f683a110868be25e43cc0c1",
    ]
