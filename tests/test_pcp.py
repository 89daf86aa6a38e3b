"""Graph 3-coloring PCP: graphs, claim polynomials, prover, 24-query verifier."""

import hashlib
import itertools
import random
from dataclasses import replace

import pytest

from pcplab import pcp
from pcplab.field import Field
from pcplab.harness import (
    ConfigError,
    CountingRng,
    ExperimentConfig,
    _bits_per_element,
    load_graph,
    run_experiment,
)
from pcplab.ldt import ACCEPT, REJECT
from pcplab.pcp import (
    CONFLICT_OFFSETS,
    Graph,
    PcpInstance,
    PcpProof,
    PcpRandomness,
    claim_polynomials,
    color_residues,
    fewest_conflicts_coloring,
    implied_proof_size,
    pcp_prove,
    pcp_verify,
    validate_coloring,
)
from pcplab.variety import (
    NoCertificateError,
    Variety,
    make_variety,
    vanishing_certificate,
    vanishes_on,
)
from pcplab.poly import FactoredPoly
from pcplab.zerotest import ZeroRandomness, zero_prove

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
    assert fewest_conflicts_coloring(triangle, F17) == [16, 0, 1]
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert k4.conflicts(fewest_conflicts_coloring(k4, F17), 17) > 0


def test_best_effort_coloring_k4():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    colors = fewest_conflicts_coloring(k4, F17)
    assert k4.conflicts(colors, 17) == 1  # K_4 always has one bad edge
    assert colors == [16, 16, 0, 1]


def _brute_force_coloring(graph, q):
    """The lexicographically first coloring over the palette (q-1, 0, 1)
    with the fewest equal-colored edges, by enumerating all 3^n of them."""
    best = None
    for colors in itertools.product((q - 1, 0, 1), repeat=graph.n):
        bad = sum(colors[u] == colors[v] for u, v in graph.edges)
        if best is None or bad < best[0]:
            best = (bad, list(colors))
            if bad == 0:            # nothing beats a proper coloring
                break
    return best[1]


def _labelled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def test_coloring_search_matches_brute_force_on_every_small_graph():
    graphs = [g for n in range(1, 6) for g in _labelled_graphs(n)]
    assert len(graphs) == 1 + 2 + 8 + 64 + 1024
    for graph in graphs:
        assert fewest_conflicts_coloring(graph, F5) == _brute_force_coloring(graph, 5)


def test_coloring_search_matches_brute_force_on_random_graphs():
    rng = random.Random(15)
    proper = 0
    for _ in range(200):
        n = rng.randrange(6, 10)
        density = rng.choice((0.2, 0.4, 0.6))
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        graph = Graph.from_edges(n, pairs)
        colors = fewest_conflicts_coloring(graph, F17)
        assert colors == _brute_force_coloring(graph, 17)
        proper += graph.conflicts(colors, 17) == 0
    assert 0 < proper < 200     # both searches, proper and improper, are exercised


def test_coloring_search_cap_applies_only_without_a_proper_coloring():
    path = Graph.from_edges(13, [(i, i + 1) for i in range(12)])
    assert fewest_conflicts_coloring(path, F17) == [16, 0] * 6 + [16]
    k13 = Graph.from_edges(13, list(itertools.combinations(range(13), 2)))
    with pytest.raises(ValueError, match="no proper 3-coloring.*12-vertex cap"):
        fewest_conflicts_coloring(k13, F17)


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
    colors = fewest_conflicts_coloring(inst.graph, F17)
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
    rng = CountingRng(4)
    rejected = sum(
        not pcp_verify(inst, proof, PcpRandomness.sample(inst, rng)) for _ in range(300)
    )
    assert rejected > 0


def test_prover_raises_for_a_vanishing_claim_without_certificate():
    # with only the x-side generator (and the x-side Gröbner basis that
    # certificates divide by), B of a proper coloring vanishes on V×V but has
    # no certificate; only an improper coloring earns the zero one
    inst = k3_instance()
    inst.variety2.gens = inst.variety2.gens[:inst.k]
    inst.variety2.grobner_basis = inst.variety2.grobner_basis[:len(inst.variety.grobner_basis)]
    with pytest.raises(NoCertificateError):
        pcp_prove(inst, fewest_conflicts_coloring(inst.graph, F17))


def test_pcp_verify_returns_the_shared_verdicts():
    # every trial returns ACCEPT or REJECT itself, and its randomness is a
    # named tuple whose fields keep the draw order
    inst = k3_instance()
    honest = pcp_prove(inst, fewest_conflicts_coloring(inst.graph, F17))
    improper = pcp_prove(inst, [1, 1, 0])
    rng = CountingRng(4)
    rejected = 0
    for _ in range(50):
        r = PcpRandomness.sample(inst, rng)
        assert pcp_verify(inst, honest, r) is ACCEPT
        verdict = pcp_verify(inst, improper, r)
        assert verdict is ACCEPT or verdict is REJECT
        rejected += verdict is REJECT
    assert rejected > 0
    assert r._fields == ("a", "b", "alpha", "beta", "gamma1", "gamma2", "mu1", "mu2", "t")


def test_pcp_verify_hands_the_zero_tests_their_randomness(monkeypatch):
    # the two ZeroRandomness records are built with tuple.__new__: they must
    # be exact instances holding (gamma1, gamma2, a, t) and (mu1, mu2, alpha, t)
    inst = k3_instance()
    proof = pcp_prove(inst, fewest_conflicts_coloring(inst.graph, F17))
    seen = []
    verify = pcp.zero_verify
    monkeypatch.setattr(pcp, "zero_verify", lambda *args: seen.append(args[-1]) or verify(*args))
    r = PcpRandomness.sample(inst, CountingRng(2))
    assert pcp_verify(inst, proof, r) is ACCEPT
    assert [type(z) for z in seen] == [ZeroRandomness, ZeroRandomness]
    assert seen == [ZeroRandomness(r.gamma1, r.gamma2, r.a, r.t),
                    ZeroRandomness(r.mu1, r.mu2, r.alpha, r.t)]


def test_single_vertex_graph():
    variety = Variety(F5, [(3,)])
    inst = PcpInstance(variety, Graph.from_edges(1, []))
    assert inst.d == 0
    proof = pcp_prove(inst, [1])
    r = PcpRandomness.sample(inst, CountingRng(0))
    assert pcp_verify(inst, proof, r)


# -- proofs and verification --------------------------------------------------

def test_proof_oracle_tags():
    inst = k3_instance()
    proof = pcp_prove(inst, fewest_conflicts_coloring(inst.graph, F17))
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
    proof = pcp_prove(inst, fewest_conflicts_coloring(inst.graph, F17))
    rng = CountingRng(7)
    for _ in range(200):
        r = PcpRandomness.sample(inst, rng)
        assert pcp_verify(inst, proof, r)


def test_verifier_spends_exactly_24_queries():
    inst = k3_instance()
    proof = pcp_prove(inst, fewest_conflicts_coloring(inst.graph, F17))
    r = PcpRandomness.sample(inst, CountingRng(1))
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
    colors = fewest_conflicts_coloring(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), F17)
    proof = pcp_prove(inst, colors)
    zero_a = MultiPoly.zero(F17, 1 + inst.k, cap=3 * inst.d)
    bad = replace(proof, validity_cert=ZeroProof(*honest_oracles(zero_a, 3 * inst.d)))
    rng = CountingRng(3)
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
    proof = pcp_prove(inst, fewest_conflicts_coloring(inst.graph, F17))
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
    # polynomial has 493 terms of degree 12 over the four generators; the
    # cofactors' canonical text is pinned as a dense elimination over all
    # cofactor coefficients computed it, which division must reproduce
    field = Field(257)
    variety = make_variety(field, "cube:H=0,1;m=2")
    graph = load_graph("complete:3")
    inst = PcpInstance(variety, graph)
    _, _, conflict = claim_polynomials(inst, fewest_conflicts_coloring(graph, field))
    expanded = conflict.expand()
    assert expanded.degree() == 12
    cofactors = vanishing_certificate(expanded, inst.variety2.gens)
    assert [hashlib.sha256(h.text().encode()).hexdigest() for h in cofactors] == [
        "7b825bd2edfaf7c87029d549ebea69c3bf3c61a24f79dcbf01c6a2e216f7a499",
        "3187be1f826e51cb2f5a32f683d086955110904dfa1dc8ba1077ae2ef99e48cb",
        "8dd82ec89e65bdac279d9380cbe6e7922980b26b7f5cbd5a4168cd7262662ba1",
        "ceb0d2e631a5a240e2fcde3f67baddb5670874c66f683a110868be25e43cc0c1",
    ]


# Cofactor text of A and B, as the single linear solve over all cofactor
# coefficients computed it (free coefficients zero) before certificates were
# built by division; on these families the generators are their own Gröbner
# basis and division must give the same cofactors.
_FAMILY_CERTIFICATES = {
    (17, "cube:H=0,1,2;m=1"): (
        [
            "d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35",
        ],
        [
            "70887505f58b4e4552f88acac64c8c3a2cbf3c94d798cebb056d1a79a1a8211b",
            "27c41fa5d5cbdbefdff262ee92743f9de36b739fec0627bff13c7287781877f1",
        ],
    ),
    (257, "ball1:n=3"): (
        [
            "52d0d007b00acd4ff632660b3712d56a93035fa342a24ca53d1a99dfe75d1f10",
            "091756b2883edd94607d7e4cacfe16c97290a3c8a0b4a779673aa904f48bcd96",
            "c58e385b8175a5960cb1234c25cf587eac696b7e82b414d6de30a02dfec8e9fc",
            "c68d44ee78c5861eb2ddc175a9d8c60b9dde1bd0631f936c532df74cf204f141",
            "d0631345cf32d7652d672ceddc51031c9706baf750406035f1b443217dd6f74e",
            "384c4571e61a9971d1cc315d41b02e35179b6c8e4be2331c127714bf896575fe",
        ],
        [
            "7a23d54ee0ea7df590cacd412c22828cb0244441e73c03216b886bc1e50935a3",
            "f1fa72a4483229093d04543a80ec92d5e0e5783d68279e5c21e05888b11f253e",
            "c041e98e928d5b7ce665e43f0cc078d9ff8bef281376501edcdd530ba5e8ef25",
            "1063fabd3f4af82ce92f53076a6808276324fb62d8daa6d318b038dc3e9c0b1e",
            "f25918d559f02b2270b32a51e6277d4a65a12b2f623e2a209b451c9e9fc35645",
            "e453de0f02837d062d5bc5fb290c4c1d784040e56a2fcaac235c3abb682b57bb",
            "5767b52529863d405128460cbf3ec05584c976365ec6f9ae7c5dcef278830b39",
            "85517ce519ceee758a5e8c1527493069c41128634e1d8412ca0c41b7fa29adb4",
            "abb03db1434cbeb742068662e7db82f030d44892a0f4295e1839bcc3429643e2",
            "6efab178d633f14515054746caff20a487052b194788cd81c9578e9f8cf59f03",
            "91fe6801b5ca3ca1db2087f9bfc73c4a66781a1a47d0ce29cfd15f3b87087d69",
            "396d1e9b1f5e6c78f04a88e2d3efbfc837b0239cab43e50511ce1348c4d671bf",
        ],
    ),
    (257, "pow:(ball1:n=2)^2"): (
        [
            "723a7ee3598975431a0a7c580f10cb81e598471475a1565e776f1b02ba134bdf",
            "c6c3c9815bd124a8e1e64c6e6f871d75bd40b111d2d570ce38097ed3ac568860",
            "30e18adbe85794e58d0682205270e7084cffd443608db22bda3aaeccc7e2c548",
            "11b51a180a71923d1a90b4ee24803a86148d3cf81aed2243ae312db5f69af605",
            "ba7265e402e31950e32699dd489be3c42bc1e32228d7f0964888400aecf5d569",
            "7035b4b3add54b55550abc4338e563620b9e2db275cf32c9a14d31f89f5e3e49",
        ],
        [
            "cc24515fb182b8d919f58d905dc50e271fa53916b6af012c366e61bedfe9f202",
            "59bc9231f7ed634a66af1fa3ced7d8cd7161386519fbf2866c5cf05f03ea7e8e",
            "d248121bf61302b3a2a68d2cd2f775aca686e35c408d7a47bf013c4725b590a0",
            "4a857ee639b5ce1bbbb6a74011d3aa0865f09f7ed98b764a1be4ad9c32f567d5",
            "890f12aa40b67581bad79631fb191e1bce90e0758be9f5e39cb57708e8c8effe",
            "e1599fee6f2ec9580773ad1f6b593be147aeb7720fa2fa348590ee08e6c0ee19",
            "f2c2d278875192f7a58f64c3deecd629f641663d7f3a57059fe18ef85988a8e9",
            "012899e017e978c4631c1c99374caaa6b6cbee64906211f38b7a0b3a53c8221b",
            "50b97745d93b995c278182c7f0255e4f9fd760662c56546bcdfc9e2d0a9ba8a3",
            "a656c8ee61cd02003cab6e196f9df8a52837dc13c431962a21949c7398147248",
            "f14549aaf3ad0cadbcdfc26cb5b3ba0a06f232cb44a0f125052baf349abfab93",
            "97ed1f091019f64f2053fe23cf21b057a1c824bab616dcebe6fe03532ea31dca",
        ],
    ),
}


@pytest.mark.parametrize("q, spec", list(_FAMILY_CERTIFICATES))
def test_family_certificates_pinned(q, spec):
    field = Field(q)
    graph = load_graph("complete:3")
    inst = PcpInstance(make_variety(field, spec), graph)
    _, validity, conflict = claim_polynomials(inst, fewest_conflicts_coloring(graph, field))
    got = tuple(
        [hashlib.sha256(h.text().encode()).hexdigest()
         for h in vanishing_certificate(claim.expand(), variety)]
        for claim, variety in ((validity, inst.variety), (conflict, inst.variety2)))
    assert got == _FAMILY_CERTIFICATES[q, spec]


def _certificate_or_refusal(claim, variety):
    """Every cofactor's ring, cap and terms in stored order, or the refusal."""
    try:
        return [(h.field, h.nvars, h.cap, list(h.terms.items()))
                for h in vanishing_certificate(claim, variety)]
    except NoCertificateError as exc:
        return str(exc)


@pytest.mark.parametrize("q, spec, graph_spec", [
    (257, "cube:H=0,1;m=2", "complete:3"), (257, "cube:H=0,1;m=2", "complete:4"),
    *[(q, spec, "complete:3") for q, spec in _FAMILY_CERTIFICATES]])
def test_factored_claims_certify_as_their_expansions(q, spec, graph_spec):
    # division straight from the factors gives the expansion's cofactors
    # byte for byte (K4's B does not vanish, so both refuse it alike)
    field = Field(q)
    graph = load_graph(graph_spec)
    inst = PcpInstance(make_variety(field, spec), graph)
    _, validity, conflict = claim_polynomials(inst, fewest_conflicts_coloring(graph, field))
    for claim, variety in ((validity, inst.variety), (conflict, inst.variety2)):
        assert (_certificate_or_refusal(claim, variety)
                == _certificate_or_refusal(claim.expand(), variety))


def test_prover_never_multiplies_the_claims_out(monkeypatch):
    # zero_prove hands the factored claims to the division, so neither is
    # ever built as a MultiPoly
    field = Field(257)
    graph = load_graph("complete:3")
    inst = PcpInstance(make_variety(field, "cube:H=0,1;m=2"), graph)
    _, validity, conflict = claim_polynomials(inst, fewest_conflicts_coloring(graph, field))

    def refuse(self):
        raise AssertionError("FactoredPoly.expand called")

    monkeypatch.setattr(FactoredPoly, "expand", refuse)
    zero_prove(validity, inst.variety, 3 * inst.d)
    zero_prove(conflict, inst.variety2, 6 * inst.d)
