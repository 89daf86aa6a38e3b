"""PCP for graph 3-coloring over a variety-indexed vertex set.

Vertices are identified with the points of a variety V ⊆ F_q^m through the
fixed lexicographic point enumeration (graphs smaller than |V| are padded
with isolated points colored 0).  A coloring with colors {-1, 0, 1} (residues
{q-1, 0, 1}) is lifted to its low-degree extension χ̂, and two derived
polynomials carry the claim:

* validity  A(x)  = χ̂(x)(χ̂(x)-1)(χ̂(x)+1)        — vanishes on V iff every
  vertex got a legal color;
* conflict  B(x,y) = Ê(x,y)·Π_{c∈{±1,±2}}(χ̂(x)-χ̂(y)-c) — vanishes on V×V iff
  no edge joins two equal colors (Ê is the low-degree extension of the
  symmetric 0/1 edge indicator).

The proof is ten oracles (``PcpProof.oracles``): point+lines pairs for χ̂,
A, B, and zero-on-variety certificate pairs for A on V and for B on V×V.
``fewest_conflicts_coloring`` is the one coloring search: it finds the proper
coloring a completeness run proves and the best improper one a soundness run
proves.  ``pcp_prove`` builds every proof, honest or not.  A and B are kept as
their factors and the certificates as their products h_g(x)·y_g, so the
honest oracles answer factor by factor; A and B are multiplied out only for
the certificates' divisions.  An improper coloring has no certificate for B, so
its proof carries the all-zero one and the conflict zero test rejects.

The verifier spends 24 queries: 4 direct reads, 3 low-degree tests (6), and
two 7-query zero tests, plus two local identity checks that cost no extra
queries.  All queries are issued unconditionally so the count is constant
per invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .field import Field
from .ldt import ldt_check, Verdict
from .oracles import honest_oracles, LinesOracle, PointOracle
from .poly import FactoredPoly, MultiPoly
from .variety import NoCertificateError, Variety, product, read_int_rows
from .zerotest import ZeroProof, ZeroRandomness, zero_certificate, zero_prove, zero_verify


def _edge_problem(n: int, u: int, v: int) -> str:
    """Why (u, v) is no edge of a graph on vertices 0..n-1, or ''."""
    if u == v:
        return f"self-loop at vertex {u}"
    if not (0 <= u < n and 0 <= v < n):
        return f"edge ({u},{v}) out of range for n={n}"
    return ""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n: int, pairs: Sequence[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = set()
        for u, v in pairs:
            problem = _edge_problem(n, u, v)
            if problem:
                raise ValueError(problem)
            edges.add((min(u, v), max(u, v)))
        return cls(n, frozenset(edges))

    @classmethod
    def from_file(cls, path: str | Path) -> "Graph":
        """Line 1: vertex count; then one ``u v`` pair per line (0-indexed).

        Duplicate edges are ignored; blank lines and ``#`` comments allowed.
        A malformed line, a vertex count below 1, a self-loop or an edge out of
        range is a ValueError naming the file and the line.
        """
        rows = read_int_rows(path)
        if not rows:
            raise ValueError(f"empty graph file {path}")
        (count, where), edges = rows[0], rows[1:]
        if len(count) != 1 or count[0] < 1:
            raise ValueError(f"{where}: expected the vertex count, at least 1")
        for edge, where in edges:
            if len(edge) != 2:
                raise ValueError(f"{where}: expected one edge, two vertices")
            problem = _edge_problem(count[0], *edge)
            if problem:
                raise ValueError(f"{where}: {problem}")
        return cls.from_edges(count[0], [edge for edge, _ in edges])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and (min(u, v), max(u, v)) in self.edges

    def conflicts(self, colors: Sequence[int], q: int) -> int:
        """Number of edges whose endpoints share a color (as residues)."""
        return sum(1 for u, v in self.edges if colors[u] % q == colors[v] % q)


def color_residues(field: Field) -> tuple[int, int, int]:
    """The three legal colors {-1, 0, 1} as canonical residues."""
    return (field.q - 1, 0, 1)


def validate_coloring(field: Field, graph: Graph, colors: Sequence[int]) -> list[int]:
    if len(colors) != graph.n:
        raise ValueError(f"coloring has {len(colors)} entries for {graph.n} vertices")
    legal = set(color_residues(field))
    out = [c % field.q for c in colors]
    bad = [c for c in out if c not in legal]
    if bad:
        raise ValueError(f"colors must lie in {{-1,0,1}} mod q; got residue {bad[0]}")
    return out


IMPROPER_SEARCH_CAP = 12  # vertices; the search beyond allowance 0 grows as 3^n


def fewest_conflicts_coloring(graph: Graph, field: Field, proper_only: bool = False
                              ) -> list[int] | None:
    """The lexicographically first coloring, in palette order (-1, 0, 1), with
    the fewest conflicting edges.

    Depth-first over vertices 0..n-1, pruning a branch once its conflicts
    exceed an allowance, run at allowance 0, 1, 2, ... until one succeeds.
    Allowance 0 is plain backtracking, so a proper coloring is found at any
    size; a graph with none is refused above ``IMPROPER_SEARCH_CAP`` vertices.
    With ``proper_only`` the search stops after allowance 0 and returns None
    for a graph with no proper coloring within the cap.
    """
    palette = color_residues(field)
    earlier: list[list[int]] = [[] for _ in range(graph.n)]  # lower-index neighbors
    for u, v in graph.edges:
        earlier[v].append(u)
    colors = [0] * graph.n

    def place(v: int, allowance: int) -> bool:
        if v == graph.n:
            return True
        for c in palette:
            bad = sum(colors[w] == c for w in earlier[v])
            if bad <= allowance:
                colors[v] = c
                if place(v + 1, allowance - bad):
                    return True
        return False

    allowance = 0
    while not place(0, allowance):
        if graph.n > IMPROPER_SEARCH_CAP:
            raise ValueError(
                f"graph has no proper 3-coloring and {graph.n} vertices, above the "
                f"{IMPROPER_SEARCH_CAP}-vertex cap of the fewest-conflicts search")
        if proper_only:
            return None
        allowance += 1
    return colors


class PcpInstance:
    """Shared prover/verifier context for one (variety, graph) pair.

    Holds the product variety V×V with its union generating set, and the edge
    extension Ê, all computed once.  The verifier's degree tag d is V's
    extension degree.
    """

    __slots__ = ("variety", "graph", "d", "variety2", "kprime", "edge_poly")

    def __init__(self, variety: Variety, graph: Graph):
        if graph.n > len(variety.points):
            raise ValueError(
                f"graph has {graph.n} vertices but the variety only {len(variety.points)} points"
            )
        self.variety = variety
        self.graph = graph
        self.d = variety.extension_degree
        self.variety2 = product(variety, variety)
        self.kprime = self.variety2.complexity
        self.edge_poly = _edge_extension(self.variety2, variety, graph)

    @property
    def field(self) -> Field:
        return self.variety.field

    @property
    def m(self) -> int:
        return self.variety.m

    @property
    def k(self) -> int:
        return self.variety.complexity


def _edge_extension(variety2: Variety, variety: Variety, graph: Graph) -> MultiPoly:
    """Low-degree extension over V×V of the symmetric 0/1 edge indicator."""
    m = variety.m
    values = []
    for pp in variety2.points:
        i = variety.index_of(pp[:m])
        j = variety.index_of(pp[m:])
        inside = i < graph.n and j < graph.n
        values.append(1 if inside and graph.has_edge(i, j) else 0)
    return variety2.low_degree_extension(values)


CONFLICT_OFFSETS = (1, -1, 2, -2)


@dataclass(frozen=True)
class PcpProof:
    """The ten proof oracles (two of the pairs live inside ZeroProofs)."""

    color: PointOracle          # χ̂,  degree tag d
    color_lines: LinesOracle
    validity: PointOracle       # A,   degree tag 3d
    validity_lines: LinesOracle
    validity_cert: ZeroProof    # M_A pair, degree tag 3d
    conflict: PointOracle       # B,   degree tag 6d, over F_q^{2m}
    conflict_lines: LinesOracle
    conflict_cert: ZeroProof    # M_B pair, degree tag 6d

    def oracles(self) -> dict[str, PointOracle | LinesOracle]:
        """The ten oracles in field order, keyed by role; a certificate's
        two are ``<field>.point`` and ``<field>.lines``."""
        out = {}
        for f in fields(self):
            oracle = getattr(self, f.name)
            if isinstance(oracle, ZeroProof):
                out[f.name + ".point"] = oracle.point
                out[f.name + ".lines"] = oracle.lines
            else:
                out[f.name] = oracle
        return out


@dataclass(frozen=True)
class PcpRandomness:
    a: tuple[int, ...]       # F_q^m
    b: tuple[int, ...]       # F_q^m
    alpha: tuple[int, ...]   # F_q^{2m}
    beta: tuple[int, ...]    # F_q^{2m}
    gamma1: tuple[int, ...]  # F_q^{m+k}
    gamma2: tuple[int, ...]  # F_q^{m+k}
    mu1: tuple[int, ...]     # F_q^{2m+k'}
    mu2: tuple[int, ...]     # F_q^{2m+k'}
    t: int

    @classmethod
    def sample(cls, inst: PcpInstance, rng) -> "PcpRandomness":
        """Fixed draw order (a, b, alpha, beta, gamma1, gamma2, mu1, mu2, t)."""
        field = inst.field
        m = inst.m

        def point(s: int) -> tuple[int, ...]:
            return field.sample_point(rng, s)

        return cls(
            a=point(m), b=point(m),
            alpha=point(2 * m), beta=point(2 * m),
            gamma1=point(m + inst.k), gamma2=point(m + inst.k),
            mu1=point(2 * m + inst.kprime), mu2=point(2 * m + inst.kprime),
            t=field.sample(rng, nonzero=True),
        )


def claim_polynomials(
    inst: PcpInstance, colors: Sequence[int]
) -> tuple[MultiPoly, FactoredPoly, FactoredPoly]:
    """(χ̂, validity, conflict) for a coloring with legal residues.

    Validity and conflict are returned as their factors.  The coloring need
    not be proper; the conflict polynomial then simply fails to vanish on
    V×V, which is exactly what soundness experiments want.
    """
    variety = inst.variety
    field = inst.field
    chi_values = validate_coloring(field, inst.graph, colors)
    chi_values += [0] * (len(variety.points) - inst.graph.n)

    chi = variety.low_degree_extension(chi_values)
    validity = FactoredPoly.product([chi, chi.add_constant(-1), chi.add_constant(1)])

    m2 = 2 * inst.m
    diff = chi.shift_vars(m2, 0).sub(chi.shift_vars(m2, inst.m))
    conflict = FactoredPoly.product(
        [inst.edge_poly] + [diff.add_constant(-c) for c in CONFLICT_OFFSETS])
    return chi, validity, conflict


def pcp_prove(inst: PcpInstance, colors: Sequence[int]) -> PcpProof:
    """The proof for a coloring with legal residues, proper or not.

    The conflict polynomial of an improper edge evaluates to
    Ê(u,v)·Π_{c∈{±1,±2}}(-c) = 4 ≠ 0, so B has no certificate and the proof
    carries the all-zero one (``zero_certificate``); the conflict zero test
    then rejects wherever B is nonzero.  Any other ``NoCertificateError`` is
    raised: a claim that vanishes on the variety must be certified.
    """
    chi, validity, conflict = claim_polynomials(inst, colors)
    d = inst.d
    validity_cert = zero_prove(validity, inst.variety, 3 * d)
    try:
        conflict_cert = zero_prove(conflict, inst.variety2, 6 * d)
    except NoCertificateError:
        if not inst.graph.conflicts(colors, inst.field.q):
            raise
        conflict_cert = zero_certificate(inst.variety2, 6 * d)

    color_pt, color_ln = honest_oracles(chi, d)
    validity_pt, validity_ln = honest_oracles(validity, 3 * d)
    conflict_pt, conflict_ln = honest_oracles(conflict, 6 * d)
    return PcpProof(color_pt, color_ln, validity_pt, validity_ln, validity_cert,
                    conflict_pt, conflict_ln, conflict_cert)


def pcp_verify(inst: PcpInstance, proof: PcpProof, r: PcpRandomness) -> Verdict:
    """24 queries: 4 direct reads + 3 LDTs (6) + two zero tests (14)."""
    q = inst.field.q
    d = inst.d

    # direct reads (4)
    ca = proof.color.query(r.a)
    cb = proof.color.query(r.b)
    va = proof.validity.query(r.a)
    wab = proof.conflict.query(r.a + r.b)

    # low-degree tests (2 queries each)
    ldt_color = ldt_check(d, proof.color, proof.color_lines, r.a, r.b, r.t)
    ldt_validity = ldt_check(3 * d, proof.validity, proof.validity_lines, r.a, r.b, r.t)
    ldt_conflict = ldt_check(6 * d, proof.conflict, proof.conflict_lines,
                             r.alpha, r.beta, r.t)

    # local identity checks (no queries; Ê is the verifier's own polynomial)
    validity_ok = va == ca * (ca - 1) % q * (ca + 1) % q
    expected = inst.edge_poly.eval(r.a + r.b)
    for c in CONFLICT_OFFSETS:
        expected = expected * (ca - cb - c) % q
    conflict_ok = wab == expected

    # zero tests (7 queries each)
    z_validity = zero_verify(inst.variety, 3 * d, proof.validity, proof.validity_cert,
                             ZeroRandomness(r.gamma1, r.gamma2, r.a, r.t))
    z_conflict = zero_verify(inst.variety2, 6 * d, proof.conflict, proof.conflict_cert,
                             ZeroRandomness(r.mu1, r.mu2, r.alpha, r.t))

    ok = (
        ldt_color.accepted and ldt_validity.accepted and ldt_conflict.accepted
        and validity_ok and conflict_ok
        and z_validity.accepted and z_conflict.accepted
    )
    return Verdict(ok)


def implied_proof_size(proof: PcpProof) -> dict[str, int]:
    """Bits of each (never materialized) oracle, by role, and ``total_bits``.

    A point table holds q^s entries, a lines table q^{2s} entries of
    degree+1 coefficients; each coefficient takes ceil(log2 q) bits.
    """
    sizes = {}
    for role, oracle in proof.oracles().items():
        q = oracle.field.q
        entries = q ** oracle.s
        if isinstance(oracle, LinesOracle):
            entries *= q ** oracle.s * (oracle.degree + 1)
        sizes[role] = entries * (q - 1).bit_length()
    return sizes | {"total_bits": sum(sizes.values())}
