"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each pcplab module at the name its
caller looks up: the harness imports names directly (``from .variety import
make_variety``), so ``harness.make_variety`` and ``variety.make_variety`` are
separate bindings and both are wrapped.  Every wrapped call records one span
(name, start, end, parent span, run id, work count) in flat arrays; nothing
is aggregated while the program runs.  Per-layer metrics are derived from the
spans afterwards: ``s`` is inclusive time, ``self_s`` a span's duration minus
the child spans it covers.

Oracle queries are named after the proof role of the oracle that answered
(``oracles.query.color``, ``oracles.query.f``...).  Roles are attached when
the harness receives the oracles: the proof builders' return values for the
PCP, ``honest_oracles`` and ``materialize`` for the ldt/lc pair.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

from pcplab import harness, linalg, oracles, pcp, poly, variety, zerotest

PROOF_ORACLES = (
    "color", "color_lines", "validity", "validity_lines",
    "validity_cert.point", "validity_cert.lines",
    "conflict", "conflict_lines", "conflict_cert.point", "conflict_cert.lines",
)
ORACLES = PROOF_ORACLES + ("f", "flines")

# Every per-layer metric: name -> (span name, statistic).  A span name ending
# in "*" sums every span whose name starts with the prefix.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "poly.restrict.calls": ("poly.restrict", "calls"),
    "poly.restrict.s": ("poly.restrict", "s"),
    "poly.restrict.term_visits": ("poly.restrict", "work"),
    "poly.eval.calls": ("poly.eval", "calls"),
    "poly.eval.s": ("poly.eval", "s"),
    "poly.mul.calls": ("poly.mul", "calls"),
    "poly.mul.s": ("poly.mul", "s"),
    **{f"oracles.query.{o}.{stat}": (f"oracles.query.{o}", stat)
       for o in ORACLES for stat in ("calls", "s")},
    "oracles.query.s": ("oracles.query.*", "s"),
    "oracles.query.self_s": ("oracles.query.*", "self_s"),
    "oracles.materialize.s": ("oracles.materialize", "s"),
    "linalg.solve.calls": ("linalg.solve", "calls"),
    "linalg.solve.s": ("linalg.solve", "s"),
    "linalg.solve.cells": ("linalg.solve", "work"),
    "linalg.kernel_basis.s": ("linalg.kernel_basis", "s"),
    "variety.make_variety.calls": ("variety.make_variety", "calls"),
    "variety.make_variety.s": ("variety.make_variety", "s"),
    "variety.grobner_generating_set.s": ("variety.grobner_generating_set", "s"),
    "variety.product.s": ("variety.product", "s"),
    "variety.low_degree_extension.s": ("variety.low_degree_extension", "s"),
    "variety.vanishing_certificate.s": ("variety.vanishing_certificate", "s"),
    "zerotest.zero_prove.calls": ("zerotest.zero_prove", "calls"),
    "zerotest.zero_prove.s": ("zerotest.zero_prove", "s"),
    "zerotest.zero_verify.calls": ("zerotest.zero_verify", "calls"),
    "zerotest.zero_verify.self_s": ("zerotest.zero_verify", "self_s"),
    "ldt.ldt_check.calls": ("ldt.ldt_check", "calls"),
    "ldt.ldt_check.self_s": ("ldt.ldt_check", "self_s"),
    "ldt.local_correct.calls": ("ldt.local_correct", "calls"),
    "ldt.local_correct.self_s": ("ldt.local_correct", "self_s"),
    "pcp.PcpInstance.calls": ("pcp.PcpInstance", "calls"),
    "pcp.PcpInstance.s": ("pcp.PcpInstance", "s"),
    "pcp.prove.s": ("pcp.prove", "s"),
    "pcp.pcp_verify.calls": ("pcp.pcp_verify", "calls"),
    "pcp.pcp_verify.self_s": ("pcp.pcp_verify", "self_s"),
    "harness.run_experiment.s": ("harness.run_experiment", "s"),
    "harness.self_s": ("harness.run_experiment", "self_s"),
    "harness.randomness_budget.calls": ("harness.randomness_budget", "calls"),
    "harness.randomness_budget.s": ("harness.randomness_budget", "s"),
}
COUNT_STATS = ("calls", "work")


def _terms(p, *_):
    return len(p.terms)


def _cells(matrix, *_):
    return matrix.nrows * matrix.ncols


# span name -> (bindings the callers look up, work counter or None)
PLAN = (
    ("poly.restrict", ((poly.MultiPoly, "restrict"),), _terms),
    ("poly.eval", ((poly.MultiPoly, "eval"),), None),
    ("poly.mul", ((poly.MultiPoly, "mul"),), None),
    ("linalg.solve", ((linalg.Matrix, "solve"),), _cells),
    ("linalg.kernel_basis", ((linalg.Matrix, "kernel_basis"),), None),
    ("variety.make_variety", ((harness, "make_variety"), (variety, "make_variety")), None),
    ("variety.grobner_generating_set", ((variety, "grobner_generating_set"),), None),
    ("variety.product", ((variety, "product"), (pcp, "product")), None),
    ("variety.low_degree_extension", ((variety.Variety, "low_degree_extension"),), None),
    ("variety.vanishing_certificate", ((zerotest, "vanishing_certificate"),), None),
    ("zerotest.zero_prove", ((harness, "zero_prove"), (pcp, "zero_prove")), None),
    ("zerotest.zero_verify", ((harness, "zero_verify"), (pcp, "zero_verify")), None),
    ("ldt.ldt_check", ((harness, "ldt_check"), (pcp, "ldt_check"),
                       (zerotest, "ldt_check")), None),
    ("ldt.local_correct", ((harness, "local_correct"), (zerotest, "local_correct")), None),
    ("pcp.PcpInstance", ((pcp.PcpInstance, "__init__"),), None),
    ("pcp.pcp_verify", ((pcp, "pcp_verify"),), None),
    ("harness.randomness_budget", ((harness, "randomness_budget"),), None),
)


class Tracer:
    """Records spans around the wrapped calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._roles: dict[int, int] = {}    # id(oracle) -> span name id
        self._undo: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _call(self, nid: int, fn, args, kwargs, work: int):
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.work.append(work)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn, work=None, after=None):
        nid = self.intern(name)
        call = self._call

        def traced(*args, **kwargs):
            out = call(nid, fn, args, kwargs, work(*args) if work else 0)
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def begin_run(self, run_id: int) -> None:
        """Attribute the next spans to ``run_id``; roles never outlive a run."""
        self.run_id = run_id
        self._roles.clear()

    # -- oracle roles -------------------------------------------------------

    def role(self, oracle, name: str) -> None:
        self._roles[id(oracle)] = self.intern("oracles.query." + name)

    def _role_proof(self, proof) -> None:
        for name in PROOF_ORACLES:
            obj = proof
            for part in name.split("."):
                obj = getattr(obj, part)
            self.role(obj, name)

    def _role_pair(self, pair) -> None:
        self.role(pair[0], "f")
        self.role(pair[1], "flines")

    def _role_table(self, table) -> None:
        self.role(table, "f" if isinstance(table, oracles.PointOracle) else "flines")

    def _wrap_query(self, fn):
        roles = self._roles
        unlabeled = self.intern("oracles.query.unlabeled")
        call = self._call

        def query(oracle, *args):
            return call(roles.get(id(oracle), unlabeled), fn, (oracle,) + args, {}, 0)

        return query

    # -- install / uninstall ------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        is_dict = isinstance(owner, dict)
        original = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        self._undo.append((owner, attr, original))
        if is_dict:
            owner[attr] = make(original)
        else:
            setattr(owner, attr, make(original))

    def install(self) -> None:
        for name, bindings, work in PLAN:
            for owner, attr in bindings:
                self._patch(owner, attr, lambda fn, n=name, w=work: self.wrap(n, fn, w))
        self._patch(harness, "materialize",
                    lambda fn: self.wrap("oracles.materialize", fn, after=self._role_table))
        self._patch(harness, "honest_oracles", lambda fn: _after(fn, self._role_pair))
        self._patch(harness, "pcp_prove",
                    lambda fn: self.wrap("pcp.prove", fn, after=self._role_proof))
        for adversary in list(harness.PCP_ADVERSARIES):
            self._patch(harness.PCP_ADVERSARIES, adversary,
                        lambda fn: self.wrap("pcp.prove", fn, after=self._role_proof))
        for cls in (oracles.PointOracle, oracles.LinesOracle):
            self._patch(cls, "query", self._wrap_query)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- derived metrics ----------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict[int, dict[str, dict[str, float]]]:
        """Per run id and span name: calls, work, inclusive s and self_s.

        Spans are recorded in call order, so a parent always precedes its
        children.  A span nested in a span of the same name adds to ``calls``
        and ``self_s`` but not again to the inclusive ``s``.
        """
        child = defaultdict(float)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] += self.end[i] - self.start[i]
        out: dict[int, dict[str, dict[str, float]]] = {}
        stack: list[int] = []
        open_names: Counter = Counter()
        for i in range(lo, hi):
            p = self.parent[i]
            while stack and stack[-1] != p:
                open_names[self.name[stack.pop()]] -= 1
            nid = self.name[i]
            dur = self.end[i] - self.start[i]
            st = out.setdefault(self.run[i], {}).setdefault(
                self.names[nid], {"calls": 0, "work": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["work"] += self.work[i]
            st["self_s"] += dur - child[i]
            if not open_names[nid]:
                st["s"] += dur
            stack.append(i)
            open_names[nid] += 1
        return out

    def write(self, path, runs: dict[int, str]) -> None:
        """Write every recorded span as tab-separated text."""
        with open(path, "w") as fh:
            fh.write("# runs " + " ".join(f"{r}={v}" for r, v in sorted(runs.items())) + "\n")
            fh.write("span\trun\tparent\tname\tstart_s\tend_s\twork\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.run[i]}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.work[i]}\n")


def _after(fn, hook):
    def labelled(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(out)
        return out

    labelled.__wrapped__ = fn
    return labelled


def layer_metrics(per_run: list[dict[str, dict[str, float]]]) -> dict[str, float]:
    """Sum the per-run span statistics into the named per-layer metrics."""
    total: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for stats in per_run:
        for name, st in stats.items():
            for key, value in st.items():
                total[name][key] += value
    out = {}
    for metric, (span, stat) in LAYER_METRICS.items():
        if span.endswith("*"):
            out[metric] = sum(st[stat] for name, st in total.items()
                              if name.startswith(span[:-1]))
        else:
            out[metric] = total[span][stat] if span in total else 0
        if stat in COUNT_STATS:
            out[metric] = int(out[metric])
    return out


def query_calls(stats: dict[str, dict[str, float]]) -> tuple[int, int]:
    """(queries answered by a labelled oracle, unlabelled queries) in one run."""
    labelled = sum(stats.get(f"oracles.query.{o}", {}).get("calls", 0) for o in ORACLES)
    return int(labelled), int(stats.get("oracles.query.unlabeled", {}).get("calls", 0))
