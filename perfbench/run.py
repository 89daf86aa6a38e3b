"""pcplab benchmark: verifier-trial throughput and set-up time.

Run from the root of a pcplab checkout (nothing to build; ``src/`` is
imported directly):

    python3 perfbench/run.py --workload pcp-sound-k4 --seed 902 --seconds 25 --trace 0

A workload (``perfbench/workloads.json``) is a cycle of units; a unit is one
or more ``ExperimentConfig`` whose seeds are ``--seed + i`` for the i-th
unit.  The program only ever receives those configs, through the public
entry point ``pcplab.harness.run_experiment``.  Load shape: one closed loop
with one client, in one process and one thread.

``--trace 0`` repeats units for ``--seconds`` seconds with tracing off.  Per
unit it takes set-up time (entering ``run_experiment`` to its first oracle
query, found by a one-shot hook that restores the original ``query``) and
trial-loop time (first query to return).  It reports ``trials_per_s`` (all
trials over all loop time), ``setup_s`` (median over units) and
``peak_rss_mb``; times are in reference seconds (see ``measure``).

``--trace 1`` ignores ``--seconds``: it runs the first ``trace_units`` units
once untraced and twice under ``spans.Tracer``, checks that the three passes
give the same report bytes and that the two traced passes give the same
counts, and reports the per-layer metrics of the traced passes (mean of the
two, times in reference seconds).

Every result is checked (``check``); a miss counts as a failed run and the
command exits 1.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result and
the traced spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

if not (ROOT / "src" / "pcplab" / "__init__.py").is_file():
    sys.exit(f"perfbench: no pcplab sources under {ROOT / 'src'}; run it from a pcplab checkout")
sys.path.insert(0, str(ROOT / "src"))

from pcplab.harness import ExperimentConfig, randomness_budget, report_bytes  # noqa: E402
from pcplab import harness  # noqa: E402
from pcplab.oracles import LinesOracle, PointOracle  # noqa: E402


def stamp() -> dict:
    """Git SHA (None outside a git checkout), source digest, Python, nproc."""
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pcplab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def units_for(spec: dict, seed: int) -> list[list[ExperimentConfig]]:
    return [[ExperimentConfig(**cfg, seed=seed + i) for cfg in spec["unit"]]
            for i in range(spec["cycle"])]


def timed_call(cfg: ExperimentConfig):
    """(estimate, report, set-up seconds, trial-loop seconds) of one call."""
    first: list[float] = []
    originals = (PointOracle.query, LinesOracle.query)

    def restore():
        PointOracle.query, LinesOracle.query = originals

    def hook(query):
        def first_query(self, *args):
            first.append(time.perf_counter())
            restore()
            return query(self, *args)
        return first_query

    PointOracle.query, LinesOracle.query = hook(originals[0]), hook(originals[1])
    start = time.perf_counter()
    try:
        est, report = harness.run_experiment(cfg)
    finally:
        end = time.perf_counter()
        restore()
    if not first:
        raise RuntimeError("run_experiment made no oracle query")
    return est, report, first[0] - start, end - first[0]


def check(cfg: ExperimentConfig, est, report: dict, pin: str | None) -> list[str]:
    """Problems with one run_experiment result; empty when it is correct."""
    problems = []
    if cfg.mode == "completeness" and est.rejects:
        problems.append(f"completeness run rejected {est.rejects} trials")
    if cfg.mode == "soundness" and not est.ci99[0] > 0:
        problems.append(f"soundness run has 99% lower bound {est.ci99[0]}")
    want_trials = (cfg.trials if cfg.sampling == "sampled"
                   else cfg.q ** (2 * cfg.nvars) * (cfg.q - 1))
    if est.trials != want_trials or report["trials"] != want_trials:
        problems.append(f"{est.trials} trials, expected {want_trials}")
    want_queries = 24 if cfg.experiment == "pcp" else 2
    if est.queries_per_trial != want_queries:
        problems.append(f"queries_per_trial {est.queries_per_trial} != {want_queries}")
    budget = randomness_budget(cfg)
    if est.randomness_bits_per_trial != budget:
        problems.append(f"randomness_bits_per_trial {est.randomness_bits_per_trial} "
                        f"!= randomness_budget {budget}")
    if pin is not None:
        got = hashlib.sha256(report_bytes(report)).hexdigest()
        if got != pin:
            problems.append(f"report sha256 {got} != pinned {pin}")
    return problems


def summary(values: list[float], better: str) -> dict:
    """Median and tail: the value with ten samples worse than it, or the worst
    value when there are fewer than eleven samples."""
    ordered = sorted(values, reverse=(better == "higher"))
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return {"median": statistics.median(values), "tail": ordered[k],
            "tail_pct": round(100 * (k + 1) / n), "n": n}


REF_S = 0.025


def reference() -> float:
    """Wall seconds of a fixed pure-Python task shaped like pcplab's inner
    loops (a dict of exponent tuples, products mod a prime).  It never calls
    pcplab, so it only tracks how fast the machine runs.  REF_S only sets the
    scale: it is near the task's time on the 2-core machine the bounds were
    set on."""
    start = time.perf_counter()
    terms = {(i % 5, i % 7, i % 3, i % 2): i for i in range(60)}
    for a in range(600):
        acc = [0] * 16
        for e, c in terms.items():
            v = c
            for x in e:
                v = v * (a + x) % 257
            acc[sum(e) % 16] += v
    return time.perf_counter() - start


def measure(units, pins, seconds: float) -> tuple[dict, int, int]:
    """Cycle through units until ``seconds`` pass.

    The host's speed drifts by up to 30% over minutes and jitters more from
    one second to the next, in CPU time as well as in wall time.  So the
    reference task is timed before the first unit and after every unit (once
    per second of unit), and the run's times are reported in reference
    seconds: wall seconds x REF_S / (mean reference time over the run).
    Wall-clock figures are reported as well.
    """
    samples = []
    refs = [reference()]
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        idx = i % len(units)
        unit_start = time.perf_counter()
        trials = loop = setup = 0.0
        ok = True
        for j, cfg in enumerate(units[idx]):
            attempted += 1
            try:
                est, report, s, t = timed_call(cfg)
                problems = check(cfg, est, report, pins[idx * len(units[idx]) + j] if pins else None)
            except Exception as exc:  # a crash is a failed run, reported like a wrong one
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                ok = False
                print(f"FAILED {cfg}: {'; '.join(problems)}")
                continue
            trials += est.trials
            loop += t
            setup += s
        # one more reference timing per second of unit, so that long units
        # sample the host's speed as densely as short ones
        for _ in range(1 + int(time.perf_counter() - unit_start)):
            refs.append(reference())
        if ok:
            samples.append({"trials": trials, "loop_s": loop, "setup_s": setup})
        i += 1
        if time.perf_counter() >= deadline:
            break
    scale = REF_S / statistics.fmean(refs)
    stats = {"units": i, "reference_s": refs, "scale": scale, "samples": samples}
    if samples:
        rates = [x["trials"] / x["loop_s"] for x in samples]
        setups = [x["setup_s"] for x in samples]
        loop_s = sum(x["loop_s"] for x in samples) * scale
        stats["trials_per_s"] = sum(x["trials"] for x in samples) / loop_s
        stats["setup_s"] = statistics.median(setups) * scale
        stats["summary"] = {
            "trials_per_s": summary([r / scale for r in rates], "higher"),
            "setup_s": summary([t * scale for t in setups], "lower"),
            "wall_trials_per_s": summary(rates, "higher"),
            "wall_setup_s": summary(setups, "lower"),
            "reference_s": summary(refs, "lower"),
        }
    return stats, attempted, failed


def traced(units, pins) -> tuple[dict, int, int, "object", dict]:
    """One untraced and two traced passes over ``units``; per-layer metrics."""
    import spans

    calls = [cfg for unit in units for cfg in unit]
    attempted = failed = 0
    untraced, pass_time, pass_ref = [], [], []
    start = time.perf_counter()
    for j, cfg in enumerate(calls):
        attempted += 1
        try:
            est, report = harness.run_experiment(cfg)
            problems = check(cfg, est, report, pins[j] if pins else None)
        except Exception as exc:  # a crash is a failed run, reported like a wrong one
            report = None
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            print(f"FAILED {cfg}: {'; '.join(problems)}")
        untraced.append(report)
    pass_time.append(time.perf_counter() - start)
    pass_ref.append(statistics.fmean(reference() for _ in range(3)))

    tracer = spans.Tracer()
    run = tracer.wrap("harness.run_experiment", harness.run_experiment)
    per_pass, runs = [], {}
    tracer.install()
    try:
        for p in (1, 2):
            lo = len(tracer.start)
            results = []
            start = time.perf_counter()
            for j, cfg in enumerate(calls):
                attempted += 1
                tracer.begin_run(len(runs))
                runs[len(runs)] = f"pass{p}:call{j}:seed{cfg.seed}"
                try:
                    results.append(run(cfg))
                except Exception as exc:  # a crash is a failed run, reported like a wrong one
                    results.append(exc)
            pass_time.append(time.perf_counter() - start)
            pass_ref.append(statistics.fmean(reference() for _ in range(3)))
            per_pass.append((lo, len(tracer.start), results))
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"warning: not traced (binding not found): {', '.join(tracer.missing)}")

    pass_stats, pass_counts = [], []
    for p, (lo, hi, results) in enumerate(per_pass):
        stats = tracer.aggregate(lo, hi)
        counts = []
        for j, (cfg, result) in enumerate(zip(calls, results)):
            run_stats = stats.get(p * len(calls) + j, {})
            counts.append({name: (st["calls"], st["work"]) for name, st in run_stats.items()})
            problems = []
            if isinstance(result, Exception):
                problems.append(f"{type(result).__name__}: {result}")
            else:
                est, report = result
                ref = untraced[j]
                if ref is None or report_bytes(report) != report_bytes(ref):
                    problems.append("traced report bytes differ from the untraced run")
                labelled, unlabelled = spans.query_calls(run_stats)
                want = est.trials * est.queries_per_trial
                if labelled != want or unlabelled:
                    problems.append(f"{labelled} labelled (+{unlabelled} unlabelled) oracle "
                                    f"query spans != trials x queries_per_trial = {want}")
            if p == 1 and counts[j] != pass_counts[0][j]:
                problems.append("span counts differ between the two traced passes")
            if problems:
                failed += 1
                print(f"FAILED traced pass {p + 1} {cfg}: {'; '.join(problems)}")
        pass_stats.append(list(stats.values()))
        pass_counts.append(counts)

    # seconds of each pass rescaled by the reference task timed right after it
    scale = [REF_S / r for r in pass_ref]
    passes = [spans.layer_metrics(stats) for stats in pass_stats]
    metrics = {}
    for name, a in passes[0].items():
        b = passes[1][name]
        metrics[name] = a if isinstance(a, int) else (a * scale[1] + b * scale[2]) / 2
    metrics["trace_overhead_frac"] = (
        (pass_time[1] * scale[1] + pass_time[2] * scale[2]) / 2 / (pass_time[0] * scale[0]) - 1)
    timing = {"wall_pass_s": pass_time, "reference_s": pass_ref, "calls": len(calls)}
    return metrics, attempted, failed, tracer, {"runs": runs, **timing}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = specs[args.workload]
    pins = spec["pins"] if args.seed == spec["default_seed"] else None
    units = units_for(spec, args.seed)
    info = stamp()
    print(f"pcplab benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"pins={'checked' if pins else 'not pinned for this seed'}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in info.items()))
    OUT.mkdir(exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}

    if args.trace:
        metrics, attempted, failed, tracer, detail = traced(units[:spec["trace_units"]], pins)
        tracer.write(OUT / f"{args.workload}.spans.tsv", detail.pop("runs"))
        result.update(detail, per_layer=metrics)
        wanted = bench["per_layer"]
        for name, value in sorted(metrics.items()):
            print(f"  {name:40s} {value:.6g}")
    else:
        stats, attempted, failed = measure(units, pins, args.seconds)
        metrics = {k: stats[k] for k in ("trials_per_s", "setup_s") if k in stats}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(stats, peak_rss_mb=metrics["peak_rss_mb"])
        wanted = bench["end_to_end"]
        print(f"times in reference seconds: wall seconds x {stats['scale']:.6g} "
              f"(REF_S {REF_S} / mean reference time over the run)")
        for m in wanted:
            if m["name"] in metrics:
                print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
        for name, s in stats.get("summary", {}).items():
            print(f"  per unit {name}: median {s['median']:.6g}, "
                  f"p{s['tail_pct']} toward worse {s['tail']:.6g}, n={s['n']}")
    print(f"{args.workload} failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")

    result.update(attempted=attempted, failed=failed)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"FAILED: metrics not measured: {', '.join(missing)}")
    correct = failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
