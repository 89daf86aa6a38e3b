"""Command-line front end.

Exit codes: 0 on pass, 1 when a run's pass condition fails (a completeness
run that saw rejections, or a soundness run below --min-reject-rate), 2 on
configuration errors, among them an --out that is a directory or whose
directory does not exist (found before the run starts).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .field import Field
from .harness import (
    ConfigError,
    EXPERIMENTS,
    ExperimentConfig,
    MODES,
    PRESETS,
    SAMPLINGS,
    build_experiment,
    execute,
    randomness_budget,
)
from .pcp import implied_proof_size
from .variety import make_variety


def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    """The run flags, one per ``ExperimentConfig`` field but ``experiment``,
    each defaulting to its field's default."""
    sp.add_argument("--q", type=int, required=True, help="odd prime field size")
    sp.add_argument("--degree", type=int, help="verifier degree tag")
    sp.add_argument("--nvars", type=int, help="ambient dimension (ldt/lc)")
    sp.add_argument("--variety", help="variety spec, e.g. ball1:n=2")
    sp.add_argument("--graph", help="complete:<n> or an edge-list file")
    sp.add_argument("--mode", choices=MODES)
    sp.add_argument("--sampling", choices=SAMPLINGS)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--adversary")
    sp.add_argument("--delta", type=float, help="corruption rate for corrupt-* adversaries")
    sp.add_argument("--reps", type=int)
    sp.add_argument("--enum-budget", dest="budget", type=int,
                    help="cap on exhaustive spaces and materialized tables")
    sp.add_argument("--out", default="", help="write the JSON report here")
    sp.add_argument("--min-reject-rate", type=float, default=None,
                    help="soundness pass condition on the measured rate")
    sp.set_defaults(**{f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                       if f.default is not dataclasses.MISSING})


def _config_from(args, experiment: str) -> ExperimentConfig:
    """An ``ExperimentConfig`` whose every field but ``experiment`` is read
    from the run flag of that name (``--enum-budget`` sets ``budget``)."""
    return ExperimentConfig(experiment=experiment, **{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"})


def _cmd_variety(args) -> int:
    variety = make_variety(Field(args.q), args.spec)
    if args.action == "grobner":
        for g in variety.gens:
            print(g.text())
        return 0
    print(f"spec: {args.spec}")
    print(f"q: {variety.field.q}")
    print(f"m: {variety.m}")
    print(f"points: {len(variety.points)}")
    print(f"extension_degree: {variety.extension_degree}")
    print(f"grobner_complexity: {variety.complexity}")
    print(f"grobner_basis_size: {len(variety.grobner_basis)}")
    return 0


def _cmd_run(args, experiment: str) -> int:
    if experiment == "ldt" and args.local_correct:
        experiment = "lc"
    cfg = _config_from(args, experiment)
    # checked before the run, which may take minutes, rather than after it
    out = Path(args.out)
    if args.out and (out.is_dir() or not out.parent.is_dir()):
        problem = "it is a directory" if out.is_dir() else f"{out.parent} is not a directory"
        print(f"error: cannot write --out {args.out}: {problem}", file=sys.stderr)
        return 2
    exp = build_experiment(cfg)
    est, _ = execute(exp, out=args.out or None)
    print(f"{experiment} {cfg.mode}: {est.accepts}/{est.trials} accepts, "
          f"rate={est.rate:.6f} ci99=[{est.ci99[0]:.6f},{est.ci99[1]:.6f}] "
          f"queries/trial={est.queries_per_trial} "
          f"bits/trial={est.randomness_bits_per_trial} "
          f"elapsed={est.elapsed_ms}ms")
    if exp.proof is not None:
        total = implied_proof_size(exp.proof)["total_bits"]
        digits = len(str(total))
        print(f"implied proof length: {total} bits (~10^{digits - 1}), never materialized")
    if cfg.mode == "completeness" and est.rejects > 0:
        print(f"FAIL: {est.rejects} rejections in completeness mode", file=sys.stderr)
        return 1
    if args.min_reject_rate is not None and est.rate < args.min_reject_rate:
        print(f"FAIL: rate {est.rate:.6f} below {args.min_reject_rate}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_budget(args) -> int:
    cfg = _config_from(args, args.experiment)
    print(randomness_budget(cfg))
    return 0


def _cmd_preset(args) -> int:
    for name in sorted(PRESETS):
        cfg = PRESETS[name]
        print(f"{name}: experiment={cfg.experiment} q={cfg.q} "
              f"variety={cfg.variety} degree={cfg.degree} trials={cfg.trials}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcplab",
        description="Exact prime-field algebra and toy PCP verifier experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("variety", help="inspect a variety spec")
    sp.add_argument("action", choices=("info", "grobner"))
    sp.add_argument("spec")
    sp.add_argument("--q", type=int, required=True)
    sp.set_defaults(func=_cmd_variety)

    for name, helptext in (
        ("ldt", "low-degree test / local correction experiments"),
        ("zerotest", "zero-on-variety experiments"),
        ("pcp", "3-coloring PCP experiments"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("action", choices=("run",))
        _add_run_flags(sp)
        if name == "ldt":
            sp.add_argument("--local-correct", action="store_true",
                            help="run the local corrector instead of the tester")
        sp.set_defaults(func=lambda a, _n=name: _cmd_run(a, _n))

    sp = sub.add_parser("budget", help="closed-form randomness bits per trial")
    sp.add_argument("experiment", choices=EXPERIMENTS)
    _add_run_flags(sp)
    sp.set_defaults(func=_cmd_budget)

    sp = sub.add_parser("preset", help="built-in experiment families")
    sp.add_argument("action", choices=("list",))
    sp.set_defaults(func=_cmd_preset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
