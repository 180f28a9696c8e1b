"""Command-line entry point.

Subcommands:
  run    evaluate a retrieval method over a query set
  synth  generate the synthetic bridge dataset
"""

from __future__ import annotations

import argparse
import sys

from .errors import FastInsightError
from .runner import ENCODERS, METHODS, RunConfig, run_eval, run_sweep
from .synth import synth_bridge


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fastinsight")
    sub = parser.add_subparsers(dest="command", required=True)

    # An option left out is left to RunConfig's default.
    run = sub.add_parser("run", help="run a retrieval evaluation",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--nodes", required=True)
    run.add_argument("--edges", required=True)
    run.add_argument("--queries", required=True)
    run.add_argument("--qrels", required=True)
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--batch", type=int)
    run.add_argument("--alpha", type=float)
    run.add_argument("--beta", type=float)
    run.add_argument("--budget", type=int)
    run.add_argument("--k", type=int)
    run.add_argument("--encoder", choices=ENCODERS)
    run.add_argument("--remote-url")
    run.add_argument("--embed-dim", type=int)
    run.add_argument("--out", dest="out_dir")
    run.add_argument("--jobs", type=int)
    run.add_argument("--seed", type=int,
                     help="recorded in report.json only; every method is deterministic, "
                          "so it changes no result")
    run.add_argument("--sweep-budget", action="store_true",
                     help="emit one report per budget in 10..100 step 10")

    synth = sub.add_parser("synth", help="generate the synthetic bridge dataset")
    synth.add_argument("--clusters", type=int, default=8)
    synth.add_argument("--cluster-size", type=int, default=30)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    if args.pop("command") == "synth":
        paths = synth_bridge(args["clusters"], args["cluster_size"], args["seed"], args["out"])
        print(f"wrote {paths.nodes}, {paths.edges}, {paths.queries}, {paths.qrels}")
        return 0

    sweep = args.pop("sweep_budget", False)
    cfg = RunConfig(**args)
    try:
        if sweep:
            summary = run_sweep(cfg)
            print(f"sweep complete: {len(summary['points'])} budgets -> {cfg.out_dir}/sweep.json")
        else:
            report = run_eval(cfg)
            mets = report["metrics"]
            print(
                f"{cfg.method}: n={report['n_queries']} "
                f"r10={mets['r10']:.4f} ndcg10={mets['ndcg10']:.4f} tr={mets['tr']:.4f} "
                f"qpt_ms={report['timing']['qpt_ms_mean']:.2f}"
            )
    except (FastInsightError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
