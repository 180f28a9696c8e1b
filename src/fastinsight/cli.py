"""Command-line entry point.

Subcommands:
  run    evaluate a retrieval method over a query set
  synth  generate the synthetic bridge dataset
"""

from __future__ import annotations

import argparse
import sys

from .runner import METHODS, RunConfig, RunError, run_eval, run_sweep
from .synth import synth_bridge


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fastinsight")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a retrieval evaluation")
    run.add_argument("--nodes", required=True)
    run.add_argument("--edges", required=True)
    run.add_argument("--queries", required=True)
    run.add_argument("--qrels", required=True)
    run.add_argument("--method", choices=METHODS, default="fastinsight")
    run.add_argument("--batch", type=int, default=10)
    run.add_argument("--alpha", type=float, default=0.2)
    run.add_argument("--beta", type=float, default=1.0)
    run.add_argument("--budget", type=int, default=100)
    run.add_argument("--k", type=int, default=10)
    run.add_argument("--encoder", choices=("hash", "remote"), default="hash")
    run.add_argument("--remote-url", default=None)
    run.add_argument("--embed-dim", type=int, default=256)
    run.add_argument("--out", default="out")
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--seed", type=int, default=0,
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
    args = _build_parser().parse_args(argv)
    if args.command == "synth":
        paths = synth_bridge(args.clusters, args.cluster_size, args.seed, args.out)
        print(f"wrote {paths.nodes}, {paths.edges}, {paths.queries}, {paths.qrels}")
        return 0

    cfg = RunConfig(
        nodes=args.nodes, edges=args.edges, queries=args.queries, qrels=args.qrels,
        method=args.method, batch=args.batch, alpha=args.alpha, beta=args.beta,
        budget=args.budget, k=args.k, encoder=args.encoder, remote_url=args.remote_url,
        embed_dim=args.embed_dim, out_dir=args.out, jobs=args.jobs, seed=args.seed,
    )
    try:
        if args.sweep_budget:
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
    except (RunError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
