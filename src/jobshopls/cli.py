"""Command-line front end: solve one instance, benchmark a method,
train a policy, or generate instances."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jobshopls",
        description="Job-shop scheduling via controllable local search")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one method on one instance")
    solve.add_argument("instance", help="builtin name (ta01) or file path")
    solve.add_argument("--method", default="vns",
                       help="dispatching rule, controller, or nls_a/an/anp")
    solve.add_argument("--iters", type=int, default=100)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--checkpoint", help="policy checkpoint (.npz)")
    solve.add_argument("--out", help="write the solution's machine order here")

    bench = sub.add_parser("bench", help="run a benchmark configuration")
    bench.add_argument("config", nargs="?",
                       help="key=value config file; omit to use flags only")
    bench.add_argument("--method")
    bench.add_argument("--instances", nargs="*", default=None,
                       help="names, files, ta01-ta10 ranges, gen:JxMxCOUNTxSEED")
    bench.add_argument("--iters", type=int, default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--checkpoint")
    bench.add_argument("--out")
    bench.add_argument("--format", choices=("csv", "table"), default=None)
    bench.add_argument("--jobs", type=int, default=None)

    train = sub.add_parser("train", help="train a policy network")
    train.add_argument("--out", required=True, help="checkpoint/log directory")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--iters", type=int, default=None,
                       help="override the number of epochs")
    train.add_argument("--size", default="6x6",
                       help="training instance size JxM")
    train.add_argument("--full-scale", action="store_true",
                       help="paper-scale settings instead of the desk preset")

    gen = sub.add_parser("gen", help="generate random instances")
    gen.add_argument("size", help="JxM, e.g. 6x6")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", help="output file (one) or directory (many)")
    return parser


def _parse_size(text: str) -> tuple[int, int]:
    try:
        j, m = text.lower().split("x")
        return int(j), int(m)
    except ValueError as exc:
        raise SystemExit(f"bad size {text!r}, expected JxM") from exc


def _cmd_solve(args) -> int:
    from .bench import BenchmarkConfig, run_benchmark
    config = BenchmarkConfig(method=args.method, instances=(args.instance,),
                             iterations=args.iters, seed=args.seed,
                             checkpoint=args.checkpoint)
    result = run_benchmark(config)
    row = result.rows[0]
    gap = "" if row.gap is None else f"  gap {100 * row.gap:.2f}%"
    print(f"{row.instance}  {args.method}  cost {row.cost}{gap}  "
          f"({row.seconds:.2f}s)")
    if args.out:
        lines = [f"# machine processing orders (job, op) for {row.instance}"]
        for k, seq in enumerate(row.solution.machine_seq):
            lines.append(f"machine {k}: " + " ".join(f"({o.job},{o.pos})"
                                                     for o in seq))
        Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_bench(args) -> int:
    from .bench import BenchmarkConfig, load_benchmark_config, run_benchmark
    if args.config:
        config = load_benchmark_config(args.config)
        overrides = {}
        if args.method:
            overrides["method"] = args.method
        if args.instances:
            overrides["instances"] = tuple(args.instances)
        if args.iters is not None:
            overrides["iterations"] = args.iters
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.checkpoint:
            overrides["checkpoint"] = args.checkpoint
        if args.out:
            overrides["out"] = args.out
        if args.format:
            overrides["fmt"] = args.format
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if overrides:
            config = replace(config, **overrides)
    else:
        if not args.method or not args.instances:
            print("bench without a config file needs --method and --instances",
                  file=sys.stderr)
            return 2
        config = BenchmarkConfig(
            method=args.method, instances=tuple(args.instances),
            iterations=args.iters if args.iters is not None else 100,
            seed=args.seed if args.seed is not None else 0,
            checkpoint=args.checkpoint, out=args.out,
            fmt=args.format or "csv",
            jobs=args.jobs if args.jobs is not None else 1)
    result = run_benchmark(config)
    print(result.table() if config.fmt == "table" else result.csv(), end="")
    return 0


def _cmd_train(args) -> int:
    from .taillard import generate_instance
    from .training import TrainConfig, train
    j, m = _parse_size(args.size)
    config = TrainConfig() if args.full_scale else TrainConfig.desk_scale()
    if args.iters is not None:
        config = replace(config, epochs=args.iters)
    factory = lambda rng: generate_instance(j, m, seed=int(rng.integers(1 << 30)))
    result = train(config, factory, seed=args.seed, out_dir=args.out)
    print(f"best validation makespan {result.best_validation:.2f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"log: {result.log_path}")
    return 0


def _cmd_gen(args) -> int:
    from .taillard import emit_taillard, generate_instance
    j, m = _parse_size(args.size)
    texts = []
    for i in range(args.count):
        inst = generate_instance(j, m, seed=args.seed + i,
                                 name=f"gen{j}x{m}s{args.seed + i}")
        texts.append((inst.name, emit_taillard(inst)))
    if args.out is None:
        for _, text in texts:
            print(text, end="")
    elif args.count == 1:
        Path(args.out).write_text(texts[0][1])
    else:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts:
            (out / f"{name}.txt").write_text(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"solve": _cmd_solve, "bench": _cmd_bench,
                "train": _cmd_train, "gen": _cmd_gen}
    try:
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
