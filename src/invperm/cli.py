"""Command-line interface.

Subcommands: ``count``, ``table``, ``blocks``, ``invseq``, ``sample``,
``chain``, ``rho``, ``params``, ``census``.  Every subcommand exits with 2
on bad input: :func:`main` turns a ``ValueError`` or an ``OSError`` into
one ``invperm <command>: <message>`` line on stderr.  ``count --table``
also exits with 2 on an unreadable cache, and ``chain`` for n above
``CHAIN_MAX_N``, before it builds its count table.  Census exits with 1
when its report has not passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from . import counting
from .coupling import BetaTable, materialize_rho, run_chain
from .experiments import RUNNERS, ExperimentConfig
from .limits import alpha_for_mu, threshold_params
from .permutations import (
    blocks,
    format_one_line,
    inversion_sequence,
    parse_one_line,
    permutation_from_inversion_sequence,
)
from .rng import SamplerContext
from .sampling import SplitSampler, sample_inversion_sequence

# ``chain`` builds the full count table, about n^3/6 big integers
CHAIN_MAX_N = 150


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _cmd_count(args) -> int:
    if args.n < 1:
        raise ValueError("n must be >= 1")
    if args.table:
        try:
            table = counting.load_table(args.table)
        except (ValueError, OSError) as exc:
            print(f"cannot read table cache: {exc}", file=sys.stderr)
            return 2
        if not table.covers(args.n, min(args.m, counting.max_inversions(args.n))):
            print("cache does not cover the request", file=sys.stderr)
            return 2
    else:
        table = counting.build_table(args.n, m_cap=args.m if args.m >= 0 else None)
    print(table.count(args.n, args.m))
    return 0


def _cmd_table(args) -> int:
    table = counting.build_table(args.max_n, m_cap=args.m_cap)
    counting.save_table(table, args.out)
    print(f"wrote table max_n={args.max_n} to {args.out}")
    return 0


def _cmd_blocks(args) -> int:
    perm = parse_one_line(args.perm)
    decomposition = blocks(perm)
    print(
        json.dumps(
            {
                "boundaries": list(decomposition.boundaries),
                "sizes": list(decomposition.sizes),
            }
        )
    )
    return 0


def _cmd_invseq(args) -> int:
    if args.from_perm:
        perm = parse_one_line(args.from_perm)
        print(",".join(str(v) for v in inversion_sequence(perm)))
    else:
        x = _parse_ints(args.to_perm)
        print(format_one_line(permutation_from_inversion_sequence(x)))
    return 0


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    top = counting.max_inversions(args.n)
    if not 0 <= args.m <= top:
        raise ValueError(f"--m must lie in 0..{top}")
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    small = args.n * (min(args.m, top - args.m) + 1) <= 2_000_000
    if small:
        table = counting.build_table(args.n, m_cap=min(args.m, top - args.m))
        for i in range(args.count):
            ctx = SamplerContext(table, args.seed, (i,))
            x = sample_inversion_sequence(args.n, args.m, ctx)
            _emit_sample(x, args.format)
    else:
        sampler = SplitSampler(args.n, args.m)
        for i in range(args.count):
            ctx = SamplerContext(None, args.seed, (i,))
            x = sampler.sample(ctx).tolist()
            _emit_sample(x, args.format)
    return 0


def _emit_sample(x: list[int], fmt: str) -> None:
    if fmt == "perm":
        print(format_one_line(permutation_from_inversion_sequence(x)))
    else:
        print(",".join(str(v) for v in x))


def _cmd_chain(args) -> int:
    if not 1 <= args.n <= CHAIN_MAX_N:
        raise ValueError(f"--n must lie in 1..{CHAIN_MAX_N}")
    table = counting.build_table(args.n)
    ctx = SamplerContext(table, args.seed, (0,))
    trace: list[int] | None = [] if args.trace else None
    state = run_chain(args.n, args.to, ctx, trace=trace)
    if args.trace:
        for step, box in enumerate(trace, start=1):
            print(f"step {step}: +1 at coordinate {box}")
    print(",".join(str(v) for v in state.x))
    return 0


def _cmd_rho(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.n > 8:
        raise ValueError("rho printing is limited to n <= 8")
    table = counting.build_table(args.n)
    rho = materialize_rho(args.n, args.m, BetaTable(table))
    labels = ["".join(map(str, y)) for y in rho.cols]
    print("rows\\cols  " + "  ".join(labels))
    for x in rho.rows:
        row = [str(rho.entry(x, y)) for y in rho.cols]
        print("".join(map(str, x)) + "  " + "  ".join(row))
    return 0


def _cmd_params(args) -> int:
    if args.m is None and args.mu is None:
        raise ValueError("need --m or --mu")
    m = args.m
    if m is None:
        _, m = alpha_for_mu(args.n, args.mu)
    print(json.dumps(threshold_params(args.n, m).to_dict(), indent=2))
    return 0


def _cmd_census(args) -> int:
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        version = raw.pop("schema_version", 1)
        if version != 1:
            raise ValueError(f"unsupported config schema version {version}")
    elif args.n is None or args.mode is None:
        raise ValueError("need --config or (--n and --mode)")
    else:
        # each census flag's dest is the ExperimentConfig field it sets
        raw = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    try:  # a config file's unknown or mistyped field
        cfg = ExperimentConfig(**raw)
        cfg.validate()
    except TypeError as exc:
        raise ValueError(exc) from exc
    report = RUNNERS[cfg.mode](cfg)
    print(report.to_json(deterministic=False))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invperm",
        description="Random permutations with a fixed number of inversions: "
        "exact counting, sampling, coupling chain, and Monte Carlo censuses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print s(n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--table", help="binary table cache to read")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("table", help="build and cache a count table")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--m-cap", type=int, default=None, dest="m_cap")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("blocks", help="block boundaries and sizes as JSON")
    p.add_argument("--perm", required=True, help='e.g. "2,4,1,3,5,8,6,7"')
    p.set_defaults(fn=_cmd_blocks)

    p = sub.add_parser("invseq", help="convert permutation <-> inversion sequence")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-perm", help="one-line permutation -> sequence")
    group.add_argument("--to-perm", help="inversion sequence -> permutation")
    p.set_defaults(fn=_cmd_invseq)

    p = sub.add_parser("sample", help="uniform samples at fixed inversion count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("perm", "invseq"), default="invseq")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("chain", help="run the ball-throwing chain to a budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("rho", help="print a transition matrix exactly (n <= 8)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("params", help="threshold parameters as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("census", help="Monte Carlo census runs")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=tuple(RUNNERS))
    p.add_argument("--mu", type=float, action="append", dest="mu_list", metavar="MU")
    p.add_argument("--m", type=int, action="append", dest="m_list", metavar="M")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    p.add_argument(
        "--out", dest="out_dir", metavar="OUT", help="directory for JSON/CSV reports"
    )
    p.set_defaults(fn=_cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"invperm {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
