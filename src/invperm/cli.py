"""Command-line interface.

Subcommands: ``count``, ``blocks``, ``invseq``, ``sample``, ``chain``,
``rho``, ``params``, ``census``.  Every subcommand exits with 2 on bad
input: :func:`main` turns a ``ValueError`` or an ``OSError`` into one
``invperm <command>: <message>`` line on stderr.  ``count`` prints 0 for an
m outside 0..C(n,2) without building a table.  ``sample``, ``chain`` and
``census`` refuse a negative seed, and ``chain`` an n above
``CHAIN_MAX_N``, before they build anything.  ``census`` exits with 1
when its report, judged by ``experiments.judge``, has not passed.  Writing
into a closed stdout (``... | head -1``) exits quietly with 141, as SIGPIPE would.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import counting
from .coupling import BetaTable, materialize_rho, run_chain
from .experiments import RUNNERS, ExperimentConfig, run_census
from .limits import alpha_for_mu, threshold_params
from .permutations import (
    blocks,
    format_one_line,
    inversion_sequence,
    parse_one_line,
    permutation_from_inversion_sequence,
)
from .rng import SamplerContext
from .sampling import SplitSampler

# ``chain`` caps its table at min(to, C(n,2)//2) + 2, past every budget it reads
CHAIN_MAX_N = 150


def _cmd_count(args) -> int:
    if args.n < 1:
        raise ValueError("n must be >= 1")
    m = min(args.m, counting.max_inversions(args.n) - args.m)  # s(n, m) = s(n, C(n,2) - m)
    if m < 0:  # m outside 0..C(n,2): no permutation, and no table to build
        print(0)
    else:
        print(counting.build_table(args.n, m_cap=m).count(args.n, m))
    return 0


def _cmd_blocks(args) -> int:
    cuts = blocks(parse_one_line(args.perm))
    print(json.dumps({"boundaries": list(cuts.boundaries), "sizes": list(cuts.sizes)}))
    return 0


def _cmd_invseq(args) -> int:
    if args.from_perm is not None:
        print(format_one_line(inversion_sequence(parse_one_line(args.from_perm))))
    else:
        print(format_one_line(permutation_from_inversion_sequence(parse_one_line(args.to_perm))))
    return 0


def _cmd_sample(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    top = counting.max_inversions(args.n)
    if not 0 <= args.m <= top:
        raise ValueError(f"--m must lie in 0..{top}")
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    sampler = SplitSampler(args.n, args.m)
    for i in range(args.count):
        x = sampler.sample(SamplerContext(None, args.seed, (i,)))
        print(format_one_line(permutation_from_inversion_sequence(x) if args.format == "perm" else x))
    return 0


def _cmd_chain(args) -> int:
    if not 1 <= args.n <= CHAIN_MAX_N:
        raise ValueError(f"--n must lie in 1..{CHAIN_MAX_N}")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    cap = min(max(args.to, 0), counting.max_inversions(args.n) // 2) + 2
    table = counting.build_table(args.n, m_cap=cap)
    ctx = SamplerContext(table, args.seed, (0,))
    trace: list[int] | None = [] if args.trace else None
    state = run_chain(args.n, args.to, ctx, trace=trace)
    if args.trace:
        for step, box in enumerate(trace, start=1):
            print(f"step {step}: +1 at coordinate {box}")
    print(format_one_line(state.x))
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
    if (args.m is None) == (args.mu is None):
        raise ValueError("need exactly one of --m and --mu")
    m = args.m if args.mu is None else alpha_for_mu(args.n, args.mu)[1]
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
    elif args.mode is None or args.n is None:
        raise ValueError("need --config or (--n and --mode)")
    else:
        # each census flag's dest is the ExperimentConfig field it sets
        raw = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    try:  # a config file's unknown or mistyped field
        cfg = ExperimentConfig(**raw)
        cfg.validate()
    except TypeError as exc:
        raise ValueError(exc) from exc
    report = run_census(cfg)
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
    p.set_defaults(fn=_cmd_count)

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
    p.add_argument(
        "--out", dest="out_dir", metavar="OUT", help="directory for JSON/CSV reports"
    )
    p.set_defaults(fn=_cmd_census)

    return parser


def _join_negative_mu(argv: list[str]) -> list[str]:
    """``--mu -1e2`` as ``--mu=-1e2``: argparse takes a token that starts
    with '-' for an option unless it is a plain negative number, so a
    negative mu with an exponent would otherwise read as a missing value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--mu" and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"--mu={token}"
                continue
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_negative_mu(sys.argv[1:] if argv is None else argv))
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:  # stdout's reader is gone: exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # a silent exit flush
        return 141
    except (ValueError, OSError) as exc:
        print(f"invperm {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
