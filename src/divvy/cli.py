"""Command-line entry point.

Five subcommands: ``shapley-freq``, ``owen-freq``, ``shapley-knn`` and
``owen-knn`` run the polynomial-time attribution routines; ``oracle`` runs
the brute-force reference (exact enumeration or Monte Carlo) on small
inputs.  Exit codes: 0 success, 1 input or configuration error, 2 blocked
by a size guard.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .combinatorics import EXACT, FLOAT, NUMERIC_MODES
from .errors import GuardError, InputError
from .freq_owen import owen_frequency_report
from .freq_shapley import shapley_frequency_report
from .io import (
    parse_coalition_file,
    parse_dataset,
    parse_outcome_values,
    parse_queries,
    parse_value_function,
    with_coalitions,
)
from .knn_owen import knn_owen_report
from .knn_shapley import knn_shapley_report
from .model import KnnConfig
from .oracle import (
    exact_owen_all,
    exact_shapley_all,
    frequency_game,
    knn_game,
    mc_shapley_all,
)
from .report import assemble_report, export_csv, report_to_json, sum_queries, write_report

# export_csv and report_to_json stay bound, uncalled, for perfbench/spans.py

PROG = "divvy"


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as input errors instead
    of exiting the interpreter, so ``run_command`` controls the exit code."""

    def error(self, message):
        raise InputError(message)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--queries", required=True, help="query CSV")
    p.add_argument("--out", default=None, help="write the JSON report here (default: stdout)")
    p.add_argument("--csv", default=None, help="also export an id,coalition,value CSV here")
    p.add_argument(
        "--per-query",
        action="store_true",
        help="include a per-query value breakdown in the report",
    )


def _add_numeric_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--numeric",
        choices=sorted(NUMERIC_MODES),
        default=FLOAT,
        help="arithmetic backend (default: float)",
    )


def _add_knn_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="neighborhood size (odd)")
    p.add_argument(
        "--values",
        required=True,
        metavar="VC,VW,VN",
        help="outcomes for a correct, wrong and abstaining prediction",
    )


def _add_coalition_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--coalitions",
        default=None,
        help="id,coalition CSV; overrides any coalition column in the dataset",
    )


def _add_value_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--value", required=True, help="value-function JSON")


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=["frequency", "knn"],
        required=True,
        help="model family the dataset belongs to",
    )
    p.add_argument(
        "--method",
        choices=["exact-shapley", "exact-owen", "mc-shapley"],
        required=True,
    )
    p.add_argument("--value", default=None, help="value-function JSON (frequency family)")
    p.add_argument("--k", type=int, default=None, help="neighborhood size (knn family)")
    p.add_argument("--values", default=None, metavar="VC,VW,VN", help="knn outcome values")
    _add_coalition_flag(p)
    p.add_argument("--samples", type=int, default=None, help="mc-shapley sample count (1000)")
    p.add_argument("--seed", type=int, default=None, help="mc-shapley RNG seed (0)")
    p.add_argument(
        "--yes-i-know",
        action="store_true",
        help="waive the exponential-size guards",
    )


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser.  Given a known ``command`` it holds that subcommand
    alone, which is all a run of it reads, so the other subcommands' flags
    cost nothing; otherwise it holds every subcommand."""
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    sub.required = True
    chosen = [c for c in _COMMANDS if c[0] == command] or _COMMANDS
    for name, help_text, flag_groups, handler in chosen:
        p = sub.add_parser(name, help=help_text)
        for add in flag_groups:
            add(p)
        p.set_defaults(handler=handler)
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _inputs(args, family: str) -> tuple:
    """The dataset, with any ``--coalitions`` file applied, the queries,
    and the value function (frequency) or the k-NN configuration."""
    dataset = parse_dataset(args.data, family)
    queries = parse_queries(args.queries, family)
    if family == "frequency":
        rule = parse_value_function(args.value)
    elif args.k is None or args.values is None:
        raise InputError("k-NN runs need --k and --values")
    else:
        rule = KnnConfig(args.k, parse_outcome_values(args.values))
    if getattr(args, "coalitions", None):
        dataset = with_coalitions(dataset, parse_coalition_file(args.coalitions), args.coalitions)
    return dataset, queries, rule


def _flags(args) -> dict:
    return {"mode": args.numeric, "per_query": args.per_query}


def _run_shapley_freq(args):
    return shapley_frequency_report(*_inputs(args, "frequency"), **_flags(args))


def _run_owen_freq(args):
    return owen_frequency_report(*_inputs(args, "frequency"), **_flags(args))


def _run_shapley_knn(args):
    return knn_shapley_report(*_inputs(args, "knn"), **_flags(args))


def _run_owen_knn(args):
    return knn_owen_report(*_inputs(args, "knn"), **_flags(args))


def _run_oracle(args):
    family, method = args.family, args.method
    mc = method == "mc-shapley"
    for flag, given, read in (("--samples", args.samples, mc), ("--seed", args.seed, mc),
                              ("--yes-i-know", args.yes_i_know or None, not mc),
                              ("--value", args.value, family == "frequency"),
                              ("--k", args.k, family == "knn"),
                              ("--values", args.values, family == "knn")):
        if given is not None and not read:
            raise InputError(f"oracle --family {family} --method {method} does not read {flag}")
    if family == "frequency" and args.value is None:
        raise InputError("oracle --family frequency needs --value")
    samples = 1000 if args.samples is None else args.samples
    seed = 0 if args.seed is None else args.seed
    dataset, queries, rule = _inputs(args, family)

    codes = dataset.partition_codes()[1] if method == "exact-owen" else None

    def values_of(query):
        game = (frequency_game(dataset, query, query.value_function or rule)
                if family == "frequency" else knn_game(dataset, query, rule))
        if method == "exact-shapley":
            values = exact_shapley_all(game, override=args.yes_i_know).values()
        elif method == "exact-owen":
            values = exact_owen_all(game, codes, override=args.yes_i_know).values()
        else:
            values = [e.estimate for e in mc_shapley_all(game, samples, seed).values()]
        # each oracle lists its values in player order, and the players are
        # dataset.ids, so the values come in dataset order
        return slice(None), list(values)

    mode = FLOAT if mc else EXACT
    queries, totals, columns, wall = sum_queries(queries, len(dataset), mode, args.per_query,
                                                 values_of)
    extras = {"family": family, "oracle_method": method}
    if mc:
        extras["samples"], extras["seed"] = samples, seed
    return assemble_report("oracle", mode, dataset, totals, query_count=len(queries),
                           wall_time=wall, k=args.k, per_query=columns, extras=extras)


# name, help, flag groups in help order, body
_COMMANDS = (
    ("shapley-freq", "Shapley values for a frequency-binned decision rule",
     (_add_io_flags, _add_numeric_flag, _add_value_flag), _run_shapley_freq),
    ("owen-freq", "Owen values for a frequency-binned decision rule",
     (_add_io_flags, _add_numeric_flag, _add_coalition_flag, _add_value_flag),
     _run_owen_freq),
    ("shapley-knn", "Shapley values for an unweighted k-nearest-neighbor vote",
     (_add_io_flags, _add_numeric_flag, _add_knn_flags), _run_shapley_knn),
    ("owen-knn", "Owen values for an unweighted k-nearest-neighbor vote",
     (_add_io_flags, _add_numeric_flag, _add_knn_flags, _add_coalition_flag),
     _run_owen_knn),
    ("oracle", "brute-force reference values on small inputs",
     (_add_io_flags, _add_oracle_flags), _run_oracle),
)


# ---------------------------------------------------------------------------
# driver


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run a subcommand and return the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        write_report(args.handler(args), args.out or sys.stdout, csv=args.csv)
        return 0
    except GuardError as exc:
        print(f"{PROG}: blocked: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
