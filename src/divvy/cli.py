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
import time
from fractions import Fraction
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
    SHAPLEY_GUARD,
    exact_owen_all,
    exact_shapley_all,
    frequency_game,
    knn_game,
    mc_shapley_all,
)
from .report import assemble_report, export_csv, report_to_json, write_report

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
    p.add_argument(
        "--metric",
        choices=["euclidean"],
        default="euclidean",
        help="distance metric (default: euclidean)",
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
    p.add_argument("--metric", choices=["euclidean"], default="euclidean")
    _add_coalition_flag(p)
    p.add_argument("--samples", type=int, default=1000, help="mc-shapley sample count")
    p.add_argument("--seed", type=int, default=0, help="mc-shapley RNG seed")
    p.add_argument(
        "--yes-i-know",
        action="store_true",
        help="waive the exponential-size guards",
    )
    p.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="custom player cap for exact-shapley (requires --yes-i-know)",
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


def _load_freq_inputs(args):
    dataset = parse_dataset(args.data, "frequency")
    queries = parse_queries(args.queries, "frequency")
    vf = parse_value_function(args.value)
    return dataset, queries, vf


def _apply_coalitions(args, dataset):
    if getattr(args, "coalitions", None):
        dataset = with_coalitions(dataset, parse_coalition_file(args.coalitions))
    return dataset


def _run_shapley_freq(args):
    dataset, queries, vf = _load_freq_inputs(args)
    return shapley_frequency_report(
        dataset,
        queries,
        vf,
        mode=args.numeric,
        per_query=args.per_query,
    )


def _run_owen_freq(args):
    dataset, queries, vf = _load_freq_inputs(args)
    dataset = _apply_coalitions(args, dataset)
    return owen_frequency_report(
        dataset,
        dataset.coalition_structure(),
        queries,
        vf,
        mode=args.numeric,
        per_query=args.per_query,
    )


def _knn_config(args) -> KnnConfig:
    if args.k is None or args.values is None:
        raise InputError("k-NN runs need --k and --values")
    return KnnConfig(args.k, parse_outcome_values(args.values), args.metric)


def _run_shapley_knn(args):
    dataset = parse_dataset(args.data, "knn")
    queries = parse_queries(args.queries, "knn")
    return knn_shapley_report(
        dataset,
        queries,
        _knn_config(args),
        mode=args.numeric,
        per_query=args.per_query,
    )


def _run_owen_knn(args):
    dataset = parse_dataset(args.data, "knn")
    queries = parse_queries(args.queries, "knn")
    dataset = _apply_coalitions(args, dataset)
    return knn_owen_report(
        dataset,
        dataset.coalition_structure(),
        queries,
        _knn_config(args),
        mode=args.numeric,
        per_query=args.per_query,
    )


def _run_oracle(args):
    if args.max_n is not None and not args.yes_i_know:
        raise GuardError("--max-n changes a safety guard; pass --yes-i-know as well")
    family = args.family
    if family == "frequency":
        if args.value is None:
            raise InputError("oracle --family frequency needs --value")
        dataset = parse_dataset(args.data, "frequency")
        queries = parse_queries(args.queries, "frequency")
        vf = parse_value_function(args.value)

        def build_game(q):
            return frequency_game(dataset, q, q.value_function or vf)

    else:
        dataset = parse_dataset(args.data, "knn")
        queries = parse_queries(args.queries, "knn")
        config = _knn_config(args)

        def build_game(q):
            return knn_game(dataset, q, config)

    dataset = _apply_coalitions(args, dataset)
    max_n = SHAPLEY_GUARD if args.max_n is None else args.max_n
    method = args.method
    mode = FLOAT if method == "mc-shapley" else EXACT
    zero = 0.0 if mode == FLOAT else Fraction(0)
    totals = [zero] * len(dataset)
    row = dataset.row_index()
    rows_per_query = [] if args.per_query else None
    structure = dataset.coalition_structure() if method == "exact-owen" else None

    started = time.perf_counter()
    for query in queries:
        game = build_game(query)
        if method == "exact-shapley":
            values = exact_shapley_all(game, max_n=max_n, override=args.yes_i_know)
        elif method == "exact-owen":
            values = exact_owen_all(game, structure, override=args.yes_i_know)
        else:
            estimates = mc_shapley_all(game, args.samples, args.seed)
            values = {p: e.estimate for p, e in estimates.items()}
        for p, v in values.items():
            totals[row[p]] += v
        if rows_per_query is not None:
            rows_per_query.append(dict(values))
    wall = time.perf_counter() - started

    extras = {"family": family, "oracle_method": method}
    if method == "mc-shapley":
        extras["samples"] = args.samples
        extras["seed"] = args.seed
    return assemble_report(
        "oracle",
        mode,
        dataset,
        totals,
        query_count=len(queries),
        wall_time=wall,
        k=args.k if family == "knn" else None,
        per_query=rows_per_query,
        extras=extras,
    )


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


def _emit(report, args) -> None:
    if args.out:
        write_report(report, args.out)
    else:
        sys.stdout.write(report_to_json(report))
    if args.csv:
        export_csv(report, args.csv)


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run a subcommand and return the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        report = args.handler(args)
        _emit(report, args)
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
