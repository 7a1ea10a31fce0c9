"""Command line entry point.

Subcommands:

    confn eval PROGRAM.fuj        evaluate a descriptor program
    confn corpus                  run the built-in example suite
    confn explain PROGRAM.fuj     print certificate traces as prose

Exit codes: 0 when everything passed, 1 when an assertion failed or a
statement errored, 2 on usage or parse errors, 3 when the resolver or
the certificate verifier caught an internal inconsistency, or the
resolver raised on a descriptor that was admitted.
"""

from __future__ import annotations

import argparse
import sys

from .dsl import DslError, parse
from .runner import corpus, emit_json, emit_markdown, evaluate, explain_row


def _cap(text: str) -> int:
    """A nonnegative ``--max-m``: a negative cap would turn the oracle off
    without saying so."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("json", "markdown"),
        default="markdown",
        help="report format (default: markdown)",
    )
    shared.add_argument(
        "--radius",
        type=int,
        default=16,
        help="accepted for compatibility; cone queries are exact, so it "
        "reaches no search (default: 16)",
    )
    shared.add_argument(
        "--max-m",
        type=_cap,
        default=6,
        help="cap on brute-force oracle cross-checks of exact values "
        "(default: 6; 0 disables)",
    )
    shared.add_argument(
        "--timestamps",
        action="store_true",
        help="include a generation timestamp (off by default so reruns are "
        "byte-identical)",
    )
    parser = argparse.ArgumentParser(
        prog="confn",
        description="certified convex Fujita numbers for descriptor programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_eval = sub.add_parser("eval", parents=[shared], help="evaluate a program file")
    p_eval.add_argument("file", help="program file, or - for stdin")
    sub.add_parser("corpus", parents=[shared], help="run the built-in suite")
    p_explain = sub.add_parser(
        "explain", parents=[shared], help="print certificate traces as prose"
    )
    p_explain.add_argument("file", help="program file, or - for stdin")
    p_explain.add_argument(
        "--variety", help="limit the trace to one name (default: all)"
    )
    return parser


def _read_program(path: str) -> str:
    """The program text, less the byte-order mark many editors write."""
    if path == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    with open(path, "r", encoding="utf-8-sig") as handle:
        return handle.read()


def _exit_code(report) -> int:
    if report.any_internal:
        return 3
    if report.any_failure:
        return 1
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "corpus":
        report = corpus(radius=args.radius, max_m=args.max_m)
    else:
        try:
            text = _read_program(args.file)
        except OSError as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
        try:
            program = parse(text)
        except DslError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        report = evaluate(program, radius=args.radius, max_m=args.max_m)
    if args.command == "explain":
        rows = report.rows
        if args.variety is not None:
            rows = [r for r in rows if r.name == args.variety]
            if not rows:
                print(
                    f"no computed variety named {args.variety!r}", file=sys.stderr
                )
                return 2
        sys.stdout.write("\n\n".join(explain_row(r) for r in rows) + "\n")
    elif args.format == "json":
        sys.stdout.write(emit_json(report, timestamps=args.timestamps))
    else:
        sys.stdout.write(emit_markdown(report, timestamps=args.timestamps))
    return _exit_code(report)


if __name__ == "__main__":
    raise SystemExit(main())
