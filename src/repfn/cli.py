"""Command-line front end.

Exit codes: 0 success or verified, 1 a verification found a violated
assertion (or a witness could not be certified), 2 usage or set-spec
error, 3 resource budget exceeded.  Reports go to stdout as exactly one
CSV or JSON document; diagnostics go to stderr.

`main` reads a plain command line, `<command> (--option value | --flag)*`
with exact option strings, values that do not start with "-" and every
required option given, straight from the actions of `build_parser()`.
Everything else (help, `--option=value`, abbreviations, "--", values
starting with "-", unknown tokens, bad values, missing options, `verify`
with its positional suite) goes to argparse, which gives the same
namespace, help text, messages and exit codes as before.

Importing this module runs no library module but `constants` and
`errors`, which hold what the parser and the exit codes need.  The others
are the package's lazy modules: each runs the first time a command reads
one of its attributes, once per process.  So `density`, `render`, help and
usage or set-spec errors never import numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import core, diagram, monotonicity, sets, verify, witnesses
from .constants import DEFAULT_MEMORY_BUDGET, DEFAULT_SEED, SUITE_NAMES
from .errors import (
    BudgetExceededError,
    EmptySetError,
    InsufficientComplementError,
    SelfCheckError,
    SetSpecError,
)

DEFAULT_WITNESS_SCAN = 512


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: it costs more than most requests, and
    `parse_args` leaves it unchanged and returns a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="repfn",
        description="Additive representation functions r1, r2, r3 over decidable integer sets.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="compute r1, r2, r3 on [0, N]")
    _add_set(t)
    t.add_argument("--max", type=int, required=True, metavar="N")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(t)
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("violations", help="list monotonicity failures of one function")
    _add_set(v)
    v.add_argument("--max", type=int, required=True, metavar="N")
    v.add_argument("--kind", choices=("r1", "r2", "r3"), default="r1")
    v.add_argument("--strict", action="store_true", help="report failures of strict increase")
    v.add_argument("--format", choices=("csv", "json"), default="json")
    _add_common(v)
    v.set_defaults(func=cmd_violations)

    d = sub.add_parser("density", help="exact member count and ratio on [1, N]")
    _add_set(d)
    d.add_argument("--max", type=int, required=True, metavar="N")
    _add_common(d)
    d.set_defaults(func=cmd_density)

    w = sub.add_parser("witness", help="predict and verify an r2 decrease")
    _add_set(w)
    w.add_argument(
        "--max",
        type=int,
        default=DEFAULT_WITNESS_SCAN,
        metavar="N",
        help=f"range of the brute-force comparison (default {DEFAULT_WITNESS_SCAN})",
    )
    _add_common(w)
    w.set_defaults(func=cmd_witness)

    r = sub.add_parser("render", help="plot member pairs (a, b) as points (a + b, a)")
    _add_set(r)
    r.add_argument("--max", type=int, required=True, metavar="N", help="largest pair sum shown")
    r.add_argument("--format", choices=("svg", "ascii"), default="svg")
    _add_common(r)
    r.set_defaults(func=cmd_render)

    vf = sub.add_parser("verify", help="run a named verification suite")
    vf.add_argument("suite", choices=SUITE_NAMES + ("all",))
    vf.add_argument("--seed", type=int, default=DEFAULT_SEED)
    vf.add_argument(
        "--self-test-corrupt",
        action="store_true",
        help="perturb one computed value per suite; the run must then fail",
    )
    _add_out(vf)
    vf.set_defaults(func=cmd_verify)

    return p


def _add_set(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--set", required=True, metavar="SPEC", help='set-spec, e.g. "complement(finite:2,5)"')


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--budget", type=int, default=DEFAULT_MEMORY_BUDGET, metavar="BYTES")
    _add_out(sp)


def _add_out(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_document(obj: dict) -> str:
    """`json.dumps(obj) + "\n"` with each array value a list, for a dict
    whose int64 arrays all come after its other values: json.dumps writes
    the other values and the decimal writer each array."""
    arrays = {k: v for k, v in obj.items() if isinstance(v, core.np.ndarray)}
    head = json.dumps({k: v for k, v in obj.items() if k not in arrays})
    tail = "".join(f", {json.dumps(k)}: [{core._decimal_rows((v,), end=', ')[:-2]}]" for k, v in arrays.items())
    return head[:-1] + tail + "}\n"


def cmd_table(args: argparse.Namespace) -> int:
    a = sets.parse_set_spec(args.set)
    table = core.batch_table(a, args.max, memory_budget=args.budget)
    if args.format == "csv":
        _emit(args, table.to_csv())
    else:
        _emit(args, _json_document(table.to_json_obj()))
    return 0


def cmd_violations(args: argparse.Namespace) -> int:
    a = sets.parse_set_spec(args.set)
    table = core.batch_table(a, args.max, memory_budget=args.budget)
    report = monotonicity.find_violations(table, core.RepKind(args.kind), args.strict)
    if args.format == "csv":
        _emit(args, report.to_csv())
    else:
        _emit(args, _json_document(report.to_json_obj()))
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    a = sets.parse_set_spec(args.set)
    est = sets.natural_density_estimate(a, args.max)
    obj = {"set": a.spec(), **est.to_json_obj()}
    _emit(args, json.dumps(obj) + "\n")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    a = sets.parse_set_spec(args.set)
    # the brute-force table checks the budget before anything is allocated
    first = witnesses.first_r2_decrease_bruteforce(a, args.max, memory_budget=args.budget)
    obj = witnesses.predict_r2_decrease(a, memory_budget=args.budget).to_json_obj()
    obj["scan_bound"] = args.max
    obj["brute_force_first"] = first
    _emit(args, json.dumps(obj) + "\n")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    a = sets.parse_set_spec(args.set)
    _emit(args, diagram.render_diagram(a, args.max, args.format, budget=args.budget))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = "all" if args.suite == "all" else (args.suite,)
    results = verify.run_suites(names, seed=args.seed, corrupt=args.self_test_corrupt)
    payload = [r.to_json_obj() for r in results]
    _emit(args, json.dumps(payload, indent=2) + "\n")
    failed = [r.suite for r in results if not r.passed]
    if failed:
        print(f"failed suites: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def _plain_commands() -> dict[str, tuple[dict, dict, list]]:
    """Per command whose options are all exact-string `store` (one value)
    or `store_true` actions: its option strings, the namespace defaults
    argparse starts from, and its required actions.  Read from
    `build_parser()`, so that it stays the one grammar."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    others = [a for a in parser._actions if a is not sub and not isinstance(a, argparse._HelpAction)]
    if others or parser._defaults:  # top-level options would add defaults of their own
        return {}
    commands = {}
    for name, sp in sub.choices.items():
        actions = [a for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        if sp._mutually_exclusive_groups or not all(map(_is_plain, actions)):
            continue
        defaults = {sub.dest: name, **sp._defaults, **{a.dest: a.default for a in actions}}
        options = {s: a for a in actions for s in a.option_strings}
        commands[name] = (options, defaults, [a for a in actions if a.required])
    return commands


def _is_plain(a: argparse.Action) -> bool:
    """A `store_true` option, or a `store` option of one value whose default
    argparse keeps as it is (it passes a string default through `type`)."""
    if a.default is argparse.SUPPRESS or not a.option_strings:
        return False
    if type(a) is argparse._StoreTrueAction:
        return True
    return (
        type(a) is argparse._StoreAction
        and a.nargs is None
        and not (isinstance(a.default, str) and a.type is not None)
    )


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """`build_parser().parse_args(argv)` for a plain command line (see the
    module docstring), or None where argparse must decide."""
    grammar = _plain_commands().get(argv[0]) if argv else None
    if grammar is None:
        return None
    options, defaults, required = grammar
    values = dict(defaults)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        value = next(tokens, "-")  # a missing value declines like a "-" one
        if value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not all(a in seen for a in required):
        return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = _read_plain(sys.argv[1:] if argv is None else list(argv))
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 2 on usage errors and 0 for --help
            return int(exc.code or 0)
    try:
        return args.func(args)
    except SetSpecError as exc:
        print(f"set-spec error: {exc}", file=sys.stderr)
        return 2
    except (EmptySetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (InsufficientComplementError, SelfCheckError) as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
