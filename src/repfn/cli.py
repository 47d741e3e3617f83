"""Command-line front end.

Exit codes: 0 success or verified, 1 a verification found a violated
assertion (or a witness could not be certified), 2 usage or set-spec
error, 3 resource budget exceeded.  Reports go to stdout as exactly one
CSV or JSON document; diagnostics go to stderr.

`main` reads a plain command line, `<command> (--option value | --flag)*`
with exact option strings, values that do not start with "-" and every
required option given, straight from the declared table `GRAMMAR`.
Everything else (help, `--option=value`, abbreviations, "--", values
starting with "-", unknown tokens, bad values, missing options, `verify`
with its positional suite) goes to argparse, whose parser `build_parser()`
builds from the same table, with the same namespace, help text, messages
and exit codes as before.

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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_document(obj: dict) -> str:
    """`json.dumps(obj) + "\n"` with each array value a list, for a dict
    whose int64 arrays all come after its other values: json.dumps writes
    the other values, the decimal writer each array, and one join all parts."""
    arrays = {k: v for k, v in obj.items() if isinstance(v, core.np.ndarray)}
    parts = [json.dumps({k: v for k, v in obj.items() if k not in arrays})[:-1]]
    for k, v in arrays.items():
        parts += (", ", json.dumps(k), ": [", core._decimal_rows((v,), end=", ")[:-2], "]")
    parts.append("}\n")
    return "".join(parts)


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


_SET = ("--set", {"required": True, "metavar": "SPEC", "help": 'set-spec, e.g. "complement(finite:2,5)"'})
_MAX = ("--max", {"type": int, "required": True, "metavar": "N"})
_BUDGET = ("--budget", {"type": int, "default": DEFAULT_MEMORY_BUDGET, "metavar": "BYTES"})
_OUT = ("--out", {"metavar": "PATH", "help": "write the report here instead of stdout"})

# The one grammar: per command its help, its function and its arguments as
# (option string, argparse keywords), in the order of its help text.
GRAMMAR = {
    "table": ("compute r1, r2, r3 on [0, N]", cmd_table, (
        _SET, _MAX, ("--format", {"choices": ("csv", "json"), "default": "csv"}), _BUDGET, _OUT)),
    "violations": ("list monotonicity failures of one function", cmd_violations, (
        _SET, _MAX, ("--kind", {"choices": ("r1", "r2", "r3"), "default": "r1"}),
        ("--strict", {"action": "store_true", "help": "report failures of strict increase"}),
        ("--format", {"choices": ("csv", "json"), "default": "json"}), _BUDGET, _OUT)),
    "density": ("exact member count and ratio on [1, N]", cmd_density, (_SET, _MAX, _BUDGET, _OUT)),
    "witness": ("predict and verify an r2 decrease", cmd_witness, (_SET, ("--max", {
        "type": int, "default": DEFAULT_WITNESS_SCAN, "metavar": "N",
        "help": f"range of the brute-force comparison (default {DEFAULT_WITNESS_SCAN})"}), _BUDGET, _OUT)),
    "render": ("plot member pairs (a, b) as points (a + b, a)", cmd_render, (
        _SET, ("--max", {**_MAX[1], "help": "largest pair sum shown"}),
        ("--format", {"choices": ("svg", "ascii"), "default": "svg"}), _BUDGET, _OUT)),
    "verify": ("run a named verification suite", cmd_verify, (
        ("suite", {"choices": SUITE_NAMES + ("all",)}), ("--seed", {"type": int, "default": DEFAULT_SEED}),
        ("--self-test-corrupt", {"action": "store_true",
                                 "help": "perturb one computed value per suite; the run must then fail"}),
        _OUT)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, for the first line `_read_plain` declines: it costs more
    than most requests, and `parse_args` leaves it unchanged and returns a fresh namespace."""
    p = argparse.ArgumentParser(
        prog="repfn",
        description="Additive representation functions r1, r2, r3 over decidable integer sets.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in GRAMMAR.items():
        sp = sub.add_parser(name, help=help_text)
        for string, keywords in arguments:
            sp.add_argument(string, **keywords)
        sp.set_defaults(func=func)
    return p


def _plain_grammar(name: str, func, arguments: tuple) -> tuple[dict, dict, set]:
    """Per option string its dest, flag-ness, type and choices; the namespace
    argparse starts from, but for the required options; their dests."""
    options, defaults, required = {}, {"command": name, "func": func}, set()
    for string, keywords in arguments:
        dest = string[2:].replace("-", "_")
        flag = keywords.get("action") == "store_true"
        options[string] = (dest, flag, keywords.get("type"), keywords.get("choices"))
        if keywords.get("required"):
            required.add(dest)
        else:
            defaults[dest] = keywords.get("default", False if flag else None)
    return options, defaults, required


# every command whose arguments are all options; verify's positional suite goes to argparse
_PLAIN = {name: _plain_grammar(name, func, arguments) for name, (_, func, arguments) in GRAMMAR.items()
          if all(string.startswith("--") for string, _ in arguments)}


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """`build_parser().parse_args(argv)` for a plain command line (see the
    module docstring), or None where argparse must decide."""
    grammar = _PLAIN.get(argv[0]) if argv else None
    if grammar is None:
        return None
    options, defaults, required = grammar
    values = dict(defaults)
    tokens = iter(argv[1:])
    for token in tokens:
        option = options.get(token)
        if option is None:
            return None
        dest, flag, type_, choices = option
        if flag:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value declines like a "-" one
        if value.startswith("-"):
            return None
        if type_ is not None:
            try:
                value = type_(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    return argparse.Namespace(**values) if values.keys() >= required else None


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
