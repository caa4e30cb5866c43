"""Command-line interface.

Verdict payloads go to stdout (human-readable by default, JSON with
--json); progress traces go to stderr.  Exit codes: 0 unrealizable,
10 realizable, 20 unknown, 2 input error (a problem file that cannot be
read or parsed, bad options, or an output path that cannot be written).
"""

import argparse
import json
import os
import sys

from . import approx, cegis, gfa
from .frontend import ParseError, parse_problem, read_numeral, specialize
from .grammar import ExampleSet, GrammarError
from .ilp import Solver
from .rewrite import normalize

EXIT = {"Unrealizable": 0, "Realizable": 10, "Unknown": 20}


def _at_least(convert, low):
    """argparse type: `convert` the text and refuse values below `low`
    (NaN included, since it compares false with everything)."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not value >= low:
            raise argparse.ArgumentTypeError(
                f"must be a number >= {low}, got {text!r}")
        return value
    return parse


def _parser():
    top = argparse.ArgumentParser(
        prog="unrealizer",
        description="Prove (un)realizability of SyGuS problems over "
                    "linear integer arithmetic restricted to examples.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, examples_required=False):
        p.add_argument("file", help="SyGuS problem file")
        if examples_required:
            p.add_argument("--examples", required=True,
                           help='example inputs, e.g. "x=1;x=2"')

    def checking(p):  # flags that only the two checking commands read
        p.add_argument("--mode", choices=["sl", "predabs"], default="sl",
                       help="abstract domain (default: exact semi-linear)")
        p.add_argument("--export-smt", metavar="DIR",
                       help="write each ILP system that bound propagation "
                            "leaves open to DIR as SMT-LIB")
        p.add_argument("--json", action="store_true",
                       help="machine-readable verdict on stdout")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="trace to stderr; repeat for full records")

    p = sub.add_parser("check", help="full counterexample-guided loop")
    common(p)
    checking(p)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $UNREAL_SEED or 0)")
    p.add_argument("--budget-seconds", type=_at_least(float, 0),
                   default=60.0)
    p.add_argument("--max-term-size", type=_at_least(int, 1), default=20)
    p.add_argument("--max-rounds", type=_at_least(int, 0), default=20)

    p = sub.add_parser("check-examples",
                       help="single exact check on given examples")
    common(p, examples_required=True)
    checking(p)

    p = sub.add_parser("export-horn",
                       help="emit the example-restricted problem as "
                            "constrained Horn clauses")
    common(p, examples_required=True)
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("dump-equations",
                       help="print the equation system for the examples")
    common(p, examples_required=True)
    return top


def _load(path):
    try:
        with open(path, "rb") as fh:
            return parse_problem(fh.read().decode())
    except UnicodeDecodeError as e:
        raise SystemExit(_usage_error(f"{path} is not UTF-8 text: {e}"))
    except (OSError, ParseError, GrammarError) as e:
        raise SystemExit(_usage_error(str(e)))


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _grammar_error(err, args):
    hint = "; the exact --mode sl cannot check this grammar, try --mode predabs" \
        if getattr(args, "mode", None) == "sl" else ""
    return _usage_error(f"{err}{hint}")


def _parse_examples(text, variables):
    """The examples `text` assigns, separated by `;`, each value a numeral
    as a problem file writes one; with no inputs to assign, an empty list
    is the one empty example."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        env = {}
        for part in chunk.split(","):
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or name not in variables:
                raise ValueError(f"bad assignment {part.strip()!r}")
            if name in env:
                raise ValueError(f"variable {name!r} is assigned twice in "
                                 f"one example")
            env[name] = read_numeral(value.strip())
            if env[name] is None:
                raise ValueError(f"bad assignment {part.strip()!r}")
        missing = [v for v in variables if v not in env]
        if missing:
            raise ValueError(f"missing value for {missing[0]!r}")
        rows.append(tuple(env[v] for v in variables))
    if not rows:
        if variables:
            raise ValueError("no examples given")
        rows.append(())
    return ExampleSet(tuple(variables), tuple(rows))


def _out(text):
    """Write text to stdout.  A reader that has closed the pipe is not an
    error: the rest of the output is dropped."""
    try:
        sys.stdout.write(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout():
    # fd 1 goes to devnull, so the flush at interpreter exit cannot raise
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(verdict, args):
    if args.json:
        _out(verdict.to_json() + "\n")
    else:
        _out(f"verdict: {verdict.verdict}\n")
        if verdict.witness is not None:
            _out(f"witness: {verdict.witness.to_sexpr()}\n")
        if verdict.reason:
            _out(f"reason: {verdict.reason}\n")
    if args.verbose:
        for rec in verdict.trace:
            if args.verbose > 1:
                print(json.dumps(rec, sort_keys=True), file=sys.stderr)
            elif "round" in rec:
                print(f"round {rec['round']}: check={rec['check']} "
                      f"synth={rec['synth']} cex={rec['cex']}",
                      file=sys.stderr)
            else:  # the one record of check-examples
                print(f"check={rec['check']} query={rec['query']}",
                      file=sys.stderr)
    return EXIT[verdict.verdict]


def _solver(args):
    return Solver(export_dir=args.export_smt)


def _cmd_check(args):
    problem = _load(args.file)
    seed = args.seed
    if seed is None:
        text = os.environ.get("UNREAL_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise SystemExit(_usage_error(
                f"$UNREAL_SEED is not an integer: {text!r}")) from None
    budgets = cegis.Budgets(seconds=args.budget_seconds,
                            max_size=args.max_term_size,
                            max_rounds=args.max_rounds)
    try:
        verdict = cegis.run_cegis(problem, seed=seed, budgets=budgets,
                                  mode=args.mode, solver=_solver(args))
    except KeyboardInterrupt:
        verdict = cegis.Verdict("Unknown", reason="interrupted")
    return _emit(verdict, args)


def _examples_or_exit(args, problem):
    try:
        return _parse_examples(args.examples, problem.variables)
    except (ValueError, ParseError) as e:  # ParseError: past the digit limit
        raise SystemExit(_usage_error(str(e)))


def _cmd_check_examples(args):
    problem = _load(args.file)
    e = _examples_or_exit(args, problem)
    try:
        result = cegis.check_unrealizable(problem.grammar, problem.spec, e,
                                          _solver(args), mode=args.mode)
    except KeyboardInterrupt:
        result = cegis.CheckResult("Unknown", reason="interrupted")
    trace = [{"examples": [list(r) for r in e.rows],
              "check": result.verdict, "query": result.query,
              "values": {nt: cegis._value_str(v)
                         for nt, v in sorted((result.values or {}).items())},
              "stats": result.stats}]
    verdict = cegis.Verdict(result.verdict, reason=result.reason,
                            examples=list(e.rows), iterations=1, trace=trace)
    return _emit(verdict, args)


def _cmd_export_horn(args):
    problem = _load(args.file)
    e = _examples_or_exit(args, problem)
    data = approx.horn_export(problem.grammar, e,
                              specialize(problem.spec, e))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        _out(data.decode())
    return 0


def _cmd_dump_equations(args):
    problem = _load(args.file)
    e = _examples_or_exit(args, problem)
    _out(gfa.build_equations(normalize(problem.grammar), e).dump() + "\n")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {"check": _cmd_check,
               "check-examples": _cmd_check_examples,
               "export-horn": _cmd_export_horn,
               "dump-equations": _cmd_dump_equations}[args.command]
    try:
        code = handler(args)
    except GrammarError as err:
        return _grammar_error(err, args)
    except OSError as err:
        # an --out file or --export-smt directory that cannot be written;
        # the message names the path
        return _usage_error(str(err))
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
