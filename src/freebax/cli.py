"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from . import sequences as sq
from . import series as sr
from .ideals import TrivialIdealWarning, baxter_ideal_member, scalar_ideal, variable_ideal
from .lang import EvalError, evaluate_source
from .rings import INT, RAT, Ring, Zmod, parse_coeff
from .shuffle import Context, Element, check_variable_name, enumerate_mixable_shuffles
from .verify import DEFAULT_SEED, SUITES, run_suites


def _ring_arg(text: str) -> Ring:
    if text == "int":
        return INT
    if text == "rat":
        return RAT
    if text.startswith("mod:"):
        try:
            m = int(text[4:])
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid modulus {text[4:]!r} in ring {text!r}") from None
        try:
            return Zmod(m)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown ring {text!r} (use int, rat or mod:<m>)")


def _names(text: str) -> tuple[str, ...]:
    """Comma-separated variable names, each a name the parser reads."""
    if not text:
        return ()
    names = tuple(v.strip() for v in text.split(","))
    for v in names:
        check_variable_name(v)
    return names


def _vars_arg(text: str) -> tuple[str, ...]:
    try:
        return _names(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _precision_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        # the words argparse uses for a bad int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"precision must be nonnegative, not {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once and shared: callers must not change
    it.  ``run_suites`` checks the suite names."""
    ap = argparse.ArgumentParser(
        prog="freebax",
        description="Exact computation in free Baxter algebras of arbitrary weight.",
    )
    ap.add_argument("--ring", type=_ring_arg, default=INT, help="coefficient ring: int, rat or mod:<m>")
    ap.add_argument("--lambda", dest="lam", default="1", help="the weight (a coefficient literal)")
    ap.add_argument("--vars", type=_vars_arg, default=(), help="comma-separated variable names")
    ap.add_argument("--precision", type=_precision_arg, default=sr.DEFAULT_PRECISION, help="series truncation degree")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized probes")
    ap.add_argument("--json", action="store_true", help="emit a machine-readable report")

    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expression")

    p_phi = sub.add_parser("phi", help="map an expression into the sequence model")
    p_phi.add_argument("expression")
    p_phi.add_argument("--len", dest="length", type=int, default=sr.DEFAULT_PRECISION,
                       help="number of sequence entries")

    p_ideal = sub.add_parser("ideal-member", help="test membership in a Baxter ideal")
    p_ideal.add_argument("expression")
    p_ideal.add_argument("--gens", required=True,
                         help="comma-separated variables, or scalar:<c>")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", nargs="+", help=f"{', '.join(SUITES)} or all")

    p_enum = sub.add_parser("enumerate-shuffles", help="list all mixable shuffles of two tails")
    p_enum.add_argument("m", type=int)
    p_enum.add_argument("n", type=int)

    return ap


def _emit(args, payload, text) -> None:
    """Print the ``--json`` payload or the text.  Both are zero-argument
    callables, and only the one printed is called."""
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    else:
        print(text())


def _cmd_eval(args, ctx: Context) -> int:
    value = evaluate_source(args.expression, ctx, args.precision)
    _emit(args, lambda: {"command": "eval", "context": ctx.to_obj(), "result": value.to_obj()},
          lambda: str(value))
    return 0


def _cmd_phi(args, ctx: Context) -> int:
    value = evaluate_source(args.expression, ctx, args.precision)
    if isinstance(value, sr.Series):
        image = sq.phi_series(value, args.length)
    else:
        image = sq.phi(value, args.length)
    _emit(args, lambda: {"command": "phi", "context": ctx.to_obj(), "result": image.to_obj()},
          lambda: str(image))
    return 0


def _parse_gens(ctx: Context, text: str):
    if text.startswith("scalar:"):
        return scalar_ideal(parse_coeff(ctx.ring, text[len("scalar:"):]))
    return variable_ideal(*_names(text))


def _cmd_ideal_member(args, ctx: Context) -> int:
    spec = _parse_gens(ctx, args.gens)
    value = evaluate_source(args.expression, ctx, args.precision)
    if not isinstance(value, Element):
        raise EvalError("ideal membership applies to finite elements")
    member = baxter_ideal_member(value, spec)
    _emit(
        args,
        lambda: {"command": "ideal-member", "context": ctx.to_obj(),
                 "result": {"ideal": str(spec), "member": member}},
        lambda: "true" if member else "false",
    )
    return 0


def _cmd_verify(args, ctx: Context) -> int:
    reports = run_suites(args.suite, seed=args.seed, precision=args.precision)
    ok = all(r.verdict for r in reports)

    def payload():
        return {
            "command": "verify",
            "suites": args.suite,
            "report": [r.to_obj() for r in reports],
            "ok": ok,
            # the suites build their own contexts; this one is the flags'
            "context": ctx.to_obj(),
        }

    def text():
        lines = [r.line() for r in reports]
        lines.append(f"{sum(r.verdict for r in reports)}/{len(reports)} checks passed")
        return "\n".join(lines)

    _emit(args, payload, text)
    return 0 if ok else 1


def _cmd_enumerate(args, ctx: Context) -> int:
    shuffles = enumerate_mixable_shuffles(args.m, args.n)

    def payload():
        return {
            "command": "enumerate-shuffles",
            "m": args.m,
            "n": args.n,
            "count": len(shuffles),
            "shuffles": [{"sigma": list(sigma), "merges": list(merges)} for sigma, merges in shuffles],
        }

    def text():
        lines = [f"sigma=({','.join(map(str, sigma))}) merges=[{','.join(map(str, merges))}]"
                 for sigma, merges in shuffles]
        lines.append(f"count {len(shuffles)}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "phi": _cmd_phi,
    "ideal-member": _cmd_ideal_member,
    "verify": _cmd_verify,
    "enumerate-shuffles": _cmd_enumerate,
}


def _mark_values(argv) -> list[str]:
    """argv with each value that begins with "-" marked for argparse, which
    would take it for an option.  Every option is long but -h, so any other
    token that begins with "-" is a value: right after a long option without
    "=" it becomes ``option=value``; otherwise it moves, in order, behind one
    "--" at the end.  What follows a "--" on the line is left alone."""
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    out: list[str] = []
    moved: list[str] = []
    for tok in argv[:end]:
        if not tok.startswith("-") or tok.startswith("--") or tok == "-h":
            out.append(tok)
        elif out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + tok
        else:
            moved.append(tok)
    return out + ["--", *moved, *argv[end + 1:]] if moved else out + argv[end:]


def main(argv=None) -> int:
    args = build_parser().parse_args(_mark_values(sys.argv[1:] if argv is None else argv))
    with warnings.catch_warnings():
        show = warnings.showwarning

        def show_warning(message, category, *rest, **kwargs):
            # the library's own warnings are one line, like an error
            if issubclass(category, (sq.PhiInjectivityWarning, TrivialIdealWarning)):
                print(f"warning: {message}", file=sys.stderr)
            else:
                show(message, category, *rest, **kwargs)

        warnings.showwarning = show_warning
        try:
            ctx = Context(args.ring, parse_coeff(args.ring, args.lam), args.vars)
            return _DISPATCH[args.command](args, ctx)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            # what the failed step held is freed by now, so one line prints
            print("error: out of memory", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
