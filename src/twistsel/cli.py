"""Command-line front end.

Thin adapters only: every command parses flags, calls one library operation,
and serializes the result. Exit codes: 0 success, 2 hypothesis/precondition
failure, 3 result dominated by Undetermined verdicts, 1 usage or internal
error. JSON output is byte-stable (sorted keys, canonical rationals).
"""

from __future__ import annotations

import argparse
import json

# argparse imports these two on every parse (gettext needs locale, HelpFormatter
# shutil); importing them here keeps that cost in start-up, out of each call
import locale  # noqa: F401
import shutil  # noqa: F401
import sys

from . import checker, curves, divpoly, golden, numfield, quadforms, rayclass, reduction, search
from .curves import check_twist_parameter, curve_from_string, curve_invariants, format_rational
from .dirichlet import DirichletPredicate
from .errors import InvalidParameterError, PreconditionError, TwistselError, UnsupportedError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2
EXIT_UNDETERMINED = 3


def _dump(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        _dump_text(obj)


def _dump_text(obj, indent: str = "") -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _dump_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            _dump_text(v, indent)
            if isinstance(v, dict):
                print()
    else:
        print(f"{indent}{obj}")


def _predicate(args) -> DirichletPredicate | None:
    if args.character is None:
        return None
    mod, exps = args.character
    return DirichletPredicate(mod, args.ell, exps)


def _option_type(form: str):
    """Make a parser an argparse `type`: its ValueError becomes a usage error naming form."""

    def wrap(parse):
        def convert(text: str):
            try:
                return parse(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None

        return convert

    return wrap


@_option_type("LO:HI")
def _lo_hi(text: str) -> tuple[int, int]:
    lo, hi = text.split(":")
    return int(lo), int(hi)


@_option_type("comma-separated primes")
def _primes(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if text else ()


@_option_type("[c0,c1,...] with integer entries")
def _coefficients(text: str) -> list[int]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(text)
    inner = text[1:-1].strip()
    return [int(c) for c in inner.split(",")] if inner else []


@_option_type("MODULUS:e1,e2,...")
def _character(text: str) -> tuple[int, tuple[int, ...]]:
    mod, exps = text.split(":")
    return int(mod), tuple(int(e) for e in exps.split(","))


def cmd_invariants(args) -> int:
    inv = curve_invariants(curve_from_string(args.curve))
    _dump({k: format_rational(v) for k, v in inv.items()}, args.format)
    return EXIT_OK


def cmd_local(args) -> int:
    red = reduction.local_reduction(curves.minimal_model(curve_from_string(args.curve))[0], args.p)
    _dump(
        {
            "p": red.p,
            "ord_delta_min": red.ord_delta_min,
            "ord_j": red.ord_j,
            "kind": red.kind.value,
            "kodaira": red.kodaira,
            "conductor_exponent": red.conductor_exponent,
        },
        args.format,
    )
    return EXIT_OK


def cmd_conductor(args) -> int:
    N, exps = reduction.conductor(curve_from_string(args.curve))
    _dump({"N": N, "exponents": {str(p): f for p, f in sorted(exps.items())}}, args.format)
    return EXIT_OK


def cmd_torsion(args) -> int:
    P = divpoly.rational_ell_torsion_point(curve_from_string(args.curve), args.ell)
    _dump({"ell": args.ell, "point": None if P is None else str(P)}, args.format)
    return EXIT_OK if P is not None else EXIT_PRECONDITION


def cmd_divpoly(args) -> int:
    psi = divpoly.division_polynomial(curve_from_string(args.curve), args.n)
    _dump(
        {
            "n": psi.n,
            "coeffs": [format_rational(c) for c in psi.coeffs],
            "even_cofactor": psi.even_cofactor,
        },
        args.format,
    )
    return EXIT_OK


def cmd_factor_shape(args) -> int:
    shape = divpoly.psi_factor_shape(curve_from_string(args.curve), args.ell, args.degree_bound)
    _dump(
        {
            "ell": shape.ell,
            "degree_bound": shape.degree_bound,
            "factors": [{"degree": d, "coeffs": list(g)} for d, g in shape.factors],
            "residual_degree": shape.residual_degree,
        },
        args.format,
    )
    return EXIT_OK


def cmd_torsion_field(args) -> int:
    K = numfield.torsion_field_polynomial(curve_from_string(args.curve), args.ell, args.factor)
    _dump({"minpoly": list(K.minpoly), "degree": K.degree}, args.format)
    return EXIT_OK


def cmd_classgroup(args) -> int:
    data = quadforms.class_group_structure(args.D)
    _dump({"D": data.D, "h": data.h, "structure": list(data.structure)}, args.format)
    return EXIT_OK


def cmd_rayclass(args) -> int:
    # the one place where a bare d from outside becomes a field discriminant
    try:
        D = quadforms.field_discriminant(args.d) if args.d < 0 else None
    except InvalidParameterError:
        D = None
    if D is None:
        raise UnsupportedError("d must be a negative squarefree integer")
    data = rayclass.ray_class_data(D, args.s, args.ell)
    _dump(
        {
            "d": args.d,
            "D": data.D,
            "S": list(data.S),
            "h": data.h,
            "ray_class_number": data.ray_class_number,
            "unit_image_order": data.unit_image_order,
            "w_orders": list(data.w_orders),
            "ell": data.ell,
            "ell_rank": data.ell_rank,
        },
        args.format,
    )
    return EXIT_OK


def cmd_check(args) -> int:
    E = curve_from_string(args.curve)
    pred = _predicate(args)
    check_twist_parameter(args.d)  # before the curve-level work, whatever the curve
    hyp = checker.hypothesis_check(E, args.ell)
    if not hyp.ok:
        _dump(hyp.to_dict(), args.format)
        return EXIT_UNDETERMINED if hyp.undetermined else EXIT_PRECONDITION
    cert = checker.certify(checker.twist_rules(hyp, pred), args.d)
    _dump(cert.to_dict(), args.format)
    return EXIT_UNDETERMINED if cert.is_undetermined else EXIT_OK


def cmd_search(args) -> int:
    E = curve_from_string(args.curve)
    mode = search.SearchMode(args.mode)
    rows = search.search_twists(
        E,
        args.ell,
        *args.range,
        mode=mode,
        predicate=_predicate(args),
        include_inadmissible=args.explain,
        jobs=args.jobs,
    )
    if args.format == "csv":
        for line in search.csv_lines(rows):
            print(line)
    else:
        _dump(rows, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = golden.run_golden_suite()
    width = max(len(r.name) for r in results) + 2
    ok_all = True
    for r in results:
        tag = "PASS" if r.ok else "FAIL"
        print(f"{tag:<5} {r.name:<{width}} {r.detail}")
        ok_all = ok_all and r.ok
    return EXIT_OK if ok_all else EXIT_INTERNAL


def _common(p, curve=True, ell=False, formats=("json", "text")):
    if curve:
        p.add_argument("--curve", required=True, help='curve as "[a1,a2,a3,a4,a6]"')
    if ell:
        p.add_argument("--ell", type=int, required=True, help="odd prime torsion order")
    if formats:
        p.add_argument("--format", choices=formats, default="json")


_REQUIRED_INT = {"type": int, "required": True}
_CHARACTER = ("--character", {"type": _character, "help": "custom predicate as MODULUS:e1,e2,..."})

# name -> (help, handler, shared options for _common, own options as (flag, kwargs))
COMMANDS = {
    "invariants": ("b/c invariants, discriminant, j", cmd_invariants, {}, ()),
    "local": ("reduction data at one prime", cmd_local, {}, (("--p", _REQUIRED_INT),)),
    "conductor": ("conductor with factorization", cmd_conductor, {}, ()),
    "torsion": ("rational point of odd prime order ell", cmd_torsion, {"ell": True}, ()),
    "divpoly": ("n-th division polynomial", cmd_divpoly, {}, (("--n", _REQUIRED_INT),)),
    "factor-shape": (
        "bounded factor shape of psi_ell",
        cmd_factor_shape,
        {"ell": True},
        (("--degree-bound", {"type": int, "default": 6}),),
    ),
    "torsion-field": (
        "field tower above a psi_ell factor",
        cmd_torsion_field,
        {"ell": True},
        (
            (
                "--factor",
                {"type": _coefficients, "required": True, "help": "[c0,c1,...], lowest first"},
            ),
        ),
    ),
    "classgroup": (
        "class group of a negative discriminant",
        cmd_classgroup,
        {"curve": False},
        (("--D", _REQUIRED_INT),),
    ),
    "rayclass": (
        "tame ray class data for Q(sqrt(d))",
        cmd_rayclass,
        {"curve": False, "ell": True},
        (
            ("--d", _REQUIRED_INT),
            ("--s", {"type": _primes, "default": (), "help": "comma-separated modulus primes"}),
        ),
    ),
    "check": (
        "full admissibility + certified bounds for one d",
        cmd_check,
        {"ell": True},
        (("--d", _REQUIRED_INT), _CHARACTER),
    ),
    "search": (
        "scan twist parameters over a range",
        cmd_search,
        {"ell": True, "formats": ("json", "text", "csv")},  # only a scan is written as CSV
        (
            ("--range", {"type": _lo_hi, "required": True, "help": "LO:HI with HI < 0"}),
            ("--mode", {"choices": [m.value for m in search.SearchMode], "default": "CorollaryE"}),
            ("--explain", {"action": "store_true", "help": "include inadmissible rows"}),
            (
                "--jobs",
                {
                    "type": int,
                    "default": 1,
                    "help": "at most this many worker processes, capped at the usable CPUs; "
                    "a scan starts them only when its estimated remaining work repays them",
                },
            ),
            _CHARACTER,
        ),
    ),
    "verify-paper-examples": (
        "run the built-in golden suite",
        cmd_verify,
        {"curve": False, "formats": ()},
        (),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the named one only.

    A one-subcommand parser still lists every command name in its usage line,
    so its help and its usage errors read as those of the full parser.
    """
    top = argparse.ArgumentParser(
        prog="twistsel",
        description="Certified Selmer divisibility bounds for quadratic twists over Q",
    )
    if command is None:
        names, metavar = list(COMMANDS), None
    else:
        names, metavar = [command], "{" + ",".join(COMMANDS) + "}"
    sub = top.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, fn, shared, own = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        _common(p, **shared)
        for flag, kwargs in own:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INTERNAL if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (PreconditionError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except TwistselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - internal failure surface
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
