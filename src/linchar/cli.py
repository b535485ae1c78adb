"""Command-line front end.

Subcommands delegate 1:1 to the library; `verify-all` runs the full
acceptance matrix.  Human output prints polynomials in descending powers
(variable t, or x for Eulerian polynomials); JSON output is an envelope
{"command", "inputs", "result", "schema_version"} with ascending
coefficients serialized as decimal-string pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import acceptance, ehrhart, linial, rootdata, verify
from .errors import LincharError
from .eulerian import generalized_eulerian, truncate_half
from .rootdata import RootSystemId

SCHEMA_VERSION = 1


def _root_system(text: str) -> RootSystemId:
    try:
        return RootSystemId.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _m_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")


def _criteria_list(text: str) -> set[int]:
    try:
        numbers = {int(x) for x in text.split(",") if x.strip()}
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of criterion numbers")
    count = len(acceptance.ALL_CHECKS)
    if not numbers or not numbers <= set(range(1, count + 1)):
        raise argparse.ArgumentTypeError(f"expected criterion numbers in 1..{count}, got {text!r}")
    return numbers


def to_json_str(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def _emit(args, envelope: dict, human_lines) -> None:
    if args.json:
        text = to_json_str(envelope)
    else:
        text = "\n".join(human_lines)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _envelope(command: str, inputs: dict, result) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "result": result,
        "schema_version": SCHEMA_VERSION,
    }


def _qp_human(qp, var: str = "q", collapse: bool = False) -> list[str]:
    lines = [f"period {qp.period}"]
    if collapse:
        groups: dict = {}
        for d in range(qp.period):
            groups.setdefault(qp.constituents[d], []).append(d)
        for poly, ds in sorted(groups.items(), key=lambda kv: kv[1][0]):
            residues = ", ".join(str(d) for d in ds)
            lines.append(f"{var} = {residues} (mod {qp.period}):  {poly.pretty(var)}")
    else:
        for d in range(qp.period):
            lines.append(f"{var} = {d} (mod {qp.period}):  {qp.constituents[d].pretty(var)}")
    return lines


# -- subcommand handlers ---------------------------------------------------------


def _cmd_table(args):
    rows = []
    for ident in rootdata.ALL_TABLE_IDS:
        d = rootdata.lookup(ident)
        rows.append(
            {
                "id": str(ident),
                "rank": d.rank,
                "exponents": list(d.exponents),
                "marks": list(d.marks),
                "coxeter_number": d.coxeter_number,
                "index_of_connection": d.index_of_connection,
                "weyl_order": d.weyl_order,
                "period": d.period,
                "rad_period": d.rad_period,
            }
        )
    human = [
        f"{'Phi':<4} {'exponents':<24} {'marks':<22} {'h':>3} {'f':>2} {'|W|':>12} {'n~':>3} {'rad':>4}"
    ]
    for r in rows:
        human.append(
            f"{r['id']:<4} {','.join(map(str, r['exponents'])):<24} "
            f"{','.join(map(str, r['marks'])):<22} {r['coxeter_number']:>3} "
            f"{r['index_of_connection']:>2} {r['weyl_order']:>12} {r['period']:>3} "
            f"{r['rad_period']:>4}"
        )
    _emit(args, _envelope("table", {}, rows), human)


def _cmd_eulerian(args):
    R = generalized_eulerian(args.phi)
    if args.half:
        R = truncate_half(R, rootdata.lookup(args.phi).coxeter_number)
    name = "R^1/2" if args.half else "R"
    _emit(
        args,
        _envelope("eulerian", {"phi": str(args.phi), "half": args.half}, R.to_json()),
        [f"{name}_{args.phi}(x) = {R.pretty('x')}"],
    )


def _cmd_ehrhart(args):
    qp = ehrhart.ehrhart_qp(args.phi)
    result = {"quasi_polynomial": qp.to_json()}
    human = [f"L_{args.phi}:"] + _qp_human(qp, collapse=True)
    if args.series:
        coeffs = ehrhart.series_coeffs(args.phi, args.series)
        result["series"] = coeffs
        human.append(f"series[0:{args.series}] = {coeffs}")
    _emit(
        args,
        _envelope("ehrhart", {"phi": str(args.phi), "series": args.series}, result),
        human,
    )


def _cmd_charquasi(args):
    inputs = {
        "phi": str(args.phi),
        "m": args.m,
        "half": args.half,
        "constituent": args.constituent,
    }
    kind = "chi^1/2" if args.half else "chi"
    if args.constituent is not None:
        poly = linial.char_constituent(args.phi, args.m, args.constituent, half=args.half)
        _emit(
            args,
            _envelope("charquasi", inputs, poly.to_json()),
            [f"{kind}({args.phi}, m={args.m}) at d = {args.constituent}: {poly.pretty()}"],
        )
    else:
        qp = (
            linial.half_char_quasi(args.phi, args.m)
            if args.half
            else linial.char_quasi(args.phi, args.m)
        )
        _emit(
            args,
            _envelope("charquasi", inputs, qp.to_json()),
            [f"{kind}({args.phi}, m={args.m}):"] + _qp_human(qp, collapse=True),
        )


def _cmd_admissible(args):
    rep = linial.admissible_residues(args.phi)
    result = {
        "residues": list(rep.residues),
        "divisors": list(rep.divisors),
        "m0": rep.m0,
    }
    human = [
        f"admissible residues of {args.phi}: {', '.join(map(str, rep.residues))}",
        f"admissible divisors: {', '.join(map(str, rep.divisors))}",
        f"m0 = {rep.m0}",
    ]
    _emit(args, _envelope("admissible", {"phi": str(args.phi)}, result), human)


def _cmd_toy(args):
    poly = linial.toy_poly(args.phi, args.m)
    rep = verify.check_on_line_exact(poly, args.m * rootdata.lookup(args.phi).coxeter_number)
    result = {"polynomial": poly.to_json(), "line_check": rep.to_json()}
    human = [
        f"R(S^{args.m + 1}) g = {poly.pretty()}",
        f"all roots on Re t = {rep.center}: {rep.on_line}",
    ]
    _emit(args, _envelope("toy", {"phi": str(args.phi), "m": args.m}, result), human)


def _cmd_check_line(args):
    h = rootdata.lookup(args.phi).coxeter_number
    poly = linial.char_constituent(args.phi, args.m, args.d)
    M = args.m * h
    if args.numeric:
        rep = verify.check_on_line_numeric(poly, M)
    else:
        rep = verify.check_on_line_exact(poly, M)
    human = [
        f"constituent d = {args.d} of chi({args.phi}, m={args.m}): {poly.pretty()}",
        f"method {rep.method}: all roots on Re t = {rep.center}: {rep.on_line}",
    ]
    _emit(
        args,
        _envelope(
            "check-line",
            {"phi": str(args.phi), "m": args.m, "d": args.d, "numeric": args.numeric},
            rep.to_json(),
        ),
        human,
    )


def _cmd_limit_roots(args):
    F = verify.limit_poly(args.phi)
    roots = verify.find_roots(F)
    h = rootdata.lookup(args.phi).coxeter_number
    result = {
        "polynomial": F.to_json(),
        "roots": roots.to_json(),
        "max_real_part": max(z.real for z in roots.roots),
        "half_coxeter": h / 2,
    }
    human = [f"F_{args.phi}(t) = {F.pretty()}"]
    human += [f"  root {z.real:+.6f} {z.imag:+.6f}i" for z in roots.roots]
    human.append(f"max real part = {result['max_real_part']:.6f} (h/2 = {h / 2})")
    _emit(args, _envelope("limit-roots", {"phi": str(args.phi)}, result), human)


def _cmd_oracle(args):
    count = verify.bruteforce_modq(args.phi, args.m, args.q, unsafe=args.unsafe_q)
    value = linial.char_constituent(args.phi, args.m, args.q).evaluate(Fraction(args.q))
    result = {
        "count": count,
        "char_quasi_value": str(value),
        "agree": count == value,
    }
    human = [
        f"#M_q({args.phi}, m={args.m}, q={args.q}) = {count}",
        f"chi_quasi value = {value} ({'agree' if count == value else 'DISAGREE'})",
    ]
    _emit(
        args,
        _envelope(
            "oracle-modq",
            {"phi": str(args.phi), "m": args.m, "q": args.q, "unsafe_q": args.unsafe_q},
            result,
        ),
        human,
    )


def _cmd_track(args):
    pairs = verify.asymptotic_track(args.phi, args.d, args.m_list)
    result = [{"m": m, "distance": dist} for m, dist in pairs]
    human = [f"scaled-root distance to the limit configuration for {args.phi}, d = {args.d}:"]
    human += [f"  m = {m:>6}: {dist:.6f}" for m, dist in pairs]
    _emit(
        args,
        _envelope(
            "track", {"phi": str(args.phi), "d": args.d, "m_list": args.m_list}, result
        ),
        human,
    )


def _cmd_verify_all(args):
    results = acceptance.run_all(args.only)
    payload = [
        {
            "number": r.number,
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "reported": r.reported,
        }
        for r in results
    ]
    human = []
    for r in results:
        human.append(f"[{r.number:2d}] {'PASS' if r.passed else 'FAIL'} {r.name}"
                     + (f": {r.detail}" if r.detail else ""))
        human.extend(f"     {line}" for line in r.reported)
    ok = all(r.passed for r in results)
    human.append("all selected criteria pass" if ok else "FAILURES present")
    _emit(args, _envelope("verify-all", {"only": sorted(args.only) if args.only else None}, payload), human)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linchar",
        description="Characteristic quasi-polynomials of extended Linial arrangements, exactly.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    sp = add_parser("table", help="dump the root-system catalog")
    sp.set_defaults(func=_cmd_table)

    sp = add_parser("eulerian", help="generalized Eulerian polynomial R_Phi")
    sp.add_argument("phi", type=_root_system)
    sp.add_argument("--half", action="store_true", help="truncated polynomial R^1/2")
    sp.set_defaults(func=_cmd_eulerian)

    sp = add_parser("ehrhart", help="alcove Ehrhart quasi-polynomial L_Phi")
    sp.add_argument("phi", type=_root_system)
    sp.add_argument("--series", type=int, metavar="N", help="also print N series coefficients")
    sp.set_defaults(func=_cmd_ehrhart)

    sp = add_parser("charquasi", help="characteristic quasi-polynomial of L_Phi^m")
    sp.add_argument("phi", type=_root_system)
    sp.add_argument("-m", type=int, required=True, help="Linial parameter (0 = empty arrangement)")
    sp.add_argument("--half", action="store_true", help="half characteristic quasi-polynomial")
    sp.add_argument("--constituent", type=int, metavar="D", help="print only the residue-D constituent")
    sp.set_defaults(func=_cmd_charquasi)

    sp = add_parser("admissible", help="admissible residues and m0")
    sp.add_argument("phi", type=_root_system)
    sp.set_defaults(func=_cmd_admissible)

    sp = add_parser("toy", help="toy-case polynomial R(S^(m+1)) g with the default seed")
    sp.add_argument("phi", type=_root_system)
    sp.add_argument("-m", type=int, required=True)
    sp.set_defaults(func=_cmd_toy)

    sp = add_parser("check-line", help="certify roots on the line Re t = m*h/2")
    sp.add_argument("phi", type=_root_system)
    sp.add_argument("-m", type=int, required=True)
    sp.add_argument("-d", type=int, default=1, help="constituent residue (default 1)")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact Sturm certificate (default)")
    group.add_argument("--numeric", action="store_true", help="numeric root check instead")
    sp.set_defaults(func=_cmd_check_line)

    sp = add_parser("limit-roots", help="limit polynomial F_Phi and its roots")
    sp.add_argument("phi", type=_root_system)
    sp.set_defaults(func=_cmd_limit_roots)

    sp = add_parser("oracle", help="independent enumeration oracles")
    oracle_sub = sp.add_subparsers(dest="oracle_command", required=True)
    sp2 = oracle_sub.add_parser("modq", parents=[common], help="count points of (Z/q)^l off the arrangement")
    sp2.add_argument("phi", type=_root_system)
    sp2.add_argument("-m", type=int, required=True)
    sp2.add_argument("-q", type=int, required=True)
    sp2.add_argument("--unsafe-q", action="store_true", help="allow q <= m*h")
    sp2.set_defaults(func=_cmd_oracle)

    sp = add_parser("track", help="scaled constituent roots vs the limit configuration")
    sp.add_argument("phi", type=_root_system)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("--m-list", type=_m_list, required=True, metavar="M1,M2,...")
    sp.set_defaults(func=_cmd_track)

    sp = add_parser("verify-all", help="run the acceptance matrix")
    sp.add_argument("--only", type=_criteria_list, metavar="N,N,...",
                    help="restrict to these criterion numbers")
    sp.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args) or 0
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`linchar ... | head`).  Point stdout at the
        # null device so that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (LincharError, ValueError, ZeroDivisionError, OSError) as exc:
        name = type(exc).__name__
        if args.json:
            print(to_json_str({
                "command": args.command,
                "error": name,
                "message": str(exc),
                "schema_version": SCHEMA_VERSION,
            }))
        else:
            print(f"error: {name}: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
