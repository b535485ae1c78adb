"""Command-line front end.

Subcommands delegate 1:1 to the library; `verify-all` runs the full
acceptance matrix.  Each handler returns its result and a function that
renders its human lines (`verify-all` also its exit code); `main` alone
writes the report, and calls that function only without `--json`.
Human output prints polynomials in descending powers (variable t, or x for
Eulerian polynomials).  JSON output is an envelope
{"command", "inputs", "result", "schema_version"}: "command" is the command
path joined by "-" (`oracle-modq`), "inputs" holds every argument of the
command except `--json`, `--out` and `--exact`, and polynomials are
ascending coefficients serialized as decimal-string pairs.  An error
envelope {"command", "error", "message", "schema_version"} carries the same
"command".
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import acceptance, ehrhart, linial, oracles, rootdata, verify
from .errors import LincharError
from .rootdata import RootSystemId

SCHEMA_VERSION = 1

# Arguments that say how a report is written or computed, not what it is
# about; the envelope's "inputs" leaves them out.
_NOT_INPUTS = ("json", "out", "exact")

# Argument converters (and RootSystemId.parse) raise ValueError with the
# message a usage error shows.


def _m_list(text: str) -> list[int]:
    try:
        numbers = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        numbers = []
    if not numbers:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")
    return numbers


def _criteria_list(text: str) -> list[int]:
    try:
        numbers = {int(x) for x in text.split(",") if x.strip()}
    except ValueError:
        raise ValueError("expected a comma-separated list of criterion numbers") from None
    count = len(acceptance.ALL_CHECKS)
    if not numbers or not numbers <= set(range(1, count + 1)):
        raise ValueError(f"expected criterion numbers in 1..{count}, got {text!r}")
    return sorted(numbers)


def to_json_str(obj) -> str:
    """Indented strict JSON (no NaN or Infinity).  json writes a named tuple,
    as every linchar record is, as an array, so handlers pass a record's
    `to_json()`."""
    return json.dumps(obj, indent=2, allow_nan=False)


def _qp_human(qp) -> list[str]:
    """The constituents of `qp`, equal ones on one line."""
    groups: dict = {}
    for d in range(qp.period):
        groups.setdefault(qp.constituents[d], []).append(d)
    lines = [f"period {qp.period}"]
    for poly, ds in groups.items():
        residues = ", ".join(str(d) for d in ds)
        lines.append(f"q = {residues} (mod {qp.period}):  {poly.pretty('q')}")
    return lines


# -- subcommand handlers ---------------------------------------------------------
#
# Each returns (result, render); `verify-all` adds its exit code.  render()
# gives the human lines, and `main` calls it only when they are printed.


def _cmd_table(args):
    rows = [{"id": str(i), **rootdata.lookup(i).to_json()} for i in rootdata.ALL_TABLE_IDS]
    return rows, lambda: [
        f"{'Phi':<4} {'exponents':<24} {'marks':<22} {'h':>3} {'f':>2} {'|W|':>12} {'n~':>3} {'rad':>4}"
    ] + [
        f"{r['id']:<4} {','.join(map(str, r['exponents'])):<24} "
        f"{','.join(map(str, r['marks'])):<22} {r['coxeter_number']:>3} "
        f"{r['index_of_connection']:>2} {r['weyl_order']:>12} {r['period']:>3} "
        f"{r['rad_period']:>4}"
        for r in rows
    ]


def _cmd_eulerian(args):
    R = linial.shift_operator(args.phi, args.half)
    name = "R^1/2" if args.half else "R"
    return R.to_json(), lambda: [f"{name}_{args.phi}(x) = {R.pretty('x')}"]


def _cmd_ehrhart(args):
    qp = ehrhart.ehrhart_qp(args.phi)
    result = {"quasi_polynomial": qp.to_json()}
    if args.series is not None:
        result["series"] = ehrhart.series_coeffs(args.phi, args.series)

    def render():
        human = [f"L_{args.phi}:"] + _qp_human(qp)
        if args.series is not None:
            human.append(f"series[0:{args.series}] = {result['series']}")
        return human

    return result, render


def _cmd_charquasi(args):
    kind = "chi^1/2" if args.half else "chi"
    if args.constituent is not None:
        poly = linial.char_constituent(args.phi, args.m, args.constituent, half=args.half)
        return poly.to_json(), lambda: [
            f"{kind}({args.phi}, m={args.m}) at d = {args.constituent}: {poly.pretty()}"
        ]
    build = linial.half_char_quasi if args.half else linial.char_quasi
    qp = build(args.phi, args.m)
    return qp.to_json(), lambda: [f"{kind}({args.phi}, m={args.m}):"] + _qp_human(qp)


def _cmd_admissible(args):
    rep = linial.admissible_residues(args.phi)
    return rep.to_json(), lambda: [
        f"admissible residues of {args.phi}: {', '.join(map(str, rep.residues))}",
        f"admissible divisors: {', '.join(map(str, rep.divisors))}",
        f"m0 = {rep.m0}",
    ]


def _cmd_toy(args):
    poly = linial.toy_poly(args.phi, args.m)
    rep = verify.check_on_line_exact(poly, args.m * rootdata.lookup(args.phi).coxeter_number)
    return {"polynomial": poly.to_json(), "line_check": rep.to_json()}, lambda: [
        f"R(S^{args.m + 1}) g = {poly.pretty()}",
        f"all roots on Re t = {rep.center}: {rep.on_line}",
    ]


def _cmd_check_line(args):
    poly = linial.char_constituent(args.phi, args.m, args.d)
    check = verify.check_on_line_numeric if args.numeric else verify.check_on_line_exact
    rep = check(poly, args.m * rootdata.lookup(args.phi).coxeter_number)
    return rep.to_json(), lambda: [
        f"constituent d = {args.d} of chi({args.phi}, m={args.m}): {poly.pretty()}",
        f"method {rep.method}: all roots on Re t = {rep.center}: {rep.on_line}",
    ]


def _cmd_limit_roots(args):
    F = verify.limit_poly(args.phi)
    roots = verify.find_roots(F)
    h = rootdata.lookup(args.phi).coxeter_number
    top = max(z.real for z in roots.roots)
    result = {
        "polynomial": F.to_json(),
        "roots": roots.to_json(),
        "max_real_part": top,
        "half_coxeter": h / 2,
    }
    return result, lambda: (
        [f"F_{args.phi}(t) = {F.pretty()}"]
        + [f"  root {z.real:+.6f} {z.imag:+.6f}i" for z in roots.roots]
        + [f"max real part = {top:.6f} (h/2 = {h / 2})"]
    )


def _cmd_oracle(args):
    [count] = oracles.bruteforce_modq_counts(args.phi, (args.m,), args.q, args.unsafe_q)
    value = linial.char_constituent(args.phi, args.m, args.q).evaluate(args.q)
    return {"count": count, "char_quasi_value": str(value), "agree": count == value}, lambda: [
        f"#M_q({args.phi}, m={args.m}, q={args.q}) = {count}",
        f"chi_quasi value = {value} ({'agree' if count == value else 'DISAGREE'})",
    ]


def _cmd_track(args):
    pairs = verify.asymptotic_track(args.phi, args.d, args.m_list)
    return [{"m": m, "distance": dist} for m, dist in pairs], lambda: (
        [f"scaled-root distance to the limit configuration for {args.phi}, d = {args.d}:"]
        + [f"  m = {m:>6}: {dist:.6f}" for m, dist in pairs]
    )


def _cmd_verify_all(args):
    results = acceptance.run_all(args.only)
    ok = all(r.passed for r in results)

    def render():
        human = []
        for r in results:
            human.append(f"[{r.number:2d}] {'PASS' if r.passed else 'FAIL'} {r.name}"
                         + (f": {r.detail}" if r.detail else ""))
            human.extend(f"     {line}" for line in r.reported)
        human.append("all selected criteria pass" if ok else "FAILURES present")
        return human

    return [r.to_json() for r in results], render, 0 if ok else 1


# -- the command table -------------------------------------------------------------


class Arg(namedtuple("Arg", "flags dest type required default help metavar",
                     defaults=(None, False, None, "", None))):
    """One argument of a command.  A positional has no flags; an option's flags
    are `-x` or `--long-name`.  An option whose `type` is None is a flag that
    stores True; every other argument takes one value and stores
    `type(value)`, which raises ValueError on a bad value."""

    __slots__ = ()


class Command(namedtuple("Command", "help handler positionals options exclusive subcommands dest",
                         defaults=(None, (), (), (), None, None))):
    """One (sub)command: either a `handler`, which takes the parsed namespace
    and returns (result, render[, exit code]) with render() the human lines,
    or a group of `subcommands` (a dict from name to `Command`), whose chosen
    name is stored under `dest`.  At most one of the flags named in
    `exclusive` may be given; `positionals` and `options` are tuples of `Arg`."""

    __slots__ = ()


_HELP = Arg(("-h", "--help"), "help", help="show this help message and exit")
_COMMON = (
    Arg(("--json",), "json", default=False, help="machine-readable output"),
    Arg(("--out",), "out", str, metavar="FILE", help="write output to FILE instead of stdout"),
)
_PHI = (Arg((), "phi", RootSystemId.parse, required=True),)


def _m(help: str = "") -> Arg:
    return Arg(("-m",), "m", int, required=True, help=help)


COMMANDS: dict[str, Command] = {
    "table": Command("dump the root-system catalog", _cmd_table, options=_COMMON),
    "eulerian": Command(
        "generalized Eulerian polynomial R_Phi", _cmd_eulerian, _PHI, _COMMON + (
            Arg(("--half",), "half", default=False, help="truncated polynomial R^1/2"),
        )),
    "ehrhart": Command(
        "alcove Ehrhart quasi-polynomial L_Phi", _cmd_ehrhart, _PHI, _COMMON + (
            Arg(("--series",), "series", int, metavar="N", help="also print N series coefficients"),
        )),
    "charquasi": Command(
        "characteristic quasi-polynomial of L_Phi^m", _cmd_charquasi, _PHI, _COMMON + (
            _m("Linial parameter (0 = empty arrangement)"),
            Arg(("--half",), "half", default=False, help="half characteristic quasi-polynomial"),
            Arg(("--constituent",), "constituent", int, metavar="D",
                help="print only the residue-D constituent"),
        )),
    "admissible": Command("admissible residues and m0", _cmd_admissible, _PHI, _COMMON),
    "toy": Command(
        "toy-case polynomial R(S^(m+1)) g with the default seed", _cmd_toy, _PHI,
        _COMMON + (_m(),)),
    "check-line": Command(
        "certify roots on the line Re t = m*h/2", _cmd_check_line, _PHI, _COMMON + (
            _m(),
            Arg(("-d",), "d", int, default=1, help="constituent residue (default 1)"),
            Arg(("--exact",), "exact", default=False, help="exact Sturm certificate (default)"),
            Arg(("--numeric",), "numeric", default=False, help="numeric root check instead"),
        ), exclusive=("exact", "numeric")),
    "limit-roots": Command("limit polynomial F_Phi and its roots", _cmd_limit_roots, _PHI, _COMMON),
    "oracle": Command(
        "independent enumeration oracles", dest="oracle_command", subcommands={
            "modq": Command(
                "count points of (Z/q)^l off the arrangement", _cmd_oracle, _PHI, _COMMON + (
                    _m(),
                    Arg(("-q",), "q", int, required=True),
                    Arg(("--unsafe-q",), "unsafe_q", default=False, help="allow q <= m*h"),
                )),
        }),
    "track": Command(
        "scaled constituent roots vs the limit configuration", _cmd_track, _PHI, _COMMON + (
            Arg(("-d",), "d", int, required=True),
            Arg(("--m-list",), "m_list", _m_list, required=True, metavar="M1,M2,..."),
        )),
    "verify-all": Command("run the acceptance matrix", _cmd_verify_all, options=_COMMON + (
        Arg(("--only",), "only", _criteria_list, metavar="N,N,...",
            help="restrict to these criterion numbers"),
    )),
}

ROOT = Command(
    "Characteristic quasi-polynomials of extended Linial arrangements, exactly.",
    subcommands=COMMANDS, dest="command",
)


# -- the parser ----------------------------------------------------------------------
#
# It keeps the rules of the stdlib's option parser for the shapes the table uses
# (one value per option, at most one positional), so that every command line
# accepted before keeps its meaning; the tests hold the two against each other.

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_SEPARATOR = "--"  # the token itself; every token after it is a positional


class _UsageError(Exception):
    def __init__(self, message: str, arg: Arg | None = None):
        if arg is not None:
            message = f"argument {_arg_name(arg)}: {message}"
        super().__init__(message)


def _arg_name(arg: Arg) -> str:
    return "/".join(arg.flags) if arg.flags else (arg.metavar or arg.dest)


def parse_args(argv=None) -> SimpleNamespace:
    """Parse a `linchar` command line (default `sys.argv[1:]`) against COMMANDS.

    Returns a namespace holding `command` and every dest of the command;
    `oracle modq` adds `oracle_command`.  Options and the positional come in
    any order; an option's value may follow as the next token, after `=`, or
    attached to a short flag (`-m5`); a long option may be shortened to any
    unique prefix; a negative number is a value, not an option; `--` ends
    the options; a repeated option keeps its last value.
    `-h` prints help and exits 0; a usage error prints the usage and the error
    to stderr and exits 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    namespace: dict = {}
    extras = _parse(ROOT, "linchar", argv, namespace)
    if extras:
        _fail(ROOT, "linchar", "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**namespace)


def _fail(command: Command, prog: str, message: str):
    sys.stderr.write(f"{_usage(command, prog)}\n{prog}: error: {message}\n")
    sys.exit(2)


def _parse(command: Command, prog: str, argv: list[str], namespace: dict) -> list[str]:
    """Parse `argv` for one level of the table into `namespace`; returns the
    tokens no argument took."""
    try:
        return _parse_level(command, prog, argv, namespace)
    except _UsageError as exc:
        _fail(command, prog, str(exc))


def _parse_level(command, prog, argv, namespace):
    options = {flag: arg for arg in (_HELP,) + command.options for flag in arg.flags}
    args = command.positionals + command.options
    namespace.update((arg.dest, arg.default) for arg in args)
    if command.subcommands is not None:
        namespace[command.dest] = None

    # Each token is a positional (None), the separator, or an option
    # (arg, flag, attached value); arg is None for an unknown option.
    kinds: list = []
    for i, token in enumerate(argv):
        if token == _SEPARATOR:
            kinds += [_SEPARATOR] + [None] * (len(argv) - i - 1)
            break
        kinds.append(_classify(token, options))
    n = len(argv)
    option_at = [i for i, kind in enumerate(kinds) if type(kind) is tuple]
    slots = list(command.positionals) + ([None] if command.subcommands is not None else [])
    seen: set[str] = set()
    extras: list[str] = []

    def take(arg: Arg, value):
        seen.add(arg.dest)
        if arg is _HELP:
            sys.stdout.write(_help(command, prog))
            sys.exit(0)
        if arg.type is None:
            value = True
        elif value != _SEPARATOR:  # `-m=--` is refused once the whole line is read
            try:
                value = arg.type(value)
            except ValueError as exc:
                detail = f"invalid int value: {value!r}" if arg.type is int else str(exc)
                raise _UsageError(detail, arg) from None
        if arg.dest in command.exclusive:
            for other in command.options:
                if other.dest in command.exclusive and other is not arg and other.dest in seen:
                    raise _UsageError(f"not allowed with argument {_arg_name(other)}", arg)
        namespace[arg.dest] = value

    def positionals_from(i: int) -> int:
        start = i + (i < n and kinds[i] == _SEPARATOR)
        if not slots or start >= n or kinds[start] is not None:
            return i
        slot = slots.pop(0)
        if slot is None:  # the subcommand takes every remaining token
            name = argv[i]
            sub = command.subcommands.get(name)
            if sub is None:
                choices = ", ".join(map(repr, command.subcommands))
                raise _UsageError(
                    f"argument {command.dest}: invalid choice: {name!r} (choose from {choices})")
            seen.add(command.dest)
            namespace[command.dest] = name
            subspace: dict = {}
            extras.extend(_parse(sub, f"{prog} {name}", argv[i + 1:], subspace))
            namespace.update(subspace)
            return n
        stop = start + 1 + (start + 1 < n and kinds[start + 1] == _SEPARATOR)
        take(slot, argv[start])
        return stop

    def option_at_index(i: int) -> int:
        arg, flag, value = kinds[i]
        if arg is None:
            extras.append(argv[i])
            return i + 1
        taken = []
        while True:
            if value is None:
                if arg.type is None:
                    taken.append((arg, None))
                    stop = i + 1
                elif i + 1 < n and kinds[i + 1] is None:
                    taken.append((arg, argv[i + 1]))
                    stop = i + 2
                else:
                    raise _UsageError("expected one argument", arg)
                break
            if arg.type is not None:
                taken.append((arg, value))
                stop = i + 1
                break
            # A short flag with text attached: the text is more short flags.
            if flag[1] == "-" or value == "" or "-" + value[0] not in options:
                raise _UsageError(f"ignored explicit argument {value!r}", arg)
            taken.append((arg, None))
            flag = "-" + value[0]
            arg, value = options[flag], value[1:] or None
        for arg, value in taken:
            take(arg, value)
        return stop

    # Before each option, the positionals take what they can of the tokens
    # since the last one; tokens they leave are extras.
    i = 0
    while option_at and i <= option_at[-1]:
        next_option = next(j for j in option_at if j >= i)
        if i != next_option:
            stop = positionals_from(i)
            if stop > i:
                i = stop
                continue
            extras.extend(argv[i:next_option])
            i = next_option
        i = option_at_index(i)
    extras.extend(argv[positionals_from(i):])

    for arg in args:
        # The stdlib parser stored [] for `-m=--`, which no handler accepts; a
        # later `-h` or a later value of the same option still wins.
        if namespace[arg.dest] == _SEPARATOR:
            raise _UsageError("expected one argument", arg)
    missing = [_arg_name(arg) for arg in args if arg.required and arg.dest not in seen]
    if command.subcommands is not None and command.dest not in seen:
        missing.append(command.dest)
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    return extras


def _classify(token: str, options: dict):
    """None for a positional, else (arg, flag, attached value or None), with arg
    None for an unknown option."""
    if not token or token[0] != "-":
        return None
    if token in options:
        return options[token], token, None
    if len(token) == 1:
        return None
    flag, eq, value = token.partition("=")
    if eq and flag in options:
        return options[flag], flag, value
    if token[1] == "-":
        matches = [(options[f], f, value if eq else None) for f in options if f.startswith(flag)]
    else:  # a short flag with its value attached
        matches = [(options[token[:2]], token[:2], token[2:])] if token[:2] in options else []
    if len(matches) > 1:
        found = ", ".join(f for _, f, _ in matches)
        raise _UsageError(f"ambiguous option: {token} could match {found}")
    if matches:
        return matches[0]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, token, None


# -- help ------------------------------------------------------------------------------


def _invocation(arg: Arg, flag: str) -> str:
    return flag if arg.type is None else f"{flag} {arg.metavar or arg.dest.upper()}"


def _usage(command: Command, prog: str) -> str:
    parts = [prog, "[-h]"]
    for arg in command.options:
        if arg.dest not in command.exclusive:
            text = _invocation(arg, arg.flags[0])
            parts.append(text if arg.required else f"[{text}]")
        elif arg.dest == command.exclusive[0]:
            group = [a.flags[0] for a in command.options if a.dest in command.exclusive]
            parts.append("[" + " | ".join(group) + "]")
    parts += [arg.metavar or arg.dest for arg in command.positionals]
    if command.subcommands is not None:
        parts.append("{" + ",".join(command.subcommands) + "} ...")
    return "usage: " + " ".join(parts)


def _help(command: Command, prog: str) -> str:
    positionals = [(arg.metavar or arg.dest, arg.help) for arg in command.positionals]
    if command.subcommands is not None:
        positionals.append(("{" + ",".join(command.subcommands) + "}", ""))
        positionals += [(f"  {name}", sub.help) for name, sub in command.subcommands.items()]
    options = [
        (", ".join(_invocation(arg, flag) for flag in arg.flags), arg.help)
        for arg in (_HELP,) + command.options
    ]
    width = min(24, 2 + max(len(name) for name, _ in positionals + options))
    lines = [_usage(command, prog), "", command.help]
    for title, rows in (("positional arguments", positionals), ("options", options)):
        if rows:
            lines += ["", f"{title}:"]
        for name, text in rows:
            if text and len(name) + 2 > width:
                lines += [f"  {name}", " " * (width + 2) + text]
            else:
                lines.append(f"  {name:<{width}}{text}".rstrip())
    return "\n".join(lines) + "\n"


def _inputs(command: Command, args) -> dict:
    """The envelope's "inputs": every argument of `command` but _NOT_INPUTS."""
    inputs = {}
    for arg in command.positionals + command.options:
        if arg.dest not in _NOT_INPUTS:
            value = getattr(args, arg.dest)
            inputs[arg.dest] = str(value) if isinstance(value, RootSystemId) else value
    return inputs


def main(argv=None) -> int:
    args = parse_args(argv)
    path, command = [], ROOT
    while command.subcommands is not None:
        path.append(getattr(args, command.dest))
        command = command.subcommands[path[-1]]
    name = "-".join(path)
    try:
        result, render, *code = command.handler(args)
        if args.json:
            text = to_json_str({
                "command": name,
                "inputs": _inputs(command, args),
                "result": result,
                "schema_version": SCHEMA_VERSION,
            })
        else:
            text = "\n".join(render())
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`linchar ... | head`).  Point stdout at the
        # null device so that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (LincharError, ValueError, ZeroDivisionError, OSError) as exc:
        error = type(exc).__name__
        if args.json:
            print(to_json_str({
                "command": name,
                "error": error,
                "message": str(exc),
                "schema_version": SCHEMA_VERSION,
            }))
        else:
            print(f"error: {error}: {exc}", file=sys.stderr)
        return 1
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
