"""Command line front end.

Elements are written in a small expression language over the generators
w (the Teichmuller unit) and S (the twisting uniformizer):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := int | int '/' int | 'w' | 'S' | '(' expr ')' | '-' base

Parentheses and unary minus nest at most 100 deep.

Each command takes those of --p, --n and --prec (Witt digits) that it reads
and prints plain text, or a JSON document under --json.  Exit code 0 is
success, 1 is a domain error (bad element, lost precision) or a closed
stdout, 2 is a usage error.

A well-formed command line is read straight from the command table,
_GROUPS, with no argparse.  Every other one (help, an abbreviated or
repeated flag, a refused value) goes to an argparse parser of every group
and leaf, built from the same table, which parses it, or prints the help
or the usage error.
"""

import re
import sys
from functools import lru_cache, partial
from types import SimpleNamespace

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from morava.order import OrderElem


class ParseError(ValueError):
    """Malformed element expression; the message carries the position."""


# one token per match after any whitespace (\s is str.isspace) in group 1: an ASCII integer (group 2;
# isdigit would also take superscript and non-Latin digits), an operator or generator, the offending
# character (group 3), or empty at the end; kept a string, which re compiles on first use, not at import
_TOKEN = r"\s*(([0-9]+)|[-+*/^()wS]|(\S)|\Z)"

# each parenthesis or unary minus is one level of recursion in _Parser.base
_MAX_NESTING = 100


class _Parser:
    def __init__(self, src, ring, allow_s):
        self.tokens = []  # (kind, value, position); an operator or generator is its own kind
        for m in re.finditer(_TOKEN, src):
            tok, pos = m[1], m.start(1)
            if m[3]:
                raise ParseError(f"unexpected character {tok!r} at position {pos}")
            self.tokens.append(("int", int(tok), pos) if m[2] else (tok or "end", None, pos))
        self.i = 0
        self.depth = 0
        self.ring = ring
        self.allow_s = allow_s

    def take(self, *kinds):
        """The next token, consumed; with kinds, only a token of one of them, and None otherwise."""
        tok = self.tokens[self.i]
        if kinds and tok[0] not in kinds:
            return None
        self.i += 1
        return tok

    def expr(self) -> "OrderElem":
        out = self.term()
        while op := self.take("+", "-"):
            rhs = self.term()
            out = out + rhs if op[0] == "+" else out - rhs
        return out

    def term(self) -> "OrderElem":
        out = self.factor()
        while self.take("*"):
            out = out * self.factor()
        return out

    def factor(self) -> "OrderElem":
        out = self.base()
        if self.take("^"):
            kind, value, pos = self.take()
            if kind != "int":
                raise ParseError(f"expected a nonnegative exponent at position {pos}")
            out = out ** value
        return out

    def nested(self, inner, pos):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} at position {pos}")
        out = inner()
        self.depth -= 1
        return out

    def base(self) -> "OrderElem":
        from morava.order import from_int, from_witt, s_gen

        kind, value, pos = self.take()
        if kind == "-":
            return self.nested(self.base, pos).scale(-1)
        if kind == "int":
            if self.take("/"):
                kind, d, pos = self.take()
                if kind != "int":
                    raise ParseError(f"expected a denominator at position {pos}")
                if d % self.ring.params.p == 0:  # d = 0 included
                    raise ValueError("not a unit in the order")
                value *= pow(d, -1, self.ring.params.modulus)
            return from_int(self.ring, value)
        if kind == "w":
            return from_witt(self.ring, self.ring.omega)
        if kind == "S" and not self.allow_s:
            raise ParseError(f"S is not allowed here (position {pos})")
        if kind == "S":
            return s_gen(self.ring)
        if kind == "(":
            out = self.nested(self.expr, pos)
            kind, _, pos = self.take()
            if kind != ")":
                raise ParseError(f"expected ')' at position {pos}")
            return out
        raise ParseError(f"unexpected token at position {pos}")


def parse_element(src: str, ring, allow_s: bool = True) -> "OrderElem":
    """Parse an expression into an element of the order over the given ring."""
    parser = _Parser(src, ring, allow_s)
    out = parser.expr()
    kind, _, pos = parser.take()
    if kind != "end":
        raise ParseError(f"trailing input at position {pos}")
    return out


def _ring(args):
    from morava.witt import make_ring

    return make_ring(args.p, args.n, args.prec)


def _parse_stems(spec: str):
    """An argparse type: "a..b" or a comma list, refused when empty or malformed."""
    try:
        if ".." in spec:
            lo, _, hi = spec.partition("..")
            stems = range(int(lo), int(hi) + 1)
        else:
            stems = [int(part) for part in spec.split(",")]
    except ValueError:
        stems = None
    if not stems:
        import argparse  # here, not at the top: only a refusal needs them

        from morava.padic import brief

        raise argparse.ArgumentTypeError(f"expected a..b with a <= b or a comma list, got {brief(spec)}")
    return stems


def _int(spec: str, lo=None) -> int:
    """An argparse type: an integer, at least lo (None or 1) when given; a refusal echoes the value's head."""
    try:
        value = int(spec)
    except ValueError:  # malformed, or too many digits to read
        value = None
    if value is not None and (lo is None or value >= lo):
        return value
    import argparse  # here, not at the top: only a refusal needs them

    from morava.padic import brief

    what = "an integer" if lo is None else "a positive integer"
    if value is None and re.fullmatch(r"\s*[+-]?\d+\s*", spec) and (lo is None or "-" not in spec):
        what = "an integer short enough to read"  # unless its sign alone puts it below lo
    raise argparse.ArgumentTypeError(f"expected {what}, got {brief(spec)}")


_positive_int = partial(_int, lo=1)


# each handler imports its layers when it runs, so that a cold command loads no other layer
def _cmd_witt(args):
    from morava.order import from_witt
    from morava.witt import teichmuller

    ring = _ring(args)
    if args.cmd == "trace":
        x = parse_element(args.expr, ring, allow_s=False).parts[0]
        tr = x.trace()
        return [f"tr = {tr!r}"], {"p": args.p, "n": args.n, "M": args.prec, "trace": tr.value}
    if args.cmd == "frobenius":
        x = parse_element(args.expr, ring, allow_s=False).parts[0]
        y = x.frobenius()
        return [repr(from_witt(ring, y))], {"coords": list(y.coords)}
    x = teichmuller(ring, ring.fq.from_idx(args.residue))
    return [repr(from_witt(ring, x))], {"coords": list(x.coords)}


def _cmd_order(args):
    ring = _ring(args)
    x = parse_element(args.expr, ring)
    if args.cmd == "mul":
        out = x * parse_element(args.other, ring)
        return [repr(out)], out.to_json()
    if args.cmd == "inv":
        out = x.inverse()
        return [repr(out)], out.to_json()
    if args.cmd == "val":
        v = x.s_valuation()
        return [f"v = {v}"], {"valuation": str(v)}
    count = args.count if args.count is not None else args.n * args.prec
    digits = x.s_digits(count)
    return (
        [f"digit {i}: {d!r}" for i, d in enumerate(digits)],
        {"digits": [list(d.coeffs) for d in digits]},
    )


def _cmd_stab(args):
    from morava.stabilizer import (
        StabElem,
        commutator,
        default_order_bound,
        element_order,
        filtration_level,
        in_K,
        reduced_norm,
        s1_split,
    )

    ring = _ring(args)
    cap = args.n * args.prec
    x = StabElem(parse_element(args.expr, ring))
    if args.cmd == "order":
        bound = args.bound if args.bound else default_order_bound(ring)
        found = element_order(x, bound)
        if found is None:
            line = f"no torsion found up to order {bound} (at precision S^{cap})"
        else:
            line = f"order {found} (at precision S^{cap})"
        return [line], {"order": found, "bound": bound, "precision": cap}
    if args.cmd == "comm":
        out = commutator(x, StabElem(parse_element(args.other, ring)))
        return [repr(out.elem)], out.elem.to_json()
    if args.cmd == "level":
        lv = filtration_level(x)
        return [f"level {lv}"], {"level": str(lv)}
    if args.cmd == "norm":
        nm = reduced_norm(x.elem)
        return [f"N = {nm!r}"], {"norm": nm.value, "p": args.p, "M": args.prec}
    if args.cmd == "split":
        x1, z = s1_split(x)
        return (
            [f"norm-one part: {x1.elem!r}", f"central unit: {z!r}"],
            {"norm_one": x1.elem.to_json(), "central": z.value},
        )
    member = in_K(x)
    return [str(member)], {"in_K": member}


def _cmd_grlie(args):
    from morava.grlie import (
        abelianization_report,
        check_bracket_vs_group,
        check_power_vs_group,
        commutator_span,
        gr_bracket,
        gr_power,
        predicted_span,
    )
    from morava.stabilizer import GrElem
    from morava.witt import fq_field

    if args.cmd == "abelianize":
        report = abelianization_report(args.p, args.n, args.levels)
        lines = [
            f"H_1 = {report.decomp}",
            f"H_1 mod p = {report.mod_p_decomp}",
        ]
        return lines, report.to_json()
    if args.cmd == "check":
        if args.power:
            rep = check_power_vs_group(args.p, args.n, args.k, trials=args.trials, M=args.prec)
        else:
            rep = check_bracket_vs_group(
                args.p, args.n, args.k, args.l, trials=args.trials, M=args.prec
            )
        status = "ok" if rep.ok else "FAILED"
        line = (
            f"{status}: {rep.trials} trials, {rep.mismatches} mismatches,"
            f" {rep.degenerate} degenerate"
        )
        return [line], {
            "ok": rep.ok,
            "trials": rep.trials,
            "mismatches": rep.mismatches,
            "degenerate": rep.degenerate,
        }
    if args.cmd == "span":
        span = commutator_span(args.p, args.n, args.k, args.l)
        kind, _ = predicted_span(args.p, args.n, args.k, args.l)
        dim = len(span.basis())
        wording = {
            "full": "equals the whole field",
            "ker_tr": "equals ker(tr)",
            "sub_ker_tr": "is contained in ker(tr)",
            "no_claim": "carries no structural claim",
        }[kind]
        line = f"dim {dim} at level ({args.k}+{args.l})/{args.n}; {wording}"
        return [line], {"dim": dim, "claim": kind}
    field = fq_field(args.p, args.n)
    a = GrElem(args.k, field.from_idx(args.a))
    if args.cmd == "bracket":
        b = GrElem(args.l, field.from_idx(args.b))
        out = gr_bracket(a, b)
    else:
        out = gr_power(a)
    return [repr(out)], {"k": out.k, "digit": list(out.digit.coeffs)}


def _homalg_module(args):
    from morava.homalg import ZpModuleWithOperator
    from morava.padic import PadicParams, load_json

    return ZpModuleWithOperator(PadicParams(args.p, args.prec), load_json(args.matrix))


def _cmd_homalg(args):
    from morava.homalg import cyclic_cohomology, g1_cohomology_E1, iwasawa_cohomology

    if args.cmd == "iwasawa":
        h0, h1 = iwasawa_cohomology(_homalg_module(args))
        return [str(h0), str(h1)], {"H0": str(h0.decomp), "H1": str(h1.decomp)}
    if args.cmd == "cyclic":
        group = cyclic_cohomology(_homalg_module(args), args.order, args.s)
        return [str(group)], {f"H{args.s}": str(group.decomp), "provenance": group.provenance}
    group = g1_cohomology_E1(args.p, args.s, args.t)
    return (
        [f"{group}  [{group.provenance}]"],
        {f"H{args.s}": str(group.decomp), "provenance": group.provenance},
    )


def _cmd_k1(args):
    from morava.k1 import homotopy_table, ko_table, psi_valuation_report, sphere_e2_page

    if args.cmd == "e2":
        chart = sphere_e2_page(args.p, args.smax, args.tmin, args.tmax)
        return chart.render_text().splitlines(), chart.to_json()
    if args.cmd == "homotopy":
        table = homotopy_table(args.p, args.stems)
        return table.render_text().splitlines(), table.to_json()
    if args.cmd == "ko":
        table = ko_table(args.stems)
        return table.render_text().splitlines(), table.to_json()
    report = psi_valuation_report(args.p, args.tmax)
    status = "ok" if report.ok else "FAILED"
    line = (
        f"{report.formula}: checked t <= {report.t_max},"
        f" max valuation {report.max_valuation}, {status}"
    )
    return [line], report.to_json()


# element expressions and stem lists may begin with a dash; any dashed token
# that is not a registered flag must be read as a value, not an option
_DASHED_VALUE = re.compile(r"^-.+$")

# the options commands share, in help order; a leaf takes those its handler reads
_SHARED = {
    "--p": {"type": _int, "default": 3, "help": "the prime (default 3)"},
    "--n": {"type": _positive_int, "default": 2, "help": "the height (default 2)"},
    "--prec": {"type": _positive_int, "default": 16, "help": "Witt digits of precision (default 16)"},
}
# the option every leaf takes
_JSON = {"action": "store_true", "dest": "as_json", "help": "print a JSON document"}


@lru_cache(maxsize=None)
def _options(shared) -> "argparse.ArgumentParser":
    """The parent parser of the shared options `shared` and --json, built once per tuple."""
    import argparse

    parent = argparse.ArgumentParser(add_help=False)
    for flag in shared:
        parent.add_argument(flag, **_SHARED[flag])
    parent.add_argument("--json", **_JSON)
    return parent


_PNM = tuple(_SHARED)
_INT, _POSITIVE = {"type": _int}, {"type": _positive_int}
_REQUIRED_INT, _LEVEL = {**_INT, "required": True}, {**_POSITIVE, "required": True}
_STEMS = ("--stems", {"type": _parse_stems, "required": True, "help": "a..b or a comma list"})
_MATRIX = ("--matrix", {"required": True, "help": "operator as a JSON matrix"})

# group -> (help, its leaves' shared options, {leaf: arguments}, handler); a new command is one row.
# An argument is a positional name, a (flag, add_argument keywords) pair or a list of pairs (a
# required mutually exclusive group); a row may begin with its own tuple of shared options
_GROUPS = {
    "witt": ("truncated Witt vector arithmetic", _PNM, {
        "trace": ("expr",),
        "frobenius": ("expr",),
        "teich": (("residue", _INT),),
    }, _cmd_witt),
    "order": ("arithmetic in the twisted order", _PNM, {
        "mul": ("expr", "other"),
        "inv": ("expr",),
        "val": ("expr",),
        "digits": ("expr", ("--count", _POSITIVE)),
    }, _cmd_order),
    "stab": ("unit group operations", _PNM, {
        "order": ("expr", ("--bound", _POSITIVE)),
        "comm": ("expr", "other"),
        **dict.fromkeys(("level", "norm", "split", "inK"), ("expr",)),
    }, _cmd_stab),
    "grlie": ("graded Lie formulas and H_1", ("--p", "--n"), {
        "bracket": (("--k", _LEVEL), ("--l", _LEVEL), ("a", _INT), ("b", _INT)),
        "power": (("--k", _LEVEL), ("a", _INT)),
        "span": (("--k", _LEVEL), ("--l", _LEVEL)),
        "check": (_PNM, ("--k", _LEVEL), [("--l", _POSITIVE), ("--power", {"action": "store_true"})],
                  ("--trials", {**_POSITIVE, "default": 50})),
        "abelianize": (("--levels", _LEVEL),),
    }, _cmd_grlie),
    "homalg": ("operator (co)homology", ("--p", "--prec"), {
        "iwasawa": (_MATRIX,),
        "cyclic": (_MATRIX, ("--order", _REQUIRED_INT), ("--s", _REQUIRED_INT)),
        "g1": (("--p",), ("--s", _REQUIRED_INT), ("--t", _REQUIRED_INT)),
    }, _cmd_homalg),
    "k1": ("height-one charts and homotopy", ("--p",), {
        "e2": (("--smax", {**_INT, "default": 6}), ("--tmin", {**_INT, "default": -8}),
               ("--tmax", {**_INT, "default": 16})),
        "homotopy": (_STEMS,),
        "ko": ((), _STEMS),
        "valuations": (("--tmax", {**_POSITIVE, "default": 200}),),
    }, _cmd_k1),
}


def _leaf_spec(row, shared):
    """A leaf's (shared options, arguments): its row may begin with its own tuple of shared options."""
    if row and isinstance(row[0], tuple) and all(isinstance(flag, str) for flag in row[0]):
        return row[0], row[1:]
    return shared, row


def _add_leaf(leaves, name, shared, row):
    parser = leaves.add_parser(name, parents=[_options(shared)])
    parser._negative_number_matcher = _DASHED_VALUE
    for arg in row:
        if isinstance(arg, str):
            parser.add_argument(arg)
        elif isinstance(arg, list):
            choice = parser.add_mutually_exclusive_group(required=True)
            for flag, kwargs in arg:
                choice.add_argument(flag, **kwargs)
        else:
            parser.add_argument(arg[0], **arg[1])


def _build_parser() -> "argparse.ArgumentParser":
    """The parser of every group and leaf, which prints help, usage and refusals."""
    import argparse

    top = argparse.ArgumentParser(
        prog="morava", description="exact arithmetic in small stabilizer groups"
    )
    groups = top.add_subparsers(dest="group", required=True)
    for name, (help_text, shared, rows, _) in _GROUPS.items():
        leaves = groups.add_parser(name, help=help_text).add_subparsers(dest="cmd", required=True)
        for leaf, row in rows.items():
            _add_leaf(leaves, leaf, *_leaf_spec(row, shared))
    return top


def _is_value(token: str) -> bool:
    """Whether argparse reads token as a value at every level: undashed, or dashed as _DASHED_VALUE
    reads it but not --x, -h... or -=x, which argparse may take for an option or its abbreviation."""
    return not token.startswith("-") or bool(_DASHED_VALUE.match(token)) and token[1] not in "-h="


def _read_argv(argv):
    """The namespace argparse makes of a well-formed argv, read straight from _GROUPS; else None.

    Well-formed is group, leaf, then in any order exactly the leaf's positionals and its exact
    flags, each at most once and each but a store_true flag followed by its value; every required
    flag and one flag of a required choice given, and every value accepted by its type.  Every
    other argv, help included, is argparse's to parse, word and refuse.
    """
    if len(argv) < 2 or argv[0] not in _GROUPS:
        return None
    _, shared, rows, _ = _GROUPS[argv[0]]
    if argv[1] not in rows:
        return None
    shared, row = _leaf_spec(rows[argv[1]], shared)
    flags = {**{flag: _SHARED[flag] for flag in shared}, "--json": _JSON}
    positionals, choice = [], ()
    for arg in row:
        if isinstance(arg, list):
            choice = dict(arg)
            flags.update(choice)
        elif isinstance(arg, str):
            positionals.append((arg, {}))
        elif arg[0].startswith("-"):
            flags[arg[0]] = arg[1]
        else:
            positionals.append(arg)
    given, values = {}, []
    tokens = iter(argv[2:])
    for token in tokens:
        spec = flags.get(token)
        if spec is None:
            values.append(token)
        elif token in given:
            return None
        elif spec.get("action") == "store_true":
            given[token] = True
            continue
        else:
            given[token] = next(tokens, "-")  # a missing value reads as a lone dash
            token = given[token]
        if not _is_value(token):
            return None
    if len(values) != len(positionals) or choice and sum(flag in given for flag in choice) != 1:
        return None
    if any(spec.get("required") and flag not in given for flag, spec in flags.items()):
        return None
    args = {"group": argv[0], "cmd": argv[1]}
    try:
        for flag, spec in flags.items():
            dest = spec.get("dest") or flag.lstrip("-").replace("-", "_")
            if spec.get("action") == "store_true":
                args[dest] = flag in given
            else:
                args[dest] = spec.get("type", str)(given[flag]) if flag in given else spec.get("default")
        for (name, spec), token in zip(positionals, values):
            args[name] = spec.get("type", str)(token)
    except Exception:  # a type's refusal: argparse calls the type again and words it, or raises
        return None
    return SimpleNamespace(**args)


def run_command(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        lines, payload = _GROUPS[args.group][3](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def main():
    try:
        code = run_command()
        sys.stdout.flush()  # inside the try: a closed pipe raises here, not at exit
    except BrokenPipeError:  # the reader has gone; devnull silences the flush at exit
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
