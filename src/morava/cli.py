"""Command line front end.

Elements are written in a small expression language over the generators
w (the Teichmuller unit) and S (the twisting uniformizer):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := int | int '/' int | 'w' | 'S' | '(' expr ')' | '-' base

Parentheses and unary minus nest at most 100 deep.

Every command takes --p, --n and --prec (Witt digits) and prints plain
text, or a JSON document under --json.  Exit code 0 is success, 1 is a
domain error (bad element, lost precision), 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from morava.padic import PadicParams
from morava.witt import fq_field, make_ring, teichmuller
from morava.order import OrderElem, from_int, from_witt, s_gen
from morava.stabilizer import (
    GrElem,
    StabElem,
    commutator,
    default_order_bound,
    element_order,
    filtration_level,
    in_K,
    reduced_norm,
    s1_split,
)
from morava.grlie import (
    abelianization_report,
    check_bracket_vs_group,
    check_power_vs_group,
    commutator_span,
    gr_bracket,
    gr_power,
    predicted_span,
)
from morava.homalg import (
    ZpModuleWithOperator,
    cyclic_cohomology,
    g1_cohomology_E1,
    iwasawa_cohomology,
)
from morava.k1 import homotopy_table, ko_table, psi_valuation_report, sphere_e2_page


class ParseError(ValueError):
    """Malformed element expression; the message carries the position."""


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if c in ("w", "S"):
            tokens.append(("name", c, i))
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} at position {i}")
    tokens.append(("end", None, len(src)))
    return tokens


# each parenthesis or unary minus is one level of recursion in _Parser.base
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, ring, allow_s):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.ring = ring
        self.allow_s = allow_s

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self) -> OrderElem:
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> OrderElem:
        out = self.factor()
        while self.peek()[0] == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> OrderElem:
        out = self.base()
        if self.peek()[0] == "^":
            self.take()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ParseError(f"expected a nonnegative exponent at position {pos}")
            self.take()
            out = out ** value
        return out

    def nested(self, inner, pos):
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} at position {pos}")
        out = inner()
        self.depth -= 1
        return out

    def base(self) -> OrderElem:
        kind, value, pos = self.peek()
        if kind == "-":
            self.take()
            return self.nested(self.base, pos).scale(-1)
        if kind == "int":
            self.take()
            if self.peek()[0] == "/":
                self.take()
                dkind, dval, dpos = self.peek()
                if dkind != "int":
                    raise ParseError(f"expected a denominator at position {dpos}")
                self.take()
                return from_int(self.ring, value) * from_int(self.ring, dval).inverse()
            return from_int(self.ring, value)
        if kind == "name" and value == "w":
            self.take()
            return from_witt(self.ring, self.ring.omega)
        if kind == "name" and value == "S":
            if not self.allow_s:
                raise ParseError(f"S is not allowed here (position {pos})")
            self.take()
            return s_gen(self.ring)
        if kind == "(":
            self.take()
            out = self.nested(self.expr, pos)
            if self.peek()[0] != ")":
                raise ParseError(f"expected ')' at position {self.peek()[2]}")
            self.take()
            return out
        raise ParseError(f"unexpected token at position {pos}")


def parse_element(src: str, ring, allow_s: bool = True) -> OrderElem:
    """Parse an expression into an element of the order over the given ring."""
    parser = _Parser(_tokenize(src), ring, allow_s)
    out = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input at position {pos}")
    return out


def _ring(args):
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
        raise argparse.ArgumentTypeError(f"expected a..b with a <= b or a comma list, got {spec!r}")
    return stems


def _positive_int(spec: str) -> int:
    """An argparse type: a positive integer."""
    try:
        value = int(spec)
    except ValueError:  # read as a value below 1, so every refusal says the same
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {spec!r}")
    return value


def _cmd_witt(args):
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
    return ZpModuleWithOperator(PadicParams(args.p, args.prec), json.loads(args.matrix))


def _cmd_homalg(args):
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


_HANDLERS = {
    "witt": _cmd_witt,
    "order": _cmd_order,
    "stab": _cmd_stab,
    "grlie": _cmd_grlie,
    "homalg": _cmd_homalg,
    "k1": _cmd_k1,
}


# element expressions and stem lists may begin with a dash; any dashed token
# that is not a registered flag must be read as a value, not an option
_DASHED_VALUE = re.compile(r"^-.+$")


def _leaf(sub, name, common) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, parents=[common])
    parser._negative_number_matcher = _DASHED_VALUE
    return parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=3, help="the prime (default 3)")
    common.add_argument("--n", type=_positive_int, default=2, help="the height (default 2)")
    common.add_argument(
        "--prec", type=_positive_int, default=16, help="Witt digits of precision (default 16)"
    )
    common.add_argument(
        "--json", action="store_true", dest="as_json", help="print a JSON document"
    )

    top = argparse.ArgumentParser(
        prog="morava", description="exact arithmetic in small stabilizer groups"
    )
    groups = top.add_subparsers(dest="group", required=True)

    witt = groups.add_parser("witt", help="truncated Witt vector arithmetic")
    wsub = witt.add_subparsers(dest="cmd", required=True)
    wtrace = _leaf(wsub, "trace", common)
    wtrace.add_argument("expr")
    wfrob = _leaf(wsub, "frobenius", common)
    wfrob.add_argument("expr")
    wteich = _leaf(wsub, "teich", common)
    wteich.add_argument("residue", type=int)

    order = groups.add_parser("order", help="arithmetic in the twisted order")
    osub = order.add_subparsers(dest="cmd", required=True)
    omul = _leaf(osub, "mul", common)
    omul.add_argument("expr")
    omul.add_argument("other")
    oinv = _leaf(osub, "inv", common)
    oinv.add_argument("expr")
    oval = _leaf(osub, "val", common)
    oval.add_argument("expr")
    odig = _leaf(osub, "digits", common)
    odig.add_argument("expr")
    odig.add_argument("--count", type=_positive_int, default=None)

    stab = groups.add_parser("stab", help="unit group operations")
    ssub = stab.add_subparsers(dest="cmd", required=True)
    sorder = _leaf(ssub, "order", common)
    sorder.add_argument("expr")
    sorder.add_argument("--bound", type=_positive_int, default=None)
    scomm = _leaf(ssub, "comm", common)
    scomm.add_argument("expr")
    scomm.add_argument("other")
    slevel = _leaf(ssub, "level", common)
    slevel.add_argument("expr")
    snorm = _leaf(ssub, "norm", common)
    snorm.add_argument("expr")
    ssplit = _leaf(ssub, "split", common)
    ssplit.add_argument("expr")
    sink = _leaf(ssub, "inK", common)
    sink.add_argument("expr")

    grlie = groups.add_parser("grlie", help="graded Lie formulas and H_1")
    gsub = grlie.add_subparsers(dest="cmd", required=True)
    gbr = _leaf(gsub, "bracket", common)
    gbr.add_argument("--k", type=_positive_int, required=True)
    gbr.add_argument("--l", type=_positive_int, required=True)
    gbr.add_argument("a", type=int)
    gbr.add_argument("b", type=int)
    gpw = _leaf(gsub, "power", common)
    gpw.add_argument("--k", type=_positive_int, required=True)
    gpw.add_argument("a", type=int)
    gsp = _leaf(gsub, "span", common)
    gsp.add_argument("--k", type=_positive_int, required=True)
    gsp.add_argument("--l", type=_positive_int, required=True)
    gch = _leaf(gsub, "check", common)
    gch.add_argument("--k", type=_positive_int, required=True)
    gch_what = gch.add_mutually_exclusive_group(required=True)
    gch_what.add_argument("--l", type=_positive_int)
    gch_what.add_argument("--power", action="store_true")
    gch.add_argument("--trials", type=_positive_int, default=50)
    gab = _leaf(gsub, "abelianize", common)
    gab.add_argument("--levels", type=_positive_int, required=True)

    homalg = groups.add_parser("homalg", help="operator (co)homology")
    hsub = homalg.add_subparsers(dest="cmd", required=True)
    hiw = _leaf(hsub, "iwasawa", common)
    hiw.add_argument("--matrix", required=True, help="operator as a JSON matrix")
    hcy = _leaf(hsub, "cyclic", common)
    hcy.add_argument("--matrix", required=True)
    hcy.add_argument("--order", type=int, required=True)
    hcy.add_argument("--s", type=int, required=True)
    hg1 = _leaf(hsub, "g1", common)
    hg1.add_argument("--s", type=int, required=True)
    hg1.add_argument("--t", type=int, required=True)

    k1 = groups.add_parser("k1", help="height-one charts and homotopy")
    ksub = k1.add_subparsers(dest="cmd", required=True)
    ke2 = _leaf(ksub, "e2", common)
    ke2.add_argument("--smax", type=int, default=6)
    ke2.add_argument("--tmin", type=int, default=-8)
    ke2.add_argument("--tmax", type=int, default=16)
    kho = _leaf(ksub, "homotopy", common)
    kho.add_argument("--stems", type=_parse_stems, required=True, help="a..b or a comma list")
    kko = _leaf(ksub, "ko", common)
    kko.add_argument("--stems", type=_parse_stems, required=True)
    kva = _leaf(ksub, "valuations", common)
    kva.add_argument("--tmax", type=_positive_int, default=200)

    return top


def run_command(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        lines, payload = _HANDLERS[args.group](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


def main():
    sys.exit(run_command())


if __name__ == "__main__":
    main()
