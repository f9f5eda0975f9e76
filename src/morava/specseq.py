"""A small bigraded spectral sequence engine over one prime.

Charts hold cyclic summands at positions (s, t), labeled by monomials in
named classes with integer exponents (e.g. "2*zeta*u^-2").  Differentials
on page r go (s, t) -> (s + r, t + r - 1); a rule multiplies a source label
by a fixed monomial to name its target, the matched target is wiped out, and
the source is replaced by the kernel (order divided, label index multiplied).
Every application is logged so a page turn is auditable; a log line is
formatted only when the log is first read.
"""

from functools import lru_cache

from morava.padic import INF, CyclicDecomp, check_int, cyclic_decomp, record


@lru_cache(maxsize=1024)  # label and rule cores: tens of them
def _checked_core(core: tuple) -> tuple:
    """core sorted by name: the one check on label and rule cores, cached per distinct core.

    Refuses bad class names, repeats, zero exponents and u, whose exponent is kept apart.
    """
    seen = set()
    for name, e in core:
        # [a-z]+ with no regex compiled at import; str.isascii raises TypeError on a non-str name
        if not (str.isascii(name) and name.isalpha() and name.islower()):
            raise ValueError(f"bad class name {name!r}")
        if name == "u":
            raise ValueError("a core may not name u: the u-exponent is kept apart")
        if name in seen:
            raise ValueError(f"repeated class name {name!r}")
        if e == 0:
            raise ValueError("zero exponents must be dropped")
        seen.add(name)
    return tuple(sorted(core))  # names are distinct, so this sorts by name


@lru_cache(maxsize=1024)  # (label core, rule factor) pairs: tens of them
def _product(core: tuple, times: tuple) -> tuple:
    """The checked core of the product of two checked cores: exponents add, and a zero drops out."""
    exps = dict(core)
    for name, e in times:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((name, e) for name, e in exps.items() if e))


@lru_cache(maxsize=1024)
def _core_text(core: tuple) -> str:
    """The factors of a checked core as a label prints them: "eta^3*zeta"."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in core)


_set = object.__setattr__


@record
class Monomial:
    """index * prod(name^exp) * u^u: core holds the non-u factors sorted by name, printed before u."""

    index: int = 1
    core: tuple = ()
    u: int = 0

    def __post_init__(self):
        if type(self.index) is not int or self.index < 1:  # a test, not a call: every label passes here
            raise ValueError("index must be a positive integer")
        if type(self.u) is not int:
            raise ValueError(f"u must be an integer, got {self.u!r}")
        _set(self, "core", _checked_core(tuple(self.core)))

    @staticmethod
    def parse(text: str) -> "Monomial":
        text = text.strip()
        if not text:
            raise ValueError("empty monomial")
        index, core, u = 1, [], 0
        for tok in text.split("*"):
            tok = tok.strip()
            if not tok:
                raise ValueError(f"empty factor in {text!r}")
            if tok.lstrip("-").isdigit():
                index = index * int(tok)
                continue
            name, caret, e = tok.partition("^")
            if caret and not e.lstrip("-").isdigit():
                raise ValueError(f"bad exponent in {tok!r}")
            e = int(e) if caret else 1
            if name != "u":
                core.append((name, e))
            elif u or not e:
                raise ValueError(f"u must appear once, with a nonzero exponent, in {text!r}")
            else:
                u = e
        return Monomial(index, tuple(core), u)

    def format(self) -> str:
        parts = [_core_text(self.core)] if self.core else []
        if self.u:
            parts.append("u" if self.u == 1 else f"u^{self.u}")
        if self.index != 1 or not parts:
            parts.insert(0, str(self.index))
        return "*".join(parts)

    def scaled(self, m: int) -> "Monomial":
        return Monomial(self.index * m, self.core, self.u)

    def __str__(self):
        return self.format()


_new = object.__new__
_set_index, _set_core, _set_u = (Monomial.__dict__[f].__set__ for f in ("index", "core", "u"))


def _label(index: int, core: tuple, u: int) -> Monomial:
    """Monomial(index, core, u) with no check, for k1's E_2 cells alone: its caller passes ints,
    index >= 1, and a core that _checked_core returned."""
    label = _new(Monomial)
    _set_index(label, index)
    _set_core(label, core)
    _set_u(label, u)
    return label


@record
class Summand:
    """One cyclic summand: order (a prime power or INF) and label; its chart cell's key is its position."""

    order: object
    label: Monomial

    def __post_init__(self):
        if self.order != INF and (not isinstance(self.order, int) or self.order < 2):
            raise ValueError(f"order must be INF or an integer >= 2, got {self.order}")

    def describe(self) -> str:
        o = "Z_p" if self.order == INF else f"Z/{self.order}"
        return f"{o}[{self.label}]"


_set_order, _set_label = (Summand.__dict__[f].__set__ for f in ("order", "label"))


def _summand(order, label: Monomial) -> Summand:
    """Summand(order, label) with no check, for k1's E_2 cells alone: g1_cell and cm_order give INF or >= 2."""
    summand = _new(Summand)
    _set_order(summand, order)
    _set_label(summand, label)
    return summand


class Chart:
    """All summands of one page, addressable by (s, t).

    The log is kept as pending events, each a formatter and its frozen
    arguments, and formatted in order the first time it is read.
    """

    def __init__(self, page: int):
        self.page = page
        self.entries = {}
        self._lines = []
        self._events = []

    @property
    def log(self) -> list:
        if self._events:
            self._lines.extend(fmt(*args) for fmt, args in self._events)
            self._events = []
        return self._lines

    def add(self, s: int, t: int, summand: Summand) -> None:
        key = (s, t)
        cell = self.entries.get(key)
        if cell is None:
            self.entries[key] = (summand,)
            return
        if any(x.label == summand.label for x in cell):
            raise ValueError(f"duplicate label {summand.label} at {key}")
        self.entries[key] = cell + (summand,)

    def cell(self, s: int, t: int) -> tuple:
        return self.entries.get((s, t), ())

    def copy(self) -> "Chart":
        out = Chart(self.page)
        out.entries = dict(self.entries)
        out._lines = list(self._lines)
        out._events = list(self._events)
        return out

    def crop(self, s_max: int, t_min: int, t_max: int) -> "Chart":
        """Keep the cells with s <= s_max and t_min <= t <= t_max; used to cut boundary noise."""
        out = Chart(self.page)
        out.entries = {  # each kept cell keeps its key object: no tuple is built per cell
            key: cell for key, cell in self.entries.items() if key[0] <= s_max and t_min <= key[1] <= t_max
        }
        out._lines = list(self._lines)
        out._events = self._events + [("crop: s <= {}, {} <= t <= {}".format, (s_max, t_min, t_max))]
        return out

    def to_json(self) -> dict:
        cells = []
        for (s, t) in sorted(self.entries):
            cells.append(
                {
                    "s": s,
                    "t": t,
                    "summands": [
                        {"order": "INF" if x.order == INF else x.order, "label": str(x.label)}
                        for x in self.entries[(s, t)]
                    ],
                }
            )
        return {"page": self.page, "cells": cells, "log": list(self.log)}

    def render_text(self) -> str:
        lines = [f"E_{self.page} page"]
        by_s = {}
        for (s, t) in sorted(self.entries):
            by_s.setdefault(s, []).append((s, t))
        for s in sorted(by_s, reverse=True):
            cells = []
            for key in by_s[s]:
                body = " + ".join(x.describe() for x in self.entries[key])
                cells.append(f"(s={key[0]},t={key[1]}) {body}")
            lines.append(f"s={s}: " + "; ".join(cells))
        return "\n".join(lines)


@record
class DifferentialRule:
    """One family of differentials on a page: a target is its source label times a fixed monomial.

    Applies to every label of index one whose u-exponent is u_res mod u_mod;
    its target is the source label times the factors in times (no u; checked
    and sorted once, here) and u^u_shift.
    """

    name: str
    times: tuple
    u_shift: int
    u_mod: int = 1
    u_res: int = 0

    def __post_init__(self):
        _set(self, "times", _checked_core(tuple(self.times)))
        check_int("u_shift", self.u_shift, -INF)
        check_int("u_mod", self.u_mod)
        check_int("u_res", self.u_res, -INF)

    def matches(self, label: Monomial) -> bool:
        return label.index == 1 and label.u % self.u_mod == self.u_res % self.u_mod

    def target_label(self, label: Monomial) -> Monomial:
        return Monomial(1, _product(label.core, self.times), label.u + self.u_shift)


def _miss_line(r: int, rule: DifferentialRule, label: Monomial, key: tuple) -> str:
    s, t = key
    return (
        f"d_{r} [{rule.name}] {label} at (s={s},t={t}):"
        f" no target {rule.target_label(label)} at {(s + r, t + r - 1)}; left in place"
    )


def _kill_line(r: int, rule: DifferentialRule, source: Summand, key: tuple, target: Summand) -> str:
    s, t = key
    return (
        f"d_{r} [{rule.name}] {source.describe()} at (s={s},t={t})"
        f" kills {target.describe()} at (s={s + r},t={t + r - 1})"
    )


def _swap(entries: dict, key: tuple, old: Summand, new: tuple) -> None:
    """Replace the summand old of entries[key] by the summands new, dropping an emptied cell."""
    cell = entries[key]
    cell = new if len(cell) == 1 and cell[0] is old else tuple([x for x in cell if x is not old]) + new
    if cell:
        entries[key] = cell
    else:
        del entries[key]


def apply_differentials(chart: Chart, rules) -> Chart:
    """Turn the page: apply each rule's d_r with r = chart.page.

    All matches are found against the incoming page and then applied at
    once.  Each summand asks the rules in their given order, and the first
    whose target it finds fires.  A matched target, at the source's key plus
    (r, r - 1), is removed; the source keeps its kernel at its key (order
    divided by the target's order, label index multiplied by it; removed if
    nothing is left).  A free target, a finite one whose order does not
    divide the source's, a summand that is both a source and a target and
    one that two sources hit are refused; summands are told apart by (s, t,
    label), since labels are distinct within a cell, and compared so only
    when two hits share an id.  A source whose target cell has no matching
    label is logged on the new page and kept.
    A target is the label of index 1 whose core is the source core times the
    rule's factors and whose u-exponent is shifted; no target label is built
    unless a miss is logged.
    """
    r = chart.page
    entries = chart.entries
    hits, misses = [], []
    for key, cell in entries.items() if rules else ():  # no rules: nothing to ask
        s, t = key
        for summand in cell:
            label = summand.label
            for rule in rules:
                if not rule.matches(label):
                    continue
                core, u = _product(label.core, rule.times), label.u + rule.u_shift
                for match in entries.get((s + r, t + r - 1), ()):
                    if match.label.u == u and match.label.core == core and match.label.index == 1:
                        break
                else:
                    misses.append((_miss_line, (r, rule, label, key)))
                    continue
                hits.append((r, rule, summand, key, match))  # the arguments of its log line
                break
    # ids first, hashing no label: (s, t, label) clash only if ids do, yet one record may sit in two cells
    sources, targets = {id(x) for _, _, x, _, _ in hits}, {id(y) for *_, y in hits}
    if len(targets) < len(hits) or not sources.isdisjoint(targets):  # ids clash: compare (s, t, label)
        sources = {(*key, x.label) for _, _, x, key, _ in hits}
        targets = [(key[0] + r, key[1] + r - 1, y.label) for _, _, _, key, y in hits]
        overlap = sources.intersection(targets)
        if overlap:
            raise ValueError(f"summand is both source and target on page {r}: {overlap}")
        twice = {y for y in targets if targets.count(y) > 1}
        if twice:
            raise ValueError(f"summand is the target of two sources on page {r}: {twice}")
    del sources, targets  # freed before the new page is built

    out = chart.copy()
    out.page = r + 1
    out._events += misses
    for hit in hits:
        _, rule, source, key, target = hit
        if target.order == INF or (source.order != INF and source.order % target.order):
            raise ValueError(f"inconsistent differential: {source.describe()} onto {target.describe()}")
        q = INF if source.order == INF else source.order // target.order
        _swap(out.entries, (key[0] + r, key[1] + r - 1), target, ())
        _swap(out.entries, key, source, (Summand(q, source.label.scaled(target.order)),) if q > 1 else ())
        out._events.append((_kill_line, hit))
    return out


def collapse_check(chart: Chart, r_from: int) -> bool:
    """True when no differential d_r, r >= r_from, can connect two cells.

    A d_r lowers the stem t - s by one and raises s by r, so it is enough to
    compare the highest s in stem i - 1 with the lowest s in stem i.
    """
    s_min, s_max = {}, {}
    for (s, t), cell in chart.entries.items():
        if cell:
            s_min[t - s] = min(s, s_min.get(t - s, s))
            s_max[t - s] = max(s, s_max.get(t - s, s))
    return all(i - 1 not in s_max or s_max[i - 1] - s < r_from for i, s in s_min.items())


@record
class StemGroup:
    """The assembled abelian group in one stem; the stem is its key in the table."""

    decomp: CyclicDecomp
    labels: tuple
    joined: bool = False


def assemble_stems(chart: Chart, p: int, stems) -> dict:
    """Collapse a final page to homotopy groups: each requested stem's direct sum, one zero group shared."""
    by_stem = {}
    entries = chart.entries
    for key in sorted(entries):
        by_stem.setdefault(key[1] - key[0], []).extend(entries[key])
    out = dict.fromkeys(stems, StemGroup(cyclic_decomp(p), ()))
    for i, cell in by_stem.items():
        if i in out:
            orders = tuple([x.order for x in cell])
            out[i] = StemGroup(cyclic_decomp(p, orders), tuple([str(x.label) for x in cell]))
    return out
