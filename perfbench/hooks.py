"""Per-layer tracing from outside the package.

HOOKS names the public functions and methods of each morava module by
"module:qualname".  install() resolves every name when it is called; a name
that no longer exists is recorded as missing instead of raising.  Methods
are wrapped on their class; a function is replaced, by identity, in every
loaded morava.* namespace, so calls through names re-imported elsewhere
(k1 imports collapse_check, cli imports element_order, ...) are caught.

Each wrapper opens a span on entry and closes it on exit.  A span's self
time is its duration minus the durations of the spans it opened.  Closed
spans are folded at once into per-stat totals (calls, self seconds, true
results, argument sizes) held in memory and read out when the run ends: the
chart workload opens millions of spans, far too many to keep one by one.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# stat name, target, what else to record ("truth": how many calls returned a
# true value; "cells": the number of non-empty cells of the chart argument)
HOOKS = [
    ("witt.mul", "morava.witt:WittElem.__mul__", None),
    ("witt.inverse", "morava.witt:WittElem.inverse", None),
    ("witt.make_ring", "morava.witt:make_ring", None),
    ("witt.teichmuller", "morava.witt:teichmuller", None),
    ("witt.fq_ops", "morava.witt:Fq.add_idx", None),
    ("witt.fq_ops", "morava.witt:Fq.neg_idx", None),
    ("witt.fq_ops", "morava.witt:Fq.mul_idx", None),
    ("witt.fq_ops", "morava.witt:Fq.pow_idx", None),
    ("witt.fq_ops", "morava.witt:Fq.frob_idx", None),
    ("witt.fq_ops", "morava.witt:Fq.trace_idx", None),
    ("order.mul", "morava.order:OrderElem.__mul__", None),
    ("order.inverse", "morava.order:OrderElem.inverse", None),
    ("order.s_digits", "morava.order:OrderElem.s_digits", None),
    ("stabilizer.element_order", "morava.stabilizer:element_order", None),
    ("stabilizer.reduced_norm", "morava.stabilizer:reduced_norm", None),
    ("stabilizer.commutator", "morava.stabilizer:commutator", None),
    ("stabilizer.gr_project", "morava.stabilizer:gr_project", None),
    ("grlie.commutator_span", "morava.grlie:commutator_span", None),
    ("grlie.span_insert", "morava.grlie:GrSubspace.insert", "truth"),
    ("grlie.abelianization_report", "morava.grlie:abelianization_report", None),
    ("grlie.check_vs_group", "morava.grlie:check_bracket_vs_group", None),
    ("grlie.check_vs_group", "morava.grlie:check_power_vs_group", None),
    ("padic.smith_normal_form", "morava.padic:smith_normal_form", None),
    ("padic.nu_p", "morava.padic:nu_p", None),
    ("homalg.g1_cohomology_E1", "morava.homalg:g1_cohomology_E1", None),
    ("homalg.operator_cohomology", "morava.homalg:iwasawa_cohomology", None),
    ("homalg.operator_cohomology", "morava.homalg:cyclic_cohomology", None),
    ("specseq.rule_matches", "morava.specseq:DifferentialRule.matches", "truth"),
    ("specseq.apply_differentials", "morava.specseq:apply_differentials", None),
    ("specseq.collapse_check", "morava.specseq:collapse_check", "cells"),
    ("specseq.assemble_stems", "morava.specseq:assemble_stems", None),
    ("k1.e2_page", "morava.k1:sphere_e2_page", None),
    ("k1.e2_page", "morava.k1:ko_e2_page", None),
    ("k1.table", "morava.k1:homotopy_table", None),
    ("k1.table", "morava.k1:ko_table", None),
    ("k1.psi_valuation_report", "morava.k1:psi_valuation_report", None),
    ("cli.parse_element", "morava.cli:parse_element", None),
    ("cli.run_command", "morava.cli:run_command", None),
]

# lru_cache objects whose misses count real constructions
CACHES = [("witt.rings_built", "morava.witt:_make_ring_cached")]

# (ancestor, stat): count stat calls made while an ancestor span is open
NESTED = [("order.inverse", "order.mul"), ("stabilizer.element_order", "order.mul")]


def resolve(target: str):
    """(owner, attribute, object) for "module:qualname"; raises LookupError."""
    modname, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError as exc:
        raise LookupError(target) from exc
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(target)
    obj = getattr(owner, parts[-1], None)
    if obj is None:
        raise LookupError(target)
    return owner, parts[-1], obj


class Tracer:
    def __init__(self):
        self.stats = {}  # stat -> [calls, self_s, truths, cells]
        self.stack = []  # one [child seconds] per open span
        self.open = {}  # stat -> open spans
        self.nested = {pair: 0 for pair in NESTED}
        self.missing = []
        self.caches = {}
        self._watch = {}  # stat -> ancestors to test on entry
        for anc, stat in NESTED:
            self._watch.setdefault(stat, []).append(anc)

    def wrap(self, stat: str, fn, extra):
        rec = self.stats.setdefault(stat, [0, 0.0, 0, 0])
        watch = self._watch.get(stat, ())
        stack, open_, nested = self.stack, self.open, self.nested
        open_.setdefault(stat, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for anc in watch:
                if open_.get(anc):
                    nested[(anc, stat)] += 1
            frame = [0.0]
            stack.append(frame)
            open_[stat] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[stat] -= 1
                rec[0] += 1
                rec[1] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if extra == "truth" and out:
                rec[2] += 1
            elif extra == "cells":
                rec[3] += sum(1 for cell in args[0].entries.values() if cell)
            return out

        return wrapper

    def install(self) -> None:
        """Resolve HOOKS and CACHES by name and put the wrappers in place."""
        for stat, target, extra in HOOKS:
            try:
                owner, attr, fn = resolve(target)
            except LookupError:
                self.missing.append(target)
                continue
            wrapper = self.wrap(stat, fn, extra)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "morava" or name.startswith("morava.")):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
        for stat, target in CACHES:
            try:
                self.caches[stat] = resolve(target)[2].cache_info
            except LookupError:
                self.missing.append(target)

    def snapshot(self) -> dict:
        """Plain totals, for writing out when the run ends."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "nested": {f"{a}>{s}": c for (a, s), c in self.nested.items()},
            "caches": {k: info().misses for k, info in self.caches.items()},
            "missing": list(self.missing),
        }


def merge(snapshots) -> dict:
    """Sum several snapshots (one per CLI process) into one."""
    out = {"stats": {}, "nested": {}, "caches": {}, "missing": []}
    for snap in snapshots:
        for k, v in snap["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0, 0])
            for i, x in enumerate(v):
                acc[i] += x
        for key in ("nested", "caches"):
            for k, v in snap[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["missing"] = sorted(set(out["missing"]) | set(snap["missing"]))
    return out


def layer_metrics(snap: dict) -> dict:
    """Per-layer metric name -> (value, unit); names from a missing hook are left out."""
    stats, nested, caches = snap["stats"], snap["nested"], snap["caches"]
    missing_stats = {stat for stat, target, _ in HOOKS if target in snap["missing"]}
    missing_stats |= {stat for stat, target in CACHES if target in snap["missing"]}
    out = {}

    def put(name, value, unit, needs):
        if not missing_stats & set(needs):
            out[name] = (value, unit)

    def calls(stat):
        return stats.get(stat, [0, 0.0, 0, 0])[0]

    def self_s(stat):
        return stats.get(stat, [0, 0.0, 0, 0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    for stat in (
        "witt.mul", "witt.inverse", "witt.make_ring", "witt.teichmuller", "witt.fq_ops",
        "order.mul", "order.inverse",
        "stabilizer.element_order", "stabilizer.reduced_norm",
        "grlie.commutator_span",
        "padic.smith_normal_form", "padic.nu_p",
        "homalg.g1_cohomology_E1",
        "specseq.rule_matches",
    ):
        put(f"{stat}.calls", calls(stat), "count", [stat])
    for stat in (
        "witt.mul", "witt.inverse", "witt.make_ring", "witt.teichmuller", "witt.fq_ops",
        "order.mul", "order.inverse", "order.s_digits",
        "stabilizer.element_order", "stabilizer.reduced_norm", "stabilizer.commutator",
        "stabilizer.gr_project",
        "grlie.commutator_span", "grlie.abelianization_report", "grlie.check_vs_group",
        "padic.smith_normal_form", "padic.nu_p",
        "homalg.g1_cohomology_E1", "homalg.operator_cohomology",
        "specseq.apply_differentials", "specseq.collapse_check", "specseq.assemble_stems",
        "k1.e2_page", "k1.table", "k1.psi_valuation_report",
        "cli.parse_element", "cli.run_command",
    ):
        put(f"{stat}.self_s", self_s(stat), "s", [stat])
    put("witt.rings_built", caches.get("witt.rings_built", 0), "count", ["witt.rings_built"])
    for anc in ("order.inverse", "stabilizer.element_order"):
        put(
            f"{anc}.muls_per_call",
            ratio(nested.get(f"{anc}>order.mul", 0), calls(anc)),
            "muls/call",
            [anc, "order.mul"],
        )
    ins = stats.get("grlie.span_insert", [0, 0.0, 0, 0])
    put("grlie.span_insert_useful_ratio", ratio(ins[2], ins[0]), "ratio", ["grlie.span_insert"])
    rules = stats.get("specseq.rule_matches", [0, 0.0, 0, 0])
    put("specseq.rule_hit_ratio", ratio(rules[2], rules[0]), "ratio", ["specseq.rule_matches"])
    cells = stats.get("specseq.collapse_check", [0, 0.0, 0, 0])[3]
    put("specseq.cells_checked", cells, "count", ["specseq.collapse_check"])
    return out
