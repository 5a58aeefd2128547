"""The three workloads of the catalog benchmark.

Each workload has

* ``items(catalog)``: the inputs of one pass, in catalog order (the run
  shuffles them with its seed);
* ``run_item(item, tracer)``: the timed program calls for one item, on
  fresh objects, with a span around each call into a layer;
* ``ops(results)``: the output checks of a pass, as (operation id, output,
  check) triples, where ``check()`` returns whether the output is right;
* ``resolved(results)``: the correlator values the pass determined;
* ``counts(results)``: the per-layer counts read off the outputs.

Only the public API of ``ises`` is called.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement
from operator import eq

import ises.fjrw
import ises.jacobi
from ises import JacobianAlgebra, weight_report, wdvv
from ises.fjrw import FjrwTheory

import checks

# JacobianAlgebra(e7-chain322, m=(1,1,1)).fourpoint_table() raises a bare
# ZeroDivisionError in flat_first_order, so the pair's Jacobian side is left
# out; its weight row is still reported.
BMODEL_SKIP = {("e7-chain322", (1, 1, 1))}

# FJRW gives -2/3 for this word where deg1Words has 0: the one known fault.
KNOWN_FAULTS = {("word", "e7-chain322", (0, 4, 0))}

# Highest curve degree of the graded GW reconstruction.
GW_DEGREE = 1


def install_wrappers(tracer) -> None:
    """Time the calls that cross from one module of the program into another."""

    def elimination(args, _):
        rows = args[0]
        ncols = args[-1] if isinstance(args[-1], int) else len(rows[0])
        return {"numcore.elim_calls": 1, "numcore.elim_cells": len(rows) * ncols}

    def solved(args, result):
        return {"wdvv.keys_solved": len(args[0].unknown_keys) - len(result.unknown_keys)}

    tracer.wrap(ises.jacobi, "groebner", "jacobi.groebner")
    tracer.wrap(ises.jacobi, "solve_linear", "numcore.solve_linear", elimination)
    tracer.wrap(ises.jacobi, "nullspace", "numcore.nullspace", elimination)
    tracer.wrap(ises.fjrw, "propagate", "wdvv.propagate", solved)


# -- bmodel-catalog ---------------------------------------------------------------


class BModel:
    name = "bmodel-catalog"

    @staticmethod
    def items(catalog):
        return [(entry, mar) for entry in catalog for mar in entry.marginals]

    @staticmethod
    def run_item(item, tracer):
        entry, mar = item
        rows = [(0, 0, 0)]
        if mar.m == entry.marginals[0].m:
            rows += [r for r, _ in entry.twisted]
        weights = {}
        for r in rows:
            with tracer.span("pfsolve.weight_report"):
                weights[r] = weight_report(entry, mar.m, r)
        algebra = table = None
        flats = {}
        if (entry.name, mar.m) not in BMODEL_SKIP:
            with tracer.span("jacobi.algebra"):
                algebra = JacobianAlgebra(entry, mar.m)
            exps = {r for trip in algebra.weight_one_triples() for r in trip}
            for r in sorted(exps):
                with tracer.span("jacobi.flat"):
                    flats[r] = algebra.flat_first_order(r)
            with tracer.span("jacobi.fourpoint_table"):
                table = algebra.fourpoint_table()
        return entry, mar, weights, algebra, flats, table

    @staticmethod
    def ops(results):
        for entry, mar, weights, algebra, flats, table in results:
            key = (entry.name, mar.m)
            for r, (w, certified) in weights.items():
                yield (
                    ("weight", *key, r),
                    (w, certified),
                    partial(checks.weight_row_ok, entry, r, w, certified),
                )
            if algebra is None:
                continue
            stairs, basis = algebra.staircase, algebra.groebner_basis
            yield (
                ("algebra", *key),
                (stairs, basis),
                partial(checks.algebra_ok, entry, mar.m, stairs, basis),
            )
            for r in flats:
                gs = algebra.decompose(r)
                yield (
                    ("decomposition", *key, r),
                    gs,
                    partial(checks.decomposition_ok, entry, mar, r, gs),
                )
            for trip, value in table.items():
                yield (
                    ("fourpoint", *key, trip),
                    value,
                    partial(checks.fourpoint_ok, entry, mar.m, trip, value),
                )

    @staticmethod
    def resolved(results):
        total = 0
        for _, _, weights, _, _, table in results:
            total += sum(1 for _, certified in weights.values() if certified)
            total += len(table or ())
        return total

    @staticmethod
    def counts(results):
        out = {"pfsolve.rows_certified": 0, "jacobi.flats": 0, "jacobi.groebner_size": 0}
        for _, _, weights, algebra, flats, _ in results:
            out["pfsolve.rows_certified"] += sum(1 for _, c in weights.values() if c)
            out["jacobi.flats"] += len(flats)
            if algebra is not None:
                out["jacobi.groebner_size"] += len(algebra.groebner_basis)
        return out


# -- amodel-catalog ---------------------------------------------------------------


class AModel:
    name = "amodel-catalog"

    @staticmethod
    def items(catalog):
        return [e for e in catalog if e.fjrw and not e.fjrw.get("excluded")]

    @staticmethod
    def run_item(entry, tracer):
        with tracer.span("fjrw.theory"):
            theory = FjrwTheory(entry)
        with tracer.span("fjrw.table_seed"):
            table = theory.correlator_table()
        with tracer.span("fjrw.words"):
            words = theory.fourpoint_words()
        with tracer.span("wdvv.check_residuals"):
            checked = wdvv.check_residuals(table, admissible=theory.narrow_nodes)
        return entry, theory, table, words, checked

    @staticmethod
    def ops(results):
        for entry, theory, table, words, checked in results:
            for word, value in words.items():
                if value is not None:
                    yield (
                        ("word", entry.name, word),
                        value,
                        partial(checks.word_ok, entry, word, value),
                    )
            for i, (insertions, expected) in enumerate(checks.oracle_values(entry)):
                value = table.value([theory.sector(ix).theta for ix in insertions])
                yield (("oracle", entry.name, i), value, partial(eq, value, expected))
            yield (("residuals", entry.name), checked, partial(bool, checked))

    @staticmethod
    def resolved(results):
        return sum(
            len(table.known_items()) + sum(v is not None for v in words.values())
            for _, _, table, words, _ in results
        )

    @staticmethod
    def counts(results):
        out = {"fjrw.words_resolved": 0, "wdvv.keys_unresolved": 0, "wdvv.residuals_checked": 0}
        for _, _, table, words, checked in results:
            out["fjrw.words_resolved"] += sum(v is not None for v in words.values())
            out["wdvv.keys_unresolved"] += len(table.unknown_keys)
            out["wdvv.residuals_checked"] += checked
        return out


# -- gw-reconstruct ---------------------------------------------------------------


def gw_unknowns(table, top_degree):
    """Declare every budget-admissible three-point key at degrees 1..D and
    four-point key at degrees 0..D unknown (seeded keys stay known)."""
    for n, low in ((3, 1), (4, 0)):
        for insertions in combinations_with_replacement(table.labels, n):
            if table.budget_ok(insertions):
                for d in range(low, top_degree + 1):
                    table.declare_unknown(insertions, degree=d)


class GWReconstruct:
    name = "gw-reconstruct"

    @staticmethod
    def items(catalog):
        return [e for e in catalog if e.qexp and e.qexp.get("orbifold")]

    @staticmethod
    def run_item(entry, tracer):
        degrees = range(GW_DEGREE + 1)
        orders = tuple(entry.qexp["orbifold"])
        with tracer.span("wdvv.seed"):
            seeded = wdvv.gw_seed_table(orders)
            gw_unknowns(seeded, GW_DEGREE)
            seeded = wdvv.apply_divisor_rule(seeded)
        with tracer.span("wdvv.propagate"):
            solved = wdvv.propagate(seeded, extra_slots=1, degrees=degrees)
        with tracer.span("wdvv.check_residuals"):
            checked = wdvv.check_residuals(solved, extra_slots=1, degrees=degrees)
        return entry, orders, seeded, solved, checked

    @staticmethod
    def ops(results):
        for entry, orders, _, solved, checked in results:
            for block in entry.qexp["gw"]:
                label = [tuple(x) for x in block["label"]]
                for d in range(GW_DEGREE + 1):
                    value = solved.value(label, degree=d)
                    if value is not None:
                        expected = checks.series_coefficient(block["series"], d)
                        yield (("gw3", orders, tuple(label), d), value, partial(eq, value, expected))
            for (insertions, d), value in solved.known_items():
                if len(insertions) != 4:
                    continue
                if checks.UNIT in insertions:
                    yield (("string", orders, insertions, d), value, partial(eq, value, 0))
                if checks.POINT in insertions:
                    rest = list(insertions)
                    rest.remove(checks.POINT)
                    three = solved.value(rest, degree=d)
                    if three is not None:
                        yield (
                            ("divisor", orders, insertions, d),
                            (value, three),
                            partial(eq, value, d * three),
                        )
            yield (("residuals", orders), checked, partial(bool, checked))

    @staticmethod
    def resolved(results):
        return sum(
            len(seeded.unknown_keys) - len(solved.unknown_keys)
            for _, _, seeded, solved, _ in results
        )

    @staticmethod
    def counts(results):
        out = {"wdvv.keys_solved": 0, "wdvv.keys_unresolved": 0, "wdvv.residuals_checked": 0}
        for _, _, seeded, solved, checked in results:
            out["wdvv.keys_solved"] += len(seeded.unknown_keys) - len(solved.unknown_keys)
            out["wdvv.keys_unresolved"] += len(solved.unknown_keys)
            out["wdvv.residuals_checked"] += checked
        return out


WORKLOADS = {w.name: w for w in (BModel, AModel, GWReconstruct)}
