"""Tests of the benchmark's output checks and tracing.

Run with:  python3 -m pytest bench/tests
"""

from fractions import Fraction

import pytest

import ises.fjrw
from ises import get_entry, load_catalog, wdvv
from ises.fjrw import FjrwTheory

import clock
import workloads
from run import Verdicts
from tracing import NO_TRACE, Tracer

CATALOG = load_catalog()


def failures(workload, results):
    verdicts = Verdicts()
    verdicts.record(workload.ops(results))
    return verdicts, set(verdicts.failed)


def run(workload, name):
    """Results of the workload's items that belong to entry ``name``."""
    return [
        workload.run_item(i, NO_TRACE)
        for i in workload.items(CATALOG)
        if (i[0] if isinstance(i, tuple) else i).name == name
    ]


@pytest.fixture(scope="module")
def bmodel():
    return run(workloads.BModel, "e6-fermat")


@pytest.fixture(scope="module")
def gw():
    return run(workloads.GWReconstruct, "e6-fermat")


def test_bmodel_outputs_pass(bmodel):
    verdicts, failed = failures(workloads.BModel, bmodel)
    assert not failed
    # 1 weight row, 1 algebra, 3 decompositions, 10 four-point values
    assert verdicts.attempted == 15
    assert workloads.BModel.resolved(bmodel) == 11


def test_planted_fourpoint_value_is_rejected(bmodel):
    entry, mar, weights, algebra, flats, table = bmodel[0]
    trip = next(t for t, v in table.items() if not v)
    planted = dict(table)
    planted[trip] = Fraction(1)
    _, failed = failures(workloads.BModel, [(entry, mar, weights, algebra, flats, planted)])
    assert failed == {("fourpoint", "e6-fermat", mar.m, trip)}


def test_planted_word_is_rejected():
    ((entry, theory, table, words, checked),) = run(workloads.AModel, "e6-fermat")
    assert not failures(workloads.AModel, [(entry, theory, table, words, checked)])[1]
    planted = dict(words)
    planted[(3, 0, 0)] = Fraction(1, 2)
    _, failed = failures(workloads.AModel, [(entry, theory, table, planted, checked)])
    assert failed == {("word", "e6-fermat", (3, 0, 0))}


def test_known_fault_is_the_only_amodel_failure():
    results = run(workloads.AModel, "e7-chain322")
    _, failed = failures(workloads.AModel, results)
    assert failed == workloads.KNOWN_FAULTS
    assert results[0][3][(0, 4, 0)] == Fraction(-2, 3)


def test_gw_outputs_pass(gw):
    _, failed = failures(workloads.GWReconstruct, gw)
    assert not failed
    assert workloads.GWReconstruct.resolved(gw) == 96


def test_planted_gw_coefficient_is_rejected(gw):
    entry, orders, seeded, solved, checked = gw[0]
    label = [(1, 1), (1, 1), (1, 1)]
    # left unresolved at degree 1; the q^1 coefficient of 1/3 + 2q^3 + ... is 0
    assert solved.value(label, degree=1) is None
    planted = seeded.copy()
    planted.set(label, Fraction(2), degree=1)
    _, failed = failures(workloads.GWReconstruct, [(entry, orders, seeded, planted, checked)])
    assert failed == {("gw3", orders, tuple(label), 1)}


def test_propagate_ignores_shuffle_seed(monkeypatch):
    theory = FjrwTheory(get_entry(CATALOG, "e7-loop33"))
    inputs = []
    original = ises.fjrw.propagate

    def capture(table, **kwargs):
        inputs.append(table)
        return original(table, **kwargs)

    monkeypatch.setattr(ises.fjrw, "propagate", capture)
    reference = theory.correlator_table()
    (table,) = inputs
    assert table.unknown_keys
    for seed in (1, 2):
        shuffled = wdvv.propagate(table, admissible=theory.narrow_nodes, shuffle_seed=seed)
        assert shuffled.known_items() == reference.known_items()
        assert shuffled.unknown_keys == reference.unknown_keys


def test_verdicts_are_reused_only_for_equal_outputs():
    calls = []

    def ops(value):
        yield ("op",), value, lambda: calls.append(value) or value > 0

    verdicts = Verdicts()
    for value in (1, 1, -1):
        verdicts.record(ops(value))
    assert calls == [1, -1]
    assert verdicts.attempted == 3 and verdicts.failed == {("op",): 1}


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.start_pass()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    times = tracer.self_times(0)
    (_, start, end, _, _), (_, istart, iend, parent, _) = tracer.spans
    assert parent == 0
    assert times["inner"] == iend - istart
    assert times["outer"] == pytest.approx((end - start) - (iend - istart))


def test_reference_clock_scales_by_the_loop_speed(monkeypatch):
    # a machine on which the reference loop takes twice its reference time
    monkeypatch.setattr(clock, "reference_loop", lambda: 2 * clock.REFERENCE_S)
    ref = clock.ReferenceClock()
    wall, start = clock.perf_counter(), ref.now()
    with ref.ticking():
        while clock.perf_counter() - wall < 0.35:
            pass
    elapsed = clock.perf_counter() - wall
    assert ref.now() - start == pytest.approx(elapsed / 2, rel=0.05)
