"""Self-tests for the benchmark: seeded op lists, output checks, tracing helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from common import add_src_path, pin_threads

pin_threads()
add_src_path()

import ccgrav  # noqa: E402
import ccgrav.cli  # noqa: E402
from run import tail_latency  # noqa: E402
from tracing import Tracer, parse_importtime  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    CircuitCheck,
    Evolution,
        MonomialRates,
    PairDephasing,
    PairOp,
    all_collinear,
    block_coordinates,
    placed_sites,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_ops(name):
    cls = WORKLOADS[name]
    first = [cls(7).make_block(i) for i in range(3)]
    again = [cls(7).make_block(i) for i in range(3)]
    other = [cls(8).make_block(i) for i in range(3)]
    assert first == again
    assert first != other
    assert all(len(block) % cls.group_size == 0 for block in first)


def test_monomial_blocks_hold_each_source_count_twice():
    workload = MonomialRates(3)
    coords = block_coordinates(workload.EXTENT)
    sizes = []
    for op in workload.make_block(0):
        sources = sorted(set(op.create) | set(op.annihilate))
        assert not set(op.create) & set(op.annihilate)
        assert len(sources) == 2 or not all_collinear(coords[sources])
        assert op.shape // workload.POOL == len(sources) - 2
        sizes.append(len(sources))
    assert sorted(sizes) == [2, 2, 3, 3, 4, 4]


def test_monomial_placements_keep_the_pool_shape():
    workload = MonomialRates(4)
    coords = block_coordinates(workload.EXTENT)

    def sorted_distances(create, annihilate):
        pts = coords[list(create) + list(annihilate)]
        return sorted(np.linalg.norm(pts[:, None] - pts[None], axis=-1).ravel())

    for op in workload.make_block(0) + workload.make_block(1):
        shape = workload.pool[op.shape]
        canonical = placed_sites(shape, (0, 0, 0), workload.EXTENT)
        assert sorted_distances(op.create, op.annihilate) == pytest.approx(
            sorted_distances(*canonical))


def _pair_output(op):
    return PairDephasing(0).run(ccgrav, None, op)


def test_pair_check_rejects_perturbed_results():
    workload = PairDephasing(0)
    refs = workload.build_references(ccgrav, None)
    op = PairOp(12, 60.0, 0.5)
    good = _pair_output(op)
    assert workload.check(refs, [op], [good]) == [None]

    def with_result(index, **changes):
        texts = [list(t) for t in good]
        envelope = json.loads(texts[index][1])
        envelope["result"].update(changes)
        texts[index][1] = json.dumps(envelope)
        return [tuple(t) for t in texts]

    kappa = json.loads(good[0][1])["result"]["kappa_sq"]
    bad_outputs = [
        with_result(0, kappa_sq=kappa * (1 + 2e-3)),
        with_result(1, value=0.5 * np.pi**2 * 12 * 0.99),
        [(3, good[0][1], "{}"), good[1]],
        [(0, "not json", ""), good[1]],
    ]
    for bad in bad_outputs:
        assert workload.check(refs, [op], [bad])[0] is not None


def test_pair_integral_bound_applies_only_at_large_separation():
    workload = PairDephasing(0)
    refs = workload.build_references(ccgrav, None)
    op = PairOp(2, 60.0, 1.0)
    assert workload.check(refs, [op], [_pair_output(op)]) == [None]


def test_monomial_check_rejects_perturbed_results():
    workload = MonomialRates(0)
    gen = workload.build_fixtures(ccgrav)
    refs = workload.build_references(ccgrav, gen)
    for op in workload.make_block(0)[:3]:
        infinite, finite = workload.run(ccgrav, gen, op)
        assert workload.check(refs, [op], [(infinite, finite)]) == [None]
        bad_outputs = [
            (infinite * (1 + 2e-3), finite),
            (infinite, finite * (1 + 1e-6)),
            (float("-inf"), finite),
        ]
        for bad in bad_outputs:
            assert workload.check(refs, [op], [bad])[0] is not None


def test_circuit_check_rejects_perturbed_ladders():
    workload = CircuitCheck(0)
    fixtures = workload.build_fixtures(ccgrav)
    ops = [op for op in workload.make_block(0) if op.sector == (2, 1)]
    residuals = [workload.run(ccgrav, fixtures, op) for op in ops]
    assert workload.check(None, ops, residuals) == [None] * len(ops)
    bent = residuals[:-1] + [residuals[-1] * 1.5]
    assert all(workload.check(None, ops, bent))
    assert all(workload.check(None, ops, residuals[:-1] + [None]))


@pytest.mark.parametrize("hamiltonian", [False, True])
def test_evolution_check_rejects_perturbed_states(hamiltonian):
    workload = Evolution(0)
    refs = workload.build_references(ccgrav, None)
    op = next(op for op in workload.make_block(0)
              if op.sector == (4, 3) and op.hamiltonian == hamiltonian)
    states, times, snapshots = workload.run(ccgrav, None, op)
    assert workload.check(refs, [op], [(states, times, snapshots)]) == [None]
    nudged = list(snapshots)
    nudged[-1] = nudged[-1] + 1e-7
    assert workload.check(refs, [op], [(states, times, nudged)])[0] is not None
    swapped = (states[1], states[0]) + tuple(states[2:])
    assert workload.check(refs, [op], [(swapped, times, snapshots)])[0] is not None


def test_evolution_reference_does_not_follow_the_library_hamiltonian(monkeypatch):
    workload = Evolution(0)
    refs = workload.build_references(ccgrav, None)
    op = next(op for op in workload.make_block(0) if op.sector == (4, 3) and op.hamiltonian)
    kinetic = ccgrav.fock.kinetic_hamiltonian

    def stretched(basis, lattice):
        return ccgrav.fock.OperatorMatrix.wrap(1.001 * kinetic(basis, lattice).matrix, "kinetic")

    monkeypatch.setattr(ccgrav.fock, "kinetic_hamiltonian", stretched)
    assert workload.check(refs, [op], [workload.run(ccgrav, None, op)])[0] is not None


def test_tail_latency_keeps_ten_samples_beyond():
    value, pct, beyond = tail_latency([float(i) for i in range(200, 0, -1)])
    assert (pct, beyond, value) == (95.0, 10, 190.0)
    value, pct, beyond = tail_latency([float(i) for i in range(1, 6)])
    assert (pct, beyond, value) == (100.0, 0, 5.0)


def test_parse_importtime_totals():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        20 |         70 |     scipy",
        "import time:       200 |        200 |       scipy.linalg._x",
        "import time:        30 |        230 |     scipy.linalg",
        "import time:        10 |        410 |   ccgrav.dynamics",
        "import time:         5 |        415 | ccgrav",
    ])
    times = parse_importtime(sample)
    assert times["ccgrav.import_s"] == pytest.approx(415e-6)
    assert times["ccgrav.import_scipy_s"] == pytest.approx(300e-6)


def test_tracer_records_nested_spans_and_restores_bindings():
    original = ccgrav.lattice_sums.adaptive_simpson
    init = ccgrav.fock.FockBasis.__init__
    tracer = Tracer(ccgrav)
    tracer.install()
    try:
        assert ccgrav.lattice_sums.adaptive_simpson is not original
        assert ccgrav.analytics.adaptive_simpson is ccgrav.lattice_sums.adaptive_simpson
        ccgrav.analytics.kappa_sq(3.0)
    finally:
        tracer.uninstall()
    assert ccgrav.lattice_sums.adaptive_simpson is original
    assert ccgrav.fock.FockBasis.__init__ is init
    metrics = tracer.layer_metrics()
    assert metrics["analytics.kappa_sq_calls"] == 1
    assert metrics["lattice_sums.calls"] == 1
    assert metrics["quadrature.calls"] > 1 and metrics["quadrature.evals"] > 0
    assert metrics["quadrature.adaptive_simpson_s"] < metrics["lattice_sums.column_difference_sum_s"]
    assert (metrics["lattice_sums.column_difference_sum_self_s"]
            == pytest.approx(metrics["lattice_sums.column_difference_sum_s"]
                             - metrics["quadrature.adaptive_simpson_s"], abs=1e-3))
