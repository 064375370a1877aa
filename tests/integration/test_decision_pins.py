"""Pinned scheduling-decision costs: the byte-identity contract.

The hot-path optimization must not change a single scheduling decision.
``RunResult.virtual_decision_time`` — decision operations × the modeled
per-op cost, charged via ``Scheduler.charge_ops`` — is deterministic in
the seed, so its exact float value (and the makespan it shifts) pins
every decision the scheduler made.  The values below were recorded on
the fig5 sweep at the commit *before* the optimization; any drift means
a decision changed or an op was charged from a hook that must not
charge (see DESIGN.md, "Modeled cost vs implementation speed").
"""

import pytest

from repro.experiments.harness import effective_threshold, figure_spec, rep_seed
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import simulate

#: (scheduler, n) -> (virtual_decision_time, makespan), fig5 spec, rep 0,
#: recorded pre-optimization.  Exact equality — these are bit pins.
PINS = {
    ("darts", 20): (0.0022758999999999935, 0.15801816796197082),
    ("darts", 48): (0.07469840000000123, 0.9263897412042957),
    ("darts+luf", 20): (0.002366799999999984, 0.14634095410850337),
    ("darts+luf", 48): (0.10666925000000106, 0.8017516865615292),
    ("mhfp", 20): (0.0005080999999999972, 0.1279115560552323),
    ("mhfp", 48): (0.012543499999999897, 0.6972883378480299),
}


#: (figure, scheduler, n) -> (virtual_decision_time, makespan), rep 0,
#: recorded before DARTS's refill scanned its free-task index instead of
#: every datum.  fig11 (the Cholesky task set, three inputs per GEMM)
#: exercises the 3inputs fallback and OPTI's early exit under memory
#: pressure; fig8 at n=60 is the smallest matmul size whose working set
#: activates the threshold (asserted below).
VARIANT_PINS = {
    ("fig11", "darts+luf-3inputs", 14): (
        0.012684299999999926,
        0.05836265994281621,
    ),
    ("fig11", "darts+luf-3inputs", 18): (
        0.048226750000000415,
        0.10895838835430616,
    ),
    ("fig11", "darts+luf+opti-3inputs", 14): (
        0.0006472999999999966,
        0.07112857479268174,
    ),
    ("fig11", "darts+luf+opti-3inputs", 18): (
        0.0041361,
        0.14750243163682294,
    ),
    ("fig8", "darts+luf+threshold", 60): (
        0.031495500000000426,
        1.052859410072463,
    ),
}


class TestDecisionCostPins:
    @pytest.mark.parametrize(
        "scheduler,n", sorted(PINS), ids=lambda v: str(v)
    )
    def test_virtual_decision_time_and_makespan_bit_equal(
        self, scheduler, n
    ):
        spec = figure_spec("fig5")
        sched, eviction = make_scheduler(scheduler)
        result = simulate(
            spec.workload(n),
            spec.platform(),
            sched,
            eviction=eviction,
            window=spec.window,
            seed=rep_seed(spec.seed, scheduler, n, 0),
        )
        vdt, makespan = PINS[(scheduler, n)]
        assert result.virtual_decision_time == vdt, (
            f"{scheduler} n={n}: virtual_decision_time drifted "
            f"{result.virtual_decision_time!r} != {vdt!r} — a scheduling "
            f"decision or a charge_ops site changed"
        )
        assert result.makespan == makespan, (
            f"{scheduler} n={n}: makespan drifted "
            f"{result.makespan!r} != {makespan!r}"
        )

    @pytest.mark.parametrize(
        "figure,scheduler,n", sorted(VARIANT_PINS), ids=lambda v: str(v)
    )
    def test_darts_variant_pins_bit_equal(self, figure, scheduler, n):
        spec = figure_spec(figure)
        sched, eviction = make_scheduler(
            scheduler, threshold=effective_threshold(spec, scheduler)
        )
        result = simulate(
            spec.workload(n),
            spec.platform(),
            sched,
            eviction=eviction,
            window=spec.window,
            seed=rep_seed(spec.seed, scheduler, n, 0),
        )
        if scheduler.endswith("+threshold"):
            assert sched._threshold_active, "pin must exercise the threshold"
        assert (result.virtual_decision_time, result.makespan) == (
            VARIANT_PINS[(figure, scheduler, n)]
        ), f"{figure} {scheduler} n={n}: a decision or charge_ops site changed"
