"""Differential test: LUF's victim against the counting rule it replaced.

``LufPolicy.choose_victim`` finds the candidates no buffered task reads
by set difference and counts ``np(D)`` only when each of them is read by
a planned task.  The rule it replaced tabulated both counts for every
candidate; it is frozen in ``tests/properties/eviction_oracles.py``.
Cases mix tasks sharing inputs, empty task buffers and planned lists, no
scheduler at all, buffers reading every candidate (the Belady fallback)
and planned lists reading every unused candidate (the ``np`` count), and
a fixed sample asserts that each branch of the shipped rule is taken.
"""

import random
from typing import Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import TaskGraph
from repro.eviction.luf import LufPolicy

from tests.eviction.test_policies import FakeScheduler, FakeView
from tests.properties.eviction_oracles import (
    luf_counts_oracle,
    luf_victim_oracle,
)


def _case(rng: random.Random) -> Tuple[LufPolicy, Set[int]]:
    """A policy on GPU 0 whose view and scheduler ``rng`` populated, and
    the candidates to evict from."""
    n_data = rng.randint(1, 10)
    g = TaskGraph()
    for _ in range(n_data):
        g.add_data(1.0)
    n_tasks = rng.randint(1, 12)
    for _ in range(n_tasks):
        arity = rng.randint(1, min(3, n_data))
        g.add_task(rng.sample(range(n_data), arity), flops=1.0)
    tasks = range(n_tasks)
    buffer = rng.sample(tasks, rng.randint(0, min(4, n_tasks)))
    mode = rng.choice(["any", "buffer_reads_all", "planned_reads_all"])
    if mode == "buffer_reads_all" and buffer:
        pool = sorted({d for t in buffer for d in g.inputs_of(t)})
    else:
        pool = list(range(n_data))
    candidates = set(rng.sample(pool, rng.randint(1, len(pool))))
    if mode == "planned_reads_all":
        planned = [t for t in tasks if candidates.intersection(g.inputs_of(t))]
        rng.shuffle(planned)
    else:
        planned = rng.sample(tasks, rng.randint(0, n_tasks))
    scheduler = None if rng.random() < 0.2 else FakeScheduler({0: planned})
    policy = LufPolicy(
        gpu=0, view=FakeView(graph=g, buffers={0: buffer}), scheduler=scheduler
    )
    return policy, candidates


def _branch(policy: LufPolicy, candidates: Set[int]) -> str:
    """The branch of the shipped rule the case takes, from the oracle's
    counts."""
    nb, np_, _ = luf_counts_oracle(policy, candidates)
    unused = [d for d in nb if nb[d] == 0]
    if not unused:
        return "belady"
    return "never planned" if min(np_[d] for d in unused) == 0 else "np count"


def _same_victim(policy: LufPolicy, candidates: Set[int]) -> None:
    expected = luf_victim_oracle(policy, set(candidates))
    assert policy.choose_victim(set(candidates)) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_luf_victim_matches_counting_oracle(seed):
    _same_victim(*_case(random.Random(seed)))


def test_sample_takes_every_branch():
    """Each branch, with and without a scheduler, on a fixed sample."""
    seen = set()
    for seed in range(400):
        policy, candidates = _case(random.Random(seed))
        _same_victim(policy, candidates)
        seen.add((_branch(policy, candidates), policy.scheduler is None))
        nb, np_, _ = luf_counts_oracle(policy, candidates)
        if max(*nb.values(), *np_.values()) > 1:
            seen.add("shared input")
        if policy.scheduler and not policy.scheduler.planned_tasks(0):
            seen.add("empty planned list")
    assert seen >= {
        ("belady", False),
        ("belady", True),
        ("never planned", False),
        ("never planned", True),
        ("np count", False),
        "empty planned list",
        "shared input",
    }, seen
