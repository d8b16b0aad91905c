"""TSgen (Algorithm 1): the paper's worked example plus structural invariants."""

import pytest

from repro.common.errors import SchedulingError
from repro.common.rng import Rng
from repro.core.tsgen import tsgen, tsgen_from_scratch
from repro.partition.base import PartitionPlan
from repro.txn import OpCountCostModel, make_transaction, read, workload_from, write
from repro.bench.workloads import YcsbGenerator
from repro.common.config import YcsbConfig


class TestPaperExample4:
    """TSgen on Example 1's partitioning must produce Example 3's schedule."""

    def test_queues_match_example(self, w0, w0_plan):
        schedule = tsgen(w0, w0_plan, OpCountCostModel(), check=True)
        assert [t.tid for t in schedule.queues[0]] == [2, 1, 3]
        assert [t.tid for t in schedule.queues[1]] == [4, 5]
        assert schedule.residual == []

    def test_makespan_is_14(self, w0, w0_plan):
        schedule = tsgen(w0, w0_plan, OpCountCostModel())
        assert schedule.makespan() == 14  # paper: 14 vs 20 for partitioning

    def test_refines_input_partitioning(self, w0, w0_plan):
        schedule = tsgen(w0, w0_plan, OpCountCostModel())
        assert schedule.refines(w0_plan.parts)

    def test_t5_scheduled_after_t4(self, w0, w0_plan):
        schedule = tsgen(w0, w0_plan, OpCountCostModel())
        assert schedule.intervals[5].start == 4   # after T4's 4 ops
        assert schedule.intervals[5].end == 10

    def test_scheduled_pct_is_100(self, w0, w0_plan):
        schedule = tsgen(w0, w0_plan, OpCountCostModel())
        assert schedule.scheduled_pct == 1.0
        assert schedule.merged_residual == 1


@pytest.fixture(scope="module")
def ycsb_setup():
    gen = YcsbGenerator(YcsbConfig(num_records=20_000, theta=0.85,
                                   ops_per_txn=8), seed=11)
    w = gen.make_workload(250)
    graph = w.conflict_graph()
    from repro.partition import StrifePartitioner

    plan = StrifePartitioner().partition(w, 6, rng=Rng(0))
    return w, graph, plan


class TestInvariants:
    def test_schedule_is_rc_free(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        schedule = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(1))
        schedule.assert_rc_free(graph)

    def test_total_order_per_queue(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        schedule = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(1))
        schedule.validate_total_order()

    def test_partition_preserved_in_queues(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        schedule = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(1))
        assert schedule.refines(plan.parts)

    def test_disjoint_cover(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        schedule = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(1))
        scheduled = [t.tid for q in schedule.queues for t in q]
        everything = scheduled + [t.tid for t in schedule.residual]
        assert sorted(everything) == sorted(t.tid for t in w)
        assert len(set(everything)) == len(everything)

    def test_residual_is_subset_of_input_residual(self, ycsb_setup):
        """R_s ⊆ R: scheduling only ever shrinks the residual."""
        w, graph, plan = ycsb_setup
        schedule = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(1))
        input_residual = {t.tid for t in plan.residual}
        assert {t.tid for t in schedule.residual} <= input_residual

    def test_check_flag_validates(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(1), check=True)


class TestOptions:
    def test_residual_orders_all_valid(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        for order in ("random", "given", "degree", "cost"):
            schedule = tsgen(w, plan, OpCountCostModel(), graph=graph,
                             rng=Rng(2), residual_order=order)
            schedule.assert_rc_free(graph)

    def test_unknown_order_rejected(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        with pytest.raises(SchedulingError):
            tsgen(w, plan, OpCountCostModel(), graph=graph,
                  residual_order="alphabetical")

    def test_literal_algorithm1_single_target(self, ycsb_setup):
        """fallback_queues=0 restricts placement to the least-loaded queue."""
        w, graph, plan = ycsb_setup
        narrow = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(3),
                       fallback_queues=0)
        wide = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(3))
        narrow.assert_rc_free(graph)
        assert narrow.merged_residual <= wide.merged_residual

    def test_balance_cap_bounds_queue_loads(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        cost = OpCountCostModel()
        schedule = tsgen(w, plan, cost, graph=graph, rng=Rng(4),
                         balance_cap=1.05)
        total = sum(cost.time(t) for t in w)
        ideal = total / 6
        for q, load in zip(schedule.queues, schedule.queue_loads()):
            # Queues seeded by an oversized partition may exceed the cap;
            # everything else must respect it (+1 txn granularity).
            part_load = sum(cost.time(t) for t in plan.parts[schedule.queues.index(q)])
            assert load <= max(1.05 * ideal + max(cost.time(t) for t in w),
                               part_load)

    def test_deterministic_for_fixed_rng(self, ycsb_setup):
        w, graph, plan = ycsb_setup
        s1 = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(9))
        s2 = tsgen(w, plan, OpCountCostModel(), graph=graph, rng=Rng(9))
        assert [[t.tid for t in q] for q in s1.queues] == [
            [t.tid for t in q] for q in s2.queues
        ]


class TestFromScratch:
    def test_schedules_whole_workload_as_residual(self, ycsb_setup):
        w, graph, _plan = ycsb_setup
        schedule = tsgen_from_scratch(w, 6, OpCountCostModel(), graph=graph,
                                      rng=Rng(5), check=True)
        assert schedule.input_residual == len(w)
        covered = sum(len(q) for q in schedule.queues) + len(schedule.residual)
        assert covered == len(w)

    def test_balances_load(self):
        # Conflict-free transactions of identical size: queues must be even.
        txns = [make_transaction(i, [write("x", i)] * 2) for i in range(40)]
        w = workload_from(txns)
        schedule = tsgen_from_scratch(w, 4, OpCountCostModel(), rng=Rng(6))
        sizes = [len(q) for q in schedule.queues]
        assert max(sizes) - min(sizes) <= 1
        assert schedule.residual == []


class TestEdgeCases:
    def test_empty_residual(self, w0):
        # Mutually conflict-free parts (T5 conflicts with both parts, so a
        # valid no-residual plan simply does not include it).
        plan = PartitionPlan(parts=[[w0[1], w0[2], w0[3]], [w0[4]]],
                             residual=[])
        schedule = tsgen(w0, plan, OpCountCostModel(), check=True)
        assert schedule.scheduled_pct == 1.0  # vacuous
        assert [t.tid for t in schedule.queues[0]] == [1, 2, 3]
        assert [t.tid for t in schedule.queues[1]] == [4]

    def test_single_thread(self, w0):
        plan = PartitionPlan(parts=[[w0[1], w0[2], w0[3], w0[4]]],
                             residual=[w0[5]])
        schedule = tsgen(w0, plan, OpCountCostModel(), check=True)
        assert schedule.k == 1
        assert len(schedule.queues[0]) + len(schedule.residual) == 5
