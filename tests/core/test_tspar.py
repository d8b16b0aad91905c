"""TsPAR: plan normalisation, range demotion, residual extraction."""

import pytest

from repro.common.config import SimConfig, YcsbConfig
from repro.common.rng import Rng
from repro.core.tspar import TsPar
from repro.partition import SchismPartitioner, StrifePartitioner
from repro.sim.warmup import warm_up_history
from repro.txn import OpCountCostModel, Operation, OpKind, make_transaction, read, workload_from, write
from repro.bench.workloads import YcsbGenerator


@pytest.fixture(scope="module")
def workload():
    gen = YcsbGenerator(YcsbConfig(num_records=10_000, theta=0.85,
                                   ops_per_txn=8), seed=19)
    return gen.make_workload(150)


class TestScheduleBuilding:
    def test_without_partitioner_everything_is_residual(self, workload):
        tspar = TsPar(partitioner=None)
        graph = workload.conflict_graph()
        plan = tspar.make_plan(workload, 4, OpCountCostModel(), graph, Rng(0))
        assert all(not p for p in plan.parts)
        assert len(plan.residual) == len(workload)

    def test_schism_plan_gets_residual_extracted(self, workload):
        tspar = TsPar(partitioner=SchismPartitioner())
        graph = workload.conflict_graph()
        plan = tspar.make_plan(workload, 4, OpCountCostModel(), graph, Rng(0))
        # After extraction the CC-free parts are mutually conflict-free.
        assert plan.cross_conflicts(graph) == 0

    def test_strife_plan_skips_extraction(self, workload):
        """Strife's output is conflict-free by construction; make_plan must
        preserve its partitions untouched (minus range demotion)."""
        graph = workload.conflict_graph()
        strife = StrifePartitioner()
        raw = strife.partition(workload, 4, rng=Rng(2))
        tspar = TsPar(partitioner=StrifePartitioner())
        plan = tspar.make_plan(workload, 4, OpCountCostModel(), graph, Rng(2))
        assert [len(p) for p in plan.parts] == [len(p) for p in raw.parts]

    def test_schedule_end_to_end(self, workload):
        tspar = TsPar(partitioner=StrifePartitioner(), check=True)
        schedule = tspar.schedule(workload, 4, OpCountCostModel(), rng=Rng(3))
        total = sum(len(q) for q in schedule.queues) + len(schedule.residual)
        assert total == len(workload)

    def test_history_cost_model_integration(self, workload):
        sim = SimConfig(num_threads=4)
        cost = warm_up_history(workload, sim, noise=0.0)
        tspar = TsPar(partitioner=StrifePartitioner(), check=True)
        schedule = tspar.schedule(workload, 4, cost, rng=Rng(4))
        assert schedule.makespan() > 0


class TestRangeDemotion:
    def test_range_transactions_forced_into_residual(self):
        scan = make_transaction(
            1, [Operation(OpKind.SCAN, "t", 1)], has_range=True)
        plain = make_transaction(2, [write("t", 99)])
        w = workload_from([scan, plain])
        tspar = TsPar(partitioner=StrifePartitioner())
        graph = w.conflict_graph()
        plan = tspar.make_plan(w, 2, OpCountCostModel(), graph, Rng(0))
        residual_tids = {t.tid for t in plan.residual}
        assert 1 in residual_tids
        part_tids = {t.tid for p in plan.parts for t in p}
        assert 1 not in part_tids

    def test_scheduled_range_txn_can_still_be_queued(self):
        """Demotion is to the residual, not out of the workload; TSgen may
        still place it in a queue if it is RC-free there."""
        scan = make_transaction(
            1, [Operation(OpKind.SCAN, "t", 1)], has_range=True)
        plain = make_transaction(2, [write("t", 99)])
        w = workload_from([scan, plain])
        tspar = TsPar(partitioner=StrifePartitioner())
        schedule = tspar.schedule(w, 2, OpCountCostModel(), rng=Rng(0))
        assert len(schedule) == 2
