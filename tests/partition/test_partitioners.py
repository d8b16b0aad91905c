"""Strife, Schism, and Horticulture partitioners."""

import pytest

from repro.common.rng import Rng
from repro.partition import (
    HorticulturePartitioner,
    SchismPartitioner,
    StrifePartitioner,
    least_loaded,
    make_partitioner,
    random_assign,
    round_robin,
)
from repro.txn import AccessSetSizeCostModel, make_transaction, read, workload_from, write
from repro.bench.workloads import TpccGenerator, YcsbGenerator
from repro.common.config import TpccConfig, YcsbConfig


@pytest.fixture(scope="module")
def contended_ycsb():
    gen = YcsbGenerator(YcsbConfig(num_records=10_000, theta=0.9,
                                   ops_per_txn=8), seed=7)
    return gen.make_workload(300)


@pytest.fixture(scope="module")
def tpcc():
    gen = TpccGenerator(TpccConfig(num_warehouses=8, customers_per_district=20,
                                   items=100), seed=8)
    return gen.make_workload(200)


def covers(plan, workload):
    seen = sorted(
        [t.tid for p in plan.parts for t in p] + [t.tid for t in plan.residual]
    )
    return seen == sorted(t.tid for t in workload)


class TestStrife:
    def test_covers_workload(self, contended_ycsb):
        plan = StrifePartitioner().partition(contended_ycsb, 8, rng=Rng(1))
        assert covers(plan, contended_ycsb)

    def test_partitions_are_mutually_conflict_free(self, contended_ycsb):
        plan = StrifePartitioner().partition(contended_ycsb, 8, rng=Rng(1))
        graph = contended_ycsb.conflict_graph()
        assert plan.cross_conflicts(graph) == 0

    def test_produces_residual_under_contention(self, contended_ycsb):
        plan = StrifePartitioner().partition(contended_ycsb, 8, rng=Rng(1))
        assert len(plan.residual) > 0

    def test_deterministic_given_rng(self, contended_ycsb):
        p1 = StrifePartitioner().partition(contended_ycsb, 8, rng=Rng(5))
        p2 = StrifePartitioner().partition(contended_ycsb, 8, rng=Rng(5))
        assert [[t.tid for t in part] for part in p1.parts] == [
            [t.tid for t in part] for part in p2.parts
        ]

    def test_disjoint_workload_has_no_residual(self):
        txns = [make_transaction(i, [write("x", i)]) for i in range(20)]
        w = workload_from(txns)
        plan = StrifePartitioner().partition(w, 4, rng=Rng(2))
        assert plan.residual == []
        assert covers(plan, w)

    def test_flag_declares_conflict_freedom(self):
        assert StrifePartitioner.produces_conflict_free


class TestSchism:
    def test_covers_with_empty_residual(self, contended_ycsb):
        plan = SchismPartitioner().partition(contended_ycsb, 8, rng=Rng(1))
        assert plan.residual == []
        assert covers(plan, contended_ycsb)

    def test_balance_is_bounded(self, contended_ycsb):
        plan = SchismPartitioner(balance_slack=0.1).partition(
            contended_ycsb, 8, rng=Rng(1)
        )
        counts = [len(p) for p in plan.parts]
        # Transaction routing follows item plurality, so per-part counts
        # are roughly balanced; nothing should be empty or dominate.
        assert min(counts) > 0
        assert max(counts) < len(contended_ycsb)

    def test_reduces_cut_vs_round_robin(self, contended_ycsb):
        graph = contended_ycsb.conflict_graph()
        from repro.partition.base import PartitionPlan

        rr = PartitionPlan(parts=round_robin(list(contended_ycsb), 8))
        schism = SchismPartitioner().partition(contended_ycsb, 8, rng=Rng(1))
        assert schism.cross_conflicts(graph) <= rr.cross_conflicts(graph)

    def test_not_declared_conflict_free(self):
        assert not SchismPartitioner.produces_conflict_free


class TestHorticulture:
    def test_tpcc_routed_by_home_warehouse(self, tpcc):
        k = 4
        plan = HorticulturePartitioner().partition(tpcc, k)
        assert plan.residual == []
        for i, part in enumerate(plan.parts):
            for t in part:
                assert int(t.params["w_id"]) % k == i

    def test_ycsb_covers_all(self, contended_ycsb):
        plan = HorticulturePartitioner().partition(contended_ycsb, 8)
        assert covers(plan, contended_ycsb)
        assert plan.residual == []

    def test_ycsb_spreads_hot_keys(self, contended_ycsb):
        plan = HorticulturePartitioner().partition(contended_ycsb, 8)
        counts = [len(p) for p in plan.parts]
        assert max(counts) < len(contended_ycsb)  # not all on one core


class TestRegistryAndAssigners:
    def test_make_partitioner(self):
        assert make_partitioner("strife").name == "strife"
        assert make_partitioner("SCHISM").name == "schism"
        assert make_partitioner("horticulture").name == "horticulture"

    def test_unknown_name(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            make_partitioner("metis")

    def test_random_assign_covers(self):
        txns = [make_transaction(i, [read("x", i)]) for i in range(30)]
        buffers = random_assign(txns, 4, Rng(3))
        assert sorted(t.tid for b in buffers for t in b) == list(range(30))

    def test_least_loaded_balances_ops(self):
        txns = [make_transaction(i, [read("x", j) for j in range(1 + i % 5)])
                for i in range(40)]
        buffers = least_loaded(txns, 4)
        loads = [sum(t.num_ops for t in b) for b in buffers]
        assert max(loads) - min(loads) <= 5
