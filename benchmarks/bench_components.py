"""Micro-benchmarks of the core components (not paper artifacts).

These time the pieces the per-figure benches exercise end-to-end:
conflict-graph construction, TSgen, the Strife/Schism partitioners, the
simulated engine's event loop, the TsDEFER probe path, and the Zipfian
generator.  Useful for catching performance regressions in the library.
"""

import pytest

from repro.common import Rng, SimConfig, TsDeferConfig, YcsbConfig
from repro.core.progress_table import ProgressTable
from repro.core.tsgen import tsgen
from repro.core.tspar import TsPar
from repro.partition import SchismPartitioner, StrifePartitioner
from repro.sim import MulticoreEngine, warm_up_history
from repro.bench.workloads import YcsbGenerator
from repro.txn.workload import split_round_robin

SIM = SimConfig(num_threads=8)


@pytest.fixture(scope="module")
def workload():
    gen = YcsbGenerator(YcsbConfig(num_records=1_000_000, theta=0.8), seed=3)
    return gen.make_workload(1_000)


@pytest.fixture(scope="module")
def graph(workload):
    g = workload.conflict_graph()
    for t in workload:  # pre-warm the neighbour cache
        g.neighbors(t.tid)
    return g


def test_conflict_graph_build(benchmark, workload):
    def build():
        g = workload.conflict_graph()
        for t in workload:
            g.neighbors(t.tid)
        return g

    benchmark(build)


def test_strife_partition(benchmark, workload):
    benchmark(lambda: StrifePartitioner().partition(workload, 8, rng=Rng(0)))


def test_schism_partition(benchmark, workload):
    benchmark(lambda: SchismPartitioner().partition(workload, 8, rng=Rng(0)))


def test_tsgen_refinement(benchmark, workload, graph):
    cost = warm_up_history(workload, SIM)
    tspar = TsPar(StrifePartitioner())
    plan = tspar.make_plan(workload, 8, cost, graph, Rng(0))
    benchmark(lambda: tsgen(workload, plan, cost, graph=graph, rng=Rng(1)))


def test_engine_event_loop(benchmark, workload):
    buffers = split_round_robin(list(workload), SIM.num_threads)

    def run():
        return MulticoreEngine(SIM).run([list(b) for b in buffers])

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.counters.committed == len(workload)


def test_tsdefer_probe_path(benchmark, workload):
    cfg = TsDeferConfig()
    table = ProgressTable(8, Rng(2))
    txns = list(workload)[:8]
    for j, t in enumerate(txns):
        table.on_dispatch(j, t)
    benchmark(lambda: table.probe(0, cfg.num_lookups, scope=cfg.lookup_scope))


def test_zipfian_generation(benchmark):
    from repro.common import ZipfianGenerator

    gen = ZipfianGenerator(20_000_000, 0.8, Rng(4))
    benchmark(lambda: gen.sample(1_000))
