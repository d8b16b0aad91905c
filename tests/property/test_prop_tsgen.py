"""Property-based tests: TSgen output is always a valid schedule.

For random workloads and random (valid) partition plans, the schedule
must be a disjoint cover, preserve the partition assignment, keep
per-queue intervals totally ordered, and be RC-free across queues —
the invariants of Section 2.2.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import Rng
from repro.core.tsgen import tsgen, tsgen_from_scratch
from repro.partition.base import PartitionPlan, extract_residual
from repro.txn import OpCountCostModel, make_transaction, read, workload_from, write


@st.composite
def random_workload(draw, max_txns=18, sparse_tids=False):
    n = draw(st.integers(min_value=2, max_value=max_txns))
    n_keys = draw(st.integers(min_value=3, max_value=14))
    tids = range(n)
    if sparse_tids:
        tids = draw(st.lists(st.integers(min_value=0, max_value=5_000),
                             min_size=n, max_size=n, unique=True))
    txns = []
    for tid in tids:
        n_ops = draw(st.integers(min_value=1, max_value=5))
        ops = []
        for _ in range(n_ops):
            key = draw(st.integers(min_value=0, max_value=n_keys - 1))
            ops.append(write("t", key) if draw(st.booleans()) else read("t", key))
        txns.append(make_transaction(tid, ops))
    return workload_from(txns)


@st.composite
def workload_and_plan(draw):
    """A workload plus a *valid* plan: mutually conflict-free parts."""
    w = draw(random_workload())
    k = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=100))
    rng = Rng(seed)
    parts = [[] for _ in range(k)]
    for t in w:
        parts[rng.randint(0, k - 1)].append(t)
    graph = w.conflict_graph()
    plan = extract_residual(parts, graph)
    return w, plan, graph, seed


class TestTsgenProperties:
    @settings(max_examples=60, deadline=None)
    @given(workload_and_plan())
    def test_schedule_invariants(self, data):
        w, plan, graph, seed = data
        schedule = tsgen(w, plan, OpCountCostModel(), graph=graph,
                         rng=Rng(seed))
        # Disjoint cover.
        tids = [t.tid for q in schedule.queues for t in q]
        tids += [t.tid for t in schedule.residual]
        assert sorted(tids) == sorted(t.tid for t in w)
        # Refinement: P_i subset of Q_i.
        assert schedule.refines(plan.parts)
        # Residual shrinks.
        assert {t.tid for t in schedule.residual} <= {
            t.tid for t in plan.residual
        }
        # Interval discipline + RC-freedom.
        schedule.validate_total_order()
        schedule.assert_rc_free(graph)

    @settings(max_examples=40, deadline=None)
    @given(random_workload(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=50))
    def test_from_scratch_invariants(self, w, k, seed):
        graph = w.conflict_graph()
        schedule = tsgen_from_scratch(w, k, OpCountCostModel(), graph=graph,
                                      rng=Rng(seed))
        tids = [t.tid for q in schedule.queues for t in q]
        tids += [t.tid for t in schedule.residual]
        assert sorted(tids) == sorted(t.tid for t in w)
        schedule.validate_total_order()
        schedule.assert_rc_free(graph)

    @settings(max_examples=30, deadline=None)
    @given(workload_and_plan())
    def test_zero_slack_also_rc_free(self, data):
        w, plan, graph, seed = data
        schedule = tsgen(w, plan, OpCountCostModel(), graph=graph,
                         rng=Rng(seed), slack=0.0)
        schedule.assert_rc_free(graph)

    @settings(max_examples=30, deadline=None)
    @given(workload_and_plan())
    def test_literal_algorithm_one(self, data):
        """fallback_queues=0 (the literal Algorithm 1) keeps invariants."""
        w, plan, graph, seed = data
        schedule = tsgen(w, plan, OpCountCostModel(), graph=graph,
                         rng=Rng(seed), fallback_queues=0)
        schedule.validate_total_order()
        schedule.assert_rc_free(graph)


class _KeyParityHeat:
    """Deterministic stand-in for the online policy's steering hooks."""

    def hot_keys(self, txn):
        return frozenset(k for k in txn.write_set if k[1] % 2 == 0)

    def note_steered(self):
        pass


@st.composite
def sliced_workload(draw):
    """A workload with sparse, shuffled tids plus one contiguous slice."""
    w = draw(random_workload(max_txns=40, sparse_tids=True))
    lo = draw(st.integers(min_value=0, max_value=len(w) - 1))
    hi = draw(st.integers(min_value=lo + 1, max_value=len(w)))
    return w, workload_from(w.transactions[lo:hi])


class TestEpochGraphEquivalence:
    """Planning a slice on its own graph equals planning it on its parent's.

    The adaptive runner plans each epoch (a contiguous slice of the
    bundle) on the slice's own conflict graph.  With an empty-partition
    plan, tsgen never acts on a neighbour outside the slice: nothing is
    in a partition to promote, ``queue_of`` only ever holds slice
    members, and the ckRCF verdict does not depend on the order the
    neighbours are visited in.  So the parent workload's graph and the
    slice's graph give the same queues, residual, intervals and stats.

    Two cases are deliberately not covered, because there the two
    graphs legitimately disagree:

    * ``residual_order="degree"`` sorts by conflict degree, and the
      parent graph's degree counts neighbours outside the slice;
    * partitioned plans promote partition members in the iteration
      order of the candidate's neighbour set, which differs between a
      frozenset over the parent graph and one over the slice graph.
    """

    @settings(max_examples=120, deadline=None)
    @given(sliced_workload(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=50),
           st.sampled_from(["random", "given", "cost"]), st.booleans())
    def test_slice_graph_matches_parent_graph(self, data, k, seed, order,
                                              steer):
        parent, sub = data
        plan = PartitionPlan(parts=[[] for _ in range(k)],
                             residual=list(sub))
        heat = _KeyParityHeat() if steer else None
        got = [
            tsgen(sub, plan, OpCountCostModel(), graph=graph, rng=Rng(seed),
                  residual_order=order, heat=heat, check=True)
            for graph in (parent.conflict_graph(), sub.conflict_graph())
        ]
        whole, own = ([[[t.tid for t in q] for q in s.queues],
                       [t.tid for t in s.residual],
                       s.intervals, s.queue_of, s.stats.as_dict()]
                      for s in got)
        assert whole == own
