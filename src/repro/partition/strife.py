"""Strife-style dynamic clustering partitioner (Prasaad et al., SIGMOD'20).

Strife partitions a *batch* of contended transactions around the hot spots
of its data-access graph and produces k CC-free clusters plus an explicit
residual executed with CC afterwards.  This implementation reproduces the
published algorithm's observable contract through label propagation:

1. **Spot** — the hottest data items (by access count in the batch) seed
   the k clusters, one hot item per cluster, so contended spots never
   coalesce.
2. **Allocate** — transactions stream in random order.  A transaction
   whose already-labelled items all agree on one cluster joins it and
   claims its unlabelled items for that cluster; one with no labelled
   items starts on the least-loaded cluster (keeping cold traffic
   balanced); one whose items straddle clusters joins the residual and
   claims nothing.
3. The first-come item labelling breaks the percolation that plagues
   naive union-find clustering of skewed batches — exactly the problem
   Strife's sampling-based spot phase exists to solve.

Mutual conflict-freedom holds by construction: an item has at most one
label, so two assigned transactions sharing an item share its cluster.
As in the original, hot clusters out-grow cold ones, so partitions are
noticeably imbalanced under skew (the TSKD paper measures a 3.2x
largest/smallest ratio on YCSB) — the imbalance TsPAR later repairs.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..common.rng import Rng
from ..txn.cost import AccessSetSizeCostModel, CostModel
from ..txn.transaction import Transaction
from ..txn.workload import Workload
from .base import PartitionPlan


class StrifePartitioner:
    """Strife: hot-item seeded label propagation with explicit residual."""

    name = "strife"
    #: Strife's partitions are mutually conflict-free by construction.
    produces_conflict_free = True

    def __init__(self, seeds_per_core: int = 1):
        #: How many hot items to pin per core during the spot phase.
        self.seeds_per_core = seeds_per_core

    def partition(
        self,
        workload: Workload,
        k: int,
        cost: Optional[CostModel] = None,
        rng: Optional[Rng] = None,
    ) -> PartitionPlan:
        cost = cost or AccessSetSizeCostModel()
        rng = rng or Rng(0)
        txns = list(workload)

        # -- spot: pin the hottest items, one (or a few) per cluster ----
        freq: Counter = Counter()
        for t in txns:
            freq.update(t.access_set)
        label: dict = {}
        for rank, (item, _count) in enumerate(
            freq.most_common(k * self.seeds_per_core)
        ):
            label[item] = rank % k

        # -- cluster: stream transactions, first-come item labelling ----
        # Cluster ids: 0..k*seeds-1 are seed clusters; fresh ids are
        # created for transactions whose items are all unlabelled.
        next_cluster = k * self.seeds_per_core
        cluster_txns: dict[int, list[Transaction]] = {}
        cluster_weight: dict[int, int] = {}
        residual: list[Transaction] = []
        order = list(txns)
        rng.shuffle(order)
        for t in order:
            seen = {label[key] for key in t.access_set if key in label}
            if len(seen) > 1:
                residual.append(t)  # straddles clusters; claims nothing
                continue
            if seen:
                cluster = next(iter(seen))
            else:
                cluster = next_cluster
                next_cluster += 1
            for key in t.access_set:
                if key not in label:
                    label[key] = cluster
            cluster_txns.setdefault(cluster, []).append(t)
            cluster_weight[cluster] = cluster_weight.get(cluster, 0) + cost.time(t)

        # -- allocate: LPT packing of whole clusters onto cores ----------
        # Clusters move as units (Strife allocates clusters, not
        # transactions), so a hot cluster larger than the ideal per-core
        # load makes its core the straggler — the imbalance the TSKD
        # paper measures on skewed YCSB.
        core_load = [0] * k
        parts: list[list[Transaction]] = [[] for _ in range(k)]
        for cluster, _w in sorted(cluster_weight.items(), key=lambda kv: -kv[1]):
            core = min(range(k), key=core_load.__getitem__)
            parts[core].extend(cluster_txns[cluster])
            core_load[core] += cluster_weight[cluster]

        # Restore workload order inside each partition (the batch's
        # arrival order), as the executor would see it.
        index = {t.tid: i for i, t in enumerate(txns)}
        for part in parts:
            part.sort(key=lambda t: index[t.tid])
        residual.sort(key=lambda t: index[t.tid])
        return PartitionPlan(parts=parts, residual=residual)
