"""Domain decomposition with halo maps (MPI-substrate, run in-process).

MALI runs one MPI rank per GPU; the paper's evaluation is single-rank,
but the library keeps the distributed-memory substrate so multi-rank
experiments (and the tests that prove additive-scatter consistency) have
something real to exercise.  Partitioning is recursive coordinate
bisection over footprint elements; halos are the standard one-layer
node-sharing ghosts.

The SPMD velocity solve (:mod:`repro.fem.distributed`) builds on three
pieces added here:

* explicit per-neighbor send/recv index maps (:meth:`HaloExchange.
  send_map` / :meth:`HaloExchange.recv_map`) -- the message lists an MPI
  implementation would post, derived once from the partition;
* a :class:`TrafficMeter` that records every exchanged byte per rank and
  per channel, so scaling projections can use *measured* halo traffic
  instead of analytic surface-area guesses;
* :func:`halo_statistics`, the per-rank ghost/send/neighbor counts that
  feed :class:`repro.app.scaling.ScalingModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.mesh.planar import Footprint2D
from repro.observability import get_metrics, get_tracer
from repro.resilience.detectors import receive_verified
from repro.resilience.injectors import fault_plane

__all__ = [
    "Partition",
    "partition_footprint",
    "HaloExchange",
    "ExchangePlan",
    "TrafficMeter",
    "HaloStatistics",
    "halo_statistics",
    "ghost_columns_estimate",
]


def _rcb(centers: np.ndarray, ids: np.ndarray, nparts: int, out: np.ndarray, first: int) -> None:
    """Recursive coordinate bisection: split the longer axis at the median."""
    if nparts == 1:
        out[ids] = first
        return
    ext = centers[ids].max(axis=0) - centers[ids].min(axis=0)
    axis = int(np.argmax(ext))
    order = ids[np.argsort(centers[ids, axis], kind="stable")]
    left_parts = nparts // 2
    cut = int(round(len(order) * left_parts / nparts))
    _rcb(centers, order[:cut], left_parts, out, first)
    _rcb(centers, order[cut:], nparts - left_parts, out, first + left_parts)


@dataclass
class Partition:
    """Element ownership plus derived node ownership and halo sets."""

    footprint: Footprint2D
    nparts: int
    elem_part: np.ndarray  # (ne,) owning part per element
    node_part: np.ndarray  # (nn,) owning part per node (min adjacent part)

    def owned_elems(self, part: int) -> np.ndarray:
        return np.flatnonzero(self.elem_part == part)

    def owned_nodes(self, part: int) -> np.ndarray:
        return np.flatnonzero(self.node_part == part)

    def local_nodes(self, part: int) -> np.ndarray:
        """Owned + ghost nodes: every node touched by an owned element."""
        return np.unique(self.footprint.elems[self.owned_elems(part)])

    def ghost_nodes(self, part: int) -> np.ndarray:
        local = self.local_nodes(part)
        return local[self.node_part[local] != part]

    def neighbors(self, part: int) -> np.ndarray:
        """Ranks this part exchanges with: ghost owners plus ranks that
        ghost this part's owned nodes (halo symmetry makes both sides
        post matching messages)."""
        recv_from = np.unique(self.node_part[self.ghost_nodes(part)])
        send_to = [
            q
            for q in range(self.nparts)
            if q != part and np.any(self.node_part[self.ghost_nodes(q)] == part)
        ]
        return np.unique(np.concatenate([recv_from, np.asarray(send_to, dtype=np.int64)]))

    def balance(self) -> float:
        """max/avg element count over parts (1.0 = perfect balance)."""
        counts = np.bincount(self.elem_part, minlength=self.nparts)
        return float(counts.max() / max(1.0, counts.mean()))


def partition_footprint(footprint: Footprint2D, nparts: int) -> Partition:
    """Partition footprint elements into ``nparts`` via coordinate bisection."""
    if nparts <= 0:
        raise ValueError("nparts must be positive")
    ne = footprint.num_elems
    if nparts > ne:
        raise ValueError(f"cannot split {ne} elements into {nparts} parts")
    elem_part = np.empty(ne, dtype=np.int64)
    _rcb(footprint.elem_centers(), np.arange(ne), nparts, elem_part, 0)

    # node owner: the smallest part id among elements touching the node
    nn = footprint.num_nodes
    node_part = np.full(nn, np.iinfo(np.int64).max, dtype=np.int64)
    for k in range(footprint.nodes_per_elem):
        np.minimum.at(node_part, footprint.elems[:, k], elem_part)
    return Partition(footprint, nparts, elem_part, node_part)


class ExchangePlan:
    """One repeating exchange -- ``(src, dst, nbytes)`` messages, by dst
    then src -- with its totals precomputed for :meth:`TrafficMeter.record_plan`."""

    def __init__(self, channel: str, nparts: int, messages):
        self.channel = channel
        self.inbox = [[] for _ in range(nparts)]  # per dst: (src, nbytes)
        self.sent = np.zeros(nparts, dtype=np.int64)
        self.received = np.zeros(nparts, dtype=np.int64)
        pairs = []
        for src, dst, nbytes in messages:
            self.inbox[dst].append((src, nbytes))
            self.sent[src] += nbytes
            self.received[dst] += nbytes
            pairs.append((f"halo.sent.r{src}.to.r{dst}", nbytes))
        self.total = int(self.sent.sum())
        #: (metrics counter, bytes) as one :meth:`TrafficMeter.record` per message adds them
        self.counters = [(f"halo.bytes.{channel}", self.total), *pairs] if pairs else []


class TrafficMeter:
    """Per-rank, per-channel byte counters for the in-process exchanges.

    Channels mirror the message classes of a distributed FE solve:
    ``vector_gather`` (ghost refresh of nodal fields), ``vector_scatter``
    (additive export of ghost contributions), ``matrix_export`` (ghost-row
    Jacobian values shipped to owners), ``matrix_gather`` (operator
    gather for the replicated preconditioner) and ``allreduce`` (Krylov
    dot products).  ``sent``/``received`` are bytes attributed to the
    rank doing the sending/receiving; event counts live in ``events``.
    """

    def __init__(self, nparts: int):
        self.nparts = nparts
        self.sent = np.zeros(nparts, dtype=np.int64)
        self.received = np.zeros(nparts, dtype=np.int64)
        self.channel_bytes: dict[str, int] = {}
        self.events: dict[str, int] = {}

    def record(self, channel: str, src: int | None, dst: int | None, nbytes: int) -> None:
        """One message of ``nbytes`` from ``src`` to ``dst`` (None = collective)."""
        nbytes = int(nbytes)
        if src is not None:
            self.sent[src] += nbytes
        if dst is not None:
            self.received[dst] += nbytes
        self.channel_bytes[channel] = self.channel_bytes.get(channel, 0) + nbytes
        metrics = get_metrics()
        metrics.counter(f"halo.bytes.{channel}").inc(nbytes)
        if src is not None and dst is not None:
            metrics.counter(f"halo.sent.r{src}.to.r{dst}").inc(nbytes)

    def record_plan(self, plan: ExchangePlan) -> None:
        """Meter a whole exchange in a few adds, to the values one
        :meth:`record` per message reaches."""
        if plan.counters:
            self.sent += plan.sent
            self.received += plan.received
            self.channel_bytes[plan.channel] = self.channel_bytes.get(plan.channel, 0) + plan.total
            metrics = get_metrics()
            for name, nbytes in plan.counters:
                metrics.counter(name).inc(nbytes)

    def count_event(self, name: str, n: int = 1) -> None:
        self.events[name] = self.events.get(name, 0) + n
        get_metrics().counter(f"halo.events.{name}").inc(n)

    @property
    def total_bytes(self) -> int:
        return int(sum(self.channel_bytes.values()))

    def summary(self) -> dict:
        """JSON-able snapshot of everything measured so far."""
        return {
            "nparts": self.nparts,
            "sent_bytes_per_rank": [int(b) for b in self.sent],
            "received_bytes_per_rank": [int(b) for b in self.received],
            "channel_bytes": dict(self.channel_bytes),
            "events": dict(self.events),
            "total_bytes": self.total_bytes,
        }


class HaloExchange:
    """In-process halo exchange over a :class:`Partition`.

    Mirrors the two MPI patterns a FE assembly needs:

    * :meth:`scatter_add` -- additive reduction of per-part contributions
      into a global nodal array (ghost contributions folded into owners),
    * :meth:`gather` -- refresh of each part's local (owned + ghost)
      nodal values from the global array.

    On top of the flat local/ghost sets, the exchange precomputes the
    per-neighbor message lists a real MPI rank would post: ``recv_map(p,
    q)`` are the nodes ``p`` ghosts from owner ``q`` and ``send_map(p,
    q)`` the owned nodes ``p`` must ship to ``q`` -- mirror images by
    construction.  Every :meth:`gather`/:meth:`scatter_add` records its
    traffic on :attr:`meter`.
    """

    def __init__(self, partition: Partition, meter: TrafficMeter | None = None):
        self.partition = partition
        self.meter = meter if meter is not None else TrafficMeter(partition.nparts)
        nparts = partition.nparts
        self._local = [partition.local_nodes(p) for p in range(nparts)]
        self._ghost = [partition.ghost_nodes(p) for p in range(nparts)]
        # per-neighbor receive lists: ghosts of p grouped by owning rank
        self._recv: list[dict[int, np.ndarray]] = []
        for p in range(nparts):
            owners = partition.node_part[self._ghost[p]]
            self._recv.append(
                {int(q): self._ghost[p][owners == q] for q in np.unique(owners)}
            )
        # send lists are the mirror image: p sends to q what q ghosts from p
        self._send: list[dict[int, np.ndarray]] = [dict() for _ in range(nparts)]
        for q in range(nparts):
            for p, nodes in self._recv[q].items():
                self._send[p][q] = nodes

    def local_nodes(self, part: int) -> np.ndarray:
        return self._local[part]

    def ghost_nodes(self, part: int) -> np.ndarray:
        return self._ghost[part]

    def recv_map(self, part: int, neighbor: int) -> np.ndarray:
        """Global node ids ``part`` receives from ``neighbor`` on a ghost refresh."""
        return self._recv[part].get(neighbor, np.empty(0, dtype=np.int64))

    def send_map(self, part: int, neighbor: int) -> np.ndarray:
        """Global node ids ``part`` sends to ``neighbor`` on a ghost refresh."""
        return self._send[part].get(neighbor, np.empty(0, dtype=np.int64))

    def neighbors(self, part: int) -> list[int]:
        """Ranks ``part`` posts messages to/from (union of send and recv)."""
        return sorted(set(self._recv[part]) | set(self._send[part]))

    # ------------------------------------------------------------------
    def gather(self, part: int, global_field: np.ndarray) -> np.ndarray:
        """Local copy (owned + ghosts) of a global nodal field.

        The ghost entries are the refresh a real rank would receive from
        its neighbors; their bytes are metered per sending neighbor.
        """
        global_field = np.asarray(global_field)
        width = int(np.prod(global_field.shape[1:], dtype=np.int64)) or 1
        itemsize = global_field.dtype.itemsize
        tr = get_tracer()
        with tr.span("halo.gather", cat="halo", rank=part):
            for q, nodes in self._recv[part].items():
                nbytes = len(nodes) * width * itemsize
                if tr.recording:
                    with tr.span(
                        "halo.recv", cat="halo", rank=part, src=int(q), bytes=nbytes
                    ):
                        self.meter.record("vector_gather", q, part, nbytes)
                else:
                    self.meter.record("vector_gather", q, part, nbytes)
            self.meter.count_event("gather")
            local = np.array(global_field[self._local[part]])
            plane = fault_plane()
            if plane.active:
                self._refresh_ghosts_checked(part, global_field, local, plane)
            return local

    def _refresh_ghosts_checked(self, part, global_field, local, plane) -> None:
        """Armed-plane ghost refresh: every neighbor's payload arrives through
        :func:`~repro.resilience.detectors.receive_verified`."""
        if not np.issubdtype(np.asarray(global_field).dtype, np.floating):
            return  # index/int gathers are not a corruption target
        for q, nodes in self._recv[part].items():
            if len(nodes) == 0:
                continue
            local[np.searchsorted(self._local[part], nodes)] = receive_verified(
                plane,
                lambda: np.ascontiguousarray(global_field[nodes], dtype=np.float64),
                self.meter,
                what="halo payload", rank=part, src=int(q),
            )

    def scatter_add(self, contributions: list[np.ndarray]) -> np.ndarray:
        """Sum per-part local contributions into a global nodal array.

        ``contributions[p]`` must align with ``local_nodes(p)``; overlap
        (ghost) entries add, exactly like MPI ``Export`` with ADD mode.
        The output preserves the promoted dtype of the inputs (complex
        and extended-precision contributions are not truncated), and
        per-part ghost rows are metered as the export each rank sends.
        """
        if len(contributions) != self.partition.nparts:
            raise ValueError("one contribution array per part required")
        contributions = [np.asarray(c) for c in contributions]
        first = contributions[0]
        if any(c.shape[1:] != first.shape[1:] for c in contributions[1:]):
            raise ValueError("contribution arrays must share trailing dimensions")
        nn = self.partition.footprint.num_nodes
        dtype = np.result_type(*contributions) if contributions else np.float64
        out = np.zeros((nn,) + first.shape[1:], dtype=dtype)
        width = int(np.prod(first.shape[1:], dtype=np.int64)) or 1
        tr = get_tracer()
        with tr.span("halo.scatter_add", cat="halo", nparts=self.partition.nparts):
            for p, contrib in enumerate(contributions):
                if len(contrib) != len(self._local[p]):
                    raise ValueError(f"part {p}: contribution length mismatch")
                for q, nodes in self._recv[p].items():
                    # p exports its summed ghost rows to their owner q
                    nbytes = len(nodes) * width * dtype.itemsize
                    if tr.recording:
                        with tr.span(
                            "halo.send", cat="halo", rank=p, dst=int(q), bytes=nbytes
                        ):
                            self.meter.record("vector_scatter", p, q, nbytes)
                    else:
                        self.meter.record("vector_scatter", p, q, nbytes)
                np.add.at(out, self._local[p], contrib)
            self.meter.count_event("scatter_add")
        return out


@dataclass(frozen=True)
class HaloStatistics:
    """Measured per-rank decomposition statistics of a :class:`Partition`.

    All node counts are footprint (column) counts; multiply by ``levels x
    ndof x itemsize`` for the bytes of one 3-D nodal-field exchange --
    see :meth:`ghost_bytes_per_exchange`.
    """

    nparts: int
    owned_elems: tuple[int, ...]  # footprint elements per rank
    owned_nodes: tuple[int, ...]
    ghost_nodes: tuple[int, ...]  # columns received on a ghost refresh
    send_nodes: tuple[int, ...]  # columns sent (summed over neighbors)
    neighbor_counts: tuple[int, ...]

    @property
    def max_ghost_nodes(self) -> int:
        return max(self.ghost_nodes)

    @property
    def mean_ghost_nodes(self) -> float:
        return float(np.mean(self.ghost_nodes))

    @property
    def elem_imbalance(self) -> float:
        """max/mean owned elements (the slowest rank sets the step time)."""
        return float(max(self.owned_elems) / max(1.0, np.mean(self.owned_elems)))

    def ghost_bytes_per_exchange(self, levels: int, ndof: int = 2, itemsize: int = 8) -> list[int]:
        """Per-rank bytes received on one 3-D nodal ghost refresh."""
        return [g * levels * ndof * itemsize for g in self.ghost_nodes]

    def to_dict(self) -> dict:
        return {
            "nparts": self.nparts,
            "owned_elems": list(self.owned_elems),
            "owned_nodes": list(self.owned_nodes),
            "ghost_nodes": list(self.ghost_nodes),
            "send_nodes": list(self.send_nodes),
            "neighbor_counts": list(self.neighbor_counts),
            "elem_imbalance": self.elem_imbalance,
        }


def ghost_columns_estimate(cells: float, layers: int) -> float:
    """Ghost columns of one rank's ``cells`` hexahedra over ``layers`` layers.

    The rank holds a footprint patch of ``A = cells / layers`` columns
    (at least one); a compact patch has a boundary of about ``4 sqrt(A)``
    columns.  :func:`halo_statistics` measures the real count.
    """
    return 4.0 * math.sqrt(max(1.0, cells / layers))


def halo_statistics(partition: Partition) -> HaloStatistics:
    """Measure the per-rank ghost/send/neighbor counts of a partition.

    This is the measured replacement for :func:`ghost_columns_estimate`.
    """
    halo = HaloExchange(partition)
    nparts = partition.nparts
    owned_e, owned_n, ghosts, sends, nbrs = [], [], [], [], []
    for p in range(nparts):
        owned_e.append(int(len(partition.owned_elems(p))))
        owned_n.append(int(len(partition.owned_nodes(p))))
        ghosts.append(int(len(halo.ghost_nodes(p))))
        sends.append(int(sum(len(halo.send_map(p, q)) for q in halo.neighbors(p))))
        nbrs.append(int(len(halo.neighbors(p))))
    return HaloStatistics(
        nparts=nparts,
        owned_elems=tuple(owned_e),
        owned_nodes=tuple(owned_n),
        ghost_nodes=tuple(ghosts),
        send_nodes=tuple(sends),
        neighbor_counts=tuple(nbrs),
    )
