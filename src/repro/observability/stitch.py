"""SPMD trace stitching: one rank lane per Chrome pid, critical path.

The in-process SPMD solve records one span stream on one clock; its
rank-local work carries a ``rank`` arg.  Perfetto shows each rank's work
on its own track only after :func:`stitch_spans` moves every span
carrying a ``rank`` arg to ``pid = rank``; rank-agnostic driver spans
(Newton steps, GMRES cycles) land on a dedicated driver pid, so per-rank
lanes show only that rank's work.

The same solve emits rank-tagged halo (``cat="halo"``) and compute
(``cat="compute"``) spans, which is what the **critical-path pass**
(:func:`halo_compute_split`) consumes: per Newton step and per rank it
splits time into halo-exchange wait vs rank-local compute, and names the
critical (slowest) rank -- the number that tells you whether a slow step
is communication- or compute-bound.
"""

from __future__ import annotations

from dataclasses import replace

from repro.observability.tracer import Span

__all__ = [
    "stitch_spans",
    "stitch_process_labels",
    "halo_compute_split",
    "critical_path_table",
    "DRIVER_PID",
]


def DRIVER_PID(nparts: int) -> int:
    """pid of the rank-agnostic driver timeline in a stitched trace."""
    return int(nparts)


def stitch_spans(spans, nparts: int) -> list[Span]:
    """Relabel one in-process SPMD trace with one Chrome pid per rank.

    Spans carrying a ``rank`` arg in ``[0, nparts)`` move to ``pid =
    rank``; everything else (the driver timeline: Newton steps, GMRES
    cycles, assembly orchestration) lands on ``pid =
    DRIVER_PID(nparts)``.  Negative timestamps are clamped to zero and
    the result is sorted by start time so timestamps are monotone.  The
    input spans are not mutated.
    """
    dpid = DRIVER_PID(nparts)
    out: list[Span] = []
    for s in spans:
        r = s.args.get("rank")
        if isinstance(r, (int, float)) and 0 <= int(r) < nparts:
            r = int(r)
            out.append(replace(s, pid=r, ts_us=max(0.0, s.ts_us), args=dict(s.args, rank=r)))
        else:
            out.append(replace(s, pid=dpid, ts_us=max(0.0, s.ts_us)))
    out.sort(key=lambda s: (s.ts_us, s.pid, s.id))
    return out


def stitch_process_labels(nparts: int) -> dict[int, str]:
    """Chrome trace process names for a stitched SPMD trace."""
    labels = {p: f"rank {p}" for p in range(nparts)}
    labels[DRIVER_PID(nparts)] = "driver"
    return labels


# ----------------------------------------------------------------------
# critical path: halo wait vs compute per Newton step


def _children_index(spans) -> dict[int, list]:
    kids: dict[int, list] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def halo_compute_split(spans) -> list[dict]:
    """Per-Newton-step, per-rank split of halo-wait vs compute time.

    Walks each ``newton.step`` span's subtree.  Leaf spans tagged with
    a ``rank`` arg contribute to that rank: ``cat="halo"``
    (``halo.send`` / ``halo.recv`` payload transfers) counts as
    halo-wait, ``cat="compute"`` (``rank.spmv`` / ``rank.assemble``
    rank-local work) as compute.  Container halo spans
    (``spmd.spmv``, ``halo.ghost_refresh``, ...) carry no rank and are
    skipped -- only leaves are summed, so nothing double-counts.

    Returns one record per step::

        {"step": k, "dur_s": step_wall, "per_rank": {r: {"halo_s", "compute_s"}},
         "halo_s": total_halo, "compute_s": total_compute,
         "critical_rank": slowest_rank, "halo_fraction": halo/(halo+compute)}
    """
    kids = _children_index(spans)
    records = []
    for step_span in spans:
        if step_span.name != "newton.step":
            continue
        per_rank: dict[int, dict] = {}
        stack = list(kids.get(step_span.id, []))
        while stack:
            s = stack.pop()
            stack.extend(kids.get(s.id, []))
            r = s.args.get("rank")
            if r is None:
                continue
            bucket = per_rank.setdefault(int(r), {"halo_s": 0.0, "compute_s": 0.0})
            if s.cat == "halo":
                bucket["halo_s"] += s.dur_s
            elif s.cat == "compute":
                bucket["compute_s"] += s.dur_s
        halo = sum(b["halo_s"] for b in per_rank.values())
        comp = sum(b["compute_s"] for b in per_rank.values())
        critical = max(
            per_rank,
            key=lambda r: per_rank[r]["halo_s"] + per_rank[r]["compute_s"],
            default=-1,
        )
        records.append(
            {
                "step": step_span.args.get("step", len(records)),
                "dur_s": step_span.dur_s,
                "per_rank": per_rank,
                "halo_s": halo,
                "compute_s": comp,
                "critical_rank": critical,
                "halo_fraction": halo / (halo + comp) if (halo + comp) > 0 else 0.0,
            }
        )
    records.sort(key=lambda r: r["step"])
    return records


def critical_path_table(records: list[dict]) -> str:
    """ASCII rendering of :func:`halo_compute_split` output."""
    from repro.perf.report import format_table  # deferred (import cycle, see export.py)

    if not records:
        return "(no newton.step spans with rank-tagged children)"
    rows = [
        [
            r["step"],
            f"{r['dur_s']:.4f}",
            f"{r['halo_s']:.4f}",
            f"{r['compute_s']:.4f}",
            f"{r['halo_fraction']:.1%}",
            r["critical_rank"],
        ]
        for r in records
    ]
    return format_table(
        ["step", "wall [s]", "halo [s]", "compute [s]", "halo share", "critical rank"],
        rows,
        title="Critical path: halo wait vs compute per Newton step",
    )
