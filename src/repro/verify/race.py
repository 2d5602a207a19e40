"""Race and determinism checking for ``parallel_for`` kernel bodies.

Kokkos semantics promise nothing about the order in which a
``parallel_for``'s iterations run, and on a GPU they genuinely run
concurrently: a body is only correct if distinct iteration indices
never touch the same memory non-atomically.  The paper's optimizations
(fusion, local accumulation, hoisted branches) all rewrite kernel
bodies, so every rewrite needs a mechanical proof that it stayed
order-independent.  This module provides two complementary proofs:

1. **Write-set analysis** (:func:`record_access_sets`): run the body
   per-index (the ``HostSerial`` reference semantics) with every View
   replaced by a recording shim, collect the set of (view, slot) pairs
   each iteration reads and writes, and flag any slot written by two
   different iterations (write-write race) or written by one and read
   by another (read-write race).  This is the Python analogue of what
   a GPU sanitizer (``compute-sanitizer --tool racecheck``) reports.

2. **Order permutation** (:func:`check_order_independence`): execute
   the body under identity, reversed, strided and seeded-random
   iteration orders and demand *bitwise identical* outputs.  Races the
   write-set analysis can represent (read-modify-write of shared slots)
   show up here as first-divergence reports; it also catches
   order-dependence smuggled in through scalar state the shim cannot
   see.

Both proofs drive the same functor factory the production dispatch
uses, so the body under test is the body that ships.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kokkos.view import View
from repro.verify.compare import Divergence, first_divergence

__all__ = [
    "AccessRecorder",
    "RecordingView",
    "ShadowFields",
    "RaceFinding",
    "RaceReport",
    "record_access_sets",
    "iteration_orders",
    "check_order_independence",
    "RaceChecker",
]


def _normalize_slot(view: View, idx) -> tuple:
    """A hashable slot key for one scalar access.

    Per-index execution gives concrete integer indices; anything else
    (slices, arrays) means the body was not run under reference
    semantics and the write-set would be meaningless.
    """
    if not isinstance(idx, tuple):
        idx = (idx,)
    slot = []
    for i in idx:
        if isinstance(i, (int, np.integer)):
            slot.append(int(i))
        else:
            raise TypeError(
                f"view {view.name!r}: non-integer index {i!r}; the race "
                "checker runs kernel bodies per iteration index "
                "(HostSerial semantics), not vectorized"
            )
    return tuple(slot)


@dataclass
class AccessRecorder:
    """Per-iteration read/write sets over all instrumented views."""

    #: (view, slot) -> sorted unique iteration ids that wrote it
    writes: dict = field(default_factory=dict)
    #: (view, slot) -> set of iteration ids that read it
    reads: dict = field(default_factory=dict)
    iteration: int = -1

    def record_read(self, view: View, idx) -> None:
        key = (view.name, _normalize_slot(view, idx))
        self.reads.setdefault(key, set()).add(self.iteration)

    def record_write(self, view: View, idx) -> None:
        key = (view.name, _normalize_slot(view, idx))
        self.writes.setdefault(key, []).append(self.iteration)


class RecordingView:
    """View shim: forwards storage access, records (slot, iteration)."""

    def __init__(self, recorder: AccessRecorder, view: View):
        self._recorder = recorder
        self._view = view
        self.name = view.name
        self.shape = view.shape
        self.scalar = view.scalar

    @property
    def data(self):
        return self._view.data

    def values(self):
        return self._view.values()

    def __getitem__(self, idx):
        self._recorder.record_read(self._view, idx)
        return self._view[idx]

    def __setitem__(self, idx, value):
        self._recorder.record_write(self._view, idx)
        self._view[idx] = value


class ShadowFields:
    """Field-container proxy exposing recording views.

    Kernel functors take a fields bundle and pull named views off it in
    their constructors; this proxy forwards everything and wraps any
    :class:`View` attribute in a :class:`RecordingView`, so the
    unmodified production functor records its own access program.
    """

    def __init__(self, fields, recorder: AccessRecorder):
        self._fields = fields
        self._recorder = recorder
        self._wrapped: dict[str, RecordingView] = {}

    def __getattr__(self, name):
        value = getattr(self._fields, name)
        if isinstance(value, View):
            shim = self._wrapped.get(name)
            if shim is None:
                shim = RecordingView(self._recorder, value)
                self._wrapped[name] = shim
            return shim
        return value


@dataclass(frozen=True)
class RaceFinding:
    """One slot touched conflictingly by distinct iteration indices."""

    view: str
    slot: tuple
    kind: str  # "write-write" | "read-write"
    iterations: tuple  # offending iteration ids (truncated sample)

    def describe(self) -> str:
        its = ", ".join(map(str, self.iterations))
        return f"{self.kind} race on {self.view}[{','.join(map(str, self.slot))}] between iterations {{{its}}}"


@dataclass
class RaceReport:
    """Combined write-set and order-permutation verdict for one kernel."""

    name: str
    extent: int
    findings: list[RaceFinding] = field(default_factory=list)
    order_divergences: list[tuple[str, Divergence]] = field(default_factory=list)
    orders_checked: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.findings and not self.order_divergences

    def describe(self) -> str:
        if self.passed:
            return (
                f"{self.name}: race-free over {self.extent} iterations; "
                f"bitwise order-independent under {', '.join(self.orders_checked)}"
            )
        lines = [f"{self.name}: {len(self.findings)} race finding(s), "
                 f"{len(self.order_divergences)} order divergence(s)"]
        lines += [f"  {f.describe()}" for f in self.findings[:8]]
        if len(self.findings) > 8:
            lines.append(f"  ... {len(self.findings) - 8} more")
        lines += [f"  order {o!r}: {d.describe()}" for o, d in self.order_divergences]
        return "\n".join(lines)


def record_access_sets(make_functor, fields, extent: int) -> AccessRecorder:
    """Run the body per index over recording views; return the recorder."""
    recorder = AccessRecorder()
    functor = make_functor(ShadowFields(fields, recorder))
    for i in range(extent):
        recorder.iteration = i
        functor(i)
    return recorder


#: findings past this many add nothing a report reader can use
_MAX_FINDINGS = 64


def find_races(recorder: AccessRecorder) -> list[RaceFinding]:
    """Conflicting slots: multi-writer, or written-here-read-elsewhere."""
    findings: list[RaceFinding] = []
    for (view, slot), writers in recorder.writes.items():
        distinct_writers = sorted(set(writers))
        if len(distinct_writers) > 1:
            findings.append(
                RaceFinding(view, slot, "write-write", tuple(distinct_writers[:6]))
            )
        foreign_readers = sorted(
            recorder.reads.get((view, slot), set()) - set(distinct_writers)
        )
        if foreign_readers and distinct_writers:
            findings.append(
                RaceFinding(
                    view, slot, "read-write",
                    tuple(distinct_writers[:3] + foreign_readers[:3]),
                )
            )
        if len(findings) >= _MAX_FINDINGS:
            break
    return findings


def iteration_orders(extent: int, seed: int = 0) -> dict[str, np.ndarray]:
    """The permuted/reversed/strided schedules order-independence demands."""
    identity = np.arange(extent)
    strided = np.concatenate([identity[0::2], identity[1::2]])
    permuted = np.random.default_rng(seed).permutation(extent)
    return {
        "identity": identity,
        "reversed": identity[::-1],
        "strided": strided,
        "permuted": permuted,
    }


def _output_arrays(fields, outputs) -> dict[str, np.ndarray]:
    """Snapshot the named output views (values + Fad derivatives)."""
    named = {}
    if outputs is None:
        views = fields.output_views()
    else:
        views = [getattr(fields, name) for name in outputs]
    for v in views:
        named[f"{v.name}.values"] = np.array(v.values(), copy=True)
        data = v.data
        if hasattr(data, "dx"):
            named[f"{v.name}.dx"] = np.array(data.dx, copy=True)
    return named


def check_order_independence(
    make_functor,
    fields_factory,
    extent: int | None = None,
    outputs=None,
    seed: int = 0,
) -> tuple[list[tuple[str, Divergence]], tuple[str, ...]]:
    """Run the body under each iteration order; demand bitwise equality.

    Returns ``(divergences, order_names)`` where each divergence pairs
    the offending order name with its first-divergence context against
    the identity-order reference.
    """
    reference: dict[str, np.ndarray] | None = None
    divergences: list[tuple[str, Divergence]] = []
    ref_fields = fields_factory()
    n = extent if extent is not None else ref_fields.num_cells
    orders = iteration_orders(n, seed=seed)
    functor = make_functor(ref_fields)
    for i in orders["identity"]:
        functor(int(i))
    reference = _output_arrays(ref_fields, outputs)

    for order_name, order in orders.items():
        if order_name == "identity":
            continue
        fields = fields_factory()
        functor = make_functor(fields)
        for i in order:
            functor(int(i))
        for name, arr in _output_arrays(fields, outputs).items():
            div = first_divergence(name, arr, reference[name])
            if div is not None:
                divergences.append((order_name, div))
                break  # first divergence per order is enough context
    return divergences, tuple(orders)


class RaceChecker:
    """Both proofs for one kernel body.

    Parameters
    ----------
    name:
        Display name for the report (kernel label).
    make_functor:
        ``fields -> functor`` -- the production factory
        (e.g. ``variant.make_functor``).
    fields_factory:
        Zero-argument callable building identically-initialized fields;
        called once per execution so every order starts from the same
        bits.
    extent:
        Iteration count (default: ``fields.num_cells``).
    outputs:
        Names of output views to compare (default: the container's
        ``output_views()``).
    """

    def __init__(self, name, make_functor, fields_factory, extent=None, outputs=None, seed=0):
        self.name = name
        self.make_functor = make_functor
        self.fields_factory = fields_factory
        self.extent = extent
        self.outputs = outputs
        self.seed = seed

    def check(self) -> RaceReport:
        fields = self.fields_factory()
        extent = self.extent if self.extent is not None else fields.num_cells
        recorder = record_access_sets(self.make_functor, fields, extent)
        findings = find_races(recorder)
        divergences, order_names = check_order_independence(
            self.make_functor,
            self.fields_factory,
            extent=extent,
            outputs=self.outputs,
            seed=self.seed,
        )
        return RaceReport(
            name=self.name,
            extent=extent,
            findings=findings,
            order_divergences=divergences,
            orders_checked=order_names,
        )
