"""The traced pass: timing wrappers installed on the program from outside.

``Recorder.install()`` replaces the public callables named in
:data:`TARGETS` with wrappers that record in-memory spans; ``uninstall()``
puts the originals back, so the untimed pass runs the program untouched.
Class methods are patched on the class; module-level functions are
patched *at the binding their caller uses* (``repro.solvers.newton.gmres``
is the name ``newton_solve`` calls -- patching ``repro.solvers.gmres.gmres``
alone would never fire).  The program's own tracer stays off.

A span is ``[name, start, end, parent, op, key]`` in a per-thread list
(``parent`` indexes that list, so no lock sits on the hot path).  A
layer's *self time* is its span's duration minus the part its direct
children cover; children are properly nested calls on the same thread,
so the cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["TARGETS", "Recorder", "Target", "ROOT"]

#: name of the span the benchmark opens around each sequential operation
ROOT = "bench.op"

_GMRES = "solvers.gmres"

clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One callable to wrap: where it is bound and the span it records."""

    module: str
    owner: str | None  # class name, or None for a module-level binding
    attr: str
    span: str
    #: record only when the enclosing span has this name (a matvec is a
    #: ``fem.matvec`` layer span when GMRES calls it; inside the V-cycle
    #: it is part of ``solvers.mdsc_apply``'s self time)
    only_under: str | None = None
    #: name suffix chosen per call from the positional arguments
    suffix: object = None
    #: value read from the positional arguments per call: a correlation
    #: key (serve) or a number to sum (modeled bytes of a V-cycle)
    key: object = None
    #: a call at stack depth 0 starts a new operation on this thread
    #: (serve workers: one ``ArtifactCache.get`` per executed request)
    opens_op: bool = False


def _jac_or_res(args) -> str:
    return "_jacobian" if args[1].is_jacobian else "_residual"


def _scenario_digest(args) -> str:
    return args[1].digest


def _request_digest(args) -> str:
    return args[1].scenario.digest


def _apply_bytes(args) -> float:
    return args[0].bytes_per_apply


_EV = "repro.physics.evaluators"
_VS = "repro.app.velocity_solver"
_MG = "repro.solvers.multigrid"
_DIST = "repro.fem.distributed"

TARGETS: tuple[Target, ...] = (
    # build
    Target("repro.app.antarctica", "AntarcticaTest", "build", "app.build"),
    Target("repro.app.antarctica", None, "extrude_footprint", "mesh.extrude"),
    Target("repro.fem.assembly", "AssemblyPlan", "__init__", "fem.plan"),
    # SPMD
    Target(_VS, None, "partition_footprint", "mesh.partition"),
    Target("repro.mesh.partition", "HaloExchange", "gather", "mesh.halo"),
    Target("repro.mesh.partition", "HaloExchange", "scatter_add", "mesh.halo"),
    Target(_DIST, "DistributedStokesAssembly", "record_ghost_refresh", "mesh.halo"),
    Target(_DIST, "DistributedStokesAssembly", "assemble_residual", "fem.dist_assemble"),
    Target(_DIST, "DistributedStokesAssembly", "assemble_jacobian", "fem.dist_assemble"),
    # evaluator DAG
    Target(_EV, "FieldManager", "evaluate", "physics.sweep"),
    Target(_EV, "DOFVecGradInterpolation", "evaluate", "physics.grad_interp"),
    Target(_EV, "ViscosityFOEvaluator", "evaluate", "physics.viscosity"),
    Target(_EV, "BasalFrictionResidEvaluator", "evaluate", "physics.basal"),
    Target(_EV, "StokesFOResidEvaluator", "evaluate", "core.stokes_resid", suffix=_jac_or_res),
    # operator
    Target("repro.fem.assembly", "AssemblyPlan", "assemble_matrix", "fem.assemble_matrix"),
    Target("repro.fem.assembly", "AssemblyPlan", "assemble_vector", "fem.assemble_vector"),
    Target("repro.fem.assembly", "AssemblyPlan", "matrix_free_operator", "fem.matfree_setup"),
    Target("repro.fem.sparse", "CsrMatrix", "matvec", "fem.matvec", only_under=_GMRES),
    Target("repro.fem.matfree", "MatrixFreeJacobian", "matvec", "fem.matvec", only_under=_GMRES),
    Target(_DIST, "DistributedMatrix", "matvec", "fem.matvec", only_under=_GMRES),
    # solvers
    Target("repro.solvers.newton", None, "gmres", _GMRES),
    Target(_MG, "ColumnCollapseMdsc", "__init__", "solvers.mdsc_setup"),
    Target(_MG, "MatrixFreeColumnCollapseMdsc", "__init__", "solvers.mdsc_setup"),
    Target(_MG, "ColumnCollapseMdsc", "apply", "solvers.mdsc_apply", key=_apply_bytes),
    Target(_MG, "MatrixFreeColumnCollapseMdsc", "apply", "solvers.mdsc_apply", key=_apply_bytes),
    Target(_VS, None, "newton_solve", "solvers.newton"),
    Target(_VS, "StokesVelocityProblem", "solve", "app.solve"),
    # transient
    Target(_VS, "StokesVelocityProblem", "refresh_geometry", "app.refresh_geometry"),
    Target("repro.mesh.extrude", "ExtrudedMesh", "update_columns", "mesh.update_columns"),
    Target("repro.physics.thickness", "ThicknessEvolver", "step", "physics.thickness_step"),
    Target("repro.transient.particles", "ParticleSet", "advect", "transient.particles"),
    Target("repro.transient.checkpoint", "TransientCheckpoint", "save", "transient.checkpoint"),
    # serve
    Target(
        "repro.serve.cache", "ArtifactCache", "get", "serve.cache_get",
        key=_scenario_digest, opens_op=True,
    ),
    Target("repro.serve.service", "SolveService", "submit", "serve.submit", key=_request_digest),
)


class _ThreadState(threading.local):
    """Per-thread span list, open-span stack and current operation id."""

    def __init__(self):
        self.spans: list | None = None
        self.stack: list[int] = []
        self.op = None
        self.ops_opened = 0


class Recorder:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self):
        self._state = _ThreadState()
        self._lock = threading.Lock()
        #: thread ident -> that thread's span list
        self.threads: dict[int, list] = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _spans(self, st: _ThreadState) -> list:
        spans = st.spans
        if spans is None:
            spans = st.spans = []
            with self._lock:
                self.threads[threading.get_ident()] = spans
        return spans

    def _wrap(self, fn, target: Target):
        state = self._state
        name, only_under, suffix, keyfn = target.span, target.only_under, target.suffix, target.key
        opens_op = target.opens_op

        if inspect.iscoroutinefunction(fn):
            # coroutines interleave on the loop thread, so they cannot
            # share its stack: each call is a parentless span keyed for
            # correlation with the worker-thread spans it caused
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._spans(state).append(
                        [name, t0, clock(), -1, None, keyfn(args) if keyfn else None]
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state
            stack = st.stack
            spans = st.spans
            if spans is None:
                spans = self._spans(st)
            if only_under is not None and (not stack or spans[stack[-1]][0] != only_under):
                return fn(*args, **kwargs)
            if opens_op and not stack:
                st.ops_opened += 1
                st.op = (threading.get_ident(), st.ops_opened)
            span = [
                name + suffix(args) if suffix else name,
                0.0,
                0.0,
                stack[-1] if stack else -1,
                st.op,
                keyfn(args) if keyfn else None,
            ]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def op(self, op_id):
        """Root span around one sequential operation on this thread."""
        st = self._state
        spans = self._spans(st)
        span = [ROOT, 0.0, 0.0, -1, op_id, None]
        st.op = op_id
        st.stack.append(len(spans))
        spans.append(span)
        span[1] = clock()
        try:
            yield
        finally:
            span[2] = clock()
            st.stack.pop()
            st.op = None

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("wrappers already installed")
        for t in TARGETS:
            holder = importlib.import_module(t.module)
            if t.owner is not None:
                holder = getattr(holder, t.owner)
            raw = holder.__dict__[t.attr] if t.owner is not None else getattr(holder, t.attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, t))
            else:
                new = self._wrap(raw, t)
            self._originals.append((holder, t.attr, raw))
            setattr(holder, t.attr, new)

    def uninstall(self) -> None:
        while self._originals:
            holder, attr, raw = self._originals.pop()
            setattr(holder, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------
    def rows(self) -> list[tuple]:
        """Every span as ``(name, start, end, parent, op, thread, key)``.

        ``parent`` is the row index of the enclosing span, or -1.
        """
        out = []
        for tid, spans in sorted(self.threads.items()):
            base = len(out)
            for name, t0, t1, parent, op, key in spans:
                out.append((name, t0, t1, base + parent if parent >= 0 else -1, op, tid, key))
        return out

    def self_times(self) -> list[tuple]:
        """``(name, op, thread, key, start, duration, self_time, parent)`` per span."""
        rows = self.rows()
        cover = [0.0] * len(rows)
        for name, t0, t1, parent, *_ in rows:
            if parent >= 0:
                cover[parent] += t1 - t0
        return [
            (name, op, tid, key, t0, t1 - t0, (t1 - t0) - cover[i], parent)
            for i, (name, t0, t1, parent, op, tid, key) in enumerate(rows)
        ]

    def by_op(self) -> dict:
        """``op -> span name -> [inclusive s, self s, calls, keysum]``.

        Inclusive time counts outermost spans of a name only, so a
        recursive or re-entered layer is not counted twice.  ``keysum``
        adds up the numeric per-call values (strings are correlation
        keys and are skipped).
        """
        rows = self.self_times()
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0, 0.0]))
        for name, op, _tid, key, _t0, dur, self_s, parent in rows:
            cell = out[op][name]
            p = parent
            while p >= 0 and rows[p][0] != name:
                p = rows[p][7]
            if p < 0:
                cell[0] += dur
            cell[1] += self_s
            cell[2] += 1
            if isinstance(key, (int, float)):
                cell[3] += key
        return out
