"""Restarted GMRES with right preconditioning (Saad & Schultz).

Arnoldi with Givens-rotation updates of the least-squares problem;
right preconditioning keeps the monitored residual equal to the true
residual of ``A x = b``.

Orthogonalization is modified Gram-Schmidt, one dot and one axpy pass
per basis column -- the bitwise-stable recurrence the golden
trajectories pin (DESIGN.md section 7 records why it is the only one).

The solver also *measures* its modeled HBM traffic: every matvec is
priced by the operator itself (``bytes_per_matvec``: CSR SpMV or
element-block apply, see :mod:`repro.gpusim.solver_bytes`), every
orthogonalization pass at the Krylov depth it actually ran at, and the
totals land both in the returned
:class:`GmresResult` and in the ``gmres.matvec.bytes.<mode>`` /
``gmres.stream.bytes.<mode>`` metrics counters.  Preconditioner
applications are not priced here (they are identical in both operator
modes and are modeled by their own components).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim import solver_bytes as _bytes
from repro.observability import get_metrics, get_series, get_tracer
from repro.resilience.detectors import classify_gmres
from repro.verify.sanitizer import sanitizer

__all__ = ["GmresResult", "gmres"]

# disarmed fast path: one attribute read per instrumented site
_SAN = sanitizer()

_FLAG_REASONS = {
    "converged": "relative residual reached tolerance",
    "maxiter": "iteration budget exhausted while still reducing the residual",
    "stagnated": "iteration budget exhausted with a stagnant last restart cycle",
    "breakdown": "Arnoldi breakdown: Krylov subspace exhausted short of tolerance",
}


@dataclass
class GmresResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list[float]
    #: outcome classification: ``converged`` | ``maxiter`` | ``stagnated``
    #: | ``breakdown`` -- callers branch on this, never on the length of
    #: ``residual_norms`` (see repro.resilience.detectors.classify_gmres)
    flag: str = "converged"
    #: operator applications actually performed (initial residual when
    #: ``x0`` is given, one per inner iteration, one true-residual check
    #: per cycle).  Never exceeds ``maxiter``: the final cycle's Krylov
    #: dimension is clamped to leave room for its closing matvec.
    matvecs: int = 0
    #: ``A.operator_mode``: ``assembled`` | ``matrix-free``
    operator_mode: str = ""
    #: modeled HBM bytes moved by the ``matvecs`` operator applications
    matvec_bytes: float = 0.0
    #: modeled HBM bytes of the GMRES vector work (orthogonalization,
    #: basis writes, cycle-closing updates) at the depths actually run
    stream_bytes: float = 0.0

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1]

    @property
    def reason(self) -> str:
        """Human-readable description of :attr:`flag`."""
        return _FLAG_REASONS.get(self.flag, self.flag)


#: Krylov rows a cycle allocates up front; Newton's cycles converge 8-9
#: deep, so ``restart`` (300 there) rows would be almost all untouched
_FIRST_ROWS = 16


def _workspace(rows: int, n: int) -> np.ndarray:
    """Uninitialised Krylov storage (tests hand back NaN here instead)."""
    return np.empty((rows, n))


def _grown(W: np.ndarray, limit: int) -> np.ndarray:
    """``W`` with twice the rows (at most ``limit``), its rows carried over:
    a cycle's storage grows with the depth it actually runs."""
    out = _workspace(min(2 * len(W), limit), W.shape[1])
    out[: len(W)] = W
    return out


def gmres(
    A,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1.0e-6,
    restart: int = 50,
    maxiter: int = 500,
    M=None,
    dot=None,
    norm=None,
    deadline=None,
) -> GmresResult:
    """Solve ``A x = b`` with restarted right-preconditioned GMRES.

    Parameters
    ----------
    A:
        An operator: ``matvec`` plus the protocol members
        ``operator_mode``, ``bytes_per_matvec`` and ``flops_per_matvec``
        (:class:`~repro.fem.sparse.CsrMatrix`, the distributed matrix,
        the matrix-free Jacobian).
    M:
        Right preconditioner with ``apply(r) -> ~A^-1 r`` (optional).
    tol:
        Relative residual tolerance ``||b - A x|| <= tol * ||b||``.
    restart:
        Krylov dimension per cycle.
    maxiter:
        Total **matvec** budget across restarts, honored exactly: the
        last cycle's Krylov dimension is clamped so that its inner
        matvecs plus the closing true-residual matvec stay within
        budget (``GmresResult.matvecs <= maxiter`` always).
    dot, norm:
        Inner product and 2-norm implementations (default ``np.dot`` /
        ``np.linalg.norm``).  A distributed run passes partitioned
        reductions here (e.g. :class:`repro.solvers.reductions.
        BlockReducer`) so the Arnoldi recurrence runs on rank-local
        partial sums combined in a decomposition-independent order.
    deadline:
        Optional :class:`repro.resilience.Deadline`.  Checked at every
        cycle start and inner iteration; expiry raises a typed
        :class:`repro.resilience.SolveTimeout` (the caller -- usually
        ``newton_solve`` -- attaches its last checkpoint).  Checks only
        read the clock, so a solve that finishes within budget is
        bitwise equal to one run without a deadline.
    """
    matvec = A.matvec
    if dot is None:
        dot = np.dot
    if norm is None:
        norm = np.linalg.norm
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    precond = (lambda r: r) if M is None else M.apply

    op_mode, apply_bytes, apply_flops = A.operator_mode, A.bytes_per_matvec, A.flops_per_matvec
    nmv = 0
    stream_bytes = 0.0
    stream_flops = 0.0

    def _finish(res: GmresResult) -> GmresResult:
        res.matvecs = nmv
        res.operator_mode = op_mode
        res.matvec_bytes = nmv * apply_bytes
        res.stream_bytes = stream_bytes
        metrics = get_metrics()
        metrics.counter("gmres.matvecs").inc(nmv)
        metrics.counter(f"gmres.matvec.bytes.{op_mode}").inc(res.matvec_bytes)
        metrics.counter(f"gmres.stream.bytes.{op_mode}").inc(stream_bytes)
        return res

    bnorm = norm(b)
    if bnorm == 0.0:
        return _finish(GmresResult(np.zeros(n), True, 0, [0.0], flag="converged"))
    target = tol * bnorm

    if x0 is None:
        # the initial residual at x = 0 is b exactly; spending a matvec
        # on A @ 0 would bill the budget (and the byte model) for work
        # with a bitwise-guaranteed answer
        r = b.copy()
    else:
        r = b - matvec(x)
        nmv += 1
    rnorm = norm(r)
    norms = [float(rnorm)]
    total_it = 0
    breakdown = False
    #: per-cycle true-residual reduction factors (stagnation classifier)
    cycle_reductions: list[float] = []
    tr = get_tracer()
    series = get_series()
    it_counter = get_metrics().counter("gmres.iterations")

    cycle = 0
    while rnorm > target and not breakdown:
        # clamp the final cycle: its inner matvecs plus the closing
        # true-residual matvec must fit the remaining budget.  (The old
        # accounting clamped inner iterations only, so a final partial
        # cycle could overrun ``maxiter`` by up to ``restart - 1``
        # matvecs once the initial and per-cycle closing applications
        # were counted.)
        m = min(restart, maxiter - nmv - 1)
        if m <= 0:
            break
        if deadline is not None:
            deadline.check(f"gmres cycle {cycle}")
        rnorm_cycle_start = rnorm
        nmv_cycle0, stream_cycle0, flops_cycle0 = nmv, stream_bytes, stream_flops
        with tr.span("gmres.cycle", cycle=cycle, krylov_dim=m) as cycle_span:
            # V and Z rows are written before read, and the storage grows
            # only when the cycle runs deeper than it
            V = _workspace(min(m + 1, _FIRST_ROWS), n)
            Z = _workspace(min(m, _FIRST_ROWS), n)  # preconditioned directions (flexible storage)
            H = np.zeros(shape=(m + 1, m))
            cs = np.zeros(m)
            sn = np.zeros(m)
            g = np.zeros(m + 1)
            V[0] = r / rnorm
            g[0] = rnorm

            k_used = 0
            for k in range(m):
                if deadline is not None:
                    deadline.check(f"gmres cycle {cycle} it {total_it}")
                with tr.span("gmres.iteration", it=total_it):
                    if k == len(Z):
                        Z = _grown(Z, m)
                    Z[k] = precond(V[k])
                    w = matvec(Z[k])
                    nmv += 1
                    if _SAN.active:
                        _SAN.check("gmres.matvec", w, Z[k], site=f"cycle {cycle} k={k}")
                    if _SAN.active:
                        _wnorm0 = norm(w)
                    # modified Gram-Schmidt: one dot + one axpy pass
                    # per column (the k-fold re-stream of the basis)
                    for i in range(k + 1):
                        H[i, k] = dot(w, V[i])
                        w -= H[i, k] * V[i]
                    H[k + 1, k] = norm(w)
                    if _SAN.active:
                        # the orthogonalized remainder collapsing
                        # relative to the pre-MGS norm is the classic
                        # loss-of-orthogonality cancellation
                        _SAN.check_cancellation(
                            "gmres.mgs", _wnorm0, _wnorm0, H[k + 1, k],
                            site=f"cycle {cycle} k={k}",
                        )
                    stream_bytes += _bytes.mgs_orth_bytes(n, k + 1)
                    stream_flops += _bytes.mgs_orth_flops(n, k + 1)
                    if H[k + 1, k] > 1.0e-14 * max(1.0, abs(H[k, k])):
                        if k + 1 == len(V):
                            V = _grown(V, m + 1)
                        V[k + 1] = w / H[k + 1, k]
                    else:
                        # lucky breakdown: the Krylov subspace is
                        # (preconditioned-) A-invariant, so the
                        # least-squares solution over it is the best GMRES
                        # can ever reach from this right-hand side --
                        # iterating further would orthogonalize against
                        # zero vectors and waste matvecs.  Finish this
                        # column's rotations, solve, and stop.
                        breakdown = True

                    # apply stored Givens rotations to the new column
                    for i in range(k):
                        t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                        H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                        H[i, k] = t
                    # new rotation to annihilate H[k+1, k]
                    denom = np.hypot(H[k, k], H[k + 1, k])
                    if denom == 0.0:
                        cs[k], sn[k] = 1.0, 0.0
                    else:
                        cs[k], sn[k] = H[k, k] / denom, H[k + 1, k] / denom
                    H[k, k] = denom
                    H[k + 1, k] = 0.0
                    g[k + 1] = -sn[k] * g[k]
                    g[k] = cs[k] * g[k]

                    total_it += 1
                    it_counter.inc()
                    k_used = k + 1
                    rnorm = abs(g[k + 1])
                    norms.append(float(rnorm))
                    series.record("gmres.residual", float(rnorm), mode=op_mode)
                if rnorm <= target or breakdown:
                    break

            # solve the small triangular system and update x; diagonal
            # entries at rounding level (singular projection after a
            # breakdown on a singular operator) contribute nothing and
            # would otherwise blow up the back-substitution
            y = np.zeros(k_used)
            hmax = np.max(np.abs(np.diagonal(H)[:k_used])) if k_used else 0.0
            for i in range(k_used - 1, -1, -1):
                if abs(H[i, i]) <= 1.0e-12 * hmax:
                    y[i] = 0.0
                    continue
                y[i] = (g[i] - H[i, i + 1 : k_used] @ y[i + 1 : k_used]) / H[i, i]
            x = x + Z[:k_used].T @ y

            r = b - matvec(x)
            nmv += 1
            rnorm = norm(r)
            stream_bytes += _bytes.cycle_close_bytes(n, k_used)
            stream_flops += _bytes.cycle_close_flops(n, k_used)
            if _SAN.active:
                _SAN.check("gmres.residual_norm", rnorm, site=f"cycle {cycle}")
            norms[-1] = float(rnorm)  # replace estimate with true residual
            if rnorm_cycle_start > 0.0:
                cycle_reductions.append(float(rnorm / rnorm_cycle_start))
            if tr.recording:
                # per-cycle traffic deltas for roofline attribution: the
                # cycle span carries exactly the bytes/flops it moved
                mv_cycle = nmv - nmv_cycle0
                cycle_span.args.update(
                    matvec_bytes=mv_cycle * apply_bytes,
                    stream_bytes=stream_bytes - stream_cycle0,
                    flops=mv_cycle * apply_flops + (stream_flops - flops_cycle0),
                    operator_mode=op_mode,
                )
        cycle += 1

    converged = bool(rnorm <= target)
    flag = classify_gmres(converged, breakdown, cycle_reductions)
    return _finish(GmresResult(x, converged, total_it, norms, flag=flag))
