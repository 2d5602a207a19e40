"""Detection guards: the boundaries where faults become observable.

Injection (or a real production fault) only matters once something
*notices*.  The solve stack detects at three boundaries, mirroring
where MALI/E3SM runs catch their failures:

* **payload checksums** on every halo message (:func:`payload_checksum`
  / :func:`verify_payload`) -- the receiver recomputes the sender's
  CRC32 over the raw bytes, so bit flips, drops and duplicates are all
  caught before corrupted ghosts reach the SpMV;
* **non-finite guards** at the assembly/Newton boundary
  (:func:`nonfinite_count`, read by ``newton_solve``) -- a NaN residual
  from a poisoned sweep (or a genuine viscosity blowup on thin ice) is
  reported with the step and phase it appeared in instead of
  propagating silently into norms;
* **linear-solve classification** (:func:`classify_gmres`) -- GMRES
  outcomes become an explicit flag (``converged`` / ``maxiter`` /
  ``stagnated`` / ``breakdown``) so callers stop inferring health from
  residual-history lengths.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.resilience.injectors import HaloCorruptionError

__all__ = [
    "payload_checksum",
    "verify_payload",
    "receive_verified",
    "nonfinite_count",
    "classify_gmres",
    "GMRES_FLAGS",
]


def payload_checksum(payload: np.ndarray) -> int:
    """CRC32 over the raw bytes of a halo payload (sender side)."""
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


def verify_payload(payload: np.ndarray, checksum: int) -> bool:
    """Receiver-side checksum verification of a (possibly corrupted) payload."""
    return payload_checksum(payload) == int(checksum)


def receive_verified(plane, fetch, meter, *, what: str, rank: int, src: int, **labels):
    """One halo message through the armed fault plane, checksum-verified.

    ``fetch()`` produces the sender's payload; the plane may corrupt it in
    flight.  On a CRC32 mismatch: log the detection, re-fetch and re-meter --
    re-posting a corrupted MPI receive -- and past the plane policy's retry
    budget raise :class:`HaloCorruptionError`.  Only a verified
    payload is returned, so corrupted ghosts never reach the caller.
    """
    policy, log = plane.policy, plane.log
    clean = fetch()
    expected = payload_checksum(clean)
    payload = plane.perturb("halo.payload", clean, rank=rank, src=src, **labels)
    attempt = 0
    while not verify_payload(payload, expected):
        attempt += 1
        log.record(
            "detection", "halo_checksum_mismatch", "halo.payload",
            rank=rank, src=src, **labels, attempt=attempt,
        )
        if attempt > policy.max_retries:
            raise HaloCorruptionError(
                f"{what} from rank {src} to rank {rank} failed "
                f"checksum verification {attempt} times"
            )
        meter.record("vector_gather", src, rank, clean.nbytes)
        meter.count_event("gather_retry")
        payload = plane.perturb(
            "halo.payload", fetch(), rank=rank, src=src, **labels, retry=attempt
        )
    if attempt > 0:
        log.record(
            "recovery", "halo_refetch", "halo.payload",
            rank=rank, src=src, **labels, attempts=attempt,
        )
    return payload


def nonfinite_count(arr: np.ndarray) -> int:
    """Number of NaN/Inf entries in an array (0 = healthy)."""
    return int(arr.size - np.count_nonzero(np.isfinite(arr)))


GMRES_FLAGS = ("converged", "maxiter", "stagnated", "breakdown")

#: a restart cycle that shrinks the residual by less than this factor is
#: treated as stagnant (the Krylov space is no longer making progress)
STAGNATION_RTOL = 0.99


def classify_gmres(
    converged: bool,
    breakdown: bool,
    cycle_reductions: list[float],
) -> str:
    """Classify a finished GMRES run into one of :data:`GMRES_FLAGS`.

    ``cycle_reductions`` holds, per restart cycle, the ratio of the true
    residual at cycle end to the residual at cycle start.  A run that
    exhausted its iteration budget while the last cycle barely moved is
    ``stagnated`` (restart escalation may still rescue it); one that was
    still reducing is plain ``maxiter``; an Arnoldi breakdown that did
    not reach tolerance is ``breakdown`` (the subspace is exhausted --
    retrying at the same size cannot help).
    """
    if converged:
        return "converged"
    if breakdown:
        return "breakdown"
    if cycle_reductions and cycle_reductions[-1] >= STAGNATION_RTOL:
        return "stagnated"
    return "maxiter"
