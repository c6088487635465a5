"""Exception hierarchy for the ``repro`` library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the failure domains below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Structural misuse of a :class:`repro.graph.Graph`.

    Raised for missing vertices/edges, self loops, and malformed inputs
    to graph constructors.
    """


class MessageTooLargeError(ReproError):
    """A CONGEST message exceeded the per-message bit budget.

    The CONGEST model caps each message at ``O(log n)`` bits.  The
    simulator measures every message and raises this error when an
    algorithm tries to exceed its configured budget, which is how the
    library *enforces* (rather than merely asserts) the paper's model
    assumptions.
    """

    def __init__(self, bits: int, budget: int, detail: str = "") -> None:
        self.bits = bits
        self.budget = budget
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"message of {bits} bits exceeds the CONGEST budget of "
            f"{budget} bits{suffix}"
        )


class ProtocolError(ReproError):
    """A vertex algorithm violated the simulator's contract.

    Examples: sending to a non-neighbor, producing output before
    halting, or sending more messages per edge than the configured
    capacity in strict mode.
    """


class DecompositionError(ReproError):
    """A decomposition routine could not satisfy its guarantees.

    Raised when an (epsilon, phi) expander decomposition or a
    low-diameter decomposition cannot meet its edge budget or
    conductance certificate on the given input.
    """


class RoutingError(ReproError):
    """Expander routing failed to deliver messages.

    Mirrors the failure semantics of Section 2.3 of the paper: a failed
    routing execution is detected (by reversing the route) and surfaced
    so that callers such as the property tester can react to it.
    """


class SolverError(ReproError):
    """An exact combinatorial solver was used outside its valid range."""


class SolverBudgetError(SolverError):
    """An exact branch and bound exhausted its node budget.

    The only failure the leaders' solvers (``solve_mds``,
    ``solve_maxis``) answer with their heuristic fallback.  Any other
    :class:`SolverError` — an internal check finding a non-dominating
    or dependent set — propagates, so a broken exact solver cannot hide
    behind the fallback.
    """


class FaultError(ReproError):
    """A fault-injection plan is malformed or misapplied.

    Raised when a :class:`repro.congest.faults.FaultPlan` carries
    invalid parameters (rates outside [0, 1], rates summing past 1,
    non-positive failure windows) or is applied in a way the fault
    model forbids.  Faults themselves never raise — an injected drop,
    duplicate, corruption, or crash is a *simulated* event, recorded in
    the metrics and trace rather than surfaced as an exception.
    """


class StorageError(ReproError):
    """A durable I/O operation failed after bounded retries.

    Raised by :mod:`repro.storage` when an atomic write, append, or
    read cannot complete — including injected faults from a
    :class:`repro.storage.DiskFaultPlan` (ENOSPC, torn writes) that
    exhaust the retry budget.  Consumers either degrade explicitly
    (the artifact cache falls back to recompute) or propagate loudly
    (journals and checkpoints), but never silently lose data.
    """


class ChecksumError(StorageError):
    """Framed bytes or a sealed JSONL record failed checksum verification.

    Raised when the blake2b digest embedded in a storage frame or a
    record's ``"cs"`` field does not match the payload — evidence of a
    torn write, a bit-flip, or manual tampering.  Readers of durable
    formats treat this as *corrupt*, which means loud recovery
    (recompute, skip-and-count) instead of deserializing garbage.
    """


class JournalError(StorageError):
    """A run journal is unusable for the resume that was requested.

    Raised when ``--resume`` points at a journal whose header is
    unreadable or fails checksum verification: resuming from it could
    silently replay the wrong run, so the CLI stops with exit code 2
    instead.  A journal whose header merely *mismatches* the current
    run fingerprint is not an error — that is a fresh-start, because
    the caller asked for a different experiment.
    """


class CheckpointError(ReproError):
    """A simulation checkpoint could not be captured, loaded, or resumed.

    Raised for schema mismatches, truncated or malformed checkpoint
    files, and resume attempts against a different graph or simulator
    configuration than the one the checkpoint was captured from.  The
    bit-identical-resume guarantee only holds when the resumed world
    matches the captured one, so mismatches fail loudly instead of
    silently diverging.
    """


class CrashedVertexError(FaultError):
    """The output of a crashed vertex was read as if it were valid.

    A vertex crashed by a fault plan halts with no output; reading its
    "result" through :meth:`SimulationResult.output_of` would silently
    treat ``None`` as a computed answer.  This error makes that misuse
    loud, which is how faulted experiments stay "correct / degraded /
    failed" instead of silently wrong.
    """
