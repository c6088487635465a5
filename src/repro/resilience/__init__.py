"""Resilience layer: post-run result validation.

Companion to :mod:`repro.congest.faults`.  The faults module breaks
the network; the ``validate_*`` functions and :class:`Verdict` here
re-check each faulted run independently and grade it ``correct`` /
``degraded(ratio)`` / ``failed`` for the E11 fault-tolerance tables.
"""

from .validators import (
    CORRECT,
    DEGRADED,
    FAILED,
    STALLED,
    Verdict,
    validate_framework,
    validate_independent_set,
    validate_matching,
)

__all__ = [
    "Verdict",
    "CORRECT",
    "DEGRADED",
    "FAILED",
    "STALLED",
    "validate_framework",
    "validate_independent_set",
    "validate_matching",
]
