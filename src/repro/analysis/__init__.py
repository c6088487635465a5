"""Reporting helpers for the benchmark harness."""

from .reporting import Table

__all__ = ["Table"]
