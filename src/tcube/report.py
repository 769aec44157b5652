"""Pass/fail records shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .linalg import ExactMatrix, first_discrepancy


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    passed: bool
    first_discrepancy: Optional[Tuple[int, int]] = None


def check_equal(name: str, lhs: ExactMatrix, rhs: ExactMatrix) -> IdentityCheck:
    if lhs == rhs:
        return IdentityCheck(name, True)
    return IdentityCheck(name, False, first_discrepancy(lhs, rhs))


def check_true(name: str, ok: bool) -> IdentityCheck:
    return IdentityCheck(name, bool(ok))


def all_passed(checks) -> bool:
    return all(c.passed for c in checks)
