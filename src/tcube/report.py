"""Pass/fail records shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class IdentityCheck:
    identity: str
    passed: bool
    first_discrepancy: Optional[Tuple[int, int]] = None


def check_true(name: str, ok: bool) -> IdentityCheck:
    return IdentityCheck(name, bool(ok))

