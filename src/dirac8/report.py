"""Pass/fail check records used by the verification suite and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Check:
    """A single verified property: name, what it refers to, and the outcome."""

    name: str
    reference: str
    passed: bool
    measured: float
    tolerance: float
    notes: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"{status}  {self.name}  [{self.reference}]  "
               f"measured={self.measured:.3e}  tol={self.tolerance:.3e}")
        if self.notes:
            out += f"  ({self.notes})"
        return out


@dataclass
class VerificationReport:
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = [f"# {n}" for n in self.notes]
        out.extend(c.line() for c in self.checks)
        out.append(f"# {len(self.checks)} checks, "
                   f"{len(self.failures)} failed")
        return out

    def to_rows(self) -> list[dict]:
        return [
            {"name": c.name, "reference": c.reference,
             "status": "pass" if c.passed else "fail",
             "measured": c.measured, "tolerance": c.tolerance, "notes": c.notes}
            for c in self.checks
        ]
