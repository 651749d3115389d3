"""Structured outcome of a single verification check."""

from __future__ import annotations

from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient-order"
ERROR = "error"                  # the check raised; detail names the exception


@dataclass(frozen=True)
class Mismatch:
    exponent: object
    left: object
    right: object

    def as_dict(self):
        return {"exponent": str(self.exponent), "left": str(self.left), "right": str(self.right)}


@dataclass(frozen=True)
class VerificationReport:
    """What a check found; its id and anchor are the catalog's to attach."""
    status: str
    order: object = None
    first_mismatch: Mismatch | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def as_dict(self):
        out = {"status": self.status}
        if self.order is not None:
            out["order"] = str(self.order)
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch.as_dict()
        if self.detail:
            out["detail"] = self.detail
        return out


def passed(order=None, detail="") -> VerificationReport:
    return VerificationReport(PASS, order, None, detail)


def failed(order=None, mismatch=None, detail="") -> VerificationReport:
    return VerificationReport(FAIL, order, mismatch, detail)
