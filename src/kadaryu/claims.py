"""Claims reports: one record per checked claim, and the verdict over them.

A claim passes, fails, or is inconclusive (a certificate ran out of budget).
A report fails if any claim failed, is otherwise inconclusive if any claim
was, and passes when every claim passed.
"""

from __future__ import annotations


def claim(claims: list[dict], cid: str, ok, witness=None) -> None:
    """Append the record of claim `cid`: ok is True (pass), False (fail) or
    None (inconclusive)."""
    status = "pass" if ok is True else ("fail" if ok is False else "inconclusive")
    claims.append({"id": cid, "status": status, "witness": witness})


def report(fields: dict, claims: list[dict]) -> dict:
    """The report over `claims`: `fields`, the verdict and the claims."""
    statuses = {c["status"] for c in claims}
    status = ("fail" if "fail" in statuses
              else "inconclusive" if "inconclusive" in statuses else "pass")
    return {**fields, "status": status, "claims": claims}
