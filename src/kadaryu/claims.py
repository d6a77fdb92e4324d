"""Claims reports: one record per checked claim, and the verdict over them.

A claim passes or fails.  A report fails if any claim failed and passes
when every claim passed.
"""

from __future__ import annotations


def claim(claims: list[dict], cid: str, ok: bool, witness=None) -> None:
    """Append the record of claim `cid`: it passes when ok is True."""
    claims.append({"id": cid, "status": "pass" if ok else "fail", "witness": witness})


def report(fields: dict, claims: list[dict]) -> dict:
    """The report over `claims`: `fields`, the verdict and the claims."""
    status = "fail" if any(c["status"] == "fail" for c in claims) else "pass"
    return {**fields, "status": status, "claims": claims}
