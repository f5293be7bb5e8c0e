"""Structured verification reports with deterministic serialization.

A report is a name, a parameter dict, per-checkpoint numeric rows, and
pass/fail flags, each built by `flag` and carrying the observed value and
the declared tolerance it was judged against.  Canonical JSON (sorted keys,
no runtime field) is byte-stable across runs and thread counts; the
wall-clock runtime is kept out of the canonical form because it can never be.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass


def _check_finite(obj, path="report"):
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValueError(f"non-finite value at {path}: {obj}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")


def to_native(obj):
    """Recursively replace numpy scalars/arrays with plain Python values."""
    if hasattr(obj, "item") and getattr(obj, "ndim", None) == 0:
        return obj.item()
    if hasattr(obj, "tolist") and getattr(obj, "ndim", None) is not None:
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: to_native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_native(v) for v in obj]
    return obj


def flag(name: str, passed, observed, tolerance: str) -> dict:
    """One report flag; the values go into the report as given."""
    return {"name": name, "passed": passed, "observed": observed, "tolerance": tolerance}


@dataclass
class VerificationReport:
    name: str
    parameters: dict
    rows: list[dict]
    flags: list[dict]
    runtime: float = 0.0

    def __post_init__(self):
        self.parameters = to_native(self.parameters)
        self.rows = to_native(self.rows)
        self.flags = to_native(self.flags)

    @property
    def passed(self) -> bool:
        return all(f["passed"] for f in self.flags)

    def to_json(self, include_runtime: bool = True) -> str:
        payload = {
            "name": self.name,
            "parameters": self.parameters,
            "rows": self.rows,
            "flags": self.flags,
            "passed": self.passed,
        }
        if include_runtime:
            payload["runtime"] = self.runtime
        _check_finite({k: v for k, v in payload.items() if k != "runtime"})
        return json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",", ":"))

    def canonical_bytes(self) -> bytes:
        return self.to_json(include_runtime=False).encode("utf-8")

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        d = json.loads(text)
        return cls(
            name=d["name"],
            parameters=d["parameters"],
            rows=d["rows"],
            flags=d["flags"],
            runtime=d.get("runtime", 0.0),
        )

    def to_csv(self) -> str:
        """Plottable rows, field-for-field equal to the JSON rows."""
        buf = io.StringIO()
        if not self.rows:
            return ""
        fields = list(self.rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()


def rows_from_csv(text: str) -> list[dict]:
    """Parse a report CSV back into row dicts (numbers restored)."""
    out = []
    for row in csv.DictReader(io.StringIO(text)):
        parsed = {}
        for k, v in row.items():
            try:
                parsed[k] = int(v)
            except ValueError:
                try:
                    parsed[k] = float(v)
                except ValueError:
                    parsed[k] = v
        out.append(parsed)
    return out
