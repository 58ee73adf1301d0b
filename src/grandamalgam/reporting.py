"""Shared result records and deterministic CSV/JSON emission.

Every numeric text artifact is written with 17 significant digits so that
repeated runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "Verdict",
    "CheckResult",
    "fmt",
    "write_csv",
    "write_json",
    "check_payload",
    "write_check_json",
    "write_check_csv",
]


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    REPORT_ONLY = "REPORT_ONLY"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one executable proposition check.

    ``details`` holds one row per tested case; ``worst_case`` is the
    (case id, margin) pair with the smallest margin among asserted
    inequalities, and ``estimated_constant`` the empirical constant when the
    underlying statement only asserts existence of one.
    """

    name: str
    verdict: Verdict
    worst_case: tuple[str, float] | None = None
    estimated_constant: float | None = None
    details: tuple[Mapping[str, Any], ...] = ()
    tolerance: float | None = None
    notes: Mapping[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.verdict is Verdict.FAIL


def fmt(value: Any) -> str:
    """Render a cell for CSV output; floats get 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _json(obj: Any, pad: str = "\n") -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it, keys as strings and
    enums as values; json's own indenting encoder is closures, which leave cyclic garbage."""
    inner = pad + "  "
    if isinstance(obj, Mapping):
        items = [f"{json.dumps(k)}: {_json(v, inner)}" for k, v in sorted({str(k): v for k, v in obj.items()}.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in obj) + pad + "]"
    if isinstance(obj, Enum):
        return _json(obj.value, pad)
    return json.dumps(obj.item() if hasattr(obj, "item") else obj)  # a numpy scalar


def write_json(path: str | Path, payload: Any) -> None:
    Path(path).write_text(_json(payload) + "\n")


def check_payload(result: CheckResult) -> dict:
    return {
        "name": result.name,
        "verdict": result.verdict.value,
        "worst_case": None
        if result.worst_case is None
        else {"case": result.worst_case[0], "margin": result.worst_case[1]},
        "estimated_constant": result.estimated_constant,
        "tolerance": result.tolerance,
        "notes": result.notes,
        "n_cases": len(result.details),
    }


def write_check_json(result: CheckResult, path: str | Path) -> None:
    write_json(path, check_payload(result))


def write_check_csv(result: CheckResult, path: str | Path) -> None:
    """Per-case table: every detail key in first-seen order, empty where a row lacks it."""
    if not result.details:
        Path(path).write_text("case\n")
        return
    header = list(dict.fromkeys(k for row in result.details for k in row))
    rows = [[row.get(k, "") for k in header] for row in result.details]
    write_csv(path, header, rows)
