"""CSV serialization of swept curve points.

Schema: ``n_copies,q,eta,value,stderr,samples`` with 9 significant digits,
rows sorted by (n_copies, q) and the infinite-copy rows written last with
``inf`` in the first column.  Emission is deterministic so identical runs
produce byte-identical files.
"""
from __future__ import annotations

import math
from pathlib import Path

from .estimators import CurvePoint

CSV_HEADER = "n_copies,q,eta,value,stderr,samples"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _fmt_copies(n) -> str:
    return "inf" if n == math.inf else str(int(n))


def _sort_key(p: CurvePoint) -> tuple[float, float]:
    return (p.n_copies, p.q)


def write_curve_csv(points, path) -> None:
    """Write curve points; raises ValueError on an empty sequence."""
    pts = sorted(points, key=_sort_key)
    if not pts:
        raise ValueError("no curve points to write")
    lines = [CSV_HEADER]
    for p in pts:
        lines.append(",".join((
            _fmt_copies(p.n_copies), _fmt(p.q), _fmt(p.eta),
            _fmt(p.value), _fmt(p.stderr), str(p.samples))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
