"""Minimal SVG emitter for efficiency-versus-violation curves.

One polyline per copy count on axes (efficiency, value), with a dashed
horizontal reference line at the local-realistic bound (2 for CHSH, 1/3
for steering).  Finite copy counts are drawn black, the shared-axis limit
blue, the bound red, matching the conventional presentation.
"""
from __future__ import annotations

import math
from pathlib import Path

from .estimators import LR_BOUND, CurvePoint
from .sphere import check_kind

WIDTH, HEIGHT = 720, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 28, 48


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _label(n) -> str:
    return "inf" if n == math.inf else f"N={int(n)}"


def write_curve_svg(curves: dict[float, list[CurvePoint]], path,
                    kind: str = "bell") -> None:
    """Render grouped curve points to a single SVG file.

    ``curves`` maps the copy count to its point list; at least one curve
    with at least one finite point is required; ``kind`` follows
    ``sphere.check_kind``.
    """
    bound = LR_BOUND[check_kind(kind)]
    usable = {n: [p for p in pts if not math.isnan(p.value)]
              for n, pts in curves.items()}
    usable = {n: pts for n, pts in usable.items() if pts}
    if not usable:
        raise ValueError("no plottable curve points")

    vmax = max(max(p.value for p in pts) for pts in usable.values())
    vmax = max(vmax, bound) * 1.06
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(eta: float) -> float:
        return MARGIN_L + eta * plot_w

    def sy(value: float) -> float:
        return MARGIN_T + (1.0 - value / vmax) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    axis = (f'M {_fmt(sx(0))} {_fmt(sy(0))} L {_fmt(sx(1))} {_fmt(sy(0))} '
            f'M {_fmt(sx(0))} {_fmt(sy(0))} L {_fmt(sx(0))} {_fmt(sy(vmax))}')
    parts.append(f'<path d="{axis}" stroke="black" fill="none" '
                 f'stroke-width="1.2"/>')

    for k in range(6):
        eta = k / 5.0
        x = sx(eta)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(sy(0))}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(sy(0) + 5)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(sy(0) + 20)}" '
                     f'font-size="12" text-anchor="middle">{eta:.1f}</text>')
    step = _nice_step(vmax)
    tick = step
    while tick < vmax:
        y = sy(tick)
        parts.append(f'<line x1="{_fmt(sx(0) - 5)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(sx(0))}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(sx(0) - 9)}" y="{_fmt(y + 4)}" '
                     f'font-size="12" text-anchor="end">{tick:g}</text>')
        tick += step
    parts.append(f'<text x="{_fmt(sx(0.5))}" y="{HEIGHT - 12}" '
                 f'font-size="13" text-anchor="middle">efficiency</text>')
    value_name = "|S|" if kind == "bell" else "T"
    parts.append(f'<text x="16" y="{_fmt(sy(vmax / 2))}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{_fmt(sy(vmax / 2))})">{value_name}</text>')

    yb = sy(bound)
    parts.append(f'<line x1="{_fmt(sx(0))}" y1="{_fmt(yb)}" '
                 f'x2="{_fmt(sx(1))}" y2="{_fmt(yb)}" stroke="red" '
                 f'stroke-dasharray="6 4" stroke-width="1.4"/>')
    parts.append(f'<text x="{_fmt(sx(1) - 4)}" y="{_fmt(yb - 5)}" '
                 f'font-size="12" fill="red" text-anchor="end">'
                 f'LR bound {bound:.4g}</text>')

    for n in sorted(usable):
        pts = sorted(usable[n], key=lambda p: p.q)
        colour = "blue" if n == math.inf else "black"
        coords = " ".join(f"{_fmt(sx(p.eta))},{_fmt(sy(min(p.value, vmax)))}"
                          for p in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{colour}" stroke-width="1.1"/>')
        last = pts[-1]
        parts.append(f'<text x="{_fmt(sx(last.eta) + 3)}" '
                     f'y="{_fmt(sy(min(last.value, vmax)))}" font-size="10" '
                     f'fill="{colour}">{_label(n)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")
