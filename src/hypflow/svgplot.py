"""Minimal self-contained SVG line plots (no plotting dependency).

Produces standalone SVG strings for the two artifact plots: flow-trace
histories (quermassintegral and traceless-curvature decay vs time) and the
stability sweep in log-log axes with power-law reference lines. Reference
lines carry a ``data-slope`` attribute so emitted files can be inspected
programmatically.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

import numpy as np

from .stability import InsufficientDataError

__all__ = ["flow_svg", "sweep_svg"]

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f7a022", "#882e72")
_FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _linear_ticks(lo: float, hi: float) -> list[float]:
    """About five round-numbered ticks spanning [lo, hi], lo < hi."""
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = [10.0 ** k for k in range(math.ceil(math.log10(lo) - 1e-9),
                                      math.floor(math.log10(hi) + 1e-9) + 1)]
    return ticks or [lo, hi]


def _fmt(x: float) -> str:
    if x == 0.0:
        return "0"
    if 1e-3 <= abs(x) < 1e4:
        s = f"{x:.6g}"
    else:
        s = f"{x:.1e}"
    return s


class _Axes:
    """Maps data coordinates into a pixel rectangle, optionally log-scaled."""

    def __init__(self, x, y, logx, logy, box):
        self.logx, self.logy = logx, logy
        self.x0, self.y0, self.w, self.h = box
        fx = np.log10 if logx else (lambda v: v)
        fy = np.log10 if logy else (lambda v: v)
        self.fx, self.fy = fx, fy
        xt, yt = fx(np.asarray(x, dtype=float)), fy(np.asarray(y, dtype=float))
        self.xlo, self.xhi = float(xt.min()), float(xt.max())
        self.ylo, self.yhi = float(yt.min()), float(yt.max())
        for attr in ("xlo", "xhi", "ylo", "yhi"):
            if not math.isfinite(getattr(self, attr)):
                raise ValueError("plot data must be finite (and positive on log axes)")
        if self.xhi - self.xlo < 1e-12:
            self.xlo -= 0.5
            self.xhi += 0.5
        if self.yhi - self.ylo < 1e-12:
            self.ylo -= 0.5
            self.yhi += 0.5
        padx, pady = 0.04 * (self.xhi - self.xlo), 0.06 * (self.yhi - self.ylo)
        self.xlo -= padx
        self.xhi += padx
        self.ylo -= pady
        self.yhi += pady

    def px(self, xv):
        return self.x0 + (self.fx(xv) - self.xlo) / (self.xhi - self.xlo) * self.w

    def py(self, yv):
        return self.y0 + self.h - (self.fy(yv) - self.ylo) / (self.yhi - self.ylo) * self.h

    def ticks_x(self):
        if self.logx:
            return _log_ticks(10.0 ** self.xlo, 10.0 ** self.xhi)
        return _linear_ticks(self.xlo, self.xhi)

    def ticks_y(self):
        if self.logy:
            return _log_ticks(10.0 ** self.ylo, 10.0 ** self.yhi)
        return _linear_ticks(self.ylo, self.yhi)


def _panel(series, *, title, xlabel, ylabel, logx=False, logy=False,
           ref_slopes=(), origin=(0, 0), size) -> str:
    """One plot panel as a translated <g> element."""
    ox, oy = origin
    width, height = size
    mleft, mright, mtop, mbot = 70, 16, 30, 48
    box = (mleft, mtop, width - mleft - mright, height - mtop - mbot)
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if logx:
        xs = xs[xs > 0]
    if logy:
        ys = ys[ys > 0]
    if xs.size == 0 or ys.size == 0:
        raise ValueError("no plottable data (log axes need positive values)")
    ax = _Axes(xs, ys, logx, logy, box)

    parts = [f'<g transform="translate({ox},{oy})">']
    parts.append(f'<rect x="{mleft}" y="{mtop}" width="{box[2]}" height="{box[3]}" '
                 'fill="#fcfcfc" stroke="#333" stroke-width="1"/>')
    for tv in ax.ticks_x():
        X = ax.px(tv)
        if not (mleft - 0.5 <= X <= mleft + box[2] + 0.5):
            continue
        parts.append(f'<line x1="{X:.2f}" y1="{mtop + box[3]}" x2="{X:.2f}" '
                     f'y2="{mtop + box[3] + 5}" stroke="#333"/>')
        parts.append(f'<line x1="{X:.2f}" y1="{mtop}" x2="{X:.2f}" y2="{mtop + box[3]}" '
                     'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{X:.2f}" y="{mtop + box[3] + 18}" text-anchor="middle" '
                     f'font-size="11" {_FONT}>{escape(_fmt(tv))}</text>')
    for tv in ax.ticks_y():
        Y = ax.py(tv)
        if not (mtop - 0.5 <= Y <= mtop + box[3] + 0.5):
            continue
        parts.append(f'<line x1="{mleft - 5}" y1="{Y:.2f}" x2="{mleft}" y2="{Y:.2f}" stroke="#333"/>')
        parts.append(f'<line x1="{mleft}" y1="{Y:.2f}" x2="{mleft + box[2]}" y2="{Y:.2f}" '
                     'stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{mleft - 8}" y="{Y + 4:.2f}" text-anchor="end" '
                     f'font-size="11" {_FONT}>{escape(_fmt(tv))}</text>')

    # power-law reference lines through the data centroid (log-log panels)
    if ref_slopes:
        cx = 0.5 * (ax.xlo + ax.xhi)
        cy = 0.5 * (ax.ylo + ax.yhi)
        for slope, label in ref_slopes:
            y1 = cy + slope * (ax.xlo - cx)
            y2 = cy + slope * (ax.xhi - cx)
            X1, X2 = mleft, mleft + box[2]
            Y1 = mtop + box[3] - (y1 - ax.ylo) / (ax.yhi - ax.ylo) * box[3]
            Y2 = mtop + box[3] - (y2 - ax.ylo) / (ax.yhi - ax.ylo) * box[3]
            parts.append(f'<line x1="{X1:.2f}" y1="{Y1:.2f}" x2="{X2:.2f}" y2="{Y2:.2f}" '
                         f'stroke="#777" stroke-dasharray="6,4" data-slope="{slope:.6g}"/>')
            parts.append(f'<text x="{X2 - 4}" y="{Y2 + (14 if slope > 0 else -6):.2f}" '
                         f'text-anchor="end" font-size="11" fill="#555" {_FONT}>'
                         f'{escape(label)}</text>')

    for i, (name, sx, sy) in enumerate(series):
        sx = np.asarray(sx, dtype=float)
        sy = np.asarray(sy, dtype=float)
        keep = np.isfinite(sx) & np.isfinite(sy)
        if logx:
            keep &= sx > 0
        if logy:
            keep &= sy > 0
        sx, sy = sx[keep], sy[keep]
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{ax.px(a):.2f},{ax.py(b):.2f}" for a, b in zip(sx, sy))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
                     f'data-series="{escape(name)}" points="{pts}"/>')
        if sx.size <= 40:
            for a, b in zip(sx, sy):
                parts.append(f'<circle cx="{ax.px(a):.2f}" cy="{ax.py(b):.2f}" r="2.6" '
                             f'fill="{color}"/>')
        lx = mleft + box[2] - 10
        ly = mtop + 16 + 15 * i
        parts.append(f'<text x="{lx}" y="{ly}" text-anchor="end" font-size="12" '
                     f'fill="{color}" {_FONT}>{escape(name)}</text>')

    parts.append(f'<text x="{mleft + box[2] / 2:.1f}" y="{mtop - 10}" text-anchor="middle" '
                 f'font-size="14" font-weight="bold" {_FONT}>{escape(title)}</text>')
    parts.append(f'<text x="{mleft + box[2] / 2:.1f}" y="{height - 10}" text-anchor="middle" '
                 f'font-size="12" {_FONT}>{escape(xlabel)}</text>')
    cyl = mtop + box[3] / 2
    parts.append(f'<text x="16" y="{cyl:.1f}" text-anchor="middle" font-size="12" {_FONT} '
                 f'transform="rotate(-90 16 {cyl:.1f})">{escape(ylabel)}</text>')
    parts.append("</g>")
    return "\n".join(parts)


def _wrap(inner: str, width: int, height: int) -> str:
    return ('<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="0 0 {width} {height}" width="{width}" height="{height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f"{inner}\n</svg>\n")


def flow_svg(trace, m: int) -> str:
    """Two-panel flow history: W_{m+1}(t), and traceless-curvature norms on log-y."""
    t = trace.column("t")
    w = trace.column(f"W{m + 1}")
    panels = [_panel([(f"W{m + 1}", t, w)], title=f"W{m + 1} along the flow",
                     xlabel="t", ylabel=f"W{m + 1}", size=(640, 380))]
    height = 380
    atr_l2, atr_max = trace.column("AtrL2"), trace.column("AtrMax")
    if np.any(atr_l2 > 0) or np.any(atr_max > 0):
        panels.append(_panel([("AtrL2", t, atr_l2), ("AtrMax", t, atr_max)],
                             title="traceless second fundamental form",
                             xlabel="t", ylabel="norm", logy=True,
                             origin=(0, 380), size=(640, 380)))
        height = 760
    return _wrap("\n".join(panels), 640, height)


def sweep_svg(result) -> str:
    """Log-log distance vs deficit with the 1/(m+2) and 1/2 reference slopes."""
    recs = [r for r in result.records if r.deficit > 0 and r.dist > 0]
    if not recs:
        raise InsufficientDataError("sweep has no records with positive deficit and dist")
    d = np.array([r.deficit for r in recs])
    y = np.array([r.dist for r in recs])
    mexp = 1.0 / (result.m + 2)
    panel = _panel(
        [("dist", d, y)],
        title=f"sphere-distance vs deficit (n={result.n}, m={result.m})",
        xlabel="deficit", ylabel="Chebyshev gap", logx=True, logy=True,
        ref_slopes=((mexp, f"slope 1/{result.m + 2}"), (0.5, "slope 1/2")),
        size=(640, 420),
    )
    return _wrap(panel, 640, 420)
