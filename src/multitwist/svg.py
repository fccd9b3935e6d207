"""Deterministic SVG pictures of rectangle complexes and flow trajectories.

Layout: one row per horizontal cylinder (sorted by curve id), rectangles
side by side in traversal order, chart-rotated rectangles drawn rotated.
Gluing targets are annotated on the east and north sides; trajectories are
polyline overlays in layout coordinates.  Output bytes depend only on the
inputs, so snapshots diff cleanly.
"""

from __future__ import annotations

from .surfaces import RectangleComplex

_ROW_GAP = 0.6
_SCALE = 60.0  # pixels per unit length
_FMT = ".6f"


def _f(x) -> str:
    return format(float(x), _FMT)


class _Layout:
    """Plane positions of every rectangle, one row per horizontal cylinder."""

    def __init__(self, m: RectangleComplex):
        self.m = m
        self.pos = {}  # edge -> (x0, y0, w, h, orient)
        y = 0.0
        self.rows = []
        for v in sorted(m.h_layouts):
            lay = m.h_layouts[v]
            h = float(lay.transverse)
            for e, o, off in zip(lay.edges, lay.orients, lay.offsets):
                self.pos[e] = (float(off), y, float(m.width[e]), h, o)
            self.rows.append((v, y, float(lay.length), h, lay.closed))
            y += h + _ROW_GAP
        self.total_h = y - _ROW_GAP if self.rows else 0.0
        self.total_w = max((r[2] for r in self.rows), default=0.0)

    def point(self, edge, x, y):
        x0, y0, w, h, o = self.pos[edge]
        if o == 1:
            return (x0 + float(x), y0 + float(y))
        return (x0 + w - float(x), y0 + h - float(y))


def surface_svg(m: RectangleComplex, trajectories=(), shade=None) -> str:
    """Render the complex; shade is an optional set of edges to fill
    (coverage pictures).

    A trajectory is anything with `segments`, each read by position as
    (edge, x_in, y_in, x_out, y_out, ...), and a `terminal`: a flow
    Trajectory or a parsed TrajectoryDump.
    """
    lay = _Layout(m)
    shade = set(shade or ())
    pad = 0.5
    width = _f((lay.total_w + 2 * pad) * _SCALE)
    height = _f((lay.total_h + 2 * pad) * _SCALE)

    # layout coordinates are floats already
    def sx(x):
        return format((x + pad) * _SCALE, _FMT)

    def sy(y):
        # flip: mathematical y grows upward
        return format((lay.total_h - y + pad) * _SCALE, _FMT)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<g font-family="monospace" font-size="10">',
    ]
    gluings = m.gluings
    for e in sorted(lay.pos):
        x0, y0, w, h, o = lay.pos[e]
        fill = "#cfe8ff" if e in shade else "#ffffff"
        # the label sits at the centre, the gluing annotations at the
        # midpoints of the east and north sides
        west, mid_x, east = sx(x0), sx(x0 + w / 2), sx(x0 + w)
        top, mid_y = sy(y0 + h), sy(y0 + h / 2)
        out.append(f'<rect x="{west}" y="{top}" width="{_f(w * _SCALE)}" '
                   f'height="{_f(h * _SCALE)}" fill="{fill}" stroke="#333333" '
                   'stroke-width="1"/>')
        rot = "" if o == 1 else " (rot)"
        out.append(f'<text x="{mid_x}" y="{mid_y}" text-anchor="middle">'
                   f'{e}{rot}</text>')
        for side, ax, ay in (("E", east, mid_y), ("N", mid_x, top)):
            glue = gluings.get((e, side))
            if glue is not None:
                e2, s2, rev = glue
                label = f"{e2}{s2}{'~' if rev else ''}"
            else:  # a frontier side
                label = "…"
            out.append(f'<text x="{ax}" y="{ay}" text-anchor="middle" '
                       f'fill="#888888" font-size="7">{label}</text>')
    palette = ("#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
    for k, traj in enumerate(trajectories):
        color = palette[k % len(palette)]
        for edge, x_in, y_in, x_out, y_out, *_ in traj.segments:
            x1, y1 = lay.point(edge, x_in, y_in)
            x2, y2 = lay.point(edge, x_out, y_out)
            out_x, out_y = sx(x2), sy(y2)
            out.append(f'<line x1="{sx(x1)}" y1="{sy(y1)}" x2="{out_x}" '
                       f'y2="{out_y}" stroke="{color}" stroke-width="1.5"/>')
        if traj.segments:  # (out_x, out_y) is where the last segment leaves
            if traj.terminal == "window-exit":
                out.append(f'<circle cx="{out_x}" cy="{out_y}" r="4" '
                           f'fill="none" stroke="{color}" stroke-width="1.5" '
                           'stroke-dasharray="2,2"/>')
            elif traj.terminal == "singular":
                out.append(f'<circle cx="{out_x}" cy="{out_y}" r="3" '
                           f'fill="{color}"/>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
