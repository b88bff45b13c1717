"""Deterministic diagram rendering: ascii rows, SVG, and TikZ fragments.

ascii is available for m=1, SVG and TikZ for m in {1, 2}.  Passing a
permutation highlights the support split: shared cells in purple, moved
cells in orange, and (for m=1) arrows of the candidate map sending each
moved cell to its sigma-image, which need not be an optimal map.
Identical inputs always produce identical bytes.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .measures import decompose, measure_of

ASCII = "ascii"
SVG = "svg"
TIKZ = "tikz"
FORMATS = (ASCII, SVG, TIKZ)

COLOR_PLAIN = "#e8e8e8"
COLOR_COMMON = "#9467bd"
COLOR_MOVED = "#ff7f0e"

# Angle of the two ground axes to the horizontal in the m = 2 cube views.
ISO_ANGLE_DEG = 30.0


class UnsupportedRenderError(ValueError):
    """Requested (format, dimension) combination is not renderable."""


RenderSpec = namedtuple("RenderSpec", "format cell_size", defaults=(ASCII, 24.0))
RenderSpec.__doc__ = "Output format plus the side of one cell in output units."


def render(p, spec, sigma=None):
    """Render a partition diagram to text in the requested format.

    Raises ValueError unless the cell size is finite and > 0, and when a
    drawn coordinate overflows to a non-finite float.
    """
    if not 0 < spec.cell_size < math.inf:  # false for nan too
        raise ValueError(f"cell size must be finite and > 0, got {spec.cell_size}")
    if spec.format == ASCII:
        if p.m != 1:
            raise UnsupportedRenderError(f"ascii rendering supports m=1 only, got m={p.m}")
        return render_ascii(p, sigma)
    if spec.format == SVG:
        if p.m == 1:
            return _svg_squares(p, spec, sigma)
        if p.m == 2:
            return _svg_cubes(p, spec, sigma)
        raise UnsupportedRenderError(f"svg rendering supports m in {{1, 2}}, got m={p.m}")
    if spec.format == TIKZ:
        if p.m == 1:
            return _tikz_squares(p, sigma)
        if p.m == 2:
            return _tikz_cubes(p, sigma)
        raise UnsupportedRenderError(f"tikz rendering supports m in {{1, 2}}, got m={p.m}")
    raise UnsupportedRenderError(f"unknown format {spec.format!r}")


def render_ascii(p, sigma=None):
    """Rows of '#', largest row first.

    With a permutation, moved cells print as 'x' and each gets an arrow
    line to its sigma-image, the candidate map (not always optimal).
    """
    colors, arrows = _highlight(p, sigma)
    rows = [
        "".join("x" if colors[a, i] == COLOR_MOVED else "#" for a in range(part))
        for i, part in enumerate(p.entries)
    ]
    rows.extend(f"{cell} -> {image}" for cell, image in arrows)
    return "\n".join(rows) + "\n"


def _highlight(p, sigma):
    """Highlight color of each cell of p, and the candidate map's arrows.

    The arrows are (cell, sigma-image) pairs for the moved cells, in cell
    order.  Without a permutation every cell is plain and nothing moves.
    """
    if sigma is None:
        return dict.fromkeys(measure_of(p), COLOR_PLAIN), []
    dec = decompose(p, sigma)
    colors = dict.fromkeys(dec.common, COLOR_COMMON)
    colors.update(dict.fromkeys(dec.source_only, COLOR_MOVED))
    moved = sorted(dec.source_only)
    return colors, [(cell, sigma.apply_to_cell(cell)) for cell in moved]


def _fmt(x):
    """A drawn coordinate as text: every one is formatted here."""
    if not math.isfinite(x):
        raise ValueError(f"cell size too large: a drawn coordinate is {x}")
    text = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


# ---------------------------------------------------------------------------
# m = 1: unit squares in the plane


def _square_geometry(p, spec, sigma):
    """Screen rectangles for each cell plus arrow segments, y pointing down."""
    s = spec.cell_size
    colors, arrows = _highlight(p, sigma)
    cells = sorted(colors)
    extent = set(cells).union(image for _, image in arrows)
    top = max(c[1] for c in extent) + 1
    boxes = [
        (cell, colors[cell], cell[0] * s, (top - 1 - cell[1]) * s) for cell in cells
    ]
    segments = [
        (
            (a[0] + 0.5) * s,
            (top - 1 - a[1] + 0.5) * s,
            (b[0] + 0.5) * s,
            (top - 1 - b[1] + 0.5) * s,
        )
        for a, b in arrows
    ]
    width = (max(c[0] for c in extent) + 1) * s
    return boxes, segments, width, top * s


def _svg_squares(p, spec, sigma):
    boxes, segments, width, height = _square_geometry(p, spec, sigma)
    pad = spec.cell_size * 0.25
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(-pad)} {_fmt(-pad)} {_fmt(width + 2 * pad)} {_fmt(height + 2 * pad)}">'
    ]
    if segments:
        out.append(
            "<defs><marker id='tip' markerWidth='6' markerHeight='6' refX='5' refY='3' "
            "orient='auto'><path d='M0,0 L6,3 L0,6 z' fill='#333333'/></marker></defs>"
        )
    for _, color, x, y in boxes:
        out.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(spec.cell_size)}" '
            f'height="{_fmt(spec.cell_size)}" fill="{color}" stroke="#333333"/>'
        )
    for x1, y1, x2, y2 in segments:
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#333333" stroke-dasharray="3 2" marker-end="url(#tip)"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tikz_squares(p, sigma):
    colors, arrows = _highlight(p, sigma)
    out = [_tikz_color_defs()]
    for cell in sorted(colors):
        a0, a1 = cell
        out.append(
            f"\\filldraw[fill={_tikz_color_name(colors[cell])}, draw=black] "
            f"({a0},{a1}) rectangle ({a0 + 1},{a1 + 1});"
        )
    for cell, image in arrows:
        out.append(
            f"\\draw[->, dashed] ({_fmt(cell[0] + 0.5)},{_fmt(cell[1] + 0.5)}) -- "
            f"({_fmt(image[0] + 0.5)},{_fmt(image[1] + 0.5)});"
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# m = 2: isometric cubes

# Each cell (h, u, v) is a unit cube with height coordinate h and ground
# coordinates u, v.  Cubes are painted in descending coordinate-sum order,
# so cells nearer the origin land on top.


def _project(spec, h, u, v):
    s = spec.cell_size
    kx = s * math.cos(math.radians(ISO_ANGLE_DEG))
    ky = s * math.sin(math.radians(ISO_ANGLE_DEG))
    return (u - v) * kx, (u + v) * ky - h * s


def _cube_faces(spec, cell):
    """Three visible faces of a cube as 2D polygons (top, right, left)."""
    h, u, v = cell
    pr = lambda *c: _project(spec, *c)
    top = [pr(h + 1, u, v), pr(h + 1, u + 1, v), pr(h + 1, u + 1, v + 1), pr(h + 1, u, v + 1)]
    right = [pr(h, u + 1, v), pr(h + 1, u + 1, v), pr(h + 1, u + 1, v + 1), pr(h, u + 1, v + 1)]
    left = [pr(h, u, v + 1), pr(h + 1, u, v + 1), pr(h + 1, u + 1, v + 1), pr(h, u + 1, v + 1)]
    return top, right, left


def _shade(color, factor):
    r = round(int(color[1:3], 16) * factor)
    g = round(int(color[3:5], 16) * factor)
    b = round(int(color[5:7], 16) * factor)
    return f"#{r:02x}{g:02x}{b:02x}"


def _painted_cubes(p, spec, sigma):
    """(cell, [(polygon, fill), ...]) in paint order."""
    colors, _ = _highlight(p, sigma)
    order = sorted(colors, key=lambda c: (-sum(c), c))
    out = []
    for cell in order:
        base = colors[cell]
        top, right, left = _cube_faces(spec, cell)
        out.append(
            (
                cell,
                [
                    (top, base),
                    (right, _shade(base, 0.80)),
                    (left, _shade(base, 0.65)),
                ],
            )
        )
    return out


def _svg_cubes(p, spec, sigma):
    cubes = _painted_cubes(p, spec, sigma)
    points = [pt for _, faces in cubes for poly, _ in faces for pt in poly]
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    pad = spec.cell_size * 0.25
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(min(xs) - pad)} {_fmt(min(ys) - pad)} '
        f'{_fmt(max(xs) - min(xs) + 2 * pad)} {_fmt(max(ys) - min(ys) + 2 * pad)}">'
    ]
    for _, faces in cubes:
        for poly, fill in faces:
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in poly)
            out.append(f'<polygon points="{pts}" fill="{fill}" stroke="#333333"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tikz_cubes(p, sigma):
    cubes = _painted_cubes(p, RenderSpec(format=TIKZ, cell_size=1.0), sigma)
    out = [_tikz_color_defs()]
    shade_name = {}
    for _, faces in cubes:
        for _, fill in faces:
            if fill not in shade_name:
                shade_name[fill] = f"cellshade{len(shade_name)}"
                out.append(f"\\definecolor{{{shade_name[fill]}}}{{HTML}}{{{fill[1:].upper()}}}")
    for _, faces in cubes:
        for poly, fill in faces:
            # TikZ y grows upward; flip the projected y.
            path = " -- ".join(f"({_fmt(x)},{_fmt(-y)})" for x, y in poly)
            out.append(
                f"\\filldraw[fill={shade_name[fill]}, draw=black] {path} -- cycle;"
            )
    return "\n".join(out) + "\n"


def _tikz_color_defs():
    return (
        "\\definecolor{cellplain}{HTML}{E8E8E8}\n"
        "\\definecolor{cellcommon}{HTML}{9467BD}\n"
        "\\definecolor{cellmoved}{HTML}{FF7F0E}"
    )


def _tikz_color_name(color):
    return {
        COLOR_PLAIN: "cellplain",
        COLOR_COMMON: "cellcommon",
        COLOR_MOVED: "cellmoved",
    }[color]
