"""Deterministic diagram rendering: ascii rows, SVG, and TikZ fragments.

ascii is available for m=1, SVG and TikZ for m in {1, 2}.  Passing a
permutation highlights the support split: shared cells in purple, moved
cells in orange, and (for m=1) arrows of the candidate map sending each
moved cell to its sigma-image, which need not be an optimal map.
One entry point, `render(p, fmt, sigma)`, draws every format at one
scale; both SVG drawers end in one document frame (`_svg_document`).
Identical inputs always produce identical bytes.
"""

import math

from .measures import decompose, measure_of
from .partitions import _entry_name

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


# Side of one SVG cell in output units.  The SVG has a viewBox and no
# width or height, so the one scale sets only the numbers written.
_SVG_CELL = 24.0


def render(p, fmt=ASCII, sigma=None):
    """Render a partition diagram to text in the format `fmt`.

    ascii draws rows of '#' for m = 1: with a permutation, moved cells
    print as 'x' and each gets an arrow line to its sigma-image, the
    candidate map (not always optimal).  SVG draws cells 24 units wide,
    TikZ on a unit grid with y up.

    Raises UnsupportedRenderError for a format or dimension not drawn.
    """
    if fmt not in FORMATS:
        raise UnsupportedRenderError(f"unknown format {_entry_name(fmt)}")
    drawers = _DRAW[fmt]
    if p.m not in drawers:
        dims = ", ".join(map(str, drawers))
        supported = f"m={dims} only" if len(drawers) == 1 else f"m in {{{dims}}}"
        raise UnsupportedRenderError(
            f"{fmt} rendering supports {supported}, got m={p.m}"
        )
    return drawers[p.m](p, sigma)


def _ascii(p, sigma):
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
    text = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


# ---------------------------------------------------------------------------
# m = 1: unit squares in the plane


def _square_geometry(p, s, sigma):
    """Screen rectangles for each cell plus arrow segments, y pointing down,
    with cells of side s."""
    colors, arrows = _highlight(p, sigma)
    cells = sorted(colors)
    extent = set(cells).union(image for _, image in arrows)
    top = max(c[1] for c in extent) + 1
    at = lambda x, y: (x * s, (top - y) * s)  # from cell units, y up
    mid = lambda c: at(c[0] + 0.5, c[1] + 0.5)
    boxes = [(cell, colors[cell], *at(cell[0], cell[1] + 1)) for cell in cells]
    segments = [(*mid(a), *mid(b)) for a, b in arrows]
    width = (max(c[0] for c in extent) + 1) * s
    return boxes, segments, width, top * s


def _svg_squares(p, sigma):
    s = _SVG_CELL
    boxes, segments, width, height = _square_geometry(p, s, sigma)
    body = []
    if segments:
        body.append(
            "<defs><marker id='tip' markerWidth='6' markerHeight='6' refX='5' refY='3' "
            "orient='auto'><path d='M0,0 L6,3 L0,6 z' fill='#333333'/></marker></defs>"
        )
    for _, color, x, y in boxes:
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(s)}" '
            f'height="{_fmt(s)}" fill="{color}" stroke="#333333"/>'
        )
    for x1, y1, x2, y2 in segments:
        body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="#333333" stroke-dasharray="3 2" marker-end="url(#tip)"/>'
        )
    return _svg_document((0, 0, width, height), body)


def _svg_document(box, body):
    """The SVG document of the `body` lines, framed by the drawing's `box`.

    `box` is (left, top, right, bottom); the viewBox pads it by a quarter
    cell on every side.  Both SVG drawers end here.
    """
    left, top, right, bottom = box
    pad = _SVG_CELL * 0.25
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(left - pad)} {_fmt(top - pad)} '
        f'{_fmt(right - left + 2 * pad)} {_fmt(bottom - top + 2 * pad)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _tikz_squares(p, sigma):
    boxes, segments, _, height = _square_geometry(p, 1, sigma)
    up = lambda y: _fmt(height - y)  # TikZ y grows upward
    out = [_TIKZ_COLOR_DEFS]
    for _, color, x, y in boxes:
        out.append(
            f"\\filldraw[fill={_TIKZ_NAMES[color]}, draw=black] "
            f"({_fmt(x)},{up(y + 1)}) rectangle ({_fmt(x + 1)},{up(y)});"
        )
    for x1, y1, x2, y2 in segments:
        out.append(
            f"\\draw[->, dashed] ({_fmt(x1)},{up(y1)}) -- ({_fmt(x2)},{up(y2)});"
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# m = 2: isometric cubes

# Each cell (h, u, v) is a unit cube with height coordinate h and ground
# coordinates u, v.  Cubes are painted in descending coordinate-sum order,
# so cells nearer the origin land on top.


def _project(s, h, u, v):
    kx = s * math.cos(math.radians(ISO_ANGLE_DEG))
    ky = s * math.sin(math.radians(ISO_ANGLE_DEG))
    return (u - v) * kx, (u + v) * ky - h * s


def _cube_faces(s, cell):
    """Three visible faces of a cube of side s as 2D polygons (top, right, left)."""
    h, u, v = cell
    pr = lambda *c: _project(s, *c)
    top = [pr(h + 1, u, v), pr(h + 1, u + 1, v), pr(h + 1, u + 1, v + 1), pr(h + 1, u, v + 1)]
    right = [pr(h, u + 1, v), pr(h + 1, u + 1, v), pr(h + 1, u + 1, v + 1), pr(h, u + 1, v + 1)]
    left = [pr(h, u, v + 1), pr(h + 1, u, v + 1), pr(h + 1, u + 1, v + 1), pr(h, u + 1, v + 1)]
    return top, right, left


def _shade(color, factor):
    rgb = (round(int(color[i : i + 2], 16) * factor) for i in (1, 3, 5))
    return "#" + "".join(f"{x:02x}" for x in rgb)


def _painted_cubes(p, s, sigma):
    """(cell, [(polygon, fill), ...]) in paint order, cubes of side s."""
    colors, _ = _highlight(p, sigma)
    out = []
    for cell in sorted(colors, key=lambda c: (-sum(c), c)):
        base = colors[cell]
        top, right, left = _cube_faces(s, cell)
        out.append(
            (cell, [(top, base), (right, _shade(base, 0.8)), (left, _shade(base, 0.65))])
        )
    return out


def _svg_cubes(p, sigma):
    cubes = _painted_cubes(p, _SVG_CELL, sigma)
    xs, ys = zip(*[pt for _, faces in cubes for poly, _ in faces for pt in poly])
    body = []
    for _, faces in cubes:
        for poly, fill in faces:
            pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in poly)
            body.append(f'<polygon points="{pts}" fill="{fill}" stroke="#333333"/>')
    return _svg_document((min(xs), min(ys), max(xs), max(ys)), body)


def _tikz_cubes(p, sigma):
    cubes = _painted_cubes(p, 1, sigma)
    out = [_TIKZ_COLOR_DEFS]
    shade_name = {}
    for _, faces in cubes:
        for _, fill in faces:
            if fill not in shade_name:
                shade_name[fill] = f"cellshade{len(shade_name)}"
                out.append(_tikz_define(shade_name[fill], fill))
    for _, faces in cubes:
        for poly, fill in faces:
            # TikZ y grows upward; flip the projected y.
            path = " -- ".join(f"({_fmt(x)},{_fmt(-y)})" for x, y in poly)
            out.append(
                f"\\filldraw[fill={shade_name[fill]}, draw=black] {path} -- cycle;"
            )
    return "\n".join(out) + "\n"


def _tikz_define(name, color):
    return f"\\definecolor{{{name}}}{{HTML}}{{{color[1:].upper()}}}"


_TIKZ_NAMES = {
    COLOR_PLAIN: "cellplain", COLOR_COMMON: "cellcommon", COLOR_MOVED: "cellmoved"
}
_TIKZ_COLOR_DEFS = "\n".join(_tikz_define(name, c) for c, name in _TIKZ_NAMES.items())

# The drawers of each format by dimension; each takes (p, sigma).
_DRAW = {
    ASCII: {1: _ascii},
    SVG: {1: _svg_squares, 2: _svg_cubes},
    TIKZ: {1: _tikz_squares, 2: _tikz_cubes},
}
