"""Render diagrams as ascii, SVG, and TikZ.

Flat diagrams draw as squares, plane-partition diagrams as isometric
cube stacks.  Passing a permutation highlights the support split:
shared cells purple, moved cells orange, with arrows for the flat case.
Output is byte-deterministic.
"""

import pathlib

from partition_ot import Permutation, render, validate_array

out_dir = pathlib.Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

flat = validate_array([4, 2], 1)
swap = Permutation.from_one_line("2 1")
print("ascii, plain:")
print(render(flat, "ascii"))
print("ascii with the swap highlighted (x = moved, arrows = candidate sigma-image map):")
print(render(flat, "ascii", swap))

plane = validate_array([[3, 2], [1]], 2)
sigma = Permutation.from_one_line("1 3 2")

outputs = {
    "flat.svg": render(flat, "svg"),
    "flat_highlight.svg": render(flat, "svg", swap),
    "plane.svg": render(plane, "svg"),
    "plane_highlight.svg": render(plane, "svg", sigma),
    "flat.tikz": render(flat, "tikz", swap),
    "plane.tikz": render(plane, "tikz", sigma),
}
for name, text in outputs.items():
    path = out_dir / name
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path} ({len(text)} bytes)")
