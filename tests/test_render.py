import hashlib
import math
import re
import sys
import types

import pytest

import partition_ot
from partition_ot import (
    Permutation,
    RenderSpec,
    UnsupportedRenderError,
    all_permutations,
    enumerate_partitions,
    render,
    validate_array,
)

P42 = validate_array([4, 2], 1)
PLANE = validate_array([[3, 2], [1]], 2)
SWAP = Permutation.from_one_line("2 1")


def test_ascii_rows():
    assert render(P42, RenderSpec()) == "####\n##\n"
    assert render(validate_array([1], 1), RenderSpec()) == "#\n"


def test_ascii_with_highlight_and_arrows():
    text = render(P42, RenderSpec(), SWAP)
    assert text == "##xx\n##\n(2, 0) -> (0, 2)\n(3, 0) -> (0, 3)\n"


def test_ascii_only_flat():
    with pytest.raises(UnsupportedRenderError):
        render(PLANE, RenderSpec(format="ascii"))


def test_render_is_the_one_public_render_function():
    module = sys.modules["partition_ot.render"]
    functions = [
        name for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
    ]
    assert [name for name in functions if not name.startswith("_")] == ["render"]
    assert not hasattr(partition_ot, "render_ascii")


def test_svg_single_square():
    text = render(validate_array([1], 1), RenderSpec(format="svg"))
    assert text.count("<rect") == 1
    assert text.startswith("<svg ") and text.endswith("</svg>\n")


def test_svg_flat_highlight_colors():
    text = render(P42, RenderSpec(format="svg"), sigma=SWAP)
    assert text.count('fill="#9467bd"') == 4  # shared cells
    assert text.count('fill="#ff7f0e"') == 2  # moved cells
    assert text.count("<line") == 2  # one arrow per moved cell


def test_svg_cubes_three_faces_per_cell():
    text = render(PLANE, RenderSpec(format="svg"))
    assert text.count("<polygon") == 3 * PLANE.n


def test_svg_cube_highlight():
    sigma = Permutation.from_one_line("1 3 2")
    text = render(PLANE, RenderSpec(format="svg"), sigma=sigma)
    assert text.count('fill="#9467bd"') == 5  # top faces of shared cubes
    assert text.count('fill="#ff7f0e"') == 1  # top face of the moved cube


def test_svg_determinism():
    spec = RenderSpec(format="svg")
    assert render(PLANE, spec) == render(PLANE, spec)


def test_tikz_flat_and_cubes():
    flat = render(P42, RenderSpec(format="tikz"), sigma=SWAP)
    assert flat.count("\\filldraw") == 6
    assert flat.count("\\draw[->, dashed]") == 2
    cubes = render(PLANE, RenderSpec(format="tikz"))
    assert cubes.count("\\filldraw") == 3 * PLANE.n
    assert "cycle;" in cubes


@pytest.mark.parametrize("fmt", ["ascii", "svg", "tikz"])
@pytest.mark.parametrize("size", [-1.0, 0.0, float("nan"), float("inf")])
def test_render_refuses_a_bad_cell_size(fmt, size):
    with pytest.raises(ValueError, match="cell size must be finite and > 0"):
        render(P42, RenderSpec(format=fmt, cell_size=size))


@pytest.mark.parametrize("fmt", ["ascii", "tikz"])
@pytest.mark.parametrize("size", [10.0, 1.0, 24.5])
def test_only_svg_takes_a_cell_size(fmt, size):
    p = P42 if fmt == "ascii" else PLANE
    message = f"only svg reads the cell size, got {size} for {fmt}"
    with pytest.raises(ValueError, match=message):
        render(p, RenderSpec(format=fmt, cell_size=size))
    # the default size, given or not, draws as before
    assert render(p, RenderSpec(fmt, 24)) == render(p, RenderSpec(fmt))
    assert render(p, RenderSpec(format="svg", cell_size=size)).startswith("<svg ")


@pytest.mark.parametrize("p", [P42, PLANE], ids=["flat", "plane"])
def test_render_refuses_non_finite_coordinates(p):
    with pytest.raises(ValueError, match="cell size too large"):
        render(p, RenderSpec(format="svg", cell_size=1e308))
    # the largest coordinate of one square, 1.5 cells, stays finite
    text = render(validate_array([1], 1), RenderSpec(format="svg", cell_size=1e308))
    assert "inf" not in text and "nan" not in text


@pytest.mark.parametrize(
    "p, sigma", [(P42, SWAP), (PLANE, Permutation.from_one_line("1 3 2"))],
    ids=["flat", "plane"],
)
def test_svg_refuses_a_cell_drawn_to_nothing(p, sigma):
    # coordinates keep two decimals, so a cell's least extent (a square's
    # side, a cube face's width, cos 30 deg of the side) must be 0.01
    with pytest.raises(ValueError, match="cell size too small: 1e-300 draws"):
        render(p, RenderSpec(format="svg", cell_size=1e-300))
    size = 0.01 if p.m == 1 else 0.01 / math.cos(math.radians(30))
    while True:  # the smallest size admitted, up from the float nearest
        try:
            texts = [render(p, RenderSpec("svg", size), s) for s in (None, sigma)]
            break
        except ValueError:
            size = math.nextafter(size, 1)
    assert size < 0.0116
    with pytest.raises(ValueError, match="cell size too small"):
        render(p, RenderSpec("svg", math.nextafter(size, 0)))
    for text in texts:
        view = [float(x) for x in re.search(r'viewBox="([^"]*)"', text)[1].split()]
        assert view[2] > 0 and view[3] > 0
        sides = re.findall(r' (?:width|height)="([^"]*)"', text)
        assert len(sides) == (2 * p.n if p.m == 1 else 0)
        assert all(float(side) > 0 for side in sides)
        for points in re.findall(r'points="([^"]*)"', text):
            xs, ys = zip(*(map(float, pt.split(",")) for pt in points.split()))
            assert len(set(xs)) > 1 and len(set(ys)) > 1


def test_unsupported_combinations():
    solid = validate_array([[[1]]], 3)
    for fmt in ("ascii", "svg", "tikz"):
        with pytest.raises(UnsupportedRenderError):
            render(solid, RenderSpec(format=fmt))
    with pytest.raises(UnsupportedRenderError):
        render(P42, RenderSpec(format="png"))


def test_render_bytes_are_pinned():
    """Every supported (format, m), every partition up to n = 5, drawn plain
    and under every sigma: the joined outputs hash to a fixed digest."""
    out = []
    for fmt, dims in (("ascii", (1,)), ("svg", (1, 2)), ("tikz", (1, 2))):
        for m in dims:
            sigmas = [None, *all_permutations(m + 1)]
            for n in range(1, 6):
                for p in enumerate_partitions(m, n):
                    for sigma in sigmas:
                        out.append(render(p, RenderSpec(format=fmt), sigma=sigma))
    assert len(out) == 820
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "6337901c2d7c267f6ad2fc1ffad59acf3d69e880ee3096928b9391ad452485fe"


def test_svg_bytes_are_pinned_at_other_cell_sizes():
    """SVG alone reads the cell size: every partition up to n = 5 at m = 1
    and 2, drawn plain and under every sigma, at two sizes besides the
    default, hashes to a fixed digest."""
    out = []
    for size in (7.5, 1000.0):
        for m in (1, 2):
            sigmas = [None, *all_permutations(m + 1)]
            for n in range(1, 6):
                for p in enumerate_partitions(m, n):
                    for sigma in sigmas:
                        out.append(render(p, RenderSpec("svg", size), sigma=sigma))
    assert len(out) == 766
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "b1ff1670953c411352da5395430047fb0c8b281652309676548323c065a36c4c"
