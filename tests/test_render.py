import hashlib
import sys
import types

import pytest

import partition_ot
from partition_ot import (
    Permutation,
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
    assert render(P42) == "####\n##\n"
    assert render(validate_array([1], 1), "ascii") == "#\n"


def test_ascii_with_highlight_and_arrows():
    text = render(P42, "ascii", SWAP)
    assert text == "##xx\n##\n(2, 0) -> (0, 2)\n(3, 0) -> (0, 3)\n"


def test_ascii_only_flat():
    with pytest.raises(UnsupportedRenderError):
        render(PLANE, "ascii")


def test_render_is_the_one_public_render_function():
    module = sys.modules["partition_ot.render"]
    functions = [
        name for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
    ]
    assert [name for name in functions if not name.startswith("_")] == ["render"]
    assert not hasattr(partition_ot, "render_ascii")


def test_svg_single_square():
    text = render(validate_array([1], 1), "svg")
    assert text.count("<rect") == 1
    assert text.startswith("<svg ") and text.endswith("</svg>\n")


def test_svg_flat_highlight_colors():
    text = render(P42, "svg", SWAP)
    assert text.count('fill="#9467bd"') == 4  # shared cells
    assert text.count('fill="#ff7f0e"') == 2  # moved cells
    assert text.count("<line") == 2  # one arrow per moved cell


def test_svg_cubes_three_faces_per_cell():
    text = render(PLANE, "svg")
    assert text.count("<polygon") == 3 * PLANE.n


def test_svg_cube_highlight():
    sigma = Permutation.from_one_line("1 3 2")
    text = render(PLANE, "svg", sigma)
    assert text.count('fill="#9467bd"') == 5  # top faces of shared cubes
    assert text.count('fill="#ff7f0e"') == 1  # top face of the moved cube


def test_svg_determinism():
    assert render(PLANE, "svg") == render(PLANE, "svg")


def test_tikz_flat_and_cubes():
    flat = render(P42, "tikz", SWAP)
    assert flat.count("\\filldraw") == 6
    assert flat.count("\\draw[->, dashed]") == 2
    cubes = render(PLANE, "tikz")
    assert cubes.count("\\filldraw") == 3 * PLANE.n
    assert "cycle;" in cubes


def test_unsupported_combinations():
    solid = validate_array([[[1]]], 3)
    for fmt in ("ascii", "svg", "tikz"):
        with pytest.raises(UnsupportedRenderError):
            render(solid, fmt)
    with pytest.raises(UnsupportedRenderError):
        render(P42, "png")


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
                        out.append(render(p, fmt, sigma))
    assert len(out) == 820
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "6337901c2d7c267f6ad2fc1ffad59acf3d69e880ee3096928b9391ad452485fe"
