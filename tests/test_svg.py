"""SVG emission: the piece-table renders against the per-cell oracle, and the
fixed-point decimals against Python's own formatting."""

import random
import tracemalloc

import numpy as np
import pytest
from brute_force import per_cell_render

from aughts import rows, svg
from aughts.census import COORD_LIMIT, Region
from aughts.svg import RenderSpec, _thousandths, render_svg


def _random_palette(rng, size):
    def color():
        digits = rng.choice((3, 6))
        text = "".join(rng.choice("0123456789abcdef") for _ in range(digits))
        return "#" + (text.upper() if rng.random() < 0.3 else text)

    return tuple(color() for _ in range(size))


def _random_rect(rng):
    shape = rng.choice(("empty", "row", "column", "box", "corner"))
    w, h = rng.randint(1, 120), rng.randint(1, 120)
    if shape == "row":
        w, h = rng.randint(1, 70_000), 1
    elif shape == "column":
        w, h = 1, rng.randint(1, 70_000)
    x0, y0 = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
    if shape == "corner":
        x0 = rng.choice((-COORD_LIMIT, COORD_LIMIT - w + 1))
        y0 = rng.choice((-COORD_LIMIT, COORD_LIMIT - h + 1))
    x1, y1 = x0 + w - 1, y0 + h - 1
    if shape == "empty":
        if rng.random() < 0.5:
            x1 = x0 - rng.randint(1, 5)
        else:
            y1 = y0 - rng.randint(1, 5)
    return Region.rect(x0, x1, y0, y1)


def _random_spec(seed):
    rng = random.Random(f"render-oracle:{seed}")
    kind = ("square", "sym_square", "hexagon", "disk", "rect")[seed % 5]
    if kind == "rect":
        region = _random_rect(rng)
    else:
        # one in six regions spans several scan blocks
        size = rng.randint(1, 160 if rng.random() < 1 / 6 else 40)
        region = getattr(Region, kind)(size)
    mode = rng.choice(("mod_color", "diametral", "projection"))
    modulus = rng.randint(2, 19)
    scale = rng.choice((1, 2, 3, 10, 2**63, rng.randint(1, 10**20)))
    return RenderSpec(
        region=region,
        mode=mode,
        modulus=modulus if mode == "mod_color" else None,
        palette=_random_palette(rng, rng.randint(modulus, 24)),
        scale=scale,
    )


def _assert_same_lines(got, want):
    # a plain == would make pytest diff two strings of megabytes
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        first = next((pair for pair in pairs if pair[0] != pair[1]), "one is a prefix")
        pytest.fail(f"first differing line (got, want): {first}")


@pytest.mark.parametrize(
    "seed, block_points",
    [pytest.param(seed, rows._RUN, id=str(seed)) for seed in range(150)]
    + [(seed, points) for seed in range(25) for points in (1, 7, 100)],
)
def test_render_matches_per_cell_oracle(monkeypatch, seed, block_points):
    # small blocks start and end mid-row, so a block's columns need not
    # fill the range from its least to its greatest
    spec = _random_spec(seed)
    want = per_cell_render(spec)
    monkeypatch.setattr(rows, "_RUN", block_points)
    _assert_same_lines(render_svg(spec), want)


@pytest.mark.parametrize(
    "region",
    [
        Region.rect(0, 0, 0, 0),
        Region.rect(5, 4, 0, 3),
        Region.rect(0, 3, 7, 6),
        Region.rect(-70_000, 69_999, 2, 2),
        Region.rect(COORD_LIMIT, COORD_LIMIT, -COORD_LIMIT, -COORD_LIMIT + 40_000),
        Region.rect(-COORD_LIMIT, -COORD_LIMIT + 300, COORD_LIMIT - 300, COORD_LIMIT),
    ],
)
@pytest.mark.parametrize("mode", ["mod_color", "diametral", "projection"])
def test_render_edge_rects_match_per_cell_oracle(region, mode):
    spec = RenderSpec(
        region=region, mode=mode, modulus=19 if mode == "mod_color" else None, scale=10**20
    )
    _assert_same_lines(render_svg(spec), per_cell_render(spec))


def _spy_layouts(monkeypatch):
    """The pieces per cell of each block that ``svg._gather`` gathers."""
    layouts = []
    gather = svg._gather

    def spy(pieces, seq):
        layouts.append(seq.shape[1])
        return gather(pieces, seq)

    monkeypatch.setattr(svg, "_gather", spy)
    return layouts


@pytest.mark.parametrize("block_points", [1, 7, 100, rows._RUN])
@pytest.mark.parametrize(
    "mode, colors", [("mod_color", 2), ("mod_color", 3), ("mod_color", 7), ("diametral", 2)]
)
def test_render_at_the_two_piece_rule_matches_per_cell_oracle(
    monkeypatch, mode, colors, block_points
):
    # a block is two pieces per cell where 8 * rows * colors <= cells, so a
    # block of whole rows is two exactly when it is 8 * colors wide or more;
    # a small block starts and ends mid-row and may fall on either side
    rng = random.Random(f"two-piece-rule:{mode}:{colors}")
    palette = _random_palette(rng, colors + 5)
    for width in (8 * colors - 1, 8 * colors, 8 * colors + 1):
        for height in (1, 3, 40):
            spec = RenderSpec(
                region=Region.rect(-(width // 2), width - width // 2 - 1, -1, height - 2),
                mode=mode,
                modulus=colors if mode == "mod_color" else None,
                palette=palette,
                scale=rng.choice((1, 3, 10**20)),
            )
            want = per_cell_render(spec)
            with monkeypatch.context() as patch:
                patch.setattr(rows, "_RUN", block_points)
                layouts = _spy_layouts(patch)
                _assert_same_lines(render_svg(spec), want)
            if block_points == rows._RUN:
                # one block of whole rows
                assert layouts == [2 if width >= 8 * colors else 3]


@pytest.mark.parametrize(
    "region, modulus, scale, pieces",
    [
        (Region.sym_square(300), 12, 5, 2),
        (Region.rect(-50_000, 49_999, -1, 1), 5, 1, 2),
        (Region.rect(0, 0, 0, 4 * rows._RUN - 1), 19, 1, 3),
    ],
    ids=["sym_square_300", "rect_of_3_rows", "column_of_4_blocks"],
)
def test_wide_blocks_gather_two_pieces_per_cell(monkeypatch, region, modulus, scale, pieces):
    layouts = _spy_layouts(monkeypatch)
    render_svg(RenderSpec(region=region, mode="mod_color", modulus=modulus, scale=scale))
    assert layouts and set(layouts) == {pieces}


@pytest.mark.parametrize(
    "region, size", [(Region.rect(5, 0, 0, 3), (0, 40)), (Region.rect(0, 3, 5, 0), (40, 0))]
)
@pytest.mark.parametrize("mode", ["mod_color", "diametral"])
def test_empty_rect_renders_with_a_side_of_0(region, size, mode):
    # the side of an empty rect is 0 pixels, as SVG forbids a negative one
    spec = RenderSpec(region=region, mode=mode, modulus=19 if mode == "mod_color" else None)
    width, height = size
    header = f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    text = render_svg(spec)
    assert header in text and "<rect" not in text


@pytest.mark.parametrize("field", [{"modulus": 2.5}, {"scale": 2.5}, {"scale": np.float64(3)}])
def test_render_spec_refuses_a_float_modulus_or_scale(field):
    # a float modulus rendered truncated residues; a float scale is no
    # whole number of pixels
    with pytest.raises(TypeError):
        RenderSpec(region=Region.square(3), mode="mod_color", **{"modulus": 5, **field})


@pytest.mark.parametrize("mode", ["mod_color", "diametral"])
def test_render_spec_takes_numpy_integers_as_ints(mode):
    # 2^62 pixels per unit wrapped in int64 when the scale stayed np.int64
    region = Region.disk(3)
    for scale in (2**62, 7):
        as_int = RenderSpec(region=region, mode=mode, modulus=5, scale=scale)
        as_numpy = RenderSpec(region=region, mode=mode, modulus=np.int64(5), scale=np.int64(scale))
        assert type(as_numpy.scale) is int and type(as_numpy.modulus) is int
        assert render_svg(as_numpy) == render_svg(as_int) == per_cell_render(as_int)


@pytest.mark.parametrize(
    "colors, message", [(1, "palette has 1 color, need 2"), (2, "palette has 2 colors, need 3")]
)
def test_render_spec_counts_the_palette_colors(colors, message):
    palette = svg.DEFAULT_PALETTE[:colors]
    with pytest.raises(ValueError, match=f"^{message}$"):
        RenderSpec(region=Region.square(2), mode="mod_color", modulus=colors + 1, palette=palette)


def test_render_spec_takes_the_generator_order_as_an_int():
    # a float order was passed on to the orbit and taken as the int it equals
    region, seed = Region.square(5), (2, 3)
    with pytest.raises(TypeError):
        RenderSpec(region=region, mode="single_orbit", seed=seed, first_generator=2.0)
    as_int = RenderSpec(region=region, mode="single_orbit", seed=seed, first_generator=2)
    as_numpy = RenderSpec(region=region, mode="single_orbit", seed=seed, first_generator=np.int64(2))
    assert type(as_numpy.first_generator) is int
    assert render_svg(as_numpy) == render_svg(as_int)


def test_a_second_projection_render_builds_no_table(monkeypatch):
    # the table of 3,962 pieces is built once per process: a later render
    # neither rebuilds it nor turns a list of pieces into an object array
    spec = RenderSpec(region=Region.sym_square(25), mode="projection")
    first = render_svg(spec)
    built = []
    array = np.array

    def spy(obj, *args, **kwargs):
        if kwargs.get("dtype") is object:
            built.append(len(obj))
        return array(obj, *args, **kwargs)

    monkeypatch.setattr(np, "array", spy)
    assert render_svg(spec) == first
    assert built == []
    # one side, 480 pixels, so one table in all
    assert svg._projection_pieces.cache_info().misses == 1
    assert not svg._projection_pieces(480).flags.writeable
    # cx's integer parts and decimals, cy's integer parts, then cy's
    # decimals merged with each of the two colors
    assert len(svg._projection_pieces(480)) == 2 * 481 + 3000


@pytest.mark.parametrize(
    "region, modulus, scale, bound",
    [
        (Region.sym_square(300), 12, 5, 1.5),
        # each one-column block is joined when it is made, and the render
        # joins their strings: the blocks and the document, and no more
        (Region.rect(0, 0, 0, 4 * rows._RUN - 1), 19, 1, 2.0),
    ],
    ids=["sym_square_300", "column_of_4_blocks"],
)
def test_a_render_holds_less_than_twice_its_document(region, modulus, scale, bound):
    spec = RenderSpec(region=region, mode="mod_color", modulus=modulus, scale=scale)
    tracemalloc.start()  # numpy's buffers are traced as well
    try:
        out = render_svg(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # to two places: object headers add a few hundred bytes
    assert round(peak / len(out), 2) <= bound


def test_a_wide_render_holds_at_most_1_35_times_its_document():
    # two pieces per cell: each block of sym_square(300) waits for the join
    # as two gathered pieces per cell, not three
    spec = RenderSpec(region=Region.sym_square(300), mode="mod_color", modulus=12, scale=5)
    tracemalloc.start()
    try:
        out = render_svg(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert round(peak / len(out), 2) <= 1.35


def _fixed3(values):
    return [f"{t // 1000}.{t % 1000:03d}" for t in _thousandths(np.array(values)).tolist()]


def _python_fixed3(values):
    return [format(v, ".3f") for v in values]


# exact ties of the decimal rounding: odd multiples of 1/16
TIES = [20.0625, 240.0625, 240.1875, 459.9375]


def test_thousandths_dyadic_ties_and_their_neighbours():
    ties = TIES + [k / 16 for k in range(20 * 16 + 1, 460 * 16, 2)]
    values = ties + [float(np.nextafter(v, d)) for v in ties for d in (0.0, 1000.0)]
    assert _fixed3(values) == _python_fixed3(values)


def test_thousandths_takes_the_near_tie_fallback():
    # fl(1000 v) is an exact half-integer for most of these, and rounding it up, or
    # to even with np.rint, misses the side on which 1000 v really lies
    values = [float(f"{k}.{m:03d}5") for k in (20, 21, 99, 255, 256, 300, 459) for m in range(1000)]
    t = np.array(values) * 1000.0
    python = _python_fixed3(values)
    assert _fixed3(values) == python
    rounded_up = [f"{r // 1000}.{r % 1000:03d}" for r in np.floor(t + 0.5).astype(int).tolist()]
    to_even = [f"{r // 1000}.{r % 1000:03d}" for r in np.rint(t).astype(int).tolist()]
    assert rounded_up != python and to_even != python
    # 20.0625 is a tie that Python rounds down, to even
    assert _fixed3([20.0625]) == ["20.062"] and np.floor(20062.5 + 0.5) == 20063


def test_thousandths_random_doubles():
    values = np.random.default_rng(0).uniform(20, 460, 10**5).tolist()
    assert _fixed3(values) == _python_fixed3(values)
