"""SVG emission: the piece-table renders against the per-cell oracle, and the
fixed-point decimals against Python's own formatting."""

import random

import numpy as np
import pytest
from brute_force import per_cell_render

from aughts import rows
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
