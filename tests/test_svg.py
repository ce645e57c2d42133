import re
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lxcim.svg as svg
from lxcim.svg import Series, line_chart


def reference_points(x, y) -> str:
    """The polyline coordinates as the per-point closures wrote them before."""

    def px(value):
        return svg._MARGIN_LEFT + value * svg._PLOT_W

    def py(value):
        return svg._MARGIN_TOP + svg._PLOT_H - value * svg._PLOT_H

    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    return " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))


def polylines(chart: str) -> list[str]:
    return re.findall(r'<polyline points="([^"]*)"', chart)


def awkward_column(rng, n, scale):
    """n seeded values: exact ends, signed zeros, subnormals, and values whose
    coordinate ``value * scale`` lands on or next to a ``.xx5`` boundary, where
    ``.2f`` rounding depends on the last bit."""
    special = np.array([0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0 - 2**-53])
    # eighths are exact in binary, so ``.125`` and ``.625`` are true ties; ``.005`` is not
    fractions = rng.choice([0.005, 0.125, 0.375, 0.625, 0.875], n // 4)
    targets = rng.integers(0, scale, n // 4) + fractions
    boundary = targets / scale
    near = np.concatenate([np.nextafter(boundary, -np.inf), np.nextafter(boundary, np.inf)])
    rest = rng.random(n - len(special) - len(boundary) - len(near))
    column = np.concatenate([special, boundary, near, rest])
    return column[rng.permutation(len(column))]


class TestPolylineBytes:
    """``line_chart`` formats whole columns; every coordinate keeps its old bytes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_point_reference(self, seed):
        rng = np.random.default_rng(seed)
        x = awkward_column(rng, 5000, svg._PLOT_W)
        y = awkward_column(rng, 5000, svg._PLOT_H)
        assert len(x) == len(y) == 5000
        sorted_x = np.sort(x)
        series = [
            Series("unsorted", x, y),
            Series("sorted", sorted_x, y, dashed=True),
            Series("two", [0.0, 1.0], [-0.0, 1.0]),
        ]
        chart = line_chart(series, title="t")
        assert polylines(chart) == [
            reference_points(x, y),
            reference_points(sorted_x, y),
            reference_points([0.0, 1.0], [-0.0, 1.0]),
        ]

    @pytest.mark.parametrize("scale", [svg._PLOT_W, svg._PLOT_H])
    def test_boundaries_are_really_hit(self, scale):
        # the data above does put coordinates on exact .xx5 ties
        column = awkward_column(np.random.default_rng(0), 5000, scale)
        thousandths = column * scale * 1000
        on_tie = (thousandths == np.round(thousandths)) & (np.round(thousandths) % 10 == 5)
        assert np.count_nonzero(on_tie) > 300

    def test_sequences_and_arrays_alike(self):
        x, y = (0.0, 0.3, 1.0), [0.1, 0.2, 0.999]
        chart = line_chart([Series("s", x, y)])
        assert polylines(chart) == [reference_points(x, y)]

    def test_one_point_is_a_circle(self):
        chart = line_chart([Series("dot", [0.125], [0.375])])
        assert polylines(chart) == []
        assert '<circle cx="144.00" cy="310.00" r="3"' in chart


def near_coordinate(offset, slope):
    """Values whose coordinate ``offset + slope * value`` lies at a drawn target, give or take an ulp of the value."""
    targets = st.one_of(
        st.integers(-(2**18), 2**18).map(lambda k: (k + 0.5) / 100),  # on .xx5, either side of 1024
        st.sampled_from([1024.0, -1024.0, 1023.995, 1023.994, 1024.005, -1023.995]),
        st.floats(-0.01, 0.01),  # prints 0.00 or -0.00
        st.floats(-1e6, 1e6),
    )

    def place(target, step):
        value = (target - offset) / slope
        return float(np.nextafter(value, step * np.inf)) if step else value

    return st.builds(place, targets, st.sampled_from([-1, 0, 1]))


ANY_FINITE = st.one_of(
    st.floats(-1e305, 1e305),  # every finite value whose coordinate stays finite
    st.floats(-1e-300, 1e-300),  # subnormals and signed zeros
)
X_VALUES = st.one_of(ANY_FINITE, near_coordinate(svg._MARGIN_LEFT, svg._PLOT_W))
Y_VALUES = st.one_of(ANY_FINITE, near_coordinate(svg._MARGIN_TOP + svg._PLOT_H, -svg._PLOT_H))


class TestPolylineFallback:
    """Coordinates the tables cannot prove exact are formatted one by one, in place."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(X_VALUES, Y_VALUES), min_size=2, max_size=40))
    def test_matches_per_point_reference(self, points):
        x, y = zip(*points)
        assert polylines(line_chart([Series("s", x, y)])) == [reference_points(x, y)]

    def test_each_kind_of_fallback_in_one_series(self):
        # coordinates: a tiny negative, the bound, a huge one, a true tie .125, a near tie .285
        x = [float(np.nextafter(-0.1, -1.0)), 1.5, 1e300, -1e-310, 0.125 / 640, (0.285 - 64) / 640, 0.5]
        y = [1.0, 0.0, -1e300, 5e-324, 1.0, 1.0 - 1e-9, 0.5]
        (points,) = polylines(line_chart([Series("s", x, y)]))
        assert points == reference_points(x, y)
        assert points.startswith("-0.00,40.00 1024.00,472.00 6400000")
        assert points.endswith(" 64.12,40.00 0.28,40.00 384.00,256.00")


class TestNonFinite:
    """A series that would put ``nan`` or ``inf`` into the SVG is rejected."""

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, np.nan, 1.0], [0.0, 0.5, np.inf]),
            ([np.nan], [0.5]),
            ([0.0, 1.0], [0.0, -np.inf]),
            ([0.0, 1e308], [0.0, 1.0]),  # finite, but the pixel coordinate overflows
        ],
        ids=["nan-and-inf", "one-point-nan", "minus-inf", "overflowing-coordinate"],
    )
    def test_raises_value_error(self, x, y):
        with pytest.raises(ValueError, match="finite"):
            line_chart([Series("s", [0.0, 1.0], [0.0, 1.0]), Series("bad", x, y)])


AWKWARD_TEXT = [
    "plain",
    "a & b",
    "x < y > z",
    "&amp; &lt; already escaped",
    "quotes \" and ' stay",
    "naïve ∂/∂x — résumé 日本語",
    "<script>alert('x')</script>",
    "",
]


class TestEscape:
    """The text escape is ``xml.sax.saxutils.escape``'s, without importing ``xml``."""

    @pytest.mark.parametrize("text", AWKWARD_TEXT)
    def test_matches_sax_escape(self, text):
        assert svg._escape(text) == sax_escape(text)

    @given(st.text())
    def test_matches_sax_escape_on_any_text(self, text):
        assert svg._escape(text) == sax_escape(text)

    def test_titles_and_labels_escaped_in_chart(self):
        title, x_label, y_label, label = (AWKWARD_TEXT[i] for i in (1, 2, 4, 5))
        chart = line_chart(
            [Series(label, [0.0, 1.0], [0.0, 1.0])], title=title, x_label=x_label, y_label=y_label
        )
        for text in (title, x_label, y_label, label):
            assert f">{sax_escape(text)}</text>" in chart
