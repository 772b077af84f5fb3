"""Grid and JSON fraction formats, margin lists, rendering."""
import functools
import random

import pytest
from hypothesis import given, strategies as st

from satfrac.fileio import (
    ParseError,
    parse_fraction_file,
    parse_fraction_text,
    parse_margin_vector,
    render_grid,
    render_json,
    render_signed_table,
)
from satfrac.saturation import enumerate_saturated

import oracles


def test_grid_with_header():
    points, I, J = parse_fraction_text("3 3\n111\n100\n100\n")
    assert (I, J) == (3, 3)
    assert points == ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))


def test_grid_without_header():
    points, I, J = parse_fraction_text("1100\n0110\n0011\n")
    assert (I, J) == (3, 4)
    assert len(points) == 6


def test_grid_tolerates_surrounding_whitespace():
    points, I, J = parse_fraction_text("  10\n  01\n\n\n")
    assert (I, J) == (2, 2)
    assert points == ((1, 1), (2, 2))


def test_grid_skips_leading_blank_lines():
    plain = parse_fraction_text("3 4\n1100\n0110\n0011\n")
    assert parse_fraction_text("\n  \n3 4\n1100\n0110\n0011\n") == plain
    assert parse_fraction_text("\n1100\n0110\n0011\n") == plain
    with pytest.raises(ParseError) as err:
        parse_fraction_text("\n\n3 3\n111\n120\n100\n")
    assert (err.value.line, err.value.column) == (5, 2)
    with pytest.raises(ParseError) as err:
        parse_fraction_text("\n3 4\n1100\n0110\n")
    assert err.value.line == 2


def test_json_input():
    text = '{"I":3,"J":4,"points":[[1,1],[1,2],[2,2],[2,3],[3,3],[3,4]]}'
    points, I, J = parse_fraction_text(text)
    assert (I, J) == (3, 4)
    assert points == ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))


def test_detection_by_first_character():
    assert parse_fraction_text('  {"I":2,"J":2,"points":[[1,1]]}')[0] == ((1, 1),)
    assert parse_fraction_text("11\n10\n")[1] == 2


def test_bad_character_names_the_cell():
    with pytest.raises(ParseError) as err:
        parse_fraction_text("3 3\n111\n120\n100\n")
    assert err.value.line == 3
    assert err.value.column == 2
    assert "2" in str(err.value)


def test_bad_character_without_header():
    with pytest.raises(ParseError) as err:
        parse_fraction_text("111\n1x0\n")
    assert err.value.line == 2
    assert err.value.column == 2


def test_ragged_rows():
    with pytest.raises(ParseError) as err:
        parse_fraction_text("110\n11\n")
    assert err.value.line == 2


def test_header_row_count_mismatch():
    with pytest.raises(ParseError):
        parse_fraction_text("3 4\n1100\n0110\n")


def test_empty_input():
    with pytest.raises(ParseError):
        parse_fraction_text("")
    with pytest.raises(ParseError):
        parse_fraction_text("   \n  \n")


def test_json_errors():
    with pytest.raises(ParseError):
        parse_fraction_text("{not json")
    with pytest.raises(ParseError):
        parse_fraction_text('{"I": 2, "J": 2}')
    with pytest.raises(ParseError):
        parse_fraction_text('{"I": 2, "J": 2, "points": [[1]]}')
    with pytest.raises(ParseError):
        parse_fraction_text('{"I": "2", "J": 2, "points": []}')
    with pytest.raises(ParseError):
        parse_fraction_text('[1, 2]')


def test_json_rejects_booleans():
    for text in ('{"I": true, "J": 3, "points": []}',
                 '{"I": 2, "J": 2, "points": [[true, 1], [2, 2]]}'):
        with pytest.raises(ParseError, match="integer"):
            parse_fraction_text(text)


def test_json_duplicate_and_range_errors():
    with pytest.raises(ParseError):
        parse_fraction_text('{"I":2,"J":2,"points":[[1,1],[1,1]]}')
    with pytest.raises(ParseError):
        parse_fraction_text('{"I":2,"J":2,"points":[[3,1]]}')


def test_degenerate_grid_size():
    with pytest.raises(ParseError):
        parse_fraction_text("1\n")  # 1x1 grid


def test_parse_file_and_stdin(tmp_path, monkeypatch):
    f = tmp_path / "frac.grid"
    f.write_text("11\n10\n")
    assert parse_fraction_file(str(f))[1:] == (2, 2)

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("11\n10\n"))
    assert parse_fraction_file("-")[1:] == (2, 2)

    with pytest.raises(ParseError):
        parse_fraction_file(str(tmp_path / "missing.grid"))


def test_parse_margin_vector():
    assert parse_margin_vector("3,1,2") == (3, 1, 2)
    assert parse_margin_vector(" 4, 1 ,1,1 ") == (4, 1, 1, 1)
    with pytest.raises(ParseError):
        parse_margin_vector("3;1;2")
    with pytest.raises(ParseError):
        parse_margin_vector("3,,2")


def test_render_grid():
    assert render_grid([(1, 1), (2, 2)], 2, 2) == "2 2\n10\n01\n"
    assert render_grid([(1, 1), (2, 2)], 2, 2, header=False) == "10\n01\n"


def test_render_json_is_one_sorted_line():
    out = render_json([(2, 1), (1, 2)], 2, 2)
    assert out == '{"I": 2, "J": 2, "points": [[1, 2], [2, 1]]}'
    assert "\n" not in out


@pytest.mark.parametrize("points, message", [
    ([(1, 1), (3, 1)], "point (3, 1) outside the 2 x 2 grid"),
    ([(1, 0)], "point (1, 0) outside the 2 x 2 grid"),
    ([(2, 1), (1, 2), (2, 1)], "duplicate point (2, 1)"),
    ([(1, True)], "point (1, True) has non-integer levels"),
    ([(1.0, 1)], "point (1.0, 1) has non-integer levels"),
    ([[1, 1]], "point [1, 1] is not a pair"),
    ([(1, 1, 1)], "point (1, 1, 1) is not a pair"),
])
def test_renderers_refuse_bad_points(points, message):
    # the public renderers check what they are given; the CLI's cell
    # streams go through the same text builder without the check
    for render in (render_json, render_grid, functools.partial(render_grid, header=False)):
        with pytest.raises(ValueError) as exc:
            render(points, 2, 2)
        assert str(exc.value) == message


def _render_outcomes(points, I, J):
    """Every renderer's text, or its exception type and message, fast and slow."""
    calls = (
        (render_json, oracles.slow_render_json, ()),
        (render_grid, oracles.slow_render_grid, ()),
        (render_grid, oracles.slow_render_grid, (False,)),
    )
    out = []
    for fast, slow, extra in calls:
        pair = []
        for fn in (fast, slow):
            try:
                pair.append(fn(list(points), I, J, *extra))
            except Exception as e:
                pair.append((type(e), str(e)))
        out.append(pair)
    return out


def test_renderers_match_slow_routes_on_every_3x4_saturated_fraction():
    fractions = list(enumerate_saturated(3, 4))
    assert len(fractions) == 432
    for f in fractions:
        for fast, slow in _render_outcomes(f, 3, 4):
            assert fast == slow


def test_renderers_match_slow_routes_on_random_subsets():
    rng = random.Random(6060)
    for _ in range(1200):
        I, J = rng.randint(2, 8), rng.randint(2, 8)
        cells = [(i, j) for i in range(1, I + 1) for j in range(1, J + 1)]
        pts = rng.sample(cells, rng.randint(0, len(cells)))
        if rng.random() < 0.5:
            pts.sort()
        if pts and rng.random() < 0.1:
            pts.append(rng.choice(pts))
        if rng.random() < 0.1:
            pts.append(rng.choice([(0, 1), (I + 1, J), (True, 1), (1, 2.0)]))
        for fast, slow in _render_outcomes(pts, I, J):
            assert fast == slow, (pts, I, J)
    for I, J in (("3", 4), (3, "4"), (1, 4), (True, 4), (3, 2.0), (-2, -3)):
        for fast, slow in _render_outcomes([(1, 1)], I, J):
            assert fast == slow, (I, J)


def test_render_signed_table():
    assert render_signed_table(((1, -1), (-1, 1))) == "1 -1\n-1 1\n"
    assert render_signed_table([[0, 1, -1]]) == "0 1 -1\n"
    rng = random.Random(2)
    for _ in range(200):
        I, J = rng.randint(1, 12), rng.randint(1, 12)
        move = tuple(tuple(rng.choice((-1, 0, 1)) for _ in range(J)) for _ in range(I))
        assert render_signed_table(move) == oracles.dense_move_text(move)


@pytest.mark.parametrize("move, message", [
    (((1, -2), (-1, 1)), "move entries must be ints in {-1, 0, 1}: -2 at row 1, column 2"),
    (((1, -1), (-1, True)), "move entries must be ints in {-1, 0, 1}: True at row 2, column 2"),
    (((1, -1), (-1, 1.0)), "move entries must be ints in {-1, 0, 1}: 1.0 at row 2, column 2"),
    (((1, -1), (-1,)), "move is ragged: row 2 has 1 entries, expected 2"),
    ((1, -1), "move is not a sequence of rows"),
    ((), "move is 0 x 0: it has no cells"),
    (((),), "move is 1 x 0: it has no cells"),
])
def test_render_signed_table_refuses_what_the_encoder_refuses(move, message):
    with pytest.raises(ValueError) as exc:
        render_signed_table(move)
    assert str(exc.value) == message


@st.composite
def random_fractions(draw):
    I = draw(st.integers(2, 6))
    J = draw(st.integers(2, 6))
    cells = [(i, j) for i in range(1, I + 1) for j in range(1, J + 1)]
    pts = tuple(sorted(draw(st.sets(st.sampled_from(cells), max_size=len(cells)))))
    return pts, I, J


@given(random_fractions())
def test_grid_round_trip(case):
    pts, I, J = case
    assert parse_fraction_text(render_grid(pts, I, J)) == (pts, I, J)


@given(random_fractions())
def test_json_round_trip(case):
    pts, I, J = case
    assert parse_fraction_text(render_json(pts, I, J)) == (pts, I, J)
