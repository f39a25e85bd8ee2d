"""Space expression parsing, formatting, and building."""

import warnings

import pytest

from scaledim import (SmallCircleWarning, SpecParseError, build_space,
                      build_with_witnesses, cyclic_group, format_spec,
                      group_truncation, interval, l1_axis_subsets, parse_spec,
                      truncation_factors, wedge_arm_subsets, wedge_truncation,
                      weight_schedule)


def build(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallCircleWarning)
        return build_space(parse_spec(text))


def same_metric(a, b):
    assert a.size == b.size
    for i in range(a.size):
        for j in range(a.size):
            assert a.dist(i, j) == b.dist(i, j)


@pytest.mark.parametrize("text", [
    "interval(3,1)",
    "circle(9,2)",
    "group(3,2)",
    "wedgegroup(3,3)",
    "wedge(circle(3,1),interval(2,2))",
    "sum(circle(3,1),circle(9,2))",
    "sub(circle(9,1),[0,2,4])",
    "scale(interval(2,1),3)",
])
def test_format_round_trips(text):
    spec = parse_spec(text)
    assert format_spec(spec) == text
    assert parse_spec(format_spec(spec)) == spec


def test_whitespace_is_insignificant():
    spec = parse_spec(" sum( circle(3, 1),\n circle(9, 2) ) ")
    assert format_spec(spec) == "sum(circle(3,1),circle(9,2))"


def test_group_spec_matches_construction():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallCircleWarning)
        same_metric(build("group(3,2)"), group_truncation(3, 2))
        same_metric(build("wedgegroup(3,2)"), wedge_truncation(3, 2))
        # the schedule is just weighted circles glued coordinatewise
        same_metric(build("group(3,2)"), build("sum(circle(3,1),circle(9,2))"))


def test_sub_scale_and_nesting():
    sp = build("sub(scale(interval(3,1),2),[0,1,3])")
    assert sp.size == 3
    assert sp.dist(0, 2) == 6


def test_matrix_spec(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n0 4\n4 0\n")
    sp = build(f'matrix("{path}")')
    assert sp.size == 2
    assert sp.dist(0, 1) == 4


def test_witnesses_for_sums_and_wedges():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallCircleWarning)
        space, wit = build_with_witnesses(parse_spec("group(3,3)"))
        assert space.size == 729
        assert [len(w) for w in wit] == [3, 9, 27]
        group_factors = truncation_factors(weight_schedule(3, 3, "group"))
        assert wit == l1_axis_subsets(group_factors)
        space, wit = build_with_witnesses(parse_spec("wedgegroup(3,3)"))
        assert space.size == 37
        assert space.label == "wedgegroup(3,3)"
        assert [len(w) for w in wit] == [3, 9, 27]
        wedge_factors = truncation_factors(weight_schedule(3, 3, "wedge"))
        assert wit == wedge_arm_subsets(wedge_factors)
        space, wit = build_with_witnesses(parse_spec("interval(4,1)"))
        assert wit == []
    factors = [cyclic_group(3, 1), interval(2, 5)]
    _, wit = build_with_witnesses(parse_spec("sum(circle(3,1),interval(2,5))"))
    assert wit == l1_axis_subsets(factors) == [[0, 1, 2], [0, 3, 6]]
    _, wit = build_with_witnesses(parse_spec("wedge(circle(3,1),interval(2,5))"))
    assert wit == wedge_arm_subsets(factors) == [[0, 1, 2], [0, 3, 4]]
    _, wit = build_with_witnesses(
        parse_spec("scale(sum(circle(3,1),interval(2,5)),2)"))
    assert wit == l1_axis_subsets(factors)
    text = "sub(sum(circle(3,1),interval(2,5)),[0,1,3])"
    assert build_with_witnesses(parse_spec(text))[1] == []


def err(text):
    with pytest.raises(SpecParseError) as info:
        parse_spec(text)
    return info.value


def test_arity_error_points_at_the_call():
    e = err("sum(circle(3,1),circle(9))")
    assert "circle takes 2 arguments" in str(e)
    assert (e.line, e.col) == (1, 17)


def test_range_errors():
    e = err("circle(2,1)")
    assert "m >= 3" in str(e)
    e = err("interval(0,1)")
    assert "k >= 1" in str(e)
    e = err("scale(interval(2,1),0)")
    assert "a >= 1" in str(e)


@pytest.mark.parametrize("text, col", [("group(2,64)", 1),
                                       ("wedgegroup(2,30)", 1),
                                       ("sum(circle(3,1),group(2,2))", 17)])
def test_group_needs_p_at_least_3(text, col):
    # A 2-point circle is not a cyclic_group, so p = 2 is refused at
    # parse time, not by the constructor it would call.
    e = err(text)
    assert "group argument 1 out of range: needs p >= 3, got 2" in str(e)
    assert (e.line, e.col) == (1, col)


def test_unknown_constructor_lists_alternatives():
    e = err("ball(3)")
    assert "unknown constructor" in str(e)
    assert e.expected.startswith("one of ")


def test_structural_errors():
    assert "at least one factor" in str(err("wedge()"))
    assert "must be a space expression" in str(err("sum(3)"))
    assert "must be a quoted path" in str(err("matrix(3)"))
    assert "must be a [..] list" in str(err('sub(circle(3,1),"x")'))
    assert "trailing input" in str(err("circle(3,1))"))
    assert "unterminated string" in str(err('matrix("oops'))
    assert "unexpected character" in str(err("circle(3,1)!"))
    for digit in "³٣":  # digits to str.isdigit, not to the grammar
        e = err(f"circle({digit},1)")
        assert (e.line, e.col) == (1, 8)
        assert f"unexpected character {digit!r}" in str(e)
    e = err("wedge(interval(1,1),")
    assert e.expected == "an argument"


def test_multiline_error_position():
    e = err("sum(circle(3,1),\n       circle(1,1))")
    assert (e.line, e.col) == (2, 8)


def test_build_errors_are_plain_value_errors(tmp_path):
    with pytest.raises(ValueError, match="out of range"):
        build("sub(interval(2,1),[7])")
    missing = tmp_path / "nope.txt"
    with pytest.raises(OSError):
        build(f'matrix("{missing}")')
