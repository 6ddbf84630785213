"""Formula language tests: addresses, parsing, rendering, rewriting."""

import pytest

from sheetlint.scl import (
    BinaryOp,
    Call,
    CellAddress,
    CellRef,
    FormulaSyntaxError,
    MalformedAddress,
    Negate,
    NoReference,
    NormRef,
    NumberLiteral,
    RangeArg,
    RangeOutsideCall,
    RangeRef,
    Reference,
    UnknownFunction,
    column_letters,
    column_number,
    format_number,
    map_refs,
    normalize,
    parse_address,
    parse_formula,
    render,
    row_major,
    skeleton,
    translate,
)


def ref(col, row, ca=False, ra=False):
    return Reference(CellRef(col, row, ca, ra))


class TestColumns:
    def test_known_spellings(self):
        # Bijective base 26: no zero digit, Z carries into AA.
        assert column_letters(1) == "A"
        assert column_letters(2) == "B"
        assert column_letters(26) == "Z"
        assert column_letters(27) == "AA"
        assert column_letters(28) == "AB"
        assert column_letters(52) == "AZ"
        assert column_letters(53) == "BA"
        assert column_letters(702) == "ZZ"
        assert column_letters(703) == "AAA"

    def test_decode_matches_spelling(self):
        assert column_number("A") == 1
        assert column_number("Z") == 26
        assert column_number("AA") == 27
        assert column_number("ZZ") == 702
        assert column_number("aa") == 27

    def test_round_trip(self):
        for col in range(1, 2000):
            assert column_number(column_letters(col)) == col

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            column_letters(0)
        with pytest.raises(ValueError):
            column_number("A1")


class TestAddresses:
    def test_parse_and_str(self):
        addr = parse_address("B12")
        assert addr == CellAddress(2, 12)
        assert str(addr) == "B12"
        assert parse_address("aa10") == CellAddress(27, 10)

    def test_row_major_orders_by_row_first(self):
        addrs = [CellAddress(2, 1), CellAddress(1, 2), CellAddress(1, 1)]
        addrs.sort(key=row_major)
        assert [str(a) for a in addrs] == ["A1", "B1", "A2"]

    def test_rejects_malformed(self):
        for text in ["", "12", "B", "B0", "$B$2", "B2:C3", "B 2"]:
            with pytest.raises(MalformedAddress):
                parse_address(text)

    def test_coordinates_start_at_one(self):
        with pytest.raises(ValueError):
            CellAddress(0, 5)
        with pytest.raises(ValueError):
            CellAddress(5, 0)


class TestRangeRef:
    def test_normalized_sorts_each_axis(self):
        flipped = RangeRef.normalized(CellRef(2, 10), CellRef(2, 2))
        assert str(flipped) == "B2:B10"
        both = RangeRef.normalized(CellRef(4, 9), CellRef(2, 3))
        assert str(both) == "B3:D9"

    def test_normalized_keeps_markers_with_their_endpoint(self):
        # Equal coordinates must not swap a $ from one end to the other.
        rng = RangeRef.normalized(CellRef(1, 1, True, False), CellRef(1, 5))
        assert str(rng) == "$A1:A5"

    def test_geometry(self):
        rng = RangeRef(CellRef(2, 2), CellRef(3, 10))
        assert rng.width() == 2
        assert rng.height() == 9
        assert rng.contains(CellAddress(2, 5))
        assert not rng.contains(CellAddress(4, 5))
        assert len(list(rng.cells())) == 18

    def test_cells_iterate_row_major(self):
        rng = RangeRef(CellRef(1, 1), CellRef(2, 2))
        assert [str(a) for a in rng.cells()] == ["A1", "B1", "A2", "B2"]

    def test_overlap(self):
        a = RangeRef(CellRef(2, 2), CellRef(2, 10))
        b = RangeRef(CellRef(2, 8), CellRef(2, 12))
        assert str(a.overlap(b)) == "B8:B10"
        c = RangeRef(CellRef(3, 1), CellRef(3, 4))
        assert a.overlap(c) is None

    def test_rejects_unsorted_corners(self):
        with pytest.raises(ValueError):
            RangeRef(CellRef(2, 10), CellRef(2, 2))


class TestParsing:
    def test_plain_sum(self):
        node = parse_formula("SUM(B2:B10)")
        rng = RangeRef(CellRef(2, 2), CellRef(2, 10))
        assert node == Call("SUM", (RangeArg(rng),))

    def test_precedence_mul_over_add(self):
        node = parse_formula("A1+B1*C1")
        assert node == BinaryOp("+", ref(1, 1), BinaryOp("*", ref(2, 1), ref(3, 1)))

    def test_parentheses_override(self):
        node = parse_formula("(A1+B1)*C1")
        assert node == BinaryOp("*", BinaryOp("+", ref(1, 1), ref(2, 1)), ref(3, 1))

    def test_left_associative_subtraction(self):
        node = parse_formula("A1-B1-C1")
        assert node == BinaryOp("-", BinaryOp("-", ref(1, 1), ref(2, 1)), ref(3, 1))

    def test_unary_minus_binds_tightest(self):
        node = parse_formula("-A1*B1")
        assert node == BinaryOp("*", Negate(ref(1, 1)), ref(2, 1))
        node = parse_formula("-A1+B1")
        assert node == BinaryOp("+", Negate(ref(1, 1)), ref(2, 1))

    def test_absolute_markers(self):
        node = parse_formula("$B$2+B$2+$B2")
        assert node == BinaryOp(
            "+",
            BinaryOp("+", ref(2, 2, True, True), ref(2, 2, False, True)),
            ref(2, 2, True, False),
        )

    def test_numbers(self):
        node = parse_formula("A1*1.5")
        assert node == BinaryOp("*", ref(1, 1), NumberLiteral(1.5))
        node = parse_formula("A1*2e3")
        assert node == BinaryOp("*", ref(1, 1), NumberLiteral(2000.0))

    def test_call_with_scalar_and_range_args(self):
        node = parse_formula("SUM(A1, B1:B3, 2)")
        rng = RangeRef(CellRef(2, 1), CellRef(2, 3))
        assert node == Call(
            "SUM", (ref(1, 1), RangeArg(rng), NumberLiteral(2.0))
        )

    def test_range_corners_are_sorted_at_parse_time(self):
        node = parse_formula("SUM(B10:B2)")
        assert node == Call("SUM", (RangeArg(RangeRef(CellRef(2, 2), CellRef(2, 10))),))

    def test_whitespace_is_free(self):
        assert parse_formula(" A1 + B2 ") == parse_formula("A1+B2")

    def test_no_reference_rejected(self):
        with pytest.raises(NoReference):
            parse_formula("1+2")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction):
            parse_formula("MEDIAN(A1:A9)")

    def test_range_outside_call_rejected(self):
        with pytest.raises(RangeOutsideCall):
            parse_formula("A1:A9")
        with pytest.raises(RangeOutsideCall):
            parse_formula("A1:A9+1")
        with pytest.raises(RangeOutsideCall):
            parse_formula("SUM((A1:A9))")

    def test_syntax_errors_carry_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("A1+%")
        assert info.value.position == 3
        for text in ["", "A1+", "SUM(A1:A2", "SUM(,A1)", "A1 B2", "SUM(A1:2)"]:
            with pytest.raises(FormulaSyntaxError):
                parse_formula(text)


class TestNumberRange:
    def test_non_finite_literal_is_a_syntax_error(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("A1*1e400")
        assert info.value.position == 3
        assert parse_formula("A1*1e-400") == BinaryOp(
            "*", Reference(CellRef(1, 1)), NumberLiteral(0.0)
        )


class TestRendering:
    def test_format_number_drops_integral_point(self):
        assert format_number(1020.0) == "1020"
        assert format_number(-3.0) == "-3"
        assert format_number(0.5) == "0.5"

    def test_render_known_forms(self):
        assert render(parse_formula("SUM(B2:B10)")) == "SUM(B2:B10)"
        assert render(parse_formula("A1+B1*C1")) == "A1+B1*C1"
        assert render(parse_formula("(A1+B1)*C1")) == "(A1+B1)*C1"
        assert render(parse_formula("$B$2+B$2")) == "$B$2+B$2"

    def test_render_preserves_tree_shape_at_equal_precedence(self):
        node = BinaryOp("-", ref(1, 1), BinaryOp("-", ref(2, 1), ref(3, 1)))
        assert render(node) == "A1-(B1-C1)"

    def test_round_trip(self):
        samples = [
            "SUM(B2:B10)",
            "A1+B1*C1",
            "(A1+B1)/(C1-D1)",
            "-A1*B1",
            "AVG(A1:A9,B1,3)",
            "MIN($A$1:$A$9)/MAX(A1:A9)",
            "A1-(B1-C1)",
            "COUNT(B2:B10)+1",
        ]
        for text in samples:
            assert render(parse_formula(text)) == text


class TestNormalize:
    def test_relative_axes_become_offsets(self):
        node = parse_formula("A1+$B$2")
        norm = normalize(node, CellAddress(3, 3))
        assert norm == BinaryOp(
            "+",
            Reference(NormRef(-2, -2)),
            Reference(NormRef(2, 2, True, True)),
        )

    def test_copies_normalize_equal(self):
        # The three subtotal formulas of the one-column layout.
        a = normalize(parse_formula("SUM(H3:H5)"), parse_address("H6"))
        b = normalize(parse_formula("SUM(H7:H9)"), parse_address("H10"))
        c = normalize(parse_formula("SUM(H11:H13)"), parse_address("H14"))
        assert a == b == c

    def test_mixed_markers_normalize_per_axis(self):
        a = normalize(parse_formula("A$1+2"), CellAddress(2, 5))
        b = normalize(parse_formula("B$1+2"), CellAddress(3, 9))
        assert a == b

    def test_absolute_reference_pins_the_area_apart(self):
        a = normalize(parse_formula("$A$1*B1"), CellAddress(3, 1))
        b = normalize(parse_formula("$A$1*B2"), CellAddress(3, 2))
        assert a == b
        c = normalize(parse_formula("A1*B1"), CellAddress(3, 1))
        assert a != c


class TestTranslate:
    def test_shifts_relative_axes_only(self):
        node = parse_formula("A1+$B$2")
        moved = translate(node, 1, 1)
        assert render(moved) == "B2+$B$2"

    def test_translate_commutes_with_normalize(self):
        node = parse_formula("SUM(B2:B10)/COUNT(B2:B10)")
        origin = parse_address("B12")
        target = parse_address("D15")
        moved = translate(node, target.col - origin.col, target.row - origin.row)
        assert normalize(moved, target) == normalize(node, origin)

    def test_rejects_moves_off_the_sheet(self):
        with pytest.raises(ValueError):
            translate(parse_formula("A1+A2"), -1, 0)


class TestMapRefs:
    def test_rewrites_only_reference_leaves(self):
        tree = parse_formula("-A1*2+SUM(B1:C2,$D$3)")
        seen = []

        def ref_fn(r):
            seen.append(str(r))
            return r

        def range_fn(r):
            seen.append(str(r))
            return r

        assert map_refs(tree, ref_fn, range_fn) == tree
        assert seen == ["A1", "B1:C2", "$D$3"]


class TestSkeleton:
    def test_erases_offsets_and_literals(self):
        a = skeleton(normalize(parse_formula("A1*2"), CellAddress(3, 1)))
        b = skeleton(normalize(parse_formula("B9*17"), CellAddress(5, 9)))
        assert a == b == ("bin", "*", ("ref",), ("num",))

    def test_erases_markers(self):
        a = skeleton(normalize(parse_formula("A1*B1"), CellAddress(3, 1)))
        b = skeleton(normalize(parse_formula("A3*$B$1"), CellAddress(3, 3)))
        assert a == b

    def test_keeps_operators_functions_arity(self):
        a = skeleton(parse_formula("SUM(A1:A9)"))
        assert a == ("call", "SUM", (("range",),))
        assert a != skeleton(parse_formula("AVG(A1:A9)"))
        assert skeleton(parse_formula("A1+B1")) != skeleton(parse_formula("A1-B1"))
