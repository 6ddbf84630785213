"""Formula language tests: addresses, parsing, rendering, rewriting."""

import pytest

from sheetlint.scl import (
    BinaryOp,
    Call,
    CellAddress,
    CellRef,
    FormulaError,
    FormulaSyntaxError,
    MalformedAddress,
    Negate,
    NoReference,
    NormRange,
    NormRef,
    NumberLiteral,
    RangeArg,
    RangeOutsideCall,
    RangeRef,
    Reference,
    UnknownFunction,
    column_letters,
    column_number,
    copy_key,
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
        # Every column of one to three letters (ZZZ is 18278), twice, so
        # the second pass reads the memoized spellings.
        for _ in range(2):
            for col in range(1, 18279):
                assert column_number(column_letters(col)) == col

    def test_rejects_bad_input(self):
        # Errors are not memoized: a bad column raises every time, also
        # once good columns are cached.
        assert column_letters(1) == "A"
        for col in (0, 0, -1):
            with pytest.raises(ValueError):
                column_letters(col)
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
        for text in ["", "12", "B", "B0", "$B$2", "B2:C3", "B 2", "B\u0662"]:
            with pytest.raises(MalformedAddress):
                parse_address(text)

    def test_coordinates_start_at_one(self):
        with pytest.raises(ValueError):
            CellAddress(0, 5)
        with pytest.raises(ValueError):
            CellAddress(5, 0)

    def test_key_behaviour(self):
        with pytest.raises(ValueError, match=r"start at 1, got \(0, 0\)"):
            CellAddress(col=0, row=0)
        addr = CellAddress(28, 7)
        assert hash(addr) == hash((28, 7))
        assert str(addr) == "AB7"
        assert repr(addr) == "CellAddress(col=28, row=7)"
        assert (addr.col, addr.row) == (28, 7)
        with pytest.raises(AttributeError):
            addr.col = 1


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
        assert len(list(rng.cells())) == 18

    def test_cells_iterate_row_major(self):
        rng = RangeRef(CellRef(1, 1), CellRef(2, 2))
        assert [str(a) for a in rng.cells()] == ["A1", "B1", "A2", "B2"]

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


class TestParseErrors:
    """Every raise site of the parser: class, full message, and offset."""

    CASES = [
        ("A1+%", FormulaSyntaxError, "unexpected character '%'", 3),
        ("(A1+B1", FormulaSyntaxError, "expected ')', found 'end'", 6),
        ("(A1 B1)", FormulaSyntaxError, "expected ')', found 'B1'", 4),
        ("(A1,B1)", FormulaSyntaxError, "expected ')', found ','", 3),
        ("SUM(A1,B1", FormulaSyntaxError, "expected ')', found 'end'", 9),
        ("SUM(A1 B1)", FormulaSyntaxError, "expected ')', found 'B1'", 7),
        ("SUM(A1:A2+1)", FormulaSyntaxError, "expected ')', found '+'", 9),
        ("SUM(1:A2)", FormulaSyntaxError, "expected ')', found ':'", 5),
        ("SUM(A1:A2:A3)", FormulaSyntaxError, "expected ')', found ':'", 9),
        ("A1 B1", FormulaSyntaxError, "unexpected 'B1' after expression", 3),
        ("A1)", FormulaSyntaxError, "unexpected ')' after expression", 2),
        ("A1,B1", FormulaSyntaxError, "unexpected ',' after expression", 2),
        ("(1):A1", FormulaSyntaxError, "unexpected ':' after expression", 3),
        ("", FormulaSyntaxError, "expected a value, found 'end'", 0),
        ("A1+", FormulaSyntaxError, "expected a value, found 'end'", 3),
        ("--A1+", FormulaSyntaxError, "expected a value, found 'end'", 5),
        ("SUM()", FormulaSyntaxError, "expected a value, found ')'", 4),
        ("SUM(,A1)", FormulaSyntaxError, "expected a value, found ','", 4),
        ("SUM(A1:2)", FormulaSyntaxError, "expected a cell after ':', found '2'", 7),
        ("SUM(A1:)", FormulaSyntaxError, "expected a cell after ':', found ')'", 7),
        ("SUM A1", FormulaSyntaxError, "expected '(', found 'A1'", 4),
        ("SUM", FormulaSyntaxError, "expected '(', found 'end'", 3),
        ("A0+1", FormulaSyntaxError, "row numbers start at 1: 'A0'", 0),
        ("SUM(A0:A2)", FormulaSyntaxError, "row numbers start at 1: 'A0'", 4),
        ("SUM(A1:A0)", FormulaSyntaxError, "row numbers start at 1: 'A0'", 7),
        ("A1*1e400", FormulaSyntaxError, "number out of range: '1e400'", 3),
        ("MEDIAN(A1:A9)", UnknownFunction, "unknown function 'MEDIAN'", 0),
        ("x(A1)", UnknownFunction, "unknown function 'x'", 0),
        ("A1:A9", RangeOutsideCall, "ranges are only allowed as direct call arguments", 2),
        ("A0:A1", RangeOutsideCall, "ranges are only allowed as direct call arguments", 2),
        ("SUM((A1:A9))", RangeOutsideCall, "ranges are only allowed as direct call arguments", 7),
        ("SUM(-A1:A2)", RangeOutsideCall, "ranges are only allowed as direct call arguments", 7),
    ]

    @pytest.mark.parametrize("text, cls, message, position", CASES)
    def test_raise_site(self, text, cls, message, position):
        with pytest.raises(FormulaError) as info:
            parse_formula(text)
        assert type(info.value) is cls
        assert str(info.value) == f"{message} (at offset {position})"
        assert info.value.position == position

    def test_no_reference_has_no_offset(self):
        with pytest.raises(NoReference) as info:
            parse_formula("1+2*SUM(3)")
        assert str(info.value) == "formula references no cell"
        assert info.value.position is None


class TestLongRows:
    """A row of more digits than Python reads into an int from a string
    is a syntax error raised where the parser takes the reference, so
    an error earlier in the formula still comes first."""

    ROW = "1" * 5000

    @pytest.mark.parametrize(
        "head, tail, message, position",
        [
            ("A", "+A0", "row number too long: 5000 digits", 0),
            ("A0+A", "", "row numbers start at 1: 'A0'", 0),
            ("SUM(A1:B", ")", "row number too long: 5000 digits", 7),
            ("SUM(A1:B", "+1)", "row number too long: 5000 digits", 7),
        ],
    )
    def test_raise_site(self, head, tail, message, position):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(head + self.ROW + tail)
        assert str(info.value) == f"{message} (at offset {position})"

    def test_address(self):
        with pytest.raises(MalformedAddress, match="row number too long: 5000 digits"):
            parse_address("B" + self.ROW)


class TestAsciiDigits:
    """Only 0-9 are digits, in references and numbers alike, as they
    are in addresses: another script's digit is an unexpected character."""

    @pytest.mark.parametrize(
        "text, position",
        [("A\u0661+1", 1), ("A1+\u0663", 3), ("A1*1\u0661", 4), ("SUM(A1:A\u0663)", 8)],
    )
    def test_other_scripts_digits_are_refused(self, text, position):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(text)
        assert str(info.value) == f"unexpected character {text[position]!r} (at offset {position})"


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

    def test_repr_spells_every_field(self):
        assert repr(parse_formula("SUM(A1:B2)+-3*$C$4")) == (
            "BinaryOp(op='+', left=Call(name='SUM', args=(RangeArg(rng=RangeRef("
            "start=CellRef(col=1, row=1, col_absolute=False, row_absolute=False), "
            "end=CellRef(col=2, row=2, col_absolute=False, row_absolute=False))),)), "
            "right=BinaryOp(op='*', left=Negate(child=NumberLiteral(value=3.0)), "
            "right=Reference(ref=CellRef(col=3, row=4, col_absolute=True, "
            "row_absolute=True))))"
        )
        assert repr(Call("MAX", (ref(1, 1), NumberLiteral(2.0)))) == (
            "Call(name='MAX', args=(Reference(ref=CellRef(col=1, row=1, "
            "col_absolute=False, row_absolute=False)), NumberLiteral(value=2.0)))"
        )

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


def deep_tree(depth, leaf=None):
    """Every kind of inner node, nested ``depth`` levels around a leaf."""
    node = leaf or ref(1, 1)
    for level in range(depth):
        kind = level % 5
        if kind == 0:
            node = BinaryOp("-", node, ref(2, level + 1))
        elif kind == 1:
            node = BinaryOp("*", ref(3, 1, True, False), node)
        elif kind == 2:
            node = Negate(node)
        elif kind == 3:
            node = Call("SUM", (node, RangeArg(RangeRef(CellRef(1, 1), CellRef(1, 3)))))
        else:
            node = BinaryOp("/", node, NumberLiteral(2.0))
    return node


@pytest.mark.usefixtures("low_recursion_limit")
class TestAnyDepth:
    """Parsing, rendering, equality and the grouping keys take no
    Python frame per nesting level."""

    def test_round_trip_at_depth_5000(self):
        tree = deep_tree(5000)
        text = render(tree)
        assert parse_formula(text) == tree
        assert render(parse_formula(text)) == text

    def test_equality_sees_the_deepest_leaf(self):
        tree = deep_tree(5000)
        other = deep_tree(5000, leaf=ref(1, 2))
        assert tree != other and not tree == other
        assert skeleton(tree) == skeleton(other)
        origin = CellAddress(9, 9)
        assert normalize(tree, origin) != normalize(other, origin)
        assert len(skeleton(tree)) == 9001  # one item per node

    def test_repr_at_depth(self):
        chain = parse_formula("+".join(["A1"] * 3000))
        leaf = "Reference(ref=CellRef(col=1, row=1, col_absolute=False, row_absolute=False))"
        assert repr(chain) == "BinaryOp(op='+', left=" * 2999 + leaf + f", right={leaf})" * 2999

    def test_keys_at_depth(self):
        tree = parse_formula("+".join(["$A$1"] * 5000))
        shifted = translate(tree, 3, 4)
        assert normalize(shifted, CellAddress(4, 5)) == normalize(tree, CellAddress(1, 1))
        assert map_refs(tree, lambda r: r, lambda r: r) == tree
        assert copy_key(shifted, CellAddress(4, 5)) == copy_key(tree, CellAddress(1, 1))


class TestCopyKey:
    def test_lists_the_normalized_tree_top_down(self):
        key = copy_key(parse_formula("SUM(A1:A3)*-$B$1"), CellAddress(1, 5))
        assert key == (
            "*",
            ("SUM", 1),
            RangeArg(NormRange(NormRef(0, -4), NormRef(0, -2))),
            "neg",
            Reference(NormRef(2, 1, True, True)),
        )

    def test_copies_share_a_key_and_others_do_not(self):
        a = copy_key(parse_formula("B2*C2+1"), CellAddress(4, 2))
        b = copy_key(parse_formula("B7*C7+1"), CellAddress(4, 7))
        c = copy_key(parse_formula("B7*C7+2"), CellAddress(4, 7))
        assert a == b and hash(a) == hash(b)
        assert a != c


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

    def test_rejects_a_leaf_that_is_not_a_node(self):
        # A str passed through would read as an operator token.
        tree = BinaryOp("+", Reference(CellRef(1, 1)), "x")
        with pytest.raises(TypeError, match="not a formula node: 'x'"):
            map_refs(tree, lambda r: r, lambda r: r)


class TestSkeleton:
    def test_erases_offsets_and_literals(self):
        a = skeleton(normalize(parse_formula("A1*2"), CellAddress(3, 1)))
        b = skeleton(normalize(parse_formula("B9*17"), CellAddress(5, 9)))
        assert a == b == ("*", "ref", "num")

    def test_erases_markers(self):
        a = skeleton(normalize(parse_formula("A1*B1"), CellAddress(3, 1)))
        b = skeleton(normalize(parse_formula("A3*$B$1"), CellAddress(3, 3)))
        assert a == b

    def test_keeps_operators_functions_arity(self):
        a = skeleton(parse_formula("SUM(A1:A9)"))
        assert a == (("SUM", 1), "range")
        assert a != skeleton(parse_formula("AVG(A1:A9)"))
        assert skeleton(parse_formula("A1+B1")) != skeleton(parse_formula("A1-B1"))
