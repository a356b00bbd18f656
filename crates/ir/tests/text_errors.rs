//! Parser error-path coverage: every diagnostic class the textual IR
//! front end can produce — malformed tokens, unknown opcodes, type
//! mismatches, dangling value references, duplicate block labels, and
//! SSA-shape violations — pinned down to its message, its 1-based
//! line/column, the exact byte [`Span`] it underlines, and the
//! caret-underlined excerpt its `Display` renders.

use frost_ir::{parse_function, parse_module, ParseError};

/// Parses `src` expecting failure; asserts the diagnostic mentions
/// `message`, that the error's span underlines exactly `underlined`
/// in the source, and that the rendered excerpt carries a caret run
/// as wide as the underlined text (in characters).
fn expect_error(src: &str, message: &str, underlined: &str) -> ParseError {
    let err = parse_module(src).expect_err("parse should fail");
    assert!(
        err.message.contains(message),
        "wrong message: got {:?}, wanted substring {message:?}",
        err.message
    );
    assert_eq!(
        &src[err.span.start..err.span.end],
        underlined,
        "span {:?} underlines the wrong text",
        err.span
    );
    let rendered = err.to_string();
    let carets = "^".repeat(underlined.chars().count());
    assert!(
        rendered.contains(&carets),
        "rendered error lacks a {}-wide caret run:\n{rendered}",
        underlined.chars().count()
    );
    assert!(
        rendered.contains(&format!("line {}, column {}", err.line, err.column)),
        "rendered error lacks its own line/column:\n{rendered}"
    );
    err
}

// ---- malformed tokens ------------------------------------------------

#[test]
fn unexpected_character_is_a_lex_error() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, $3\n  ret i32 %a\n}";
    let err = expect_error(src, "unexpected character '$'", "$");
    assert_eq!(err.line, 3);
}

#[test]
fn bare_sigil_is_a_lex_error() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, %\n  ret i32 %a\n}";
    expect_error(src, "expected a name after '%'", "%");
}

#[test]
fn oversized_integer_literal_is_a_lex_error() {
    let lit = "99999999999999999999999999999999999999999999";
    let src = format!("define i64 @f() {{\nentry:\n  ret i64 {lit}\n}}");
    let err = expect_error(&src, "invalid integer literal", lit);
    assert_eq!(err.line, 3);
}

// ---- unknown opcodes -------------------------------------------------

#[test]
fn unknown_instruction_mnemonic() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %a = frobnicate i32 %x\n  ret i32 %a\n}";
    let err = expect_error(src, "unknown instruction 'frobnicate'", "frobnicate");
    assert_eq!((err.line, err.column), (3, 8));
}

#[test]
fn unknown_icmp_condition() {
    let src = "define i1 @f(i32 %x) {\nentry:\n  %a = icmp wat i32 %x, 0\n  ret i1 %a\n}";
    expect_error(src, "unknown icmp condition 'wat'", "wat");
}

// ---- type mismatches -------------------------------------------------

#[test]
fn select_arms_must_agree() {
    let src = "define i32 @f(i1 %c, i32 %x) {\nentry:\n  \
               %a = select i1 %c, i32 %x, i8 7\n  ret i32 %a\n}";
    // The caret sits on the false arm's type — the one that disagrees.
    let err = expect_error(src, "select arms must have the same type (i32 vs i8)", "i8");
    assert_eq!(err.line, 3);
}

#[test]
fn ret_type_must_match_function_type() {
    let src = "define i32 @f(i8 %x) {\nentry:\n  ret i8 %x\n}";
    expect_error(
        src,
        "ret type i8 does not match function return type i32",
        "i8",
    );
}

#[test]
fn br_condition_must_be_i1() {
    let src = "define i32 @f(i32 %c) {\nentry:\n  br i32 %c, label %a, label %b\na:\n  \
               ret i32 0\nb:\n  ret i32 1\n}";
    expect_error(src, "br condition must have type i1", "i32");
}

#[test]
fn load_pointer_type_must_match() {
    // The span unions the whole pointer type (`i32` + `*` tokens).
    let src = "define i16 @f(i32* %p) {\nentry:\n  %v = load i16, i32* %p\n  ret i16 %v\n}";
    expect_error(src, "load pointer type must be i16*", "i32*");
}

#[test]
fn integer_literal_needs_an_integer_type() {
    let src = "define i32* @f(i32* %p) {\nentry:\n  ret i32* 5\n}";
    expect_error(src, "integer literal cannot have type i32*", "5");
}

// ---- memory operations -----------------------------------------------

#[test]
fn ptrtoint_source_must_be_a_pointer() {
    let src = "define i32 @f(i8 %x) {\nentry:\n  %a = ptrtoint i8 %x to i32\n  ret i32 %a\n}";
    let err = expect_error(src, "ptrtoint source must be a pointer, got i8", "i8");
    assert_eq!(err.line, 3);
}

#[test]
fn ptrtoint_result_must_be_the_pointer_width() {
    // The pointer width is fixed at 32 bits; an i16 result is rejected
    // with the caret on the offending result type.
    let src = "define i16 @f(i8* %p) {\nentry:\n  %a = ptrtoint i8* %p to i16\n  ret i16 %a\n}";
    let err = expect_error(
        src,
        "ptrtoint result must be i32 (the pointer width), got i16",
        "i16",
    );
    assert_eq!(err.line, 3);
}

#[test]
fn inttoptr_source_must_be_the_pointer_width() {
    let src = "define i8 @f(i8 %x) {\nentry:\n  %q = inttoptr i8 %x to i8*\n  \
               %v = load i8, i8* %q\n  ret i8 %v\n}";
    let err = expect_error(
        src,
        "inttoptr source must be i32 (the pointer width), got i8",
        "i8",
    );
    assert_eq!((err.line, err.column), (3, 17));
}

#[test]
fn inttoptr_result_must_be_a_pointer() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %q = inttoptr i32 %x to i16\n  ret i32 %x\n}";
    let err = expect_error(src, "inttoptr result must be a pointer, got i16", "i16");
    assert_eq!(err.line, 3);
}

#[test]
fn store_pointer_operand_must_be_a_pointer() {
    // The pointer operand of a store must have type `<stored ty>*`; a
    // bare integer there is caught with the caret on its type.
    let src = "define void @f(i8 %x) {\nentry:\n  store i8 1, i8 %x\n  ret void\n}";
    let err = expect_error(src, "store pointer type must be i8*", "i8");
    assert_eq!((err.line, err.column), (3, 15));
}

#[test]
fn store_pointee_type_must_match() {
    let src = "define void @f(i32* %p) {\nentry:\n  store i8 1, i32* %p\n  ret void\n}";
    expect_error(src, "store pointer type must be i8*", "i32*");
}

// ---- dangling value references ---------------------------------------

#[test]
fn unknown_local_operand() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, %missing\n  ret i32 %a\n}";
    let err = expect_error(src, "unknown local %missing", "%missing");
    assert_eq!((err.line, err.column), (3, 20));
}

#[test]
fn unknown_branch_label() {
    let src = "define i32 @f() {\nentry:\n  br label %nowhere\n}";
    expect_error(src, "unknown label %nowhere", "%nowhere");
}

// ---- duplicate labels and SSA-shape violations -----------------------

#[test]
fn duplicate_block_label() {
    let src = "define i32 @f() {\nentry:\n  br %entry\nentry:\n  ret i32 0\n}";
    let err = expect_error(src, "duplicate block label 'entry'", "entry");
    assert_eq!(err.line, 4);
}

#[test]
fn duplicate_value_definition() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  \
               %a = add i32 %x, 2\n  ret i32 %a\n}";
    let err = expect_error(src, "duplicate definition of %a", "%a");
    assert_eq!(err.line, 4);
}

#[test]
fn result_must_not_shadow_a_parameter() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %x = add i32 %x, 1\n  ret i32 %x\n}";
    expect_error(src, "%x shadows a parameter", "%x");
}

#[test]
fn named_instructions_cannot_start_a_statement_bare() {
    // Only void-result statements (`store`, `call`) may start with a
    // bare mnemonic; a value-producing one is caught at pre-scan.
    let src = "define i32 @f(i32 %x) {\nentry:\n  add i32 %x, 1\n  ret i32 %x\n}";
    let err = expect_error(src, "unexpected statement start 'add'", "add");
    assert_eq!(err.line, 3);
}

#[test]
fn value_producing_call_must_be_named() {
    let src = "declare i32 @g()\n\
               define i32 @f() {\nentry:\n  call i32 @g()\n  ret i32 0\n}";
    let err = expect_error(src, "result of call must be named", "call");
    assert_eq!(err.line, 4);
}

// ---- guards ----------------------------------------------------------

#[test]
fn assume_operand_must_be_i1() {
    let src = "define i8 @f(i8 %x) {\nentry:\n  assume i8 %x\n  ret i8 %x\n}";
    let err = expect_error(src, "assume operand must have type i1, got i8", "i8");
    assert_eq!((err.line, err.column), (3, 10));
}

#[test]
fn unreachable_takes_no_operands() {
    // Everything trailing on the line is underlined as one span.
    let src = "define i4 @f(i4 %x) {\nentry:\n  unreachable i4 %x\n}";
    let err = expect_error(src, "unreachable takes no operands", "i4 %x");
    assert_eq!(err.line, 3);
}

// ---- one statement per line ----------------------------------------

#[test]
fn definition_after_an_instruction_on_its_line() {
    // The pre-scan numbers statements line by line, so a second
    // definition on the line would get the wrong id.
    let src = "define i2 @f(i2 %x) {\nentry:\n  %a = add i2 %x, 1 %b = mul i2 %x, 0\n  \
               %c = add i2 %a, 1\n  ret i2 %c\n}";
    let err = expect_error(src, "a statement must end its line", "%b = mul i2 %x, 0");
    assert_eq!((err.line, err.column), (3, 21));
}

#[test]
fn label_after_a_terminator_on_its_line() {
    let src = "define i32 @f() {\nentry:\n  ret i32 0 b:\n}";
    let err = expect_error(src, "a statement must end its line", "b:");
    assert_eq!((err.line, err.column), (3, 13));
}

#[test]
fn vector_length_must_fit_in_u32() {
    let src = "define void @f(<4294967296 x i8> %v) {\nentry:\n  ret void\n}";
    let err = expect_error(src, "expected a positive vector length", "4294967296");
    assert_eq!((err.line, err.column), (1, 17));
}

/// Canonical printing of both guards, pinned: `assume` as a bare
/// (void, unnamed) statement, `unreachable` as a terminator — and the
/// printed form reparses to the identical canonical text.
#[test]
fn guard_printing_is_canonical_and_roundtrips() {
    let src = "define i2 @f(i1 %c) {\nentry:\n  %v = zext i1 %c to i2\n  assume i1 %c\n  \
               br i1 %c, label %a, label %b\na:\n  ret i2 %v\nb:\n  unreachable\n}";
    let module = parse_module(src).expect("guarded module parses");
    let text = frost_ir::module_to_string(&module);
    assert!(text.contains("\n  assume i1 %c\n"), "{text}");
    assert!(text.contains("\n  unreachable\n"), "{text}");
    let again = parse_module(&text).expect("canonical form reparses");
    assert_eq!(frost_ir::module_to_string(&again), text, "not a fixpoint");
}

// ---- rendering details ------------------------------------------------

#[test]
fn excerpt_shows_gutter_source_line_and_column() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %a = mul i32 %x, %gone\n  ret i32 %a\n}";
    let err = parse_function(src).expect_err("parse should fail");
    let rendered = err.to_string();
    for needle in [
        "error: unknown local %gone",
        "--> line 3, column 20",
        "3 |   %a = mul i32 %x, %gone",
        "^^^^^",
    ] {
        assert!(
            rendered.contains(needle),
            "missing {needle:?} in:\n{rendered}"
        );
    }
}

#[test]
fn end_of_input_errors_point_past_the_last_token() {
    let src = "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1";
    let err = parse_module(src).expect_err("parse should fail");
    assert!(
        err.span.start >= src.trim_end().len() - 1,
        "span {:?} should sit at the end of {} bytes",
        err.span,
        src.len()
    );
}
