//! The parser: spanned tokens → [`Module`]/[`Function`] values.
//!
//! A hand-written recursive-descent parser over the token stream of
//! [`lexer`](super::lexer). Parsing is two-pass within each function:
//! a pre-scan assigns [`InstId`]s and [`BlockId`]s in textual order so
//! that forward references (phis, loop back edges) resolve without
//! placeholders. Every failure is a [`ParseError`] carrying the byte
//! span of the offending token and rendering a caret-underlined
//! excerpt of the source line.

use std::collections::HashMap;
use std::fmt;

use super::lexer::{lex, Span, Tok, Token};
use crate::function::{Block, DeclAttrs, FuncDecl, Function, Module, Param};
use crate::inst::descriptor::by_mnemonic;
use crate::inst::{
    Cond, Flags, Inst, Operand, ResultKind, Rule, Sep, SubOpcode, Terminator, VisitMut, Want,
};
use crate::types::Ty;
use crate::value::{BlockId, Constant, InstId, Value};

/// A parse failure, pinpointed to a byte span of the source.
///
/// [`Display`](fmt::Display) renders a compiler-style diagnostic with
/// the offending line and a caret underline:
///
/// ```text
/// error: unknown local '%missing'
///   --> line 3, column 20
///    |
///  3 |   %a = add i32 %x, %missing
///    |                    ^^^^^^^^
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// 1-based line of the offending span.
    pub line: usize,
    /// 1-based column (in characters) of the offending span.
    pub column: usize,
    /// Byte range of the offending token(s) in the source.
    pub span: Span,
    /// The full text of the offending source line (no trailing newline).
    source_line: String,
    /// Width of the caret underline, in characters (at least 1).
    caret_len: usize,
}

impl ParseError {
    /// Builds an error for `span` of `src`, extracting the source line
    /// and caret geometry for the rendered excerpt.
    pub fn at(src: &str, span: Span, message: impl Into<String>) -> ParseError {
        let at = span.start.min(src.len());
        let line_start = src[..at].rfind('\n').map_or(0, |p| p + 1);
        let line_end = src[at..].find('\n').map_or(src.len(), |p| at + p);
        let line = src[..at].bytes().filter(|&b| b == b'\n').count() + 1;
        let column = src[line_start..at].chars().count() + 1;
        // Underline the intersection of the span with its first line.
        let underline_end = span.end.clamp(at, line_end);
        let caret_len = src
            .get(at..underline_end)
            .map_or(1, |s| s.chars().count())
            .max(1);
        ParseError {
            message: message.into(),
            line,
            column,
            span,
            source_line: src[line_start..line_end].to_string(),
            caret_len,
        }
    }

    /// The caret-underlined source excerpt (the part of the rendered
    /// diagnostic below the `-->` location line).
    pub fn excerpt(&self) -> String {
        let gutter = self.line.to_string();
        let pad = " ".repeat(gutter.len());
        let underline_pad: String = self
            .source_line
            .chars()
            .take(self.column - 1)
            .map(|c| if c == '\t' { '\t' } else { ' ' })
            .collect();
        format!(
            "{pad} |\n{gutter} | {line}\n{pad} | {underline_pad}{carets}",
            line = self.source_line,
            carets = "^".repeat(self.caret_len),
        )
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error: {}\n  --> line {}, column {}\n{}",
            self.message,
            self.line,
            self.column,
            self.excerpt()
        )
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    /// Span of the token about to be consumed (or an end-of-input
    /// point span).
    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .map(|t| t.span)
            .unwrap_or_else(|| Span::point(self.src.len()))
    }

    /// Span of the most recently consumed token (for diagnostics about
    /// a token that has already been read).
    fn prev_span(&self) -> Span {
        if self.pos == 0 {
            return Span::point(0);
        }
        self.toks
            .get(self.pos - 1)
            .map(|t| t.span)
            .unwrap_or_else(|| Span::point(self.src.len()))
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ParseError::at(self.src, self.span(), message))
    }

    fn err_at<T>(&self, span: Span, message: impl Into<String>) -> Result<T> {
        Err(ParseError::at(self.src, span, message))
    }

    fn next(&mut self) -> Result<Tok> {
        match self.toks.get(self.pos) {
            Some(t) => {
                self.pos += 1;
                Ok(t.tok.clone())
            }
            None => self.err("unexpected end of input"),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        let got = self.next()?;
        if got == tok {
            Ok(())
        } else {
            self.pos -= 1;
            self.err(format!("expected {tok}, found {got}"))
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Word(w)) if w == word) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<()> {
        if self.eat_word(word) {
            Ok(())
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn expect_local(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Local(n) => Ok(n),
            got => {
                self.pos -= 1;
                self.err(format!("expected a %name, found {got}"))
            }
        }
    }

    fn expect_global(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Global(n) => Ok(n),
            got => {
                self.pos -= 1;
                self.err(format!("expected an @name, found {got}"))
            }
        }
    }

    /// A statement must end its line: the pre-scan numbers statements
    /// line by line. Underlines everything after the statement just read
    /// up to the end of its line (or the closing `}`).
    fn end_line(&self, message: &str) -> Result<()> {
        let line = self.toks[self.pos - 1].line;
        let mut rest = self.toks[self.pos..]
            .iter()
            .take_while(|t| t.line == line && t.tok != Tok::RBrace);
        match rest.next() {
            Some(first) => {
                let last = rest.last().unwrap_or(first);
                self.err_at(first.span.to(last.span), message)
            }
            None => Ok(()),
        }
    }

    /// Parses a type. `void` is accepted only when `allow_void` is set.
    fn parse_ty(&mut self, allow_void: bool) -> Result<Ty> {
        let base = match self.next()? {
            Tok::Word(w) if w == "void" => {
                if !allow_void {
                    self.pos -= 1;
                    return self.err("void is not valid here");
                }
                Ty::Void
            }
            Tok::Word(w) if w.starts_with('i') && w[1..].chars().all(|c| c.is_ascii_digit()) => {
                let span = self.prev_span();
                let bits: u32 = w[1..]
                    .parse()
                    .map_err(|_| ParseError::at(self.src, span, "bad integer width"))?;
                if bits == 0 || bits > crate::types::MAX_INT_BITS {
                    return self.err_at(span, format!("integer width {bits} out of range"));
                }
                Ty::Int(bits)
            }
            Tok::Lt => {
                let elems = match self.next()? {
                    Tok::Int(v) if v > 0 && v <= i128::from(u32::MAX) => v as u32,
                    _ => {
                        self.pos -= 1;
                        return self.err("expected a positive vector length");
                    }
                };
                self.expect_word("x")?;
                let elem_span = self.span();
                let elem = self.parse_ty(false)?;
                self.expect(Tok::Gt)?;
                if !matches!(elem, Ty::Int(_) | Ty::Ptr(_)) {
                    return self.err_at(elem_span, "vector elements must be integers or pointers");
                }
                Ty::Vector {
                    elems,
                    elem: Box::new(elem),
                }
            }
            got => {
                self.pos -= 1;
                return self.err(format!("expected a type, found {got}"));
            }
        };
        let mut ty = base;
        while self.eat(&Tok::Star) {
            if ty.is_void() {
                return self.err_at(self.prev_span(), "cannot form a pointer to void");
            }
            ty = Ty::ptr_to(ty);
        }
        Ok(ty)
    }
}

/// Symbol tables of the function being parsed.
struct FnContext {
    /// Parameter name -> index.
    params: HashMap<String, u32>,
    /// Local definition name -> pre-assigned instruction id.
    defs: HashMap<String, InstId>,
    /// Block label -> pre-assigned block id.
    labels: HashMap<String, BlockId>,
}

impl FnContext {
    fn resolve_local(&self, p: &Parser<'_>, name: &str) -> Result<Value> {
        if let Some(&i) = self.params.get(name) {
            return Ok(Value::Arg(i));
        }
        if let Some(&id) = self.defs.get(name) {
            return Ok(Value::Inst(id));
        }
        Err(ParseError::at(
            p.src,
            p.prev_span(),
            format!("unknown local %{name}"),
        ))
    }

    fn resolve_label(&self, p: &Parser<'_>, name: &str) -> Result<BlockId> {
        self.labels
            .get(name)
            .copied()
            .ok_or_else(|| ParseError::at(p.src, p.prev_span(), format!("unknown label %{name}")))
    }
}

/// Parses a constant or local of the given expected type.
fn parse_value(p: &mut Parser<'_>, ctx: &FnContext, ty: &Ty) -> Result<Value> {
    match p.next()? {
        Tok::Local(name) => ctx.resolve_local(p, &name),
        Tok::Int(v) => match ty.int_bits() {
            Some(bits) => Ok(Value::int(bits, v as u128)),
            None => p.err_at(
                p.prev_span(),
                format!("integer literal cannot have type {ty}"),
            ),
        },
        Tok::Word(w) if w == "true" => Ok(Value::bool(true)),
        Tok::Word(w) if w == "false" => Ok(Value::bool(false)),
        Tok::Word(w) if w == "poison" => Ok(Value::poison(ty.clone())),
        Tok::Word(w) if w == "undef" => Ok(Value::undef(ty.clone())),
        Tok::Word(w) if w == "null" => Ok(Value::Const(Constant::Null(ty.clone()))),
        Tok::Lt => {
            // Vector constant: `<i16 1, i16 poison>`.
            let mut elems = Vec::new();
            loop {
                let ety = p.parse_ty(false)?;
                let espan = p.span();
                let v = parse_value(p, ctx, &ety)?;
                match v {
                    Value::Const(c) => elems.push(c),
                    _ => return p.err_at(espan, "vector constant elements must be constants"),
                }
                if !p.eat(&Tok::Comma) {
                    break;
                }
            }
            p.expect(Tok::Gt)?;
            Ok(Value::Const(Constant::Vector(elems)))
        }
        got => {
            p.pos -= 1;
            p.err(format!("expected a value, found {got}"))
        }
    }
}

fn parse_flags(p: &mut Parser<'_>) -> Flags {
    let mut flags = Flags::NONE;
    loop {
        if p.eat_word("nsw") {
            flags.nsw = true;
        } else if p.eat_word("nuw") {
            flags.nuw = true;
        } else if p.eat_word("exact") {
            flags.exact = true;
        } else {
            return flags;
        }
    }
}

/// Parses one instruction after the optional `%name =` prefix: the
/// mnemonic picks a blank instance, and [`Inst::walk_mut`] fills its
/// fields from the tokens in textual order.
fn parse_inst(p: &mut Parser<'_>, ctx: &FnContext) -> Result<Inst> {
    let mnemonic_span = p.span();
    let word = match p.next()? {
        Tok::Word(w) => w,
        got => {
            p.pos -= 1;
            return p.err(format!("expected an instruction mnemonic, found {got}"));
        }
    };
    let Some(row) = by_mnemonic(&word) else {
        return p.err_at(mnemonic_span, format!("unknown instruction '{word}'"));
    };
    let mut inst = Inst::blank(row.opcode);
    let mut fields = Fields {
        p,
        ctx,
        mnemonic: &word,
        err: None,
    };
    inst.walk_mut(&mut fields);
    match fields.err {
        Some(e) => Err(e),
        None => Ok(inst),
    }
}

/// Reads the walked fields of one instruction. The first error sticks:
/// every later field is left blank and no further token is read.
struct Fields<'p, 'a> {
    p: &'p mut Parser<'a>,
    ctx: &'p FnContext,
    mnemonic: &'p str,
    err: Option<ParseError>,
}

impl<'a> Fields<'_, 'a> {
    fn run(&mut self, read: impl FnOnce(&mut Parser<'a>, &FnContext, &str) -> Result<()>) {
        if self.err.is_none() {
            self.err = read(self.p, self.ctx, self.mnemonic).err();
        }
    }
}

/// Parses a type and underlines all of it with `why`'s message if `why`
/// objects to it.
fn parse_ty_checked(
    p: &mut Parser<'_>,
    allow_void: bool,
    why: impl FnOnce(&Ty) -> Option<String>,
) -> Result<Ty> {
    let start = p.span();
    let ty = p.parse_ty(allow_void)?;
    match why(&ty) {
        Some(message) => p.err_at(start.to(p.prev_span()), message),
        None => Ok(ty),
    }
}

impl VisitMut for Fields<'_, '_> {
    fn opcode<S: SubOpcode>(&mut self, op: &mut S) {
        // The mnemonic picked this variant, so it names a sub-opcode.
        if let Some(&named) = S::ALL.iter().find(|s| s.mnemonic() == self.mnemonic) {
            *op = named;
        }
    }

    fn cond(&mut self, cond: &mut Cond) {
        self.run(|p, _, m| {
            *cond = match p.next()? {
                Tok::Word(w) => match Cond::ALL.into_iter().find(|c| c.mnemonic() == w) {
                    Some(c) => c,
                    None => return p.err_at(p.prev_span(), format!("unknown {m} condition '{w}'")),
                },
                got => {
                    p.pos -= 1;
                    return p.err(format!("expected an {m} condition, found {got}"));
                }
            };
            Ok(())
        });
    }

    fn flags(&mut self, flags: &mut Flags) {
        self.run(|p, _, _| {
            *flags = parse_flags(p);
            Ok(())
        });
    }

    fn keyword(&mut self, word: &'static str, on: &mut bool) {
        self.run(|p, _, _| {
            *on = p.eat_word(word);
            Ok(())
        });
    }

    fn ty(&mut self, ty: &mut Ty, rule: Rule) {
        self.run(|p, _, m| {
            *ty = parse_ty_checked(p, rule == Rule::MaybeVoid, |t| rule.violation(m, t))?;
            Ok(())
        });
    }

    fn operand(&mut self, val: &mut Value, how: Operand<'_>) {
        self.run(|p, ctx, m| {
            *val = match how {
                Operand::After(ty) => parse_value(p, ctx, ty)?,
                Operand::Again(want, what) => {
                    let ty = parse_ty_checked(p, false, |t| {
                        (!want.matches(t)).then(|| match want {
                            Want::Is(_) => {
                                format!("{m} {what} must have the same type ({want} vs {t})")
                            }
                            _ => format!("{m} {what} type must be {want}"),
                        })
                    })?;
                    parse_value(p, ctx, &ty)?
                }
                Operand::Own(required) => {
                    let ty = parse_ty_checked(p, false, |t| {
                        required
                            .filter(|want| *want != t)
                            .map(|want| format!("{m} operand must have type {want}, got {t}"))
                    })?;
                    parse_value(p, ctx, &ty)?
                }
            };
            Ok(())
        });
    }

    fn vector(&mut self, len: &mut u32, elem: &mut Ty, val: &mut Value) {
        self.run(|p, ctx, m| {
            let ty = parse_ty_checked(p, false, |t| {
                (!t.is_vector()).then(|| format!("{m} needs a vector type"))
            })?;
            if let Ty::Vector { elems, elem: e } = &ty {
                (*len, *elem) = (*elems, (**e).clone());
            }
            *val = parse_value(p, ctx, &ty)?;
            Ok(())
        });
    }

    fn incoming(&mut self, ty: &Ty, incoming: &mut Vec<(Value, BlockId)>) {
        self.run(|p, ctx, _| loop {
            p.expect(Tok::LBracket)?;
            let v = parse_value(p, ctx, ty)?;
            p.expect(Tok::Comma)?;
            let label = p.expect_local()?;
            let bb = ctx.resolve_label(p, &label)?;
            p.expect(Tok::RBracket)?;
            incoming.push((v, bb));
            if !p.eat(&Tok::Comma) {
                return Ok(());
            }
        });
    }

    fn callee(&mut self, name: &mut String) {
        self.run(|p, _, _| {
            *name = p.expect_global()?;
            Ok(())
        });
    }

    fn args(&mut self, tys: &mut Vec<Ty>, args: &mut Vec<Value>) {
        self.run(|p, ctx, _| {
            p.expect(Tok::LParen)?;
            if p.eat(&Tok::RParen) {
                return Ok(());
            }
            loop {
                let ty = p.parse_ty(false)?;
                args.push(parse_value(p, ctx, &ty)?);
                tys.push(ty);
                if !p.eat(&Tok::Comma) {
                    return p.expect(Tok::RParen);
                }
            }
        });
    }

    fn sep(&mut self, sep: Sep) {
        self.run(|p, _, _| match sep {
            Sep::Comma => p.expect(Tok::Comma),
            Sep::To => p.expect_word("to"),
        });
    }
}

fn parse_terminator(p: &mut Parser<'_>, ctx: &FnContext, ret_ty: &Ty) -> Result<Terminator> {
    if p.eat_word("ret") {
        if p.eat_word("void") {
            return Ok(Terminator::Ret(None));
        }
        let ty_span = p.span();
        let ty = p.parse_ty(false)?;
        if ty != *ret_ty {
            return p.err_at(
                ty_span.to(p.prev_span()),
                format!("ret type {ty} does not match function return type {ret_ty}"),
            );
        }
        let v = parse_value(p, ctx, &ty)?;
        return Ok(Terminator::Ret(Some(v)));
    }
    if p.eat_word("br") {
        if p.eat_word("label") {
            let label = p.expect_local()?;
            return Ok(Terminator::Jmp(ctx.resolve_label(p, &label)?));
        }
        let ty_span = p.span();
        let ty = p.parse_ty(false)?;
        if !ty.is_bool() {
            return p.err_at(ty_span, "br condition must have type i1");
        }
        let cond = parse_value(p, ctx, &ty)?;
        p.expect(Tok::Comma)?;
        p.expect_word("label")?;
        let t = p.expect_local()?;
        let then_bb = ctx.resolve_label(p, &t)?;
        p.expect(Tok::Comma)?;
        p.expect_word("label")?;
        let e = p.expect_local()?;
        let else_bb = ctx.resolve_label(p, &e)?;
        return Ok(Terminator::Br {
            cond,
            then_bb,
            else_bb,
        });
    }
    if p.eat_word("unreachable") {
        return Ok(Terminator::Unreachable);
    }
    p.err("expected a terminator (ret, br, unreachable)")
}

/// Pre-scans a function body (tokens between `{` and its matching `}`)
/// to assign block and instruction ids in textual order.
///
/// Statements are line-delimited (as produced by the printer): a line
/// starting with `word:` introduces a block, `%name = ...` a named
/// instruction, a mnemonic whose descriptor row is not
/// `ResultKind::Value` (`store`, `call`, the guards) an unnamed (void)
/// instruction, and `ret`/`br`/`unreachable` a terminator. Unnamed
/// instructions consume an instruction id so that ids assigned here
/// match parse order.
fn prescan(p: &Parser<'_>, ctx: &mut FnContext) -> Result<()> {
    let mut i = p.pos;
    let mut next_block = 0u32;
    let mut next_inst = 0u32;
    let mut cur_line = 0usize;
    while let Some(t) = p.toks.get(i) {
        if t.tok == Tok::RBrace {
            break;
        }
        if t.line == cur_line {
            // Not at a statement start; skip.
            i += 1;
            continue;
        }
        cur_line = t.line;
        match &t.tok {
            Tok::Word(w) => {
                // `label:` introduces a block.
                if matches!(p.toks.get(i + 1).map(|t| &t.tok), Some(Tok::Colon)) {
                    if ctx.labels.insert(w.clone(), BlockId(next_block)).is_some() {
                        return Err(ParseError::at(
                            p.src,
                            t.span,
                            format!("duplicate block label '{w}'"),
                        ));
                    }
                    next_block += 1;
                    i += 1; // skip the colon too
                } else if by_mnemonic(w).is_some_and(|d| d.result != ResultKind::Value) {
                    // Unnamed (void-result per its descriptor row)
                    // instruction: `store`, void `call`, guards.
                    next_inst += 1;
                } else if w != "ret" && w != "br" && w != "unreachable" {
                    return Err(ParseError::at(
                        p.src,
                        t.span,
                        format!("unexpected statement start '{w}'"),
                    ));
                }
            }
            Tok::Local(name) => {
                // `%name =` introduces a definition.
                if matches!(p.toks.get(i + 1).map(|t| &t.tok), Some(Tok::Eq)) {
                    if ctx.params.contains_key(name) {
                        return Err(ParseError::at(
                            p.src,
                            t.span,
                            format!("%{name} shadows a parameter"),
                        ));
                    }
                    if ctx.defs.insert(name.clone(), InstId(next_inst)).is_some() {
                        return Err(ParseError::at(
                            p.src,
                            t.span,
                            format!("duplicate definition of %{name}"),
                        ));
                    }
                    next_inst += 1;
                    i += 1;
                } else {
                    return Err(ParseError::at(
                        p.src,
                        t.span,
                        format!("expected '=' after %{name} at statement start"),
                    ));
                }
            }
            other => {
                return Err(ParseError::at(
                    p.src,
                    t.span,
                    format!("unexpected statement start {other}"),
                ));
            }
        }
        i += 1;
    }
    Ok(())
}

/// The message for tokens left on a statement's line.
const STATEMENT_END: &str = "a statement must end its line";

fn parse_function_body(
    p: &mut Parser<'_>,
    name: String,
    params: Vec<Param>,
    ret_ty: Ty,
) -> Result<Function> {
    let mut ctx = FnContext {
        params: params
            .iter()
            .enumerate()
            .map(|(i, pa)| (pa.name.clone(), i as u32))
            .collect(),
        defs: HashMap::new(),
        labels: HashMap::new(),
    };
    prescan(p, &mut ctx)?;
    if ctx.labels.is_empty() {
        return p.err("function body must contain at least one labelled block");
    }

    let mut func = Function {
        name,
        params,
        ret_ty: ret_ty.clone(),
        blocks: Vec::new(),
        insts: Vec::with_capacity(ctx.defs.len()),
    };
    // Pre-create the blocks so ids match the pre-scan.
    let mut labels_in_order: Vec<(String, BlockId)> =
        ctx.labels.iter().map(|(n, b)| (n.clone(), *b)).collect();
    labels_in_order.sort_by_key(|(_, b)| *b);
    for (label, _) in &labels_in_order {
        func.blocks.push(Block::new(label.clone()));
    }

    // Now parse for real.
    let mut cur_block: Option<BlockId> = None;
    let mut next_inst = 0u32;
    loop {
        if p.eat(&Tok::RBrace) {
            break;
        }
        // Block label?
        if let Some(Tok::Word(w)) = p.peek() {
            let w = w.clone();
            if p.toks.get(p.pos + 1).map(|t| &t.tok) == Some(&Tok::Colon) {
                p.pos += 2;
                p.end_line(STATEMENT_END)?;
                cur_block = Some(ctx.labels[&w]);
                continue;
            }
            // Terminator?
            if w == "ret" || w == "br" || w == "unreachable" {
                let Some(bb) = cur_block else {
                    return p.err("terminator outside of a block");
                };
                let term = parse_terminator(p, &ctx, &ret_ty)?;
                p.end_line(if term == Terminator::Unreachable {
                    "unreachable takes no operands"
                } else {
                    STATEMENT_END
                })?;
                func.block_mut(bb).term = term;
                continue;
            }
        }
        let Some(bb) = cur_block else {
            return p.err("instruction outside of a block");
        };
        // `%name = inst` or bare `store`/void `call`.
        let stmt_span = p.span();
        let named = if let Some(Tok::Local(n)) = p.peek() {
            let n = n.clone();
            p.pos += 1;
            p.expect(Tok::Eq)?;
            Some(n)
        } else {
            None
        };
        let inst = parse_inst(p, &ctx)?;
        p.end_line(STATEMENT_END)?;
        if named.is_some() && inst.result_ty().is_void() {
            return p.err_at(
                stmt_span,
                format!("{} produces no value to name", inst.mnemonic()),
            );
        }
        if named.is_none() && !inst.result_ty().is_void() {
            return p.err_at(
                stmt_span,
                format!("result of {} must be named", inst.mnemonic()),
            );
        }
        let id = func.add_inst(inst);
        debug_assert_eq!(id, InstId(next_inst));
        next_inst += 1;
        if let Some(n) = &named {
            debug_assert_eq!(
                ctx.defs.get(n),
                Some(&id),
                "pre-scan id matches parse order"
            );
        }
        func.block_mut(bb).insts.push(id);
    }
    Ok(func)
}

fn parse_define(p: &mut Parser<'_>) -> Result<Function> {
    let ret_ty = p.parse_ty(true)?;
    let name = p.expect_global()?;
    p.expect(Tok::LParen)?;
    let mut params = Vec::new();
    if !p.eat(&Tok::RParen) {
        loop {
            let ty = p.parse_ty(false)?;
            let pname = p.expect_local()?;
            params.push(Param { name: pname, ty });
            if !p.eat(&Tok::Comma) {
                break;
            }
        }
        p.expect(Tok::RParen)?;
    }
    p.expect(Tok::LBrace)?;
    parse_function_body(p, name, params, ret_ty)
}

fn parse_declare(p: &mut Parser<'_>) -> Result<FuncDecl> {
    let ret_ty = p.parse_ty(true)?;
    let name = p.expect_global()?;
    p.expect(Tok::LParen)?;
    let mut params = Vec::new();
    if !p.eat(&Tok::RParen) {
        loop {
            params.push(p.parse_ty(false)?);
            if !p.eat(&Tok::Comma) {
                break;
            }
        }
        p.expect(Tok::RParen)?;
    }
    let mut attrs = DeclAttrs::default();
    loop {
        if p.eat_word("readnone") {
            attrs.readnone = true;
        } else if p.eat_word("willreturn") {
            attrs.willreturn = true;
        } else {
            break;
        }
    }
    Ok(FuncDecl {
        name,
        params,
        ret_ty,
        attrs,
    })
}

/// Parses a whole module (any number of `define` and `declare` items).
///
/// # Errors
///
/// Returns a [`ParseError`] pinpointing the offending span on
/// malformed input.
pub fn parse_module(input: &str) -> Result<Module> {
    let toks = lex(input)?;
    let mut p = Parser {
        src: input,
        toks,
        pos: 0,
    };
    let mut module = Module::new();
    while p.peek().is_some() {
        if p.eat_word("define") {
            module.functions.push(parse_define(&mut p)?);
        } else if p.eat_word("declare") {
            module.declarations.push(parse_declare(&mut p)?);
        } else {
            return p.err("expected 'define' or 'declare'");
        }
    }
    Ok(module)
}

/// Parses input containing exactly one function definition.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or if the input does not
/// contain exactly one `define`.
pub fn parse_function(input: &str) -> Result<Function> {
    let module = parse_module(input)?;
    if module.functions.len() != 1 {
        return Err(ParseError::at(
            input,
            Span::point(0),
            format!(
                "expected exactly one function, found {}",
                module.functions.len()
            ),
        ));
    }
    Ok(module.functions.into_iter().next().expect("checked length"))
}
