//! Parser for the textual PTX-subset format.
//!
//! The grammar is the disassembly format produced by [`Kernel`]'s `Display`
//! impl:
//!
//! ```text
//! .entry NAME (.param .TY NAME, ...)
//! .shared BYTES            // optional
//! {
//!   LABEL:                 // optional, may repeat
//!   @%p MNEMONIC OPERANDS; // guard optional
//!   ...
//! }
//! ```
//!
//! Registers spelled `%r<N>` map to register id `N`; any other register name
//! (e.g. `%p1`, `%rd4`, `%f2`) is interned to a fresh id above all numeric
//! ones. Comments run from `//` to end of line.

use crate::{
    Address, AluOp, AtomOp, CmpOp, Guard, Instruction, Kernel, Op, Operand, ParamDecl, Reg, SfuOp,
    Space, Special, Type, UnaryOp, ValidateError,
};
use std::collections::HashMap;
use std::fmt;

/// Error produced by [`parse_kernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the error.
    pub line: usize,
    /// 1-based column of the offending token (0 when unknown, e.g. for
    /// whole-kernel validation errors).
    pub col: usize,
    /// The offending source line, verbatim (empty when unknown).
    pub snippet: String,
    /// Human-readable description.
    pub msg: String,
}

impl ParseError {
    fn at(line: usize, col: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            line,
            col,
            snippet: String::new(),
            msg: msg.into(),
        }
    }

    /// Attach the offending source line (and thereby the caret rendering in
    /// `Display`) by looking `line` up in `src`.
    fn with_snippet(mut self, src: &str) -> ParseError {
        if self.line > 0 {
            if let Some(text) = src.lines().nth(self.line - 1) {
                self.snippet = text.trim_end().to_string();
            }
        }
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.col) {
            (0, _) => write!(f, "parse error: {}", self.msg)?,
            (_, 0) => write!(f, "parse error at line {}: {}", self.line, self.msg)?,
            _ => write!(
                f,
                "parse error at line {}:{}: {}",
                self.line, self.col, self.msg
            )?,
        }
        if !self.snippet.is_empty() {
            write!(f, "\n  | {}", self.snippet)?;
            if self.col > 0 && self.col <= self.snippet.chars().count() + 1 {
                write!(f, "\n  | {}^", " ".repeat(self.col - 1))?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

impl From<ValidateError> for ParseError {
    fn from(e: ValidateError) -> ParseError {
        ParseError::at(0, 0, format!("invalid kernel: {e}"))
    }
}

/// One token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'src> {
    /// Bare identifier, possibly with interior dots: `ld.global.u32`, `L3`.
    Word(&'src str),
    /// `.entry`, `.param`, `.u64`, ...
    DotWord(&'src str),
    /// `%r1`, `%tid.x`, `%p2`, ...
    Percent(&'src str),
    Int(i64),
    /// f64 bits
    Float(u64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    At,
    Bang,
    Plus,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Word(w) => write!(f, "`{w}`"),
            Tok::DotWord(w) => write!(f, "`.{w}`"),
            Tok::Percent(w) => write!(f, "`%{w}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Float(_) => write!(f, "float literal"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::At => write!(f, "`@`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Plus => write!(f, "`+`"),
        }
    }
}

/// One lexed token with its 1-based source line and column.
type Spanned<'src> = (Tok<'src>, usize, usize);

/// A cursor over the source: a byte offset for slicing, and a character
/// count for columns (which count characters, not bytes).
struct Cursor<'src> {
    src: &'src str,
    /// Byte offset of the next character.
    i: usize,
    /// Characters before `i`.
    chars: usize,
}

impl<'src> Cursor<'src> {
    fn peek(&self) -> Option<char> {
        match *self.src.as_bytes().get(self.i)? {
            b if b.is_ascii() => Some(b as char),
            _ => self.src[self.i..].chars().next(),
        }
    }

    /// The byte `k` bytes past the cursor (lookahead is only ever ASCII).
    fn byte_at(&self, k: usize) -> Option<u8> {
        self.src.as_bytes().get(self.i + k).copied()
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.i += c.len_utf8();
            self.chars += 1;
        }
    }

    /// Advance over characters satisfying `f`; return the text passed.
    fn eat_while(&mut self, f: impl Fn(char) -> bool) -> &'src str {
        let start = self.i;
        while self.peek().is_some_and(&f) {
            self.bump();
        }
        &self.src[start..self.i]
    }
}

fn lex(src: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut line_start = 0usize;
    let mut cur = Cursor {
        src,
        i: 0,
        chars: 0,
    };
    let is_word_char = |c: char| c.is_alphanumeric() || c == '_' || c == '.';
    while let Some(c) = cur.peek() {
        let col = cur.chars - line_start + 1;
        let punct = match c {
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            '{' => Some(Tok::LBrace),
            '}' => Some(Tok::RBrace),
            '[' => Some(Tok::LBracket),
            ']' => Some(Tok::RBracket),
            ',' => Some(Tok::Comma),
            ';' => Some(Tok::Semi),
            ':' => Some(Tok::Colon),
            '@' => Some(Tok::At),
            '!' => Some(Tok::Bang),
            '+' => Some(Tok::Plus),
            _ => None,
        };
        if let Some(t) = punct {
            toks.push((t, line, col));
            cur.bump();
            continue;
        }
        match c {
            '\n' => {
                line += 1;
                cur.bump();
                line_start = cur.chars;
            }
            c if c.is_whitespace() => cur.bump(),
            '/' if cur.byte_at(1) == Some(b'/') => {
                cur.eat_while(|c| c != '\n');
            }
            '%' | '.' => {
                cur.bump();
                let word = cur.eat_while(is_word_char);
                if word.is_empty() {
                    return Err(ParseError::at(line, col, format!("dangling `{c}`")));
                }
                let t = if c == '%' {
                    Tok::Percent(word)
                } else {
                    Tok::DotWord(word)
                };
                toks.push((t, line, col));
            }
            '-' | '0'..='9' => {
                let neg = c == '-';
                if neg {
                    cur.bump();
                    if !cur.peek().is_some_and(|c| c.is_ascii_digit()) {
                        return Err(ParseError::at(line, col, "dangling `-`"));
                    }
                }
                // 0F<hex> float-bits literal.
                if cur.byte_at(0) == Some(b'0') && cur.byte_at(1) == Some(b'F') {
                    cur.bump();
                    cur.bump();
                    let hex = cur.eat_while(|c| c.is_ascii_hexdigit());
                    let bits = u64::from_str_radix(hex, 16)
                        .map_err(|e| ParseError::at(line, col, format!("bad float bits: {e}")))?;
                    let bits = if neg {
                        (-f64::from_bits(bits)).to_bits()
                    } else {
                        bits
                    };
                    toks.push((Tok::Float(bits), line, col));
                    continue;
                }
                // 0x<hex> integer.
                if cur.byte_at(0) == Some(b'0') && matches!(cur.byte_at(1), Some(b'x' | b'X')) {
                    cur.bump();
                    cur.bump();
                    let hex = cur.eat_while(|c| c.is_ascii_hexdigit());
                    let v = i64::from_str_radix(hex, 16)
                        .map_err(|e| ParseError::at(line, col, format!("bad hex literal: {e}")))?;
                    toks.push((Tok::Int(if neg { -v } else { v }), line, col));
                    continue;
                }
                let start = cur.i;
                let mut is_float = false;
                while let Some(c) = cur.peek() {
                    let exp_sign =
                        (c == '-' || c == '+') && matches!(src.as_bytes()[cur.i - 1], b'e' | b'E');
                    if !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E') || exp_sign) {
                        break;
                    }
                    is_float |= matches!(c, '.' | 'e' | 'E');
                    cur.bump();
                }
                let text = &src[start..cur.i];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|e| ParseError::at(line, col, format!("bad float: {e}")))?;
                    toks.push((Tok::Float(if neg { -v } else { v }.to_bits()), line, col));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|e| ParseError::at(line, col, format!("bad integer: {e}")))?;
                    toks.push((Tok::Int(if neg { -v } else { v }), line, col));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let word = cur.eat_while(is_word_char);
                toks.push((Tok::Word(word), line, col));
            }
            other => {
                return Err(ParseError::at(
                    line,
                    col,
                    format!("unexpected character `{other}`"),
                ))
            }
        }
    }
    Ok(toks)
}

/// The special register spelled `%name`, looked up without building the
/// spelling.
fn special_named(name: &str) -> Option<Special> {
    Special::ALL
        .iter()
        .copied()
        .find(|sp| sp.name().strip_prefix('%') == Some(name))
}

struct Parser<'t, 'src> {
    /// The tokens from this kernel's `.entry` to the end of the module.
    toks: &'t [Spanned<'src>],
    pos: usize,
    regs: HashMap<&'src str, u32>,
    next_reg: u32,
    params: Vec<ParamDecl>,
}

impl<'src> Parser<'_, 'src> {
    fn peek(&self) -> Option<Tok<'src>> {
        self.toks.get(self.pos).map(|&(t, _, _)| t)
    }

    /// Line and column of the token at the current position (clamped to the
    /// last token at end of input).
    fn span(&self) -> (usize, usize) {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l, c)| (*l, *c))
            .unwrap_or((0, 0))
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.span();
        ParseError::at(line, col, msg)
    }

    fn next(&mut self) -> Result<Tok<'src>, ParseError> {
        let t = self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.err(format!("expected {want}, found {got}")))
        }
    }

    fn expect_word(&mut self) -> Result<&'src str, ParseError> {
        match self.next()? {
            Tok::Word(w) => Ok(w),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected identifier, found {other}")))
            }
        }
    }

    fn intern_reg(&mut self, name: &'src str) -> Reg {
        if let Some(&id) = self.regs.get(name) {
            return Reg(id);
        }
        // `r<digits>` claims its own number; everything else gets a fresh id.
        let id = if let Some(num) = name.strip_prefix('r').and_then(|s| s.parse::<u32>().ok()) {
            num
        } else {
            let id = self.next_reg;
            self.next_reg += 1;
            id
        };
        self.next_reg = self.next_reg.max(id + 1);
        self.regs.insert(name, id);
        Reg(id)
    }

    fn parse_reg(&mut self) -> Result<Reg, ParseError> {
        match self.next()? {
            Tok::Percent(name) => {
                if special_named(name).is_some() {
                    self.pos -= 1;
                    Err(self.err(format!("special register %{name} cannot be a destination")))
                } else {
                    Ok(self.intern_reg(name))
                }
            }
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected register, found {other}")))
            }
        }
    }

    fn parse_operand(&mut self) -> Result<Operand, ParseError> {
        match self.next()? {
            Tok::Percent(name) => {
                if let Some(sp) = special_named(name) {
                    Ok(Operand::Special(sp))
                } else {
                    Ok(Operand::Reg(self.intern_reg(name)))
                }
            }
            Tok::Int(v) => Ok(Operand::Imm(v)),
            Tok::Float(bits) => Ok(Operand::FImm(bits)),
            other => {
                self.pos -= 1;
                Err(self.err(format!("expected operand, found {other}")))
            }
        }
    }

    /// Parse `[...]`. Returns the address; for `ld.param` by name, resolves
    /// the parameter offset.
    fn parse_address(&mut self, space: Space) -> Result<Address, ParseError> {
        self.expect(Tok::LBracket)?;
        let addr = match self.next()? {
            Tok::Percent(name) => {
                let base = self.intern_reg(name);
                let offset = match self.peek() {
                    Some(Tok::Plus) => {
                        self.next()?;
                        match self.next()? {
                            Tok::Int(v) => v,
                            other => {
                                self.pos -= 1;
                                return Err(self.err(format!("expected offset, found {other}")));
                            }
                        }
                    }
                    Some(Tok::Int(v)) if v < 0 => {
                        self.next()?;
                        v
                    }
                    _ => 0,
                };
                Address::reg_offset(base, offset)
            }
            Tok::Int(v) => Address::abs(v),
            Tok::Word(name) => {
                if space != Space::Param {
                    return Err(self.err(format!("named address `{name}` only valid for ld.param")));
                }
                let idx = self
                    .params
                    .iter()
                    .position(|p| p.name == name)
                    .ok_or_else(|| self.err(format!("unknown parameter `{name}`")))?;
                let mut off = i64::from(param_offset(&self.params, idx));
                if let Some(Tok::Plus) = self.peek() {
                    self.next()?;
                    match self.next()? {
                        Tok::Int(v) => off += v,
                        other => {
                            self.pos -= 1;
                            return Err(self.err(format!("expected offset, found {other}")));
                        }
                    }
                }
                Address::abs(off)
            }
            other => {
                self.pos -= 1;
                return Err(self.err(format!("expected address, found {other}")));
            }
        };
        self.expect(Tok::RBracket)?;
        Ok(addr)
    }

    fn parse_type(&self, part: Option<&&str>) -> Result<Type, ParseError> {
        let s = part.ok_or_else(|| self.err("missing type suffix"))?;
        Type::from_suffix(s).ok_or_else(|| self.err(format!("unknown type suffix `.{s}`")))
    }
}

fn param_offset(params: &[ParamDecl], index: usize) -> u32 {
    let mut off = 0u32;
    for (i, p) in params.iter().enumerate() {
        let sz = p.ty.size_bytes();
        off = off.div_ceil(sz) * sz;
        if i == index {
            return off;
        }
        off += sz;
    }
    unreachable!()
}

/// Parse one kernel from its textual form.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, unknown mnemonics, references
/// to undeclared parameters or labels, and kernels that fail
/// [`Kernel`] validation.
///
/// # Examples
///
/// ```
/// let src = r#"
/// .entry scale (.param .u64 data, .param .u32 n)
/// {
///   ld.param.u64 %rd1, [data];
///   mov.u32 %r1, %tid.x;
///   mul.wide.u32 %rd2, %r1, 4;
///   add.u64 %rd3, %rd1, %rd2;
///   ld.global.u32 %r2, [%rd3];
///   shl.u32 %r3, %r2, 1;
///   st.global.u32 [%rd3], %r3;
///   exit;
/// }
/// "#;
/// let k = gcl_ptx::parse_kernel(src)?;
/// assert_eq!(k.name(), "scale");
/// assert_eq!(k.params().len(), 2);
/// # Ok::<(), gcl_ptx::ParseError>(())
/// ```
pub fn parse_kernel(src: &str) -> Result<Kernel, ParseError> {
    let kernels = parse_module(src)?;
    match kernels.len() {
        1 => Ok(kernels.into_iter().next().unwrap()),
        n => Err(ParseError::at(
            0,
            0,
            format!("expected one kernel, found {n}"),
        )),
    }
}

/// Parse a module containing one or more kernels (as real PTX files do).
///
/// An optional `.visible` qualifier before each `.entry` is accepted and
/// ignored.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or an empty module.
///
/// # Examples
///
/// ```
/// let kernels = gcl_ptx::parse_module(
///     ".visible .entry a () { exit; }\n.entry b () { exit; }",
/// )?;
/// assert_eq!(kernels.len(), 2);
/// assert_eq!(kernels[1].name(), "b");
/// # Ok::<(), gcl_ptx::ParseError>(())
/// ```
pub fn parse_module(src: &str) -> Result<Vec<Kernel>, ParseError> {
    parse_module_inner(src).map_err(|e| e.with_snippet(src))
}

fn parse_module_inner(src: &str) -> Result<Vec<Kernel>, ParseError> {
    let toks = lex(src)?;
    let mut kernels = Vec::new();
    let mut pos = 0;
    while pos < toks.len() {
        let (kernel, next) = parse_one_kernel(&toks, pos)?;
        kernels.push(kernel);
        pos = next;
    }
    if kernels.is_empty() {
        return Err(ParseError::at(0, 0, "module contains no kernels"));
    }
    Ok(kernels)
}

fn parse_one_kernel(all_toks: &[Spanned], start: usize) -> Result<(Kernel, usize), ParseError> {
    let toks = &all_toks[start..];
    // Numeric registers (`%rN`) claim their own ids; pre-scan this kernel's
    // (up to its closing brace) so that named registers (`%p1`, `%rd3`, ...)
    // are interned above every numeric id and can never collide.
    let max_numeric = toks
        .iter()
        .take_while(|(t, _, _)| *t != Tok::RBrace)
        .filter_map(|(t, _, _)| match t {
            Tok::Percent(name) => name.strip_prefix('r').and_then(|s| s.parse::<u32>().ok()),
            _ => None,
        })
        .max();
    let next_reg = max_numeric.map_or(0, |m| m + 1);
    let mut p = Parser {
        toks,
        pos: 0,
        regs: HashMap::new(),
        next_reg,
        params: Vec::new(),
    };

    // Header: optional `.visible`, then `.entry`.
    if p.peek() == Some(Tok::DotWord("visible")) {
        p.next()?;
    }
    match p.next()? {
        Tok::DotWord("entry") => {}
        other => {
            p.pos -= 1;
            return Err(p.err(format!("expected `.entry`, found {other}")));
        }
    }
    let name = p.expect_word()?;
    p.expect(Tok::LParen)?;
    if p.peek() != Some(Tok::RParen) {
        loop {
            match p.next()? {
                Tok::DotWord("param") => {}
                other => {
                    p.pos -= 1;
                    return Err(p.err(format!("expected `.param`, found {other}")));
                }
            }
            let ty = match p.next()? {
                Tok::DotWord(t) => Type::from_suffix(t)
                    .ok_or_else(|| p.err(format!("unknown param type `.{t}`")))?,
                other => {
                    p.pos -= 1;
                    return Err(p.err(format!("expected param type, found {other}")));
                }
            };
            let pname = p.expect_word()?;
            p.params.push(ParamDecl::new(pname, ty));
            match p.next()? {
                Tok::Comma => continue,
                Tok::RParen => break,
                other => {
                    p.pos -= 1;
                    return Err(p.err(format!("expected `,` or `)`, found {other}")));
                }
            }
        }
    } else {
        p.next()?;
    }

    let mut shared_bytes = 0u32;
    if p.peek() == Some(Tok::DotWord("shared")) {
        p.next()?;
        match p.next()? {
            Tok::Int(v) if v >= 0 => shared_bytes = v as u32,
            other => {
                p.pos -= 1;
                return Err(p.err(format!("expected shared size, found {other}")));
            }
        }
    }

    p.expect(Tok::LBrace)?;

    // Body: instructions with symbolic labels, resolved afterwards.
    let mut insts: Vec<Instruction> = Vec::new();
    let mut labels: HashMap<&str, usize> = HashMap::new();
    // (pc, label, line, col) of every `bra` awaiting label resolution.
    let mut branch_fixups: Vec<(usize, &str, usize, usize)> = Vec::new();

    loop {
        match p.peek() {
            Some(Tok::RBrace) => {
                p.next()?;
                break;
            }
            None => return Err(p.err("missing closing `}`")),
            _ => {}
        }

        // Label? `IDENT :`
        if let Some(Tok::Word(w)) = p.peek() {
            if p.toks.get(p.pos + 1).map(|&(t, _, _)| t) == Some(Tok::Colon) {
                p.next()?;
                p.next()?;
                if labels.insert(w, insts.len()).is_some() {
                    return Err(p.err(format!("label `{w}` defined twice")));
                }
                continue;
            }
        }

        // Optional guard.
        let mut guard = None;
        if p.peek() == Some(Tok::At) {
            p.next()?;
            let negate = if p.peek() == Some(Tok::Bang) {
                p.next()?;
                true
            } else {
                false
            };
            let pred = p.parse_reg()?;
            guard = Some(Guard { pred, negate });
        }

        let (line, col) = p.span();
        let mnemonic = p.expect_word()?;
        let parts: Vec<&str> = mnemonic.split('.').collect();
        let op = parse_op(&mut p, &parts, (line, col), &mut branch_fixups, insts.len())?;
        p.expect(Tok::Semi)?;
        insts.push(Instruction { op, guard });
    }

    // Resolve labels.
    for (pc, label, line, col) in branch_fixups {
        let target = *labels
            .get(label)
            .ok_or_else(|| ParseError::at(line, col, format!("undefined label `{label}`")))?;
        if let Op::Bra { target: t } = &mut insts[pc].op {
            *t = target;
        }
    }

    let consumed = start + p.pos;
    Kernel::new(name, p.params.clone(), shared_bytes, insts)
        .map(|k| (k, consumed))
        .map_err(ParseError::from)
}

fn parse_op<'src>(
    p: &mut Parser<'_, 'src>,
    parts: &[&str],
    (line, col): (usize, usize),
    branch_fixups: &mut Vec<(usize, &'src str, usize, usize)>,
    pc: usize,
) -> Result<Op, ParseError> {
    let head = parts[0];
    match head {
        "ld" => {
            let space = Space::from_suffix(parts.get(1).copied().unwrap_or(""))
                .ok_or_else(|| p.err("ld: missing/unknown space"))?;
            let ty = p.parse_type(parts.get(2))?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let addr = p.parse_address(space)?;
            Ok(Op::Ld {
                space,
                ty,
                dst,
                addr,
            })
        }
        "st" => {
            let space = Space::from_suffix(parts.get(1).copied().unwrap_or(""))
                .ok_or_else(|| p.err("st: missing/unknown space"))?;
            let ty = p.parse_type(parts.get(2))?;
            let addr = p.parse_address(space)?;
            p.expect(Tok::Comma)?;
            let src = p.parse_operand()?;
            Ok(Op::St {
                space,
                ty,
                addr,
                src,
            })
        }
        "mov" => {
            let ty = p.parse_type(parts.get(1))?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let src = p.parse_operand()?;
            Ok(Op::Mov { ty, dst, src })
        }
        "cvt" => {
            let dst_ty = p.parse_type(parts.get(1))?;
            let src_ty = p.parse_type(parts.get(2))?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let src = p.parse_operand()?;
            Ok(Op::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            })
        }
        "mul" => {
            // mul.lo.ty / mul.hi.ty / mul.wide.ty / mul.f32
            let (op, ty_idx) = match parts.get(1) {
                Some(&"lo") => (AluOp::Mul, 2),
                Some(&"hi") => (AluOp::MulHi, 2),
                Some(&"wide") => (AluOp::MulWide, 2),
                _ => (AluOp::Mul, 1),
            };
            let ty = p.parse_type(parts.get(ty_idx))?;
            alu(p, op, ty)
        }
        "add" | "sub" | "div" | "rem" | "min" | "max" | "and" | "or" | "xor" | "shl" | "shr" => {
            let op = match head {
                "add" => AluOp::Add,
                "sub" => AluOp::Sub,
                "div" => AluOp::Div,
                "rem" => AluOp::Rem,
                "min" => AluOp::Min,
                "max" => AluOp::Max,
                "and" => AluOp::And,
                "or" => AluOp::Or,
                "xor" => AluOp::Xor,
                "shl" => AluOp::Shl,
                _ => AluOp::Shr,
            };
            // Skip optional rounding/approx modifiers like `add.rn.f32`.
            let ty = last_type(p, parts)?;
            alu(p, op, ty)
        }
        "mad" | "fma" => {
            let wide = parts.get(1) == Some(&"wide");
            let ty = last_type(p, parts)?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let a = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let b = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let c = p.parse_operand()?;
            Ok(Op::Mad {
                ty,
                dst,
                a,
                b,
                c,
                wide,
            })
        }
        "neg" | "not" | "abs" | "popc" | "clz" => {
            let op = match head {
                "neg" => UnaryOp::Neg,
                "not" => UnaryOp::Not,
                "abs" => UnaryOp::Abs,
                "popc" => UnaryOp::Popc,
                _ => UnaryOp::Clz,
            };
            let ty = last_type(p, parts)?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let a = p.parse_operand()?;
            Ok(Op::Unary { op, ty, dst, a })
        }
        "sin" | "cos" | "sqrt" | "rsqrt" | "rcp" | "ex2" | "lg2" => {
            let op = match head {
                "sin" => SfuOp::Sin,
                "cos" => SfuOp::Cos,
                "sqrt" => SfuOp::Sqrt,
                "rsqrt" => SfuOp::Rsqrt,
                "rcp" => SfuOp::Rcp,
                "ex2" => SfuOp::Ex2,
                _ => SfuOp::Lg2,
            };
            let ty = last_type(p, parts)?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let a = p.parse_operand()?;
            Ok(Op::Sfu { op, ty, dst, a })
        }
        "setp" => {
            let cmp = match parts.get(1) {
                Some(&"eq") => CmpOp::Eq,
                Some(&"ne") => CmpOp::Ne,
                Some(&"lt") => CmpOp::Lt,
                Some(&"le") => CmpOp::Le,
                Some(&"gt") => CmpOp::Gt,
                Some(&"ge") => CmpOp::Ge,
                other => {
                    return Err(ParseError::at(
                        line,
                        col,
                        format!("setp: unknown comparison {other:?}"),
                    ))
                }
            };
            let ty = p.parse_type(parts.get(2))?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let a = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let b = p.parse_operand()?;
            Ok(Op::Setp { cmp, ty, dst, a, b })
        }
        "selp" => {
            let ty = p.parse_type(parts.get(1))?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let a = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let b = p.parse_operand()?;
            p.expect(Tok::Comma)?;
            let pred = p.parse_reg()?;
            Ok(Op::Selp {
                ty,
                dst,
                a,
                b,
                pred,
            })
        }
        "bra" => {
            let label = p.expect_word()?;
            branch_fixups.push((pc, label, line, col));
            Ok(Op::Bra { target: usize::MAX })
        }
        "bar" => {
            // `bar.sync id` (the id defaults to 0 when omitted)
            let mut id = 0u32;
            if let Some(Tok::Int(v)) = p.peek() {
                id = v as u32;
                p.next()?;
            }
            Ok(Op::Bar { id })
        }
        "atom" => {
            // atom.global.add.u32 %d, [a], b
            let op = match parts.get(2) {
                Some(&"add") => AtomOp::Add,
                Some(&"min") => AtomOp::Min,
                Some(&"max") => AtomOp::Max,
                Some(&"exch") => AtomOp::Exch,
                Some(&"and") => AtomOp::And,
                Some(&"or") => AtomOp::Or,
                other => {
                    return Err(ParseError::at(
                        line,
                        col,
                        format!("atom: unknown op {other:?}"),
                    ))
                }
            };
            let ty = p.parse_type(parts.get(3))?;
            let dst = p.parse_reg()?;
            p.expect(Tok::Comma)?;
            let addr = p.parse_address(Space::Global)?;
            p.expect(Tok::Comma)?;
            let src = p.parse_operand()?;
            Ok(Op::Atom {
                op,
                ty,
                dst,
                addr,
                src,
            })
        }
        "exit" | "ret" => Ok(Op::Exit),
        other => Err(ParseError::at(
            line,
            col,
            format!("unknown mnemonic `{other}`"),
        )),
    }
}

fn alu(p: &mut Parser<'_, '_>, op: AluOp, ty: Type) -> Result<Op, ParseError> {
    let dst = p.parse_reg()?;
    p.expect(Tok::Comma)?;
    let a = p.parse_operand()?;
    p.expect(Tok::Comma)?;
    let b = p.parse_operand()?;
    Ok(Op::Alu { op, ty, dst, a, b })
}

/// The last dot-part that parses as a type (skips `.rn`, `.approx`, ...).
fn last_type(p: &Parser<'_, '_>, parts: &[&str]) -> Result<Type, ParseError> {
    parts
        .iter()
        .rev()
        .find_map(|s| Type::from_suffix(s))
        .ok_or_else(|| p.err(format!("missing type suffix in `{}`", parts.join("."))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_quickstart_kernel() {
        let src = r#"
        // doubles every element
        .entry scale (.param .u64 data, .param .u32 n)
        {
          ld.param.u64 %rd1, [data];
          ld.param.u32 %r9, [n];
          mov.u32 %r1, %tid.x;
          setp.ge.u32 %p1, %r1, %r9;
          @%p1 bra DONE;
          mul.wide.u32 %rd2, %r1, 4;
          add.u64 %rd3, %rd1, %rd2;
          ld.global.u32 %r2, [%rd3];
          shl.u32 %r3, %r2, 1;
          st.global.u32 [%rd3], %r3;
        DONE:
          exit;
        }
        "#;
        let k = parse_kernel(src).unwrap();
        assert_eq!(k.name(), "scale");
        assert_eq!(k.params().len(), 2);
        assert_eq!(k.global_load_pcs().len(), 1);
        // Guarded branch resolved to the exit.
        let bra_pc = 4;
        match k.insts()[bra_pc].op {
            Op::Bra { target } => assert_eq!(target, k.insts().len() - 1),
            ref o => panic!("expected bra, got {o:?}"),
        }
        assert!(k.insts()[bra_pc].guard.is_some());
    }

    #[test]
    fn numeric_registers_keep_their_ids() {
        let src = ".entry k () { mov.u32 %r7, 1; st.global.u32 [%r7], %r7; exit; }";
        let k = parse_kernel(src).unwrap();
        match k.insts()[0].op {
            Op::Mov { dst, .. } => assert_eq!(dst, Reg(7)),
            ref o => panic!("{o:?}"),
        }
    }

    #[test]
    fn named_registers_do_not_collide_with_numeric() {
        let src = ".entry k () { mov.u32 %p1, 1; mov.u32 %r0, 2; mov.u32 %r1, 3; exit; }";
        let k = parse_kernel(src).unwrap();
        let dsts: Vec<Reg> = k.insts().iter().filter_map(|i| i.dst_reg()).collect();
        // All three destinations must be distinct registers.
        let mut ids: Vec<u32> = dsts.iter().map(|r| r.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "{dsts:?}");
    }

    #[test]
    fn unknown_label_is_an_error() {
        let src = ".entry k () { bra NOWHERE; exit; }";
        let err = parse_kernel(src).unwrap_err();
        assert!(err.msg.contains("NOWHERE"), "{err}");
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let src = ".entry k () { A: mov.u32 %r0, 1; A: exit; }";
        let err = parse_kernel(src).unwrap_err();
        assert!(err.msg.contains("defined twice"), "{err}");
    }

    #[test]
    fn unknown_param_name_is_an_error() {
        let src = ".entry k (.param .u64 a) { ld.param.u64 %r0, [b]; exit; }";
        let err = parse_kernel(src).unwrap_err();
        assert!(err.msg.contains("unknown parameter"), "{err}");
    }

    #[test]
    fn param_offsets_resolved_by_name() {
        let src = r#"
        .entry k (.param .u32 a, .param .u64 b)
        { ld.param.u64 %r0, [b]; exit; }
        "#;
        let k = parse_kernel(src).unwrap();
        match k.insts()[0].op {
            Op::Ld { addr, .. } => assert_eq!(addr.offset, 8), // aligned past a
            ref o => panic!("{o:?}"),
        }
    }

    #[test]
    fn negative_offsets_and_hex_literals() {
        let src = ".entry k () { mov.u32 %r1, 0x10; ld.global.u32 %r0, [%r1-4]; exit; }";
        let k = parse_kernel(src).unwrap();
        match k.insts()[0].op {
            Op::Mov { src, .. } => assert_eq!(src, Operand::Imm(16)),
            ref o => panic!("{o:?}"),
        }
        match k.insts()[1].op {
            Op::Ld { addr, .. } => assert_eq!(addr.offset, -4),
            ref o => panic!("{o:?}"),
        }
    }

    #[test]
    fn float_literals() {
        let src = ".entry k () { mov.f32 %f1, 1.5; mov.f64 %fd1, 0F3FF0000000000000; exit; }";
        let k = parse_kernel(src).unwrap();
        match k.insts()[0].op {
            Op::Mov { src, .. } => assert_eq!(src.as_f64(), Some(1.5)),
            ref o => panic!("{o:?}"),
        }
        match k.insts()[1].op {
            Op::Mov { src, .. } => assert_eq!(src.as_f64(), Some(1.0)),
            ref o => panic!("{o:?}"),
        }
    }

    #[test]
    fn guards_parse_both_polarities() {
        let src = r#"
        .entry k ()
        {
          setp.eq.u32 %p1, %tid.x, 0;
          @%p1 mov.u32 %r1, 1;
          @!%p1 mov.u32 %r2, 2;
          exit;
        }
        "#;
        let k = parse_kernel(src).unwrap();
        let g1 = k.insts()[1].guard.unwrap();
        let g2 = k.insts()[2].guard.unwrap();
        assert!(!g1.negate);
        assert!(g2.negate);
        assert_eq!(g1.pred, g2.pred);
    }

    #[test]
    fn atom_and_bar_parse() {
        let src = r#"
        .entry k (.param .u64 ctr)
        {
          ld.param.u64 %rd1, [ctr];
          atom.global.add.u32 %r1, [%rd1], 1;
          bar.sync 0;
          exit;
        }
        "#;
        let k = parse_kernel(src).unwrap();
        assert!(matches!(
            k.insts()[1].op,
            Op::Atom {
                op: AtomOp::Add,
                ..
            }
        ));
        assert!(matches!(k.insts()[2].op, Op::Bar { id: 0 }));
    }

    #[test]
    fn unary_ops_parse() {
        let src = ".entry k () { mov.u32 %r1, 5; neg.s32 %r2, %r1; not.b32 %r3, %r2; \
                   abs.s32 %r4, %r3; popc.u32 %r5, %r4; clz.u32 %r6, %r5; exit; }";
        let k = parse_kernel(src).unwrap();
        let unaries = k
            .insts()
            .iter()
            .filter(|i| matches!(i.op, Op::Unary { .. }))
            .count();
        assert_eq!(unaries, 5);
        // Round trip.
        let again = parse_kernel(&k.to_string()).unwrap();
        assert_eq!(again, k);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let src = r#"
        .entry rt (.param .u64 a, .param .u32 n)
        .shared 256
        {
          ld.param.u64 %rd1, [a];
          mov.u32 %r1, %ctaid.x;
          mad.lo.u32 %r2, %r1, 32, %r1;
          setp.lt.u32 %p1, %r2, 100;
          @!%p1 bra OUT;
          mul.wide.u32 %rd2, %r2, 8;
          add.u64 %rd3, %rd1, %rd2;
          ld.global.f64 %fd1, [%rd3];
          sqrt.approx.f64 %fd2, %fd1;
          st.global.f64 [%rd3], %fd2;
        OUT:
          exit;
        }
        "#;
        let k1 = parse_kernel(src).unwrap();
        let text = format!("{k1}");
        let k2 = parse_kernel(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(k1, k2, "round trip changed the kernel:\n{text}");
    }

    #[test]
    fn modules_parse_multiple_kernels() {
        let src = r#"
        .visible .entry first (.param .u64 a)
        { ld.param.u64 %rd1, [a]; exit; }
        .entry second ()
        { mov.u32 %r1, 7; exit; }
        "#;
        let kernels = parse_module(src).unwrap();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].name(), "first");
        assert_eq!(kernels[1].name(), "second");
        assert_eq!(kernels[0].params().len(), 1);
        // Each kernel numbers its registers alone: `second`'s `%r1` does
        // not push `first`'s named `%rd1` above it.
        assert_eq!(
            kernels[0].insts()[0].dst_reg(),
            Some(Reg(0)),
            "{}",
            kernels[0]
        );
        assert_eq!(kernels[0].num_regs(), 1);
        assert_eq!(kernels[1].insts()[0].dst_reg(), Some(Reg(1)));
        // parse_kernel rejects multi-kernel sources.
        let err = parse_kernel(src).unwrap_err();
        assert!(err.msg.contains("expected one kernel"), "{err}");
    }

    #[test]
    fn empty_module_is_an_error() {
        assert!(parse_module("// nothing here").is_err());
    }

    #[test]
    fn error_reports_line_numbers() {
        let src = ".entry k ()\n{\n  mov.u32 %r1, 1;\n  bogus.u32 %r2, 2;\n  exit;\n}";
        let err = parse_kernel(src).unwrap_err();
        assert_eq!(err.line, 4);
    }

    /// The rendered error carries line:column, the offending source line,
    /// and a caret pointing at the offending token.
    #[test]
    fn error_renders_column_and_snippet() {
        let src = ".entry k ()\n{\n  mov.u32 %r1, 1;\n  bogus.u32 %r2, 2;\n  exit;\n}";
        let err = parse_kernel(src).unwrap_err();
        assert_eq!((err.line, err.col), (4, 3));
        assert_eq!(err.snippet, "  bogus.u32 %r2, 2;");
        let rendered = err.to_string();
        assert_eq!(
            rendered,
            "parse error at line 4:3: unknown mnemonic `bogus`\n\
             \x20 |   bogus.u32 %r2, 2;\n\
             \x20 |   ^"
        );
        // Mid-line errors point at the offending token, not the mnemonic.
        let src = ".entry k ()\n{\n  mov.u32 %r1, ];\n  exit;\n}";
        let err = parse_kernel(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.col, 16, "column of the `]`: {err}");
        assert!(err.snippet.contains("mov.u32"), "{err}");
    }

    /// Columns count characters, not bytes: a multi-byte character before
    /// the offending one moves the caret by one.
    #[test]
    fn error_columns_count_characters() {
        let err = parse_kernel(".entry k () { é $ }").unwrap_err();
        assert_eq!((err.line, err.col), (1, 17), "{err}");
        assert_eq!(err.msg, "unexpected character `$`");
    }
}
