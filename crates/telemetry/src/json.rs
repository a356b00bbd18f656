//! The one JSON dialect frost writes and reads: one flat object per
//! line.
//!
//! Every artifact in the workspace — `telemetry.jsonl` trace events,
//! the `BENCH_*.json` benchmark records, campaign checkpoints — is JSON
//! Lines whose objects are *flat*: each value is a scalar (string,
//! number, `true`/`false`, `null`) or an array of scalars. [`Writer`]
//! renders such an object compactly; [`parse_lines`] reads an artifact
//! back into [`Object`]s whose typed accessors name the offending line
//! (`line N: …`) when a key is missing or mistyped.
//!
//! Anything nested deeper than one array is an error, reported without
//! recursion, so no artifact can exhaust the reader's stack.
//!
//! ```
//! use frost_telemetry::json::{parse_lines, Writer};
//!
//! let mut out = String::new();
//! Writer::new(&mut out)
//!     .field("kind", "demo")
//!     .field("counter", u64::MAX.to_string())
//!     .array("cursor", [3usize, 0, 7])
//!     .finish();
//! assert_eq!(
//!     out,
//!     "{\"kind\":\"demo\",\"counter\":\"18446744073709551615\",\"cursor\":[3,0,7]}\n"
//! );
//! let obj = parse_lines(&out).next().unwrap().unwrap();
//! assert_eq!(obj.str("kind"), Ok("demo"));
//! assert_eq!(obj.u64("counter"), Ok(u64::MAX));
//! assert!(obj.bool("kind").unwrap_err().starts_with("line 1: "));
//! ```

use std::fmt::{Display, Write as _};

use crate::trace::FieldValue;

/// A value [`Writer`] can render.
pub trait Scalar {
    /// Appends the JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Scalar for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Scalar for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

macro_rules! display_scalar {
    ($($t:ty),*) => {
        $(impl Scalar for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        })*
    };
}

display_scalar!(u64, usize, i64, bool);

/// Finite floats print in Rust's shortest round-trip form; JSON has no
/// spelling for the others, so they become `null`.
impl Scalar for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Scalar for FieldValue {
    fn write_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(n) => n.write_json(out),
            FieldValue::I64(n) => n.write_json(out),
            FieldValue::F64(n) => n.write_json(out),
            FieldValue::Bool(b) => b.write_json(out),
            FieldValue::Str(s) => s.write_json(out),
        }
    }
}

/// Renders one flat object, in call order, as a compact JSON line.
/// Each call appends one key; [`Writer::finish`] closes the object and
/// the line.
pub struct Writer<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Writer<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Writer<'a> {
        out.push('{');
        Writer { out, empty: true }
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        key.write_json(self.out);
        self.out.push(':');
    }

    /// Appends `"key":value`.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Writer<'a> {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Appends `"key":[item,…]`.
    pub fn array<T: Scalar>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Writer<'a> {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            item.write_json(self.out);
        }
        self.out.push(']');
        self
    }

    /// Closes the object and ends the line.
    pub fn finish(&mut self) {
        self.out.push_str("}\n");
    }
}

/// One value read back from a line.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A string, unescaped.
    Str(String),
    /// A finite number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array of scalars; never of arrays.
    Array(Vec<Value>),
}

impl Value {
    /// A `u64` written either as an exact integer number (at most
    /// 2⁵³, where doubles stop being exact) or as a decimal string
    /// (the lossless form for larger values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Str(s) => s.parse().ok(),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// One parsed line: its fields in order, plus its 1-based line number
/// for error messages. Each typed accessor fails with `line N: missing
/// <type> key '<key>'` when the key is absent or holds another type.
#[derive(Clone, Debug, PartialEq)]
pub struct Object {
    /// The line number within the artifact, counting from 1.
    line: usize,
    fields: Vec<(String, Value)>,
}

impl Object {
    /// The value of `key`. If the key repeats, the first occurrence
    /// wins.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// `msg`, prefixed with this object's `line N: `.
    pub fn error(&self, msg: impl Display) -> String {
        format!("line {}: {msg}", self.line)
    }

    fn typed<'v, T>(
        &'v self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(read)
            .ok_or_else(|| self.error(format!("missing {what} key '{key}'")))
    }

    /// The string at `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "string", |v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// The number at `key`.
    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "numeric", |v| match v {
            Value::Num(n) => Some(*n),
            _ => None,
        })
    }

    /// The `u64` at `key`, in either form [`Value::as_u64`] accepts.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "u64", Value::as_u64)
    }

    /// The boolean at `key`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "bool", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The array at `key`.
    pub fn array(&self, key: &str) -> Result<&[Value], String> {
        self.typed(key, "array", |v| match v {
            Value::Array(a) => Some(a.as_slice()),
            _ => None,
        })
    }
}

/// Parses every non-blank line of `text` as one flat object.
/// Malformed lines come out as `Err("line N: …")`; callers stop at the
/// first.
pub fn parse_lines(text: &str) -> impl Iterator<Item = Result<Object, String>> + '_ {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            let line = i + 1;
            Parser { s: l, pos: 0 }
                .object()
                .map(|fields| Object { line, fields })
                .map_err(|e| format!("line {line}: {e}"))
        })
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.s.as_bytes()[self.pos..];
        self.pos += rest.iter().take_while(|b| b.is_ascii_whitespace()).count();
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is the next non-whitespace byte.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Reads `item (',' item)*` up to and including `close`, whose
    /// opener has already been consumed. The list may be empty.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!(
                    "expected ',' or '{}' at byte {}",
                    close as char, self.pos
                ));
            }
        }
    }

    /// The whole line: one object, then nothing but whitespace.
    fn object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.list(b'}', |p| {
            let key = p.string()?;
            p.expect(b':')?;
            let value = if p.eat(b'[') {
                let mut items = Vec::new();
                p.list(b']', |p| {
                    items.push(p.scalar()?);
                    Ok(())
                })?;
                Value::Array(items)
            } else {
                p.scalar()?
            };
            fields.push((key, value));
            Ok(())
        })?;
        match self.peek() {
            None => Ok(fields),
            Some(_) => Err(format!("trailing garbage at byte {}", self.pos)),
        }
    }

    fn scalar(&mut self) -> Result<Value, String> {
        let start = self.pos;
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') => Err(format!("nested value at byte {start}")),
            Some(b'-' | b'0'..=b'9') => {
                let len = self.s.as_bytes()[self.pos..]
                    .iter()
                    .take_while(|b| {
                        b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                    })
                    .count();
                let text = &self.s[self.pos..self.pos + len];
                self.pos += len;
                match text.parse::<f64>() {
                    Ok(n) if n.is_finite() => Ok(Value::Num(n)),
                    _ => Err(format!("bad number '{text}'")),
                }
            }
            _ => {
                let rest = &self.s[self.pos..];
                for (word, v) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if rest.starts_with(word) {
                        self.pos += word.len();
                        return Ok(v);
                    }
                }
                Err(format!("expected a value at byte {}", self.pos))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.s[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .s
                .as_bytes()
                .get(self.pos)
                .ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self
                        .s
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(line: &str) -> Result<Object, String> {
        parse_lines(line).next().expect("one non-blank line")
    }

    #[test]
    fn writer_output_reads_back() {
        let mut out = String::new();
        Writer::new(&mut out)
            .field("s", "q\"uo\\te\n\t\u{1}é")
            .field("big", (u64::MAX - 7).to_string())
            .field("n", 42u64)
            .field("neg", -3i64)
            .field("f", 0.5f64)
            .field("nan", f64::NAN)
            .field("yes", true)
            .array("xs", [1usize, 2])
            .array("none", Vec::<u64>::new())
            .finish();
        Writer::new(&mut out).finish();
        let lines: Vec<Object> = parse_lines(&out).collect::<Result<_, _>>().unwrap();
        assert_eq!(lines.len(), 2);
        let obj = &lines[0];
        assert_eq!(obj.str("s"), Ok("q\"uo\\te\n\t\u{1}é"));
        assert_eq!(obj.u64("big"), Ok(u64::MAX - 7));
        assert_eq!(obj.u64("n"), Ok(42));
        assert_eq!(obj.num("neg"), Ok(-3.0));
        assert!(obj.u64("neg").is_err() && obj.u64("f").is_err());
        assert_eq!(obj.get("nan"), Some(&Value::Null));
        assert_eq!(obj.bool("yes"), Ok(true));
        assert_eq!(obj.array("xs"), Ok(&[Value::Num(1.0), Value::Num(2.0)][..]));
        assert_eq!(obj.array("none"), Ok(&[][..]));
        assert_eq!(lines[1].line, 2);
        assert_eq!(lines[1].get("s"), None);
        assert_eq!(
            one("{\"k\":1,\"k\":2}").unwrap().u64("k"),
            Ok(1),
            "the first occurrence of a repeated key wins"
        );
        assert_eq!(
            one(" { \"k\" : \"\\u0041\\/\" } ").unwrap().str("k"),
            Ok("A/")
        );
    }

    #[test]
    fn nesting_and_malformed_lines_are_errors() {
        let deep = ["{\"k\":", &"[".repeat(100_000), &"]".repeat(100_000), "}"].concat();
        assert!(one(&deep).unwrap_err().contains("nested"));
        assert!(one("{\"k\":{\"a\":1}}").is_err(), "nested object");
        for bad in [
            "not json",
            "{",
            "{\"k\"}",
            "{\"k\":}",
            "{\"k\":1,}",
            "{\"k\":1} tail",
            "{\"k\":\"open",
            "{\"k\":\"\\q\"}",
            "{\"k\":\"\\u12\"}",
            "{\"k\":1e999}",
            "{\"k\":-}",
            "{\"k\":tru}",
            "{\"k\":[1,]}",
        ] {
            let err = one(bad).unwrap_err();
            assert!(err.starts_with("line 1: "), "{bad}: {err}");
        }
        let text = "{}\n\n{\"k\":1}\n{\"k\":2";
        let errs: Vec<String> = parse_lines(text).filter_map(Result::err).collect();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].starts_with("line 4: "), "{}", errs[0]);
        let obj = one("{\"k\":1}").unwrap();
        assert_eq!(obj.str("k"), Err("line 1: missing string key 'k'".into()));
        assert_eq!(obj.bool("x"), Err("line 1: missing bool key 'x'".into()));
    }
}
