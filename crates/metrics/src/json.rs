//! A small JSON document model with writers and a parser.
//!
//! Every machine-readable artifact — `results/<id>.json`, `recsim prof
//! --format json`, checkpoints, `BENCH.json` — goes through
//! [`Value`]. Objects keep insertion order, [`Value::to_pretty`] indents by
//! two spaces, strings escape only `"`, `\` and control characters, and
//! floats print their shortest round-trip digits (`64.0`, `0.00008189`,
//! `1.19e-8`), the layout of the committed `results/`.
//!
//! ```
//! use recsim_metrics::json::{self, Value};
//!
//! let doc = Value::object([("id", Value::from("fig06")), ("n", Value::from(3usize))]);
//! assert_eq!(doc.to_compact(), r#"{"id":"fig06","n":3}"#);
//! assert_eq!(json::parse(&doc.to_pretty()), Ok(doc));
//! ```

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Integers and floats stay distinct so integer fields
/// round-trip as integers.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i128),
    /// Any other number. Non-finite values write as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array by converting each element.
    pub fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }

    /// The first member named `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member `key` of an object, converted to `T`.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or has the wrong type.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        T::from_json(v).map_err(|e| format!("field `{key}`: {e}"))
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// An integer that fits in `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Single-line form with no whitespace.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Multi-line form indented by two spaces per level.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, len) = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => return out.push_str(&i.to_string()),
            Value::Float(x) => return write_float(out, *x),
            Value::Str(s) => return write_str(out, s),
            Value::Array(items) => ('[', ']', items.len()),
            Value::Object(fields) => ('{', '}', fields.len()),
        };
        out.push(open);
        let inner = indent.map(|n| n + 1);
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(n) = inner {
                out.push('\n');
                out.push_str(&"  ".repeat(n));
            }
            match self {
                Value::Array(items) => items[i].write(out, inner),
                Value::Object(fields) => {
                    write_str(out, &fields[i].0);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    fields[i].1.write(out, inner);
                }
                _ => {}
            }
        }
        if let Some(n) = indent.filter(|_| len > 0) {
            out.push('\n');
            out.push_str(&"  ".repeat(n));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        // `"`, `\` and the five control characters with a short escape.
        match "\"\\\u{8}\u{c}\n\r\t".find(c) {
            Some(k) => {
                out.push('\\');
                out.push(char::from(b"\"\\bfnrt"[k]));
            }
            None if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            None => out.push(c),
        }
    }
    out.push('"');
}

/// Shortest round-trip digits laid out as ryu does: plain decimals from
/// `0.00001` up to 16 integer digits (`64.0`, `0.00008189`), scientific
/// notation outside that (`1e-6`, `1.5e16`), and always a `.0` on
/// integral values.
fn write_float(out: &mut String, x: f64) {
    if !x.is_finite() {
        return out.push_str("null");
    }
    // `{:e}` yields the shortest round-trip digits as `d.ddde<exp>`.
    let sci = format!("{:e}", x.abs());
    let (mantissa, exp) = sci.split_once('e').unwrap_or((&sci, "0"));
    let digits = mantissa.replace('.', "");
    let exp: i32 = exp.parse().unwrap_or(0);
    let (len, point) = (digits.len() as i32, exp + 1); // value = 0.DIGITS × 10^point
    if x.is_sign_negative() {
        out.push('-');
    }
    let _ = if (len..=16).contains(&point) {
        write!(out, "{digits}{}.0", "0".repeat((point - len) as usize))
    } else if (1..=16).contains(&point) {
        let (int, frac) = digits.split_at(point as usize);
        write!(out, "{int}.{frac}")
    } else if (-4..=0).contains(&point) {
        write!(out, "0.{}{digits}", "0".repeat(-point as usize))
    } else if len == 1 {
        write!(out, "{digits}e{exp}")
    } else {
        write!(out, "{}.{}e{exp}", &digits[..1], &digits[1..])
    };
}

macro_rules! from {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Self {
                $e
            }
        }
    )*};
}

from!(
    bool => |b| Value::Bool(b),
    f64 => |x| Value::Float(x),
    &str => |s| Value::Str(s.to_string()),
    String => |s| Value::Str(s),
    i64 => |i| Value::Int(i.into()),
    u32 => |i| Value::Int(i.into()),
    u64 => |i| Value::Int(i.into()),
    usize => |i| Value::Int(i as i128),
    // The `f32`'s own shortest digits (`0.1`, not `0.10000000149011612`),
    // unless that decimal would not read back to the same `f32`.
    f32 => |x| {
        let short: f64 = x.to_string().parse().unwrap_or(f64::from(x));
        Value::Float(if short as f32 == x { short } else { f64::from(x) })
    },
);

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// Conversion out of a parsed [`Value`], the reading half of the
/// artifact types' `to_json`.
pub trait FromJson: Sized {
    /// Converts `v`, or explains why it does not fit.
    ///
    /// # Errors
    ///
    /// A message naming the expected shape.
    fn from_json(v: &Value) -> Result<Self, String>;
}

macro_rules! from_json {
    ($($t:ty => $conv:expr),* $(,)?) => {$(
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, String> {
                let conv: fn(&Value) -> Option<$t> = $conv;
                conv(v).ok_or_else(|| format!("expected {}", stringify!($t)))
            }
        }
    )*};
}

from_json!(
    bool => |v| match v { Value::Bool(b) => Some(*b), _ => None },
    f64 => Value::as_f64,
    f32 => |v| v.as_f64().map(|x| x as f32),
    u64 => Value::as_u64,
    u32 => |v| v.as_u64().and_then(|i| u32::try_from(i).ok()),
    usize => |v| v.as_u64().and_then(|i| usize::try_from(i).ok()),
    String => |v| v.as_str().map(str::to_string),
);

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        let items = v.as_array().ok_or("expected an array")?;
        items.iter().map(T::from_json).collect()
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A message with the byte offset of the first syntax error, including
/// nesting deeper than [`MAX_DEPTH`] and numbers outside `f64` range.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i < p.s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.s.get(self.i) == Some(&b);
        self.i += usize::from(hit);
        hit
    }

    fn next(&mut self) -> Result<u8, String> {
        let b = *self
            .s
            .get(self.i)
            .ok_or_else(|| self.err("unexpected end"))?;
        self.i += 1;
        Ok(b)
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.ws();
        let words = [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ];
        for (word, v) in words {
            if self.s[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                return Ok(v);
            }
        }
        let open = self.s.get(self.i).copied();
        if matches!(open, Some(b'[' | b'{')) && depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match open {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => self.seq(b']', |p| p.value(depth + 1)).map(Value::Array),
            Some(b'{') => self
                .seq(b'}', |p| {
                    p.ws();
                    if p.s.get(p.i) != Some(&b'"') {
                        return Err(p.err("expected a string key"));
                    }
                    let key = p.string()?;
                    p.ws();
                    if !p.eat(b':') {
                        return Err(p.err("expected `:`"));
                    }
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Object),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Comma-separated items after an opening bracket, up to `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or a closing bracket"));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.s.get(self.i).is_some_and(u8::is_ascii_digit) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        self.eat(b'-');
        let leading_zero = self.s.get(self.i) == Some(&b'0');
        let n = self.digits();
        let mut ok = n > 0 && !(leading_zero && n > 1);
        let frac = self.eat(b'.');
        if frac {
            ok &= self.digits() > 0;
        }
        let exp = self.eat(b'e') || self.eat(b'E');
        if exp {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        if !ok {
            return Err(self.err("malformed number"));
        }
        // Only ASCII digits, signs, `.` and `e` were consumed.
        let text = String::from_utf8_lossy(&self.s[start..self.i]);
        match (frac || exp, text.parse::<i128>()) {
            (false, Ok(i)) => Ok(Value::Int(i)),
            _ => match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::Float(x)),
                _ => Err(self.err("number out of range")),
            },
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        (0..4).try_fold(0, |code, _| {
            let digit = (self.next()? as char).to_digit(16);
            Ok(code * 16 + digit.ok_or_else(|| self.err("bad \\u escape"))?)
        })
    }

    /// The character after `\u`, joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // the opening quote
        let mut out = Vec::new();
        loop {
            let c = match self.next()? {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                0..=0x1f => return Err(self.err("control character in string")),
                b'\\' => match self.next()? {
                    b'u' => self.unicode_escape()?,
                    e => match b"\"\\/bfnrt".iter().position(|&x| x == e) {
                        Some(k) => ['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][k],
                        None => return Err(self.err("bad escape")),
                    },
                },
                b => {
                    out.push(b);
                    continue;
                }
            };
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }
}
