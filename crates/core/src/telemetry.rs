//! Structured run telemetry: JSON encoding, per-point spans, Chrome Trace
//! Event export, JSONL run manifests and progress lines.
//!
//! The workspace builds offline with no registry access, so this module
//! carries its own small JSON value type ([`JsonValue`]) with a writer, and
//! one JSON lexer ([`JsonCursor`]) instead of depending on `serde`: the
//! tree parser and the wire codec ([`crate::wire`]) both read through it.
//! Two format details matter:
//!
//! - 64-bit identities (config hashes, seeds) are serialized as `"0x…"` hex
//!   **strings**, never JSON numbers — JSON numbers are f64 and silently
//!   lose precision above 2^53.
//! - Manifests are JSONL: one `"run"` header object per file followed by
//!   one `"point"` object per operating point and (for fault-injection
//!   runs) one `"fault"` object per observed fault event, so they stream
//!   and `grep` cleanly.
//!
//! Chrome traces ([`SpanRecorder::chrome_trace`]) load directly into
//! `chrome://tracing` / `ui.perfetto.dev`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

pub use crate::wire::{FaultRecord, ManifestPoint};

// ---------------------------------------------------------------------------
// JSON value, writer, lexer
// ---------------------------------------------------------------------------

/// A JSON document node. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (f64; non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Hex-string encoding of a u64 identity (see module docs).
    pub fn hex(v: u64) -> JsonValue {
        JsonValue::Str(format!("{v:#x}"))
    }

    /// Looks up `key` in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Decodes a u64 identity from either a `"0x…"` hex string or an exact
    /// non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Str(s) => hex_u64(s),
            JsonValue::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_json_number(*n, out),
            JsonValue::Str(s) => write_json_string(s, out),
            JsonValue::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must consume the full input). Arrays and
    /// objects may nest at most [`MAX_JSON_DEPTH`] deep, so a hostile line
    /// cannot exhaust the stack.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut cur = JsonCursor::new(input);
        cur.skip_ws();
        let v = tree(&mut cur).map_err(|e| e.0)?;
        cur.end().map_err(|e| e.0)?;
        Ok(v)
    }
}

/// Builds the tree of the value at `cur`.
fn tree(cur: &mut JsonCursor<'_>) -> Result<JsonValue, SyntaxError> {
    match cur.peek() {
        Some(b'[') => {
            let mut xs = Vec::new();
            cur.array(&mut |c, _| {
                xs.push(tree(c)?);
                Ok(())
            })?;
            Ok(JsonValue::Arr(xs))
        }
        Some(b'{') => {
            let mut pairs = Vec::new();
            cur.object(&mut |c, k| {
                pairs.push((k.into_owned(), tree(c)?));
                Ok(())
            })?;
            Ok(JsonValue::Obj(pairs))
        }
        _ => Ok(match cur.atom()? {
            Scalar::Null => JsonValue::Null,
            Scalar::Bool(b) => JsonValue::Bool(b),
            Scalar::Num(n) => JsonValue::Num(n),
            Scalar::Str(s) => JsonValue::Str(s.into_owned()),
        }),
    }
}

/// Appends `s` as a JSON string literal.
pub(crate) fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
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

/// Appends `n` as a JSON number: `{}` prints integral values without an
/// exponent and the shortest round-trippable form otherwise; non-finite
/// values have no JSON form and are written as `null`.
pub(crate) fn write_json_number(n: f64, out: &mut String) {
    if n.is_finite() {
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// A `"0x…"` hex string's value. Exactly hex digits after the prefix:
/// `from_str_radix` alone would also accept a sign ("0x+ff").
fn hex_u64(s: &str) -> Option<u64> {
    let hex = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"))?;
    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// A JSON number's value as a `u64`, if it is an exact non-negative
/// integer a JSON number carries (at most 2^53).
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
}

/// The deepest array/object nesting [`JsonValue::parse`] and the wire
/// codec accept; the deepest document the service emits (a stats
/// snapshot) nests 6 deep.
pub const MAX_JSON_DEPTH: usize = 64;

/// A JSON syntax error: what was wrong, and at which byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyntaxError(pub String);

/// A JSON scalar read by a [`JsonCursor`]; strings borrow from the input
/// unless they contain escapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, escapes decoded.
    Str(Cow<'a, str>),
}

impl Scalar<'_> {
    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A u64 identity, as [`JsonValue::as_u64`] reads it.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Str(s) => hex_u64(s),
            Scalar::Num(n) => exact_u64(*n),
            _ => None,
        }
    }
}

/// Reads one callback-driven object or array member.
type Member<'s, 'a, K> = dyn FnMut(&mut JsonCursor<'a>, K) -> Result<(), SyntaxError> + 's;

/// A borrowing cursor over one JSON text: the one implementation of JSON
/// lexing. [`JsonValue::parse`] builds a tree with it, and the wire codec
/// ([`crate::wire`]) decodes messages straight from the bytes with it, so
/// both accept exactly the same syntax, with the same errors and the same
/// [`MAX_JSON_DEPTH`] bound.
///
/// Containers are read by callback: [`JsonCursor::object`] and
/// [`JsonCursor::array`] hand every member to a closure that must consume
/// exactly one value, with [`JsonCursor::scalar`], a container call or
/// [`JsonCursor::skip_value`] (which checks a value's syntax and builds
/// nothing).
#[derive(Debug, Clone)]
pub struct JsonCursor<'a> {
    src: &'a str,
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> JsonCursor<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        JsonCursor {
            src,
            i: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    /// Skips JSON whitespace.
    pub fn skip_ws(&mut self) {
        let s = self.bytes();
        while self.i < s.len() && matches!(s[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    /// The next byte, if any.
    pub fn peek(&self) -> Option<u8> {
        self.bytes().get(self.i).copied()
    }

    /// Fails unless only whitespace is left.
    ///
    /// # Errors
    ///
    /// Trailing garbage, and where it starts.
    pub fn end(&mut self) -> Result<(), SyntaxError> {
        self.skip_ws();
        if self.i == self.src.len() {
            Ok(())
        } else {
            Err(SyntaxError(format!("trailing garbage at byte {}", self.i)))
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), SyntaxError> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(SyntaxError(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.i,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Scalar<'a>) -> Result<Scalar<'a>, SyntaxError> {
        if self.bytes()[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(SyntaxError(format!("invalid literal at byte {}", self.i)))
        }
    }

    /// Reads the scalar at the cursor; an array, an object or anything else
    /// is a syntax error.
    fn atom(&mut self) -> Result<Scalar<'a>, SyntaxError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'"') => self.string().map(Scalar::Str),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Scalar::Num),
            other => Err(SyntaxError(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.i
            ))),
        }
    }

    /// Reads the value at the cursor: `Some` scalar, or `None` for an array
    /// or an object, which is skipped.
    ///
    /// # Errors
    ///
    /// The first syntax error in the value.
    // Out of line: one copy serves every kind's decoder.
    #[inline(never)]
    pub fn scalar(&mut self) -> Result<Option<Scalar<'a>>, SyntaxError> {
        match self.peek() {
            Some(b'[' | b'{') => self.skip_value().map(|()| None),
            _ => self.atom().map(Some),
        }
    }

    /// Checks the syntax of the value at the cursor and moves past it,
    /// building nothing.
    ///
    /// # Errors
    ///
    /// The first syntax error in the value.
    pub fn skip_value(&mut self) -> Result<(), SyntaxError> {
        match self.peek() {
            Some(b'[') => self.array(&mut |c, _| c.skip_value()),
            Some(b'{') => self.object(&mut |c, _| c.skip_value()),
            Some(b'"') => self.scan_string(None),
            _ => self.atom().map(drop),
        }
    }

    /// Opens a container, bounding the depth.
    fn open(&mut self, b: u8) -> Result<(), SyntaxError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(SyntaxError(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.i
            )));
        }
        self.expect(b)?;
        self.depth += 1;
        self.skip_ws();
        Ok(())
    }

    /// After a member: `true` at the next one, `false` past the closing
    /// `close`.
    fn next_member(&mut self, close: u8) -> Result<bool, SyntaxError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(c) if c == close => {
                self.i += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(SyntaxError(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.i
            ))),
        }
    }

    /// Reads the array at the cursor, handing each element's index to
    /// `each`, which must consume the element.
    ///
    /// # Errors
    ///
    /// The first syntax error, `each`'s included.
    pub fn array(&mut self, each: &mut Member<'_, 'a, usize>) -> Result<(), SyntaxError> {
        self.open(b'[')?;
        if self.peek() == Some(b']') {
            self.i += 1;
            self.depth -= 1;
            return Ok(());
        }
        let mut index = 0;
        loop {
            each(self, index)?;
            index += 1;
            if !self.next_member(b']')? {
                return Ok(());
            }
        }
    }

    /// Reads the object at the cursor, handing each key to `each`, which
    /// must consume the key's value.
    ///
    /// # Errors
    ///
    /// The first syntax error, `each`'s included.
    pub fn object(&mut self, each: &mut Member<'_, 'a, Cow<'a, str>>) -> Result<(), SyntaxError> {
        self.open(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            each(self, key)?;
            if !self.next_member(b'}')? {
                return Ok(());
            }
        }
    }

    /// The first `key` member of the object at the cursor, if it is a
    /// scalar, without moving the cursor. When `key` is not the object's
    /// first key the whole object is read, and its syntax checked, to find
    /// it; `None` when the value is not an object.
    ///
    /// # Errors
    ///
    /// A syntax error met on the way.
    pub fn lookup(&self, key: &str) -> Result<Option<Scalar<'a>>, SyntaxError> {
        let mut probe = self.clone();
        if probe.peek() != Some(b'{') {
            return Ok(None);
        }
        // The common case: the key leads the object.
        let mut first = probe.clone();
        first.open(b'{')?;
        if first.peek() == Some(b'"') && first.string()? == key {
            first.skip_ws();
            first.expect(b':')?;
            first.skip_ws();
            return first.scalar();
        }
        let mut found = None;
        probe.object(&mut |c, k| {
            if found.is_none() && k == key {
                found = Some(c.scalar()?);
                Ok(())
            } else {
                c.skip_value()
            }
        })?;
        Ok(found.flatten())
    }

    /// Reads a string, escapes decoded: borrowed from the input unless it
    /// holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, SyntaxError> {
        self.expect(b'"')?;
        let start = self.i;
        self.run();
        if self.peek() == Some(b'"') {
            self.i += 1;
            return Ok(Cow::Borrowed(&self.src[start..self.i - 1]));
        }
        let mut out = self.src[start..self.i].to_string();
        self.scan_rest(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Checks a string, appending its decoded text to `out` when given.
    fn scan_string(&mut self, mut out: Option<&mut String>) -> Result<(), SyntaxError> {
        self.expect(b'"')?;
        let start = self.i;
        self.run();
        if let Some(out) = out.as_deref_mut() {
            out.push_str(&self.src[start..self.i]);
        }
        self.scan_rest(out)
    }

    /// Moves past a run of bytes that are neither a quote nor an escape.
    /// The input is a `str` and both delimiters are ASCII, so a run is
    /// whole UTF-8.
    fn run(&mut self) {
        let s = self.bytes();
        while self.i < s.len() && !matches!(s[self.i], b'"' | b'\\') {
            self.i += 1;
        }
    }

    /// Reads the rest of a string from an escape or its closing quote.
    fn scan_rest(&mut self, mut out: Option<&mut String>) -> Result<(), SyntaxError> {
        loop {
            match self.peek() {
                None => return Err(SyntaxError("unterminated string".into())),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(_) => {
                    // An escape.
                    self.i += 1;
                    let c = self.escape()?;
                    let start = self.i;
                    self.run();
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                        out.push_str(&self.src[start..self.i]);
                    }
                }
            }
        }
    }

    /// Decodes the escape after a backslash. A `\u` high surrogate followed
    /// by a `\u` low surrogate is one astral character, as JSON writers
    /// such as Python's `json.dumps` send it; a lone surrogate becomes
    /// U+FFFD.
    fn escape(&mut self) -> Result<char, SyntaxError> {
        let Some(esc) = self.peek() else {
            return Err(SyntaxError("unterminated escape".into()));
        };
        self.i += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.bytes()[self.i..].starts_with(b"\\u") {
                    let mut low = self.clone();
                    low.i += 2;
                    if let Ok(lo @ 0xdc00..=0xdfff) = low.hex4() {
                        *self = low;
                        let astral = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                        return Ok(char::from_u32(astral).expect("a surrogate pair is a scalar"));
                    }
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => return Err(SyntaxError(format!("bad escape '\\{}'", other as char))),
        })
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, SyntaxError> {
        let s = self.bytes();
        if self.i + 4 > s.len() {
            return Err(SyntaxError("truncated \\u escape".into()));
        }
        let hex = &s[self.i..self.i + 4];
        // Exactly four hex digits: `from_str_radix` alone would also
        // accept a sign ("\\u+041").
        let code = std::str::from_utf8(hex)
            .ok()
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| SyntaxError("bad \\u escape".into()))?;
        self.i += 4;
        Ok(code)
    }

    /// Reads a number by RFC 8259's grammar,
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: no leading
    /// zero, and a fraction or an exponent has at least one digit.
    fn number(&mut self) -> Result<f64, SyntaxError> {
        let start = self.i;
        // Moves past a run of digits; `false` when there is none.
        let digits = |c: &mut Self| {
            let from = c.i;
            while matches!(c.peek(), Some(b'0'..=b'9')) {
                c.i += 1;
            }
            c.i > from
        };
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut valid = if self.peek() == Some(b'0') {
            self.i += 1;
            !matches!(self.peek(), Some(b'0'..=b'9'))
        } else {
            digits(self)
        };
        if valid && self.peek() == Some(b'.') {
            self.i += 1;
            valid = digits(self);
        }
        if valid && matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            valid = digits(self);
        }
        let text = &self.src[start..self.i];
        if !valid {
            let next = self
                .peek()
                .map_or_else(|| "the end".to_string(), |c| format!("{:?}", c as char));
            return Err(SyntaxError(format!(
                "bad number {text:?} followed by {next} at byte {start}"
            )));
        }
        text.parse::<f64>()
            .map_err(|_| SyntaxError(format!("bad number {text:?} at byte {start}")))
    }
}

// ---------------------------------------------------------------------------
// Spans and Chrome Trace export
// ---------------------------------------------------------------------------

/// One completed unit of work on a worker thread, with wall-clock offsets
/// relative to the owning [`SpanRecorder`]'s creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Batch label (e.g. the figure name).
    pub label: String,
    /// Point index within its batch.
    pub index: usize,
    /// Start offset from the recorder's origin, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Dense worker-thread index (0-based, per recorder).
    pub tid: usize,
    /// Whether the point was served from the result cache.
    pub cache_hit: bool,
    /// The point's RNG seed, when known.
    pub seed: Option<u64>,
    /// The point's configuration hash, when known.
    pub config_hash: Option<u64>,
}

/// Collects [`Span`]s from concurrent workers and exports them as a Chrome
/// Trace Event file.
///
/// Thread identities are mapped to small dense `tid`s in first-seen order;
/// a recorder is cheap enough to share for a whole multi-batch run.
#[derive(Debug)]
pub struct SpanRecorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<HashMap<ThreadId, usize>>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// A recorder whose time origin is "now".
    pub fn new() -> Self {
        SpanRecorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(HashMap::new()),
        }
    }

    fn tid_index(&self) -> usize {
        let id = std::thread::current().id();
        let mut m = self.threads.lock().expect("thread map poisoned");
        let n = m.len();
        *m.entry(id).or_insert(n)
    }

    /// Records one completed span from the calling worker thread.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        label: &str,
        index: usize,
        start: Instant,
        end: Instant,
        cache_hit: bool,
        seed: Option<u64>,
        config_hash: Option<u64>,
    ) {
        let span = Span {
            label: label.to_string(),
            index,
            start_us: start.saturating_duration_since(self.origin).as_micros() as u64,
            dur_us: end.saturating_duration_since(start).as_micros() as u64,
            tid: self.tid_index(),
            cache_hit,
            seed,
            config_hash,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all spans, sorted by `(start_us, tid, index)` so export
    /// order does not depend on completion races.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| (s.start_us, s.tid, s.index));
        v
    }

    /// Renders all spans as a Chrome Trace Event Format JSON document
    /// (complete `"X"` events; load in `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> String {
        let events: Vec<JsonValue> = self
            .spans()
            .into_iter()
            .map(|s| {
                let mut args = vec![
                    ("index".to_string(), JsonValue::Num(s.index as f64)),
                    ("cache_hit".to_string(), JsonValue::Bool(s.cache_hit)),
                ];
                if let Some(seed) = s.seed {
                    args.push(("seed".to_string(), JsonValue::hex(seed)));
                }
                if let Some(h) = s.config_hash {
                    args.push(("config_hash".to_string(), JsonValue::hex(h)));
                }
                JsonValue::Obj(vec![
                    (
                        "name".to_string(),
                        JsonValue::Str(format!("{} #{}", s.label, s.index)),
                    ),
                    ("cat".to_string(), JsonValue::Str("point".to_string())),
                    ("ph".to_string(), JsonValue::Str("X".to_string())),
                    ("ts".to_string(), JsonValue::Num(s.start_us as f64)),
                    ("dur".to_string(), JsonValue::Num(s.dur_us as f64)),
                    ("pid".to_string(), JsonValue::Num(0.0)),
                    ("tid".to_string(), JsonValue::Num(s.tid as f64)),
                    ("args".to_string(), JsonValue::Obj(args)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("traceEvents".to_string(), JsonValue::Arr(events)),
            (
                "displayTimeUnit".to_string(),
                JsonValue::Str("ms".to_string()),
            ),
        ])
        .to_json()
    }
}

/// Parses a Chrome trace document and checks every event carries the
/// required fields (`name`, `ph`, `ts`, `dur`, `pid`, `tid`); returns the
/// event count.
///
/// # Errors
///
/// A description of the first syntax error or missing field.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let doc = JsonValue::parse(json)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        for field in ["name", "ph", "ts", "dur", "pid", "tid"] {
            if e.get(field).is_none() {
                return Err(format!("event {i} missing field {field:?}"));
            }
        }
    }
    Ok(events.len())
}

// ---------------------------------------------------------------------------
// Run manifests (JSONL)
// ---------------------------------------------------------------------------

/// A self-describing record of one figure/bench run: identity (figure name,
/// combined config hash, seed schedule, worker count), cost (wall time,
/// cache hits/misses) and every point's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Figure / binary identifier (e.g. `"fig11"`).
    pub figure: String,
    /// Combined hash over all point config hashes (order-sensitive).
    pub config_hash: u64,
    /// Worker threads used.
    pub workers: usize,
    /// The runner's base seed (point seeds derive from it).
    pub base_seed: u64,
    /// Every point's derived seed, in point order.
    pub seed_schedule: Vec<u64>,
    /// Total wall time of the run, milliseconds.
    pub wall_ms: f64,
    /// Result-cache hits during the run.
    pub cache_hits: u64,
    /// Result-cache misses during the run.
    pub cache_misses: u64,
    /// Per-point records, in point order.
    pub points: Vec<ManifestPoint>,
    /// Fault events observed during the run, if any (empty for fault-free
    /// runs — serialization omits nothing, old manifests parse as empty).
    pub faults: Vec<FaultRecord>,
}

impl RunManifest {
    /// Order-sensitive FNV-1a combination of per-point config hashes, used
    /// for the manifest-level `config_hash`.
    pub fn combine_hashes(hashes: impl IntoIterator<Item = u64>) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for h in hashes {
            for b in h.to_le_bytes() {
                acc ^= u64::from(b);
                acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        acc
    }

    /// Serializes as JSONL: one `"run"` header line, then one `"point"`
    /// line per point and one `"fault"` line per fault.
    pub fn to_jsonl(&self) -> String {
        let points = self.points.iter().map(ManifestPoint::to_json_line);
        let faults = self.faults.iter().map(FaultRecord::to_json_line);
        let mut out = String::new();
        for line in std::iter::once(self.to_json_line())
            .chain(points)
            .chain(faults)
        {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses a manifest back from JSONL.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line or missing field.
    pub fn from_jsonl(text: &str) -> Result<RunManifest, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty manifest")?;
        let mut manifest =
            RunManifest::from_json_line(header).map_err(|e| format!("header: {e}"))?;
        for (i, line) in lines.enumerate() {
            let at = |e: String| format!("line {}: {e}", i + 2);
            match crate::wire::line_tag(line).map_err(at)?.as_deref() {
                Some("point") => manifest
                    .points
                    .push(ManifestPoint::from_json_line(line).map_err(at)?),
                Some("fault") => manifest
                    .faults
                    .push(FaultRecord::from_json_line(line).map_err(at)?),
                other => return Err(at(format!("unexpected type {other:?}"))),
            }
        }
        Ok(manifest)
    }
}

// ---------------------------------------------------------------------------
// Progress lines
// ---------------------------------------------------------------------------

/// Formats a live progress line: completed/total, percent, throughput and
/// ETA, e.g. `fig11: 12/48 (25%), 3.4 pt/s, ETA 11s`.
pub fn progress_line(label: &str, completed: usize, total: usize, elapsed: Duration) -> String {
    let pct = if total > 0 {
        100.0 * completed as f64 / total as f64
    } else {
        100.0
    };
    let secs = elapsed.as_secs_f64();
    if completed == 0 || secs <= 0.0 {
        return format!("{label}: {completed}/{total} ({pct:.0}%)");
    }
    let rate = completed as f64 / secs;
    let remaining = total.saturating_sub(completed);
    let eta = remaining as f64 / rate;
    format!(
        "{label}: {completed}/{total} ({pct:.0}%), {rate:.1} pt/s, ETA {}",
        fmt_secs(eta)
    )
}

fn fmt_secs(s: f64) -> String {
    if s >= 90.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else if s >= 10.0 {
        format!("{s:.0}s")
    } else {
        format!("{s:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_nested_values() {
        let v = JsonValue::Obj(vec![
            (
                "s".to_string(),
                JsonValue::Str("a \"quote\"\nline".to_string()),
            ),
            ("n".to_string(), JsonValue::Num(-12.5)),
            ("i".to_string(), JsonValue::Num(3.0)),
            ("b".to_string(), JsonValue::Bool(true)),
            ("z".to_string(), JsonValue::Null),
            (
                "a".to_string(),
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::Str("x".to_string())]),
            ),
            ("o".to_string(), JsonValue::Obj(vec![])),
        ]);
        let text = v.to_json();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("tru").is_err());
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn json_parser_accepts_whitespace_and_unicode() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , \"héllo ☃\" ] } ").unwrap();
        let arr = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_str(), Some("héllo ☃"));
        // \u escapes decode.
        let v = JsonValue::parse(r#""aA\n""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n"));
    }

    #[test]
    fn json_parser_caps_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nested(MAX_JSON_DEPTH + 1)).is_err());
        // Deep enough to overflow the stack without the cap.
        assert!(JsonValue::parse(&nested(100_000)).is_err());
        let deep = MAX_JSON_DEPTH + 1;
        let objects = "{\"a\":".repeat(deep) + "1" + &"}".repeat(deep);
        assert!(JsonValue::parse(&objects).is_err());
    }

    #[test]
    fn signed_hex_digits_are_rejected() {
        assert!(JsonValue::parse(r#""\u+041""#).is_err());
        assert_eq!(JsonValue::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(JsonValue::Str("0x+ff".to_string()).as_u64(), None);
        assert_eq!(JsonValue::Str("0x-1".to_string()).as_u64(), None);
        assert_eq!(JsonValue::Str("0xff".to_string()).as_u64(), Some(255));
    }

    #[test]
    fn hex_identity_round_trips_full_u64_range() {
        for x in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d, (1 << 53) + 1] {
            let v = JsonValue::hex(x);
            let text = v.to_json();
            let back = JsonValue::parse(&text).unwrap();
            assert_eq!(back.as_u64(), Some(x), "{x:#x} must survive JSON");
        }
        // A large number stored as f64 would NOT round-trip — the hex path
        // exists precisely because of this.
        assert_eq!(JsonValue::Num(3.0).as_u64(), Some(3));
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(0.5).as_u64(), None);
    }

    #[test]
    fn span_recorder_collects_and_exports() {
        let rec = SpanRecorder::new();
        let t0 = rec.origin;
        rec.record(
            "fig",
            0,
            t0,
            t0 + Duration::from_micros(1500),
            false,
            Some(42),
            Some(7),
        );
        rec.record(
            "fig",
            1,
            t0 + Duration::from_micros(100),
            t0 + Duration::from_micros(400),
            true,
            None,
            None,
        );
        assert_eq!(rec.len(), 2);
        let spans = rec.spans();
        assert_eq!(spans[0].index, 0);
        assert_eq!(spans[0].dur_us, 1500);
        assert!(spans[1].cache_hit);
        let trace = rec.chrome_trace();
        assert_eq!(validate_chrome_trace(&trace).unwrap(), 2);
        // The seed arg survives as hex.
        let doc = JsonValue::parse(&trace).unwrap();
        let ev = &doc.get("traceEvents").unwrap().as_array().unwrap()[0];
        assert_eq!(
            ev.get("args").unwrap().get("seed").unwrap().as_u64(),
            Some(42)
        );
    }

    #[test]
    fn manifest_round_trips_and_validates() {
        let m = RunManifest {
            figure: "fig11".to_string(),
            config_hash: u64::MAX - 3,
            workers: 4,
            base_seed: 0xfeed_face_dead_beef,
            seed_schedule: vec![1, u64::MAX, 12345],
            wall_ms: 1234.5,
            cache_hits: 2,
            cache_misses: 10,
            points: vec![
                ManifestPoint {
                    index: 0,
                    seed: 1,
                    config_hash: 99,
                    cache_hit: false,
                    duration_ms: 10.25,
                    metrics: vec![
                        ("avg_packet_latency".to_string(), 23.75),
                        ("accepted".to_string(), 0.1),
                    ],
                },
                ManifestPoint {
                    index: 1,
                    seed: u64::MAX,
                    config_hash: 100,
                    cache_hit: true,
                    duration_ms: 0.0,
                    metrics: vec![("avg_packet_latency".to_string(), 31.5)],
                },
            ],
            faults: vec![
                FaultRecord {
                    point: 1,
                    cycle: 120,
                    kind: "link_down".to_string(),
                    node: 0,
                    peer: Some(1),
                },
                FaultRecord {
                    point: 1,
                    cycle: 250,
                    kind: "packet_dropped".to_string(),
                    node: 5,
                    peer: None,
                },
            ],
        };
        let text = m.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        let back = RunManifest::from_jsonl(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_parse_rejects_missing_fields() {
        assert!(RunManifest::from_jsonl("").is_err());
        assert!(RunManifest::from_jsonl("{\"type\":\"point\"}").is_err());
        // Header without seed_schedule.
        assert!(RunManifest::from_jsonl("{\"type\":\"run\",\"figure\":\"f\"}").is_err());
    }

    #[test]
    fn combined_hash_is_order_sensitive() {
        let a = RunManifest::combine_hashes([1, 2, 3]);
        let b = RunManifest::combine_hashes([3, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(a, RunManifest::combine_hashes([1, 2, 3]));
    }

    #[test]
    fn progress_line_reports_throughput_and_eta() {
        let line = progress_line("fig11", 10, 40, Duration::from_secs(5));
        assert!(line.contains("10/40"), "{line}");
        assert!(line.contains("25%"), "{line}");
        assert!(line.contains("2.0 pt/s"), "{line}");
        assert!(line.contains("ETA 15s"), "{line}");
        // Zero progress degrades gracefully.
        let line = progress_line("x", 0, 5, Duration::from_secs(1));
        assert!(line.contains("0/5"), "{line}");
    }
}
