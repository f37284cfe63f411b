//! The declarative wire codec.
//!
//! Every JSON message the sweep service, the fleet coordinator, the result
//! cache and the run manifests exchange is declared **once** in this
//! module: one row per field, giving the field (whose name is its JSON
//! key), its Rust type, its kind and its SERVICE.md meaning. The
//! `message!` macro generates the type, the encoder, the decoder and the
//! schema rows from that single declaration, so the wire, the parser and
//! the SERVICE.md tables ([`schema_reference`]) cannot drift apart. The
//! types are re-exported where they are used: [`crate::service`],
//! [`crate::metrics`] and [`crate::telemetry`].
//!
//! The codec streams: no JSON tree is built on either side. A message's
//! `write_json_line` appends its line straight to a caller's `String`, and
//! `from_json_line` reads the fields straight out of the line's bytes in
//! one pass, through the same lexer as [`JsonValue::parse`]
//! ([`JsonCursor`]), so the codec accepts exactly the syntax the document
//! parser accepts. A [`Kind`] reads one value at the cursor; a [`Group`]
//! collects an object's fields key by key and checks them once the object
//! has ended.
//!
//! A row's mode says what happens when the field is absent:
//!
//! - `req` — the field is required;
//! - `opt` — an `Option`: omitted when `None`, `None` when absent
//!   (summarised as `name?`);
//! - `or(default)` — always written, `default` when absent (summarised as
//!   `name?`);
//! - `compat(default)` — always written, `default` when absent because
//!   older peers did not send it;
//! - `flat` — a [`Fields`] group whose keys are spliced into the enclosing
//!   object (a nested message, a job's pattern, a histogram's split sum).
//!
//! The decode rule is the same for every field: an absent field takes its
//! default, or is an error when it is required; a field that is present
//! but of the wrong kind is always an error that names the field; of two
//! equal keys the first counts; unknown fields are ignored, because tools
//! inject extra keys such as `target`, but their syntax and depth are
//! checked like the rest. When several fields fail, the error is the
//! first failing field in declaration order, and a syntax error anywhere
//! in the line wins over any field error. Semantic checks the kinds cannot
//! express (`level ≥ 1`, `rate` in (0, 1], `hot_fraction` in [0, 1], the
//! stats schema version, a non-empty cache version stamp) run once a
//! message has decoded.
//!
//! [`JsonValue::parse`]: crate::telemetry::JsonValue::parse

use std::borrow::Cow;
use std::fmt::Write as _;
use std::marker::PhantomData;

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;

use crate::experiment::NetworkMetrics;
use crate::metrics::STATS_SCHEMA_VERSION;
use crate::runner::{SyntheticBaseline, SyntheticJob};
use crate::service::{metric_values, metrics_from_values, METRIC_FIELDS};
use crate::telemetry::{
    write_json_number, write_json_string, JsonCursor, RunManifest, Scalar, SyntaxError,
};

// ---------------------------------------------------------------------------
// Kinds and field groups
// ---------------------------------------------------------------------------

/// One decoded value: the outer error is a syntax error, which ends the
/// line; the inner one is a field error, after which the value has still
/// been read, so the line can be checked to its end.
pub type Decoded<T> = Result<Result<T, String>, SyntaxError>;

/// How one field's value travels as one JSON value.
pub trait Kind {
    /// The Rust type of the field.
    type T;
    /// The `Type` column of the SERVICE.md tables.
    const DOC: &'static str;
    /// Appends one value.
    fn enc(v: &Self::T, out: &mut String);
    /// Reads the value at the cursor; a value of the wrong kind is read
    /// past and reported as what was expected instead.
    ///
    /// # Errors
    ///
    /// A syntax error in the value.
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<Self::T>;
}

/// The decoding half of a group of fields: collects an object's fields one
/// key at a time, then builds the value once the object has ended.
pub trait Group {
    /// The Rust type the group decodes.
    type T;
    /// What the group has collected so far.
    type Acc: Default;
    /// Reads `key`'s value into `acc` when the key is one of the group's,
    /// and says whether it was.
    ///
    /// # Errors
    ///
    /// A syntax error in the value.
    fn claim(acc: &mut Self::Acc, key: &str, cur: &mut JsonCursor<'_>)
        -> Result<bool, SyntaxError>;
    /// Builds the value.
    ///
    /// # Errors
    ///
    /// The first field, in declaration order, that is missing or failed to
    /// decode, or a failed semantic check.
    fn finish(acc: Self::Acc) -> Result<Self::T, String>;
}

/// A group of fields spliced into an enclosing JSON object: every declared
/// message, plus the custom shapes that span more than one key.
pub trait Fields: Group {
    /// Appends the group's fields to an object under construction, each as
    /// `"key":value,`.
    fn write(v: &Self::T, out: &mut String);
    /// Appends the group's schema rows (an enum's rows are its variants).
    fn rows(out: &mut Vec<Row>);
}

/// One SERVICE.md schema row.
#[derive(Debug)]
pub struct Row {
    /// The JSON key.
    pub name: &'static str,
    /// The `Type` column ([`Kind::DOC`]).
    pub kind: &'static str,
    /// The `Meaning` column.
    pub doc: &'static str,
    /// Whether the field may be absent (summarised as `name?`).
    pub optional: bool,
}

/// A group's first field error, with the declaration index of its row:
/// the lowest index is the one reported.
type Pending = Option<(usize, String)>;

/// Keeps `error` for `row` unless an error of an earlier row (or an
/// earlier error of the same row) is already pending.
fn note(pending: &mut Pending, row: usize, error: impl FnOnce() -> String) {
    if pending.as_ref().is_none_or(|&(r, _)| row < r) {
        *pending = Some((row, error()));
    }
}

/// Reads `key`'s value as `K` into `slot`; a later duplicate of the key is
/// only checked, so the first one counts.
#[inline(never)]
fn take<K: Kind>(
    slot: &mut Option<K::T>,
    pending: &mut Pending,
    row: usize,
    key: &str,
    cur: &mut JsonCursor<'_>,
) -> Result<(), SyntaxError> {
    if slot.is_some() {
        return cur.skip_value();
    }
    match K::dec(cur)? {
        Ok(v) => *slot = Some(v),
        Err(e) => note_field(pending, row, key, e),
    }
    Ok(())
}

/// Keeps a field's decode error (see [`note`]), naming the field.
#[cold]
#[inline(never)]
fn note_field(pending: &mut Pending, row: usize, key: &str, e: String) {
    note(pending, row, || format!("field {key:?}: {e}"));
}

/// A group's error, if any: the pending error, unless a required field of
/// an earlier row is missing (`missing[row]` names it).
fn fault(pending: Pending, missing: &[Option<&str>]) -> Option<String> {
    let before = pending.as_ref().map_or(missing.len(), |&(row, _)| row);
    match missing.iter().take(before).flatten().next() {
        Some(key) => Some(format!("missing field {key:?}")),
        None => pending.map(|(_, e)| e),
    }
}

/// Reads the object at the cursor, offering each key to `claim` and
/// checking the values it leaves; `false` (the value read past) when the
/// value is not an object.
fn read_members(
    cur: &mut JsonCursor<'_>,
    claim: &mut dyn FnMut(&str, &mut JsonCursor<'_>) -> Result<bool, SyntaxError>,
) -> Result<bool, SyntaxError> {
    if cur.peek() != Some(b'{') {
        cur.skip_value()?;
        return Ok(false);
    }
    cur.object(&mut |c, key| {
        if !claim(&key, c)? {
            c.skip_value()?;
        }
        Ok(())
    })?;
    Ok(true)
}

/// Reads the object at the cursor into group `G`; anything else is read
/// past and reported as not an object.
fn read_group<G: Group>(cur: &mut JsonCursor<'_>) -> Decoded<G::T> {
    let mut acc = G::Acc::default();
    if !read_members(cur, &mut |key, c| G::claim(&mut acc, key, c))? {
        return Ok(Err("expected an object".into()));
    }
    Ok(G::finish(acc))
}

/// Decodes a whole line with `dec`: a syntax error anywhere in it wins
/// over a field error.
fn read_line<T>(
    line: &str,
    dec: impl FnOnce(&mut JsonCursor<'_>) -> Decoded<T>,
) -> Result<T, String> {
    let mut cur = JsonCursor::new(line);
    cur.skip_ws();
    let value = dec(&mut cur).map_err(|e| e.0)?;
    cur.end().map_err(|e| e.0)?;
    value
}

/// The `"type"` tag of the object at the cursor, if it is a string.
fn read_tag<'a>(cur: &JsonCursor<'a>) -> Result<Option<Cow<'a, str>>, SyntaxError> {
    Ok(match cur.lookup("type")? {
        Some(Scalar::Str(tag)) => Some(tag),
        _ => None,
    })
}

/// Reads the tagged object at the cursor into group `G`, failing unless
/// its `"type"` is `tag`.
fn read_tagged<G: Group>(cur: &mut JsonCursor<'_>, tag: &str) -> Decoded<G::T> {
    match read_tag(cur)? {
        Some(t) if t == tag => read_group::<G>(cur),
        other => {
            cur.skip_value()?;
            Ok(Err(format!(
                "expected type {tag:?}, found {:?}",
                other.as_deref()
            )))
        }
    }
}

/// The `"type"` of a JSON line, for readers that dispatch on it.
///
/// # Errors
///
/// A syntax error met on the way to the tag.
pub(crate) fn line_tag(line: &str) -> Result<Option<String>, String> {
    let mut cur = JsonCursor::new(line);
    cur.skip_ws();
    read_tag(&cur)
        .map(|t| t.map(Cow::into_owned))
        .map_err(|e| e.0)
}

/// Appends `"key":` to an object under construction.
fn key(out: &mut String, key: &str) {
    write_json_string(key, out);
    out.push(':');
}

/// Appends one `"key":value,` member.
#[inline(never)]
fn put<K: Kind>(out: &mut String, name: &str, v: &K::T) {
    key(out, name);
    K::enc(v, out);
    out.push(',');
}

/// Appends an object whose members `members` writes, each followed by a
/// comma (the last one is dropped).
fn object(out: &mut String, members: impl FnOnce(&mut String)) {
    out.push('{');
    members(out);
    if out.ends_with(',') {
        out.pop();
    }
    out.push('}');
}

/// Appends a tagged object's `"type":"tag",` member.
fn put_tag(out: &mut String, tag: &str) {
    key(out, "type");
    write_json_string(tag, out);
    out.push(',');
}

fn write_hex(v: u64, out: &mut String) {
    let _ = write!(out, "\"{v:#x}\"");
}

/// Declares a kind whose value is a JSON scalar, read by an
/// `Option`-returning accessor.
macro_rules! kind {
    ($(#[$doc:meta])* $K:ident: $T:ty, $name:literal, |$v:ident, $out:ident| $enc:expr, |$s:ident| $dec:expr) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $K;

        impl Kind for $K {
            type T = $T;
            const DOC: &'static str = $name;
            fn enc($v: &$T, $out: &mut String) {
                $enc
            }
            fn dec(cur: &mut JsonCursor<'_>) -> Decoded<$T> {
                let $s = cur.scalar()?;
                Ok($dec.ok_or_else(|| concat!("expected a ", $name).to_string()))
            }
        }
    };
}

kind!(
    /// A string.
    Str: String, "string", |v, out| write_json_string(v, out),
    |s| match s { Some(Scalar::Str(s)) => Some(s.into_owned()), _ => None }
);
kind!(
    /// An `f64` as a JSON number (non-finite values encode as `null`).
    Num: f64, "number", |v, out| write_json_number(*v, out), |s| s.and_then(|s| s.as_f64())
);
kind!(
    /// A `u64` identity as a `"0x…"` hex string.
    Hex: u64, "hex string", |v, out| write_hex(*v, out), |s| s.and_then(|s| s.as_u64())
);
kind!(
    /// An `f64` as the hex string of its bit pattern: exact, NaN and −0.0
    /// included.
    Bits: f64, "hex string", |v, out| write_hex(v.to_bits(), out),
    |s| s.and_then(|s| s.as_u64()).map(f64::from_bits)
);
kind!(
    /// A boolean.
    Bool: bool, "bool", |v, out| out.push_str(if *v { "true" } else { "false" }),
    |s| s.and_then(|s| s.as_bool())
);

kind!(
    /// A `0.0`/`1.0` flag as a boolean, such as a metric's `saturated`.
    Flag: f64, "bool", |v, out| Bool::enc(&(*v != 0.0), out),
    |s| s.and_then(|s| s.as_bool()).map(|b| f64::from(u8::from(b)))
);

/// An integer as a JSON number, exact up to 2^53 like every JSON number
/// (values beyond `i64` encode as `null`).
#[derive(Debug)]
pub struct Int<I>(PhantomData<I>);

impl<I: Copy + TryFrom<i64> + TryInto<i64>> Kind for Int<I> {
    type T = I;
    const DOC: &'static str = "number";
    fn enc(v: &I, out: &mut String) {
        write_json_number((*v).try_into().map_or(f64::NAN, |n: i64| n as f64), out);
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<I> {
        Ok(cur
            .scalar()?
            .and_then(|s| s.as_f64())
            .filter(|n| n.fract() == 0.0 && n.abs() <= 2f64.powi(53))
            .and_then(|n| I::try_from(n as i64).ok())
            .ok_or_else(|| "expected an integer".to_string()))
    }
}

/// An array of `K` values.
#[derive(Debug)]
pub struct List<K>(PhantomData<K>);

impl<K: Kind> Kind for List<K> {
    type T = Vec<K::T>;
    const DOC: &'static str = "array";
    fn enc(v: &Self::T, out: &mut String) {
        out.push('[');
        for (i, x) in v.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            K::enc(x, out);
        }
        out.push(']');
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<Self::T> {
        if cur.peek() != Some(b'[') {
            cur.skip_value()?;
            return Ok(Err("expected an array".into()));
        }
        let mut xs = Ok(Vec::new());
        cur.array(&mut |c, i| {
            match (K::dec(c)?, &mut xs) {
                (Ok(x), Ok(xs)) => xs.push(x),
                (Err(e), Ok(_)) => xs = Err(format!("[{i}]: {e}")),
                (_, Err(_)) => {}
            }
            Ok(())
        })?;
        Ok(xs)
    }
}

/// An object of named `K` values, in order: counters, gauges, histograms
/// and a point's metrics.
#[derive(Debug)]
pub struct Map<K>(PhantomData<K>);

impl<K: Kind> Kind for Map<K> {
    type T = Vec<(String, K::T)>;
    const DOC: &'static str = "object";
    fn enc(v: &Self::T, out: &mut String) {
        object(out, |out| {
            for (k, x) in v {
                put::<K>(out, k, x);
            }
        });
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<Self::T> {
        if cur.peek() != Some(b'{') {
            cur.skip_value()?;
            return Ok(Err("expected an object".into()));
        }
        let mut pairs = Ok(Vec::new());
        cur.object(&mut |c, k| {
            match (K::dec(c)?, &mut pairs) {
                (Ok(x), Ok(pairs)) => pairs.push((k.into_owned(), x)),
                (Err(e), Ok(_)) => pairs = Err(format!("{k:?}: {e}")),
                (_, Err(_)) => {}
            }
            Ok(())
        })?;
        Ok(pairs)
    }
}

/// A nested message.
#[derive(Debug)]
pub struct Obj<M>(PhantomData<M>);

impl<M: Fields> Kind for Obj<M> {
    type T = M::T;
    const DOC: &'static str = "object";
    fn enc(v: &M::T, out: &mut String) {
        object(out, |out| M::write(v, out));
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<M::T> {
        read_group::<M>(cur)
    }
}

/// A `K` value, or `null` for `None`.
#[derive(Debug)]
pub struct Nullable<K>(PhantomData<K>);

impl<K: Kind> Kind for Nullable<K> {
    type T = Option<K::T>;
    const DOC: &'static str = K::DOC;
    fn enc(v: &Self::T, out: &mut String) {
        match v {
            Some(x) => K::enc(x, out),
            None => out.push_str("null"),
        }
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<Self::T> {
        if cur.peek() == Some(b'n') {
            return cur.skip_value().map(|()| Ok(None));
        }
        Ok(K::dec(cur)?.map(Some))
    }
}

/// A two-element array `[a, b]`, such as a histogram bucket's
/// `[lower, count]`.
#[derive(Debug)]
pub struct Pair<A, B>(PhantomData<(A, B)>);

impl<A: Kind, B: Kind> Kind for Pair<A, B> {
    type T = (A::T, B::T);
    const DOC: &'static str = "array";
    fn enc((a, b): &Self::T, out: &mut String) {
        out.push('[');
        A::enc(a, out);
        out.push(',');
        B::enc(b, out);
        out.push(']');
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<Self::T> {
        if cur.peek() != Some(b'[') {
            cur.skip_value()?;
            return Ok(Err("expected a pair".into()));
        }
        let (mut a, mut b, mut len) = (None, None, 0);
        cur.array(&mut |c, i| {
            len = i + 1;
            match i {
                0 => a = Some(A::dec(c)?),
                1 => b = Some(B::dec(c)?),
                _ => c.skip_value()?,
            }
            Ok(())
        })?;
        Ok(match (a, b) {
            (Some(a), Some(b)) if len == 2 => a.and_then(|a| Ok((a, b?))),
            _ => Err("expected a pair".into()),
        })
    }
}

/// A [`TopologySpec`] by wire name (`mesh4x4`, `circ16s5`).
#[derive(Debug)]
pub struct Topology;

impl Kind for Topology {
    type T = TopologySpec;
    const DOC: &'static str = "string";
    fn enc(v: &TopologySpec, out: &mut String) {
        write_json_string(&v.wire_name(), out);
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<TopologySpec> {
        Ok(match cur.scalar()? {
            Some(Scalar::Str(name)) => {
                TopologySpec::from_wire_name(&name).map_err(|e| e.to_string())
            }
            _ => Err("expected a string".into()),
        })
    }
}

fn baseline_name(b: SyntheticBaseline) -> &'static str {
    match b {
        SyntheticBaseline::NocSprinting => "noc_sprinting",
        SyntheticBaseline::RandomEndpoints => "random_endpoints",
        SyntheticBaseline::SpreadAggregate => "spread_aggregate",
    }
}

/// A [`SyntheticBaseline`] by wire name.
#[derive(Debug)]
pub struct Baseline;

impl Kind for Baseline {
    type T = SyntheticBaseline;
    const DOC: &'static str = "string";
    fn enc(v: &SyntheticBaseline, out: &mut String) {
        write_json_string(baseline_name(*v), out);
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<SyntheticBaseline> {
        let Some(Scalar::Str(name)) = cur.scalar()? else {
            return Ok(Err("expected a string".into()));
        };
        Ok([
            SyntheticBaseline::NocSprinting,
            SyntheticBaseline::RandomEndpoints,
            SyntheticBaseline::SpreadAggregate,
        ]
        .into_iter()
        .find(|&b| baseline_name(b) == name)
        .ok_or_else(|| format!("unknown baseline {name:?}")))
    }
}

fn pattern_name(p: TrafficPattern) -> &'static str {
    match p {
        TrafficPattern::UniformRandom => "uniform",
        TrafficPattern::Transpose => "transpose",
        TrafficPattern::BitComplement => "bitcomp",
        TrafficPattern::Tornado => "tornado",
        TrafficPattern::Shuffle => "shuffle",
        TrafficPattern::NearestNeighbor => "neighbor",
        TrafficPattern::Hotspot { .. } => "hotspot",
    }
}

/// A job's [`TrafficPattern`]: `pattern` by name, plus `hot_fraction`
/// (required, in [0, 1]) for `hotspot`.
#[derive(Debug)]
pub struct Pattern;

impl Group for Pattern {
    type T = TrafficPattern;
    /// The pending error, the pattern (or the unknown name) and
    /// `hot_fraction`.
    type Acc = (Pending, Option<Result<TrafficPattern, String>>, Option<f64>);
    fn claim(
        (pending, name, hot_fraction): &mut Self::Acc,
        key: &str,
        cur: &mut JsonCursor<'_>,
    ) -> Result<bool, SyntaxError> {
        match key {
            "pattern" if name.is_some() => cur.skip_value()?,
            "pattern" => match cur.scalar()? {
                Some(Scalar::Str(s)) => {
                    let known = [
                        TrafficPattern::UniformRandom,
                        TrafficPattern::Transpose,
                        TrafficPattern::BitComplement,
                        TrafficPattern::Tornado,
                        TrafficPattern::Shuffle,
                        TrafficPattern::NearestNeighbor,
                        TrafficPattern::Hotspot { hot_fraction: 0.0 },
                    ]
                    .into_iter()
                    .find(|&p| pattern_name(p) == s);
                    *name = Some(known.ok_or_else(|| s.into_owned()));
                }
                _ => note(pending, 0, || "field \"pattern\": expected a string".into()),
            },
            "hot_fraction" => take::<Num>(hot_fraction, pending, 1, key, cur)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
    fn finish((pending, name, hot_fraction): Self::Acc) -> Result<TrafficPattern, String> {
        if let Some(e) = fault(pending, &[name.is_none().then_some("pattern")]) {
            return Err(e);
        }
        match name.expect("checked present") {
            Err(unknown) => Err(format!("unknown pattern {unknown:?}")),
            Ok(TrafficPattern::Hotspot { .. }) => {
                let hot_fraction =
                    hot_fraction.ok_or("pattern \"hotspot\" requires hot_fraction")?;
                if !(0.0..=1.0).contains(&hot_fraction) {
                    return Err(format!("hot_fraction {hot_fraction} outside [0, 1]"));
                }
                Ok(TrafficPattern::Hotspot { hot_fraction })
            }
            Ok(p) => Ok(p),
        }
    }
}

impl Fields for Pattern {
    fn write(v: &TrafficPattern, out: &mut String) {
        key(out, "pattern");
        write_json_string(pattern_name(*v), out);
        out.push(',');
        if let TrafficPattern::Hotspot { hot_fraction } = v {
            put::<Num>(out, "hot_fraction", hot_fraction);
        }
    }
    fn rows(out: &mut Vec<Row>) {
        out.push(Row {
            name: "pattern",
            kind: Str::DOC,
            doc: "one of `uniform`, `transpose`, `bitcomp`, `tornado`, `shuffle`, `neighbor`, `hotspot`",
            optional: false,
        });
        out.push(Row {
            name: "hot_fraction",
            kind: Num::DOC,
            doc: "hotspot probability in [0, 1]; required iff `pattern` is `hotspot`",
            optional: true,
        });
    }
}

/// A `u128` sum split into hex `sum_hi` and `sum_lo` halves.
#[derive(Debug)]
pub struct SumHiLo;

impl Group for SumHiLo {
    type T = u128;
    /// The pending error and the two halves.
    type Acc = (Pending, Option<u64>, Option<u64>);
    fn claim(
        (pending, hi, lo): &mut Self::Acc,
        key: &str,
        cur: &mut JsonCursor<'_>,
    ) -> Result<bool, SyntaxError> {
        match key {
            "sum_hi" => take::<Hex>(hi, pending, 0, key, cur)?,
            "sum_lo" => take::<Hex>(lo, pending, 1, key, cur)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
    fn finish((pending, hi, lo): Self::Acc) -> Result<u128, String> {
        let missing = [
            hi.is_none().then_some("sum_hi"),
            lo.is_none().then_some("sum_lo"),
        ];
        match (fault(pending, &missing), hi, lo) {
            (None, Some(hi), Some(lo)) => Ok((u128::from(hi) << 64) | u128::from(lo)),
            (e, ..) => Err(e.expect("a missing half is a fault")),
        }
    }
}

impl Fields for SumHiLo {
    fn write(v: &u128, out: &mut String) {
        put::<Hex>(out, "sum_hi", &((v >> 64) as u64));
        put::<Hex>(out, "sum_lo", &(*v as u64));
    }
    fn rows(out: &mut Vec<Row>) {
        for (name, doc) in [
            ("sum_hi", "high 64 bits of the sum"),
            ("sum_lo", "low 64 bits"),
        ] {
            out.push(Row {
                name,
                kind: Hex::DOC,
                doc,
                optional: false,
            });
        }
    }
}

/// [`NetworkMetrics`] for cache records, bit-exact: each `f64` of
/// [`METRIC_FIELDS`] as [`Bits`], `saturated` as a bool.
#[derive(Debug)]
pub struct CacheMetrics;

impl Kind for CacheMetrics {
    type T = NetworkMetrics;
    const DOC: &'static str = "object";
    fn enc(m: &NetworkMetrics, out: &mut String) {
        object(out, |out| {
            for (&k, v) in METRIC_FIELDS.iter().zip(metric_values(m)) {
                if k == "saturated" {
                    put::<Flag>(out, k, &v);
                } else {
                    put::<Bits>(out, k, &v);
                }
            }
        });
    }
    fn dec(cur: &mut JsonCursor<'_>) -> Decoded<NetworkMetrics> {
        let mut slots = [None; METRIC_FIELDS.len()];
        let mut pending = None;
        let object = read_members(cur, &mut |k, c| {
            let Some(row) = METRIC_FIELDS.iter().position(|&f| f == k) else {
                return Ok(false);
            };
            if k == "saturated" {
                take::<Flag>(&mut slots[row], &mut pending, row, k, c)?;
            } else {
                take::<Bits>(&mut slots[row], &mut pending, row, k, c)?;
            }
            Ok(true)
        })?;
        if !object {
            return Ok(Err("expected an object".into()));
        }
        let missing: [Option<&str>; METRIC_FIELDS.len()] =
            std::array::from_fn(|row| slots[row].is_none().then_some(METRIC_FIELDS[row]));
        Ok(match fault(pending, &missing) {
            Some(e) => Err(e),
            None => Ok(metrics_from_values(
                slots.map(|v| v.expect("checked present")),
            )),
        })
    }
}

// ---------------------------------------------------------------------------
// The message macro
// ---------------------------------------------------------------------------

/// One variant of a tagged enum, for the schema tables.
struct Variant {
    tag: &'static str,
    doc: &'static str,
    rows: Vec<Row>,
    /// Whether the variant splices a message after its own fields (its
    /// summary then points at its own table).
    spliced: bool,
}

/// The variants of a declared enum.
trait Variants {
    fn variants() -> Vec<Variant>;
}

/// Declares a message and generates its type, its [`Group`] and [`Fields`]
/// impls and its inherent `to_json_line`/`write_json_line`/
/// `from_json_line` methods (a tagged message's line carries its
/// `"type"`). A row reads `field: RustType as Kind = mode, "meaning";` —
/// `as Kind` may be left out when the Rust type is itself a message. Three
/// forms:
///
/// - `pub struct Name: "tag" check f { rows }` — the tag and the semantic
///   check are optional;
/// - `Name: "tag" check f { rows ..rest }` — the codec of a type defined
///   elsewhere; `..rest` fills the fields that are not on the wire;
/// - `pub enum Name { "tag" => Variant(Message) | Variant { rows } | Variant, "meaning"; }`.
macro_rules! message {
    // One row: kind, collected value, encode, decode, schema.
    (@kind $R:ty) => { $R };
    (@kind $R:ty, $K:ty) => { $K };
    (@acc flat, $K:ty) => { <$K as Group>::Acc };
    (@acc $mode:ident $(($d:expr))?, $K:ty) => { Option<<$K as Kind>::T> };
    (@enc flat, $out:ident, $v:expr, $K:ty, $f:ident) => {
        <$K as Fields>::write($v, $out)
    };
    (@enc opt, $out:ident, $v:expr, $K:ty, $f:ident) => {
        if let Some(x) = $v {
            put::<$K>($out, stringify!($f), x);
        }
    };
    (@enc $mode:ident $(($d:expr))?, $out:ident, $v:expr, $K:ty, $f:ident) => {
        put::<$K>($out, stringify!($f), $v)
    };
    (@claim flat, $f:ident, $pending:ident, $row:ident, $key:ident, $cur:ident, $K:ty) => {
        if <$K as Group>::claim($f, $key, $cur)? {
            return Ok(true);
        }
    };
    (@claim $mode:ident $(($d:expr))?, $f:ident, $pending:ident, $row:ident, $key:ident, $cur:ident, $K:ty) => {
        if $key == stringify!($f) {
            take::<$K>($f, $pending, $row, $key, $cur)?;
            return Ok(true);
        }
    };
    (@finish flat, $v:ident, $pending:ident, $row:ident, $K:ty) => {
        match <$K as Group>::finish($v) {
            Ok(v) => Some(v),
            Err(e) => {
                note(&mut $pending, $row, || e);
                None
            }
        }
    };
    (@finish $mode:ident $(($d:expr))?, $v:ident, $pending:ident, $row:ident, $K:ty) => {
        $v
    };
    (@missing req, $f:ident) => {
        $f.is_none().then_some(stringify!($f))
    };
    (@missing $mode:ident $(($d:expr))?, $f:ident) => {
        None
    };
    (@build opt, $v:ident) => { $v };
    (@build $mode:ident($d:expr), $v:ident) => { $v.unwrap_or_else(|| $d) };
    (@build $mode:ident, $v:ident) => { $v.expect("checked present") };
    (@row flat, $out:ident, $K:ty, $f:ident, $doc:literal) => {
        <$K as Fields>::rows($out)
    };
    (@row $mode:ident $(($d:expr))?, $out:ident, $K:ty, $f:ident, $doc:literal) => {
        $out.push(Row {
            name: stringify!($f),
            kind: <$K as Kind>::DOC,
            doc: $doc,
            optional: matches!(stringify!($mode), "opt" | "or"),
        })
    };
    (@is_flat flat) => { true };
    (@is_flat $mode:ident $(($d:expr))?) => { false };
    (@same $i:ident $($ignored:tt)*) => { $i };

    // The decoding half of a set of rows: `$G` collects them and builds
    // `$T` with the constructor `$ctor`.
    (@group $G:ty => $T:ty, [$($ctor:tt)+] $(check $check:path)? {
        $($f:ident: $R:ty $(as $K:ty)? = $mode:ident $(($d:expr))?, $doc:literal;)*
    } $(..$rest:expr)?) => {
        impl Group for $G {
            type T = $T;
            type Acc = (Pending, ($(message!(@acc $mode $(($d))?, message!(@kind $R $(, $K)?)),)*));
            #[allow(unused_assignments, unused_variables)]
            fn claim(
                (pending, ($($f,)*)): &mut Self::Acc,
                key: &str,
                cur: &mut JsonCursor<'_>,
            ) -> Result<bool, SyntaxError> {
                let mut row = 0usize;
                $(
                    message!(@claim $mode $(($d))?, $f, pending, row, key, cur, message!(@kind $R $(, $K)?));
                    row += 1;
                )*
                Ok(false)
            }
            #[allow(unused_assignments, unused_mut, unused_variables)]
            fn finish((mut pending, ($($f,)*)): Self::Acc) -> Result<$T, String> {
                let mut row = 0usize;
                $(
                    let $f = message!(@finish $mode $(($d))?, $f, pending, row, message!(@kind $R $(, $K)?));
                    row += 1;
                )*
                if let Some(e) = fault(pending, &[$(message!(@missing $mode $(($d))?, $f)),*]) {
                    return Err(e);
                }
                let v = $($ctor)+ { $($f: message!(@build $mode $(($d))?, $f),)* $(..$rest)? };
                $($check(&v)?;)?
                Ok(v)
            }
        }
    };

    // The line methods every message gets.
    (@lines $T:ident $(, $tag:literal)?) => {
        impl $T {
            message!(@to_json_line);

            /// Appends the value's JSON line (no trailing newline) to `out`.
            pub fn write_json_line(&self, out: &mut String) {
                object(out, |out| {
                    $(put_tag(out, $tag);)?
                    <$T as Fields>::write(self, out);
                });
            }

            /// Parses one JSON line; unknown fields are ignored.
            ///
            /// # Errors
            ///
            /// A syntax error, or else the first missing or wrong-kind
            /// field, or a failed semantic check.
            pub fn from_json_line(line: &str) -> Result<$T, String> {
                read_line(line, |cur| message!(@read cur, $T $(, $tag)?))
            }
        }
    };
    (@to_json_line) => {
        /// Encodes the value as a single JSON line (no trailing newline).
        pub fn to_json_line(&self) -> String {
            let mut out = String::new();
            self.write_json_line(&mut out);
            out
        }
    };
    (@read $cur:ident, $T:ident) => { read_group::<$T>($cur) };
    (@read $cur:ident, $T:ident, $tag:literal) => { read_tagged::<$T>($cur, $tag) };

    // Reads one variant's object.
    (@variant $cur:ident, $E:ident, $V:ident($inner:ty)) => {
        Ok(read_group::<$inner>($cur)?.map($E::$V))
    };
    (@variant $cur:ident, $E:ident, $V:ident {
        $($f:ident: $R:ty $(as $K:ty)? = $mode:ident $(($d:expr))?, $doc:literal;)*
    }) => {{
        struct Rows;
        message!(@group Rows => $E, [$E::$V] {
            $($f: $R $(as $K)? = $mode $(($d))?, $doc;)*
        });
        read_group::<Rows>($cur)
    }};
    (@variant $cur:ident, $E:ident, $V:ident) => {
        $cur.skip_value().map(|()| Ok($E::$V))
    };

    // A struct declared here: its type, then its codec.
    ($(#[$m:meta])* pub struct $T:ident $(: $tag:literal)? $(check $check:path)? {
        $($f:ident: $R:ty $(as $K:ty)? = $mode:ident $(($d:expr))?, $doc:literal;)*
    }) => {
        $(#[$m])*
        pub struct $T {
            $(#[doc = $doc] pub $f: $R,)*
        }
        message!($T $(: $tag)? $(check $check)? { $($f: $R $(as $K)? = $mode $(($d))?, $doc;)* });
    };

    // The codec of a type defined elsewhere.
    ($T:ident $(: $tag:literal)? $(check $check:path)? {
        $($f:ident: $R:ty $(as $K:ty)? = $mode:ident $(($d:expr))?, $doc:literal;)*
        $(..$rest:expr)?
    }) => {
        message!(@group $T => $T, [$T] $(check $check)? {
            $($f: $R $(as $K)? = $mode $(($d))?, $doc;)*
        } $(..$rest)?);
        impl Fields for $T {
            fn write(v: &$T, out: &mut String) {
                $(message!(@enc $mode $(($d))?, out, &v.$f, message!(@kind $R $(, $K)?), $f);)*
            }
            fn rows(out: &mut Vec<Row>) {
                $(message!(@row $mode $(($d))?, out, message!(@kind $R $(, $K)?), $f, $doc);)*
            }
        }
        message!(@lines $T $(, $tag)?);
    };

    // An enum: one `"type"` tag per variant.
    ($(#[$m:meta])* pub enum $E:ident {
        $($tag:literal => $V:ident $(($inner:ty))? $({
            $($f:ident: $R:ty $(as $K:ty)? = $mode:ident $(($d:expr))?, $doc:literal;)*
        })?, $vdoc:literal;)*
    }) => {
        $(#[$m])*
        pub enum $E {
            $(#[doc = $vdoc] $V $(($inner))? $({ $(#[doc = $doc] $f: $R,)* })?,)*
        }
        impl $E {
            message!(@to_json_line);

            /// Appends the value's JSON line (no trailing newline) to `out`.
            pub fn write_json_line(&self, out: &mut String) {
                object(out, |out| match self {
                    $($E::$V $((message!(@same inner $inner)))? $({ $($f),* })? => {
                        put_tag(out, $tag);
                        $(<$inner as Fields>::write(inner, out);)?
                        $($(message!(@enc $mode $(($d))?, out, $f, message!(@kind $R $(, $K)?), $f);)*)?
                    })*
                });
            }

            /// Parses one JSON line, dispatching on its `"type"`; unknown
            /// fields are ignored.
            ///
            /// # Errors
            ///
            /// A syntax error, an unknown type, or else the first missing
            /// or wrong-kind field, or a failed semantic check.
            pub fn from_json_line(line: &str) -> Result<$E, String> {
                read_line(line, |cur| match read_tag(cur)?.as_deref() {
                    $(Some($tag) => message!(@variant cur, $E, $V $(($inner))? $({
                        $($f: $R $(as $K)? = $mode $(($d))?, $doc;)*
                    })?),)*
                    other => {
                        let error = format!("unknown type {other:?}");
                        cur.skip_value()?;
                        Ok(Err(error))
                    }
                })
            }
        }
        impl Variants for $E {
            fn variants() -> Vec<Variant> {
                vec![$({
                    let out = &mut Vec::new();
                    $(<$inner as Fields>::rows(out);)?
                    $($(message!(@row $mode $(($d))?, out, message!(@kind $R $(, $K)?), $f, $doc);)*)?
                    let spliced = [$($(message!(@is_flat $mode $(($d))?)),*)?].contains(&true);
                    Variant { tag: $tag, doc: $vdoc, rows: std::mem::take(out), spliced }
                }),*]
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Service requests and responses
// ---------------------------------------------------------------------------

message! {
    /// A parsed client request (one JSON object per line).
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServiceRequest {
        "submit" => Submit(SubmitRequest), "evaluate a batch of operating points (fields below)";
        "cancel" => Cancel {
            id: String as Str = req, "the target request id";
        }, "cancel the in-flight batch with that id; an unknown id arms the cancel for a later submit";
        "ping" => Ping, "liveness probe; answered with `pong`";
        "stats" => Stats, "snapshot the engine's live metrics; answered with `stats`";
        "shutdown" => Shutdown, "ask the daemon to exit cleanly";
    }
}

message! {
    /// One batch of operating points submitted to the service.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SubmitRequest {
        id: String as Str = req, "client-chosen request identifier, echoed on every response event";
        label: String as Str = or("service".to_string()), "optional batch label (defaults to `\"service\"`)";
        priority: i64 as Int<i64> = or(0), "optional integer admission priority (default 0): > 0 bypasses the queue limit, 0 admits against the full limit, < 0 against half of it";
        jobs: Vec<SyntheticJob> as List<Obj<SyntheticJob>> = req, "operating points to evaluate, in result order (job objects below)";
    }
}

message! {
    SyntheticJob check validate_job {
        topology: TopologySpec as Topology = or(TopologySpec::default()), "optional topology wire name (default `mesh4x4`): `mesh<W>x<H>` or `circ<N>s<S>` for the ring-circulant C(N; 1, S) — see TOPOLOGY.md";
        level: usize as Int<usize> = req, "sprint level (active cores), ≥ 1";
        pattern: TrafficPattern as Pattern = flat, "traffic pattern";
        rate: f64 as Num = req, "offered load in (0, 1] flits/cycle per active sprint node";
        seed: u64 as Hex = req, "RNG seed (`\"0x…\"`, full 64-bit)";
        baseline: SyntheticBaseline as Baseline = req, "one of `noc_sprinting`, `random_endpoints`, `spread_aggregate`";
    }
}

/// The job checks the field kinds cannot express.
fn validate_job(job: &SyntheticJob) -> Result<(), String> {
    if job.level == 0 {
        return Err("job level must be at least 1".into());
    }
    if !(job.rate > 0.0 && job.rate <= 1.0) {
        return Err(format!("job rate {} outside (0, 1]", job.rate));
    }
    Ok(())
}

message! {
    /// One streamed response event (one JSON object per line).
    #[derive(Debug, Clone, PartialEq)]
    pub enum ServiceResponse {
        "accepted" => Accepted {
            id: String as Str = req, "echo of the request id";
            points: usize as Int<usize> = req, "number of jobs accepted";
        }, "request parsed; `points` results will follow";
        "progress" => Progress {
            id: String as Str = req, "echo of the request id";
            completed: usize as Int<usize> = req, "points completed so far";
            total: usize as Int<usize> = req, "points in the batch";
            eta_ms: Option<f64> as Num = opt, "estimated milliseconds to batch completion, from the mean uncached point time and the batch's hit rate";
        }, "a point finished somewhere in the batch (completion order); `eta_ms` estimates time to batch completion from the mean uncached point time and the batch's hit rate, omitted until an uncached point has completed";
        "point" => Point {
            id: String as Str = req, "echo of the request id";
            point: ManifestPoint = flat, "the point's identity, execution detail and metrics";
        }, "one evaluated operating point (strict index order)";
        "point_failed" => PointFailed {
            id: String as Str = req, "echo of the request id";
            index: usize as Int<usize> = req, "failing job's index";
            config_hash: u64 as Hex = req, "failing job's cache key";
            seed: u64 as Hex = req, "failing job's RNG seed";
            error: String as Str = req, "the simulator error's display form";
        }, "one failed operating point (same ordering)";
        "done" => Done {
            id: String as Str = req, "echo of the request id";
            summary: BatchSummary = flat, "end-of-batch accounting";
        }, "batch finished; always the request's last event";
        "busy" => Busy {
            id: String as Str = req, "echo of the request id";
            pending: usize as Int<usize> = req, "points already pending when the batch was rejected";
            limit: usize as Int<usize> = req, "the effective limit the batch was admitted against";
        }, "batch rejected by backpressure; no `accepted`/`done` follows";
        "cancelled" => Cancelled {
            id: String as Str = req, "echo of the cancel target id";
            active: bool as Bool = req, "whether a batch with that id was in flight (`false`: the cancel was armed)";
        }, "answer to `cancel`; `active` is whether the batch was in flight";
        "pong" => Pong {
            uptime_ms: f64 as Num = compat(0.0), "milliseconds the engine has been up";
            code_version: String as Str = compat(String::new()), "the engine's code version (cache stamp + experiment tag)";
            engine: String as Str = compat(String::new()), "engine name: `noc-serve` or `noc-fleet`";
        }, "answer to `ping`; carries the engine's identity so clients detect version skew across a fleet";
        "stats" => Stats {
            snapshot: StatsSnapshot as Obj<StatsSnapshot> = req, "the snapshot (see SERVICE.md § Observability)";
        }, "answer to `stats`: a versioned live-metrics snapshot (fields below)";
        "error" => Error {
            id: Option<String> as Str = opt, "echo of the request id, when one could be recovered";
            message: String as Str = req, "what went wrong";
        }, "request could not be parsed or served";
    }
}

message! {
    /// End-of-batch accounting carried by the `done` event.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BatchSummary {
        points: usize as Int<usize> = req, "jobs in the batch";
        ok: usize as Int<usize> = req, "points that produced metrics";
        failed: usize as Int<usize> = req, "points that failed (one `point_failed` event each)";
        cancelled: usize as Int<usize> = req, "points skipped by cancellation (surfaced as `point_failed` with error `cancelled`)";
        cache_hits: u64 as Int<u64> = req, "points served from the result cache";
        cache_misses: u64 as Int<u64> = req, "points freshly simulated";
        config_hash: u64 as Hex = req, "order-sensitive combined hash over every job's cache key";
        wall_ms: f64 as Num = req, "batch wall time, milliseconds";
    }
}

message! {
    /// One persisted result: the line format of cache segment files.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CacheRecord: "cache" check validate_cache_record {
        key: u64 as Hex = req, "the job's cache key (`SyntheticJob::cache_key`)";
        seed: u64 as Hex = req, "the job's RNG seed (also folded into `key`)";
        version: String as Str = req, "the writing daemon's code-version stamp";
        value: NetworkMetrics as CacheMetrics = req, "bit-exact metrics: each `f64` as the hex string of its bit pattern, plus `saturated` (bool)";
    }
}

fn validate_cache_record(rec: &CacheRecord) -> Result<(), String> {
    if rec.version.is_empty() {
        return Err("cache record has an empty version stamp".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Run manifests
// ---------------------------------------------------------------------------

message! {
    /// Metrics and identity of one operating point in a [`RunManifest`],
    /// and the payload of a service `point` event.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ManifestPoint: "point" {
        index: usize as Int<usize> = req, "job index within the batch (streamed in strictly increasing order)";
        seed: u64 as Hex = req, "the job's RNG seed";
        config_hash: u64 as Hex = req, "the job's cache key";
        cache_hit: bool as Bool = req, "whether the result came from the cache";
        duration_ms: f64 as Num = req, "worker wall time for the point (≈ 0 for hits)";
        metrics: Vec<(String, f64)> as Map<Num> = req, "named scalars: `avg_packet_latency`, `avg_network_latency`, `network_power`, `accepted_throughput`, `saturated` (0/1)";
    }
}

message! {
    /// One fault event observed during a run, attributed to an operating
    /// point. Fault lines follow the point lines of the same manifest, so
    /// one file carries both the metrics and the fault timeline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultRecord: "fault" {
        point: usize as Int<usize> = req, "index of the operating point the fault occurred in";
        cycle: u64 as Int<u64> = req, "simulation cycle at which the fault fired";
        kind: String as Str = req, "event kind, e.g. `link_down` or `packet_dropped`";
        node: usize as Int<usize> = req, "primary node (router, or link source)";
        peer: Option<usize> as Nullable<Int<usize>> = or(None), "link destination; `null` for router events";
    }
}

message! {
    RunManifest: "run" {
        figure: String as Str = req, "figure or binary identifier";
        config_hash: u64 as Hex = req, "combined hash over every point's config hash";
        workers: usize as Int<usize> = req, "worker threads used";
        base_seed: u64 as Hex = req, "the runner's base seed";
        seed_schedule: Vec<u64> as List<Hex> = req, "every point's derived seed, in point order";
        wall_ms: f64 as Num = req, "total wall time of the run, milliseconds";
        cache_hits: u64 as Int<u64> = req, "result-cache hits during the run";
        cache_misses: u64 as Int<u64> = req, "result-cache misses during the run";
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Stats snapshots
// ---------------------------------------------------------------------------

message! {
    /// An immutable copy of a `StreamingHistogram`: exact count/sum/min/max
    /// plus the non-empty log buckets. Merging two snapshots sums buckets by
    /// lower bound — exact, never resampled.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct HistogramSnapshot {
        count: u64 as Hex = req, "number of observations";
        sum: u128 as SumHiLo = flat, "exact sum of observations";
        min: u64 as Hex = req, "smallest observation (0 when empty)";
        max: u64 as Hex = req, "largest observation (0 when empty)";
        buckets: Vec<(u64, u64)> as List<Pair<Hex, Hex>> = req, "non-empty buckets as `(lower_bound, count)`, ascending";
    }
}

message! {
    /// Every metric in a registry at one point in time, sorted by name.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct MetricsSnapshot {
        counters: Vec<(String, u64)> as Map<Hex> = req, "`(name, value)` counters";
        gauges: Vec<(String, f64)> as Map<Bits> = req, "`(name, value)` gauges, `f64`s by bit pattern on the wire";
        histograms: Vec<(String, HistogramSnapshot)> as Map<Obj<HistogramSnapshot>> = req, "`(name, snapshot)` histograms";
    }
}

message! {
    /// A point whose uncached runtime exceeded `slow_factor ×` the running
    /// mean of uncached points at the time it finished.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SlowPoint {
        config_hash: u64 as Hex = req, "config hash identifying the operating point";
        seed: u64 as Hex = req, "per-point seed";
        duration_ms: f64 as Num = req, "observed wall time, milliseconds";
        mean_ms: f64 as Num = req, "running mean of uncached point wall times when this point finished";
        factor: f64 as Num = req, "`duration_ms / mean_ms`";
    }
}

message! {
    /// Liveness and version info for one shard, as observed by the fleet
    /// coordinator at snapshot time.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ShardHealth {
        shard: usize as Int<usize> = req, "shard index";
        socket: String as Str = req, "the shard's socket path";
        alive: bool as Bool = req, "whether the shard answered the `stats` poll";
        engine: String as Str = compat(String::new()), "the shard's engine name (empty when unreachable)";
        code_version: String as Str = compat(String::new()), "the shard's code version (empty when unreachable)";
        uptime_ms: f64 as Num = compat(0.0), "the shard's uptime in milliseconds (0 when unreachable)";
    }
}

message! {
    /// A versioned, self-describing snapshot of one engine's metrics — the
    /// payload of the `stats` wire verb. Fleet coordinators aggregate shard
    /// snapshots by merging `metrics` and concatenating `slow_points`, and
    /// describe each shard in `shards`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StatsSnapshot check validate_stats_schema {
        schema: u64 as Int<u64> = req, "snapshot schema version (currently 1); clients must reject unknown versions";
        engine: String as Str = req, "`\"noc-serve\"` for a single daemon, `\"noc-fleet\"` for a fleet coordinator";
        code_version: String as Str = req, "the engine's code-version stamp (same format as cache records)";
        uptime_ms: f64 as Num = req, "milliseconds since the engine started";
        metrics: MetricsSnapshot as Obj<MetricsSnapshot> = req, "`counters` (name → hex count), `gauges` (name → hex f64 bit pattern), `histograms` (name → {count, sum_hi, sum_lo, min, max, buckets: [[lower, count]…]}, all hex)";
        slow_points: Vec<SlowPoint> as List<Obj<SlowPoint>> = or(Vec::new()), "recent slow points, oldest first: `config_hash`/`seed` (hex), `duration_ms`, `mean_ms`, `factor`";
        shards: Vec<ShardHealth> as List<Obj<ShardHealth>> = or(Vec::new()), "per-shard health (fleet only): `shard`, `socket`, `alive`, `engine`, `code_version`, `uptime_ms`";
    }
}

fn validate_stats_schema(s: &StatsSnapshot) -> Result<(), String> {
    if s.schema != STATS_SCHEMA_VERSION {
        return Err(format!(
            "stats: unknown schema version {} (expected {STATS_SCHEMA_VERSION})",
            s.schema
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Schema reference (SERVICE.md)
// ---------------------------------------------------------------------------

fn rows<M: Fields>() -> Vec<Row> {
    let mut out = Vec::new();
    M::rows(&mut out);
    out
}

fn variant_rows<'a>(variants: &'a [Variant], tag: &str) -> &'a [Row] {
    &variants
        .iter()
        .find(|v| v.tag == tag)
        .expect("declared variant")
        .rows
}

fn table_head(title: &str, columns: [&str; 3], out: &mut String) {
    let _ = writeln!(out, "#### {title}\n");
    let _ = writeln!(
        out,
        "| {} | {} | {} |\n|---|---|---|",
        columns[0], columns[1], columns[2]
    );
}

/// A Field/Type/Meaning table, led by a `type` row when the object is
/// tagged.
fn field_table(title: &str, tag: Option<&str>, rows: &[Row], out: &mut String) {
    table_head(title, ["Field", "Type", "Meaning"], out);
    if let Some(tag) = tag {
        let _ = writeln!(out, "| `type` | string | `\"{tag}\"` |");
    }
    for r in rows {
        let _ = writeln!(out, "| `{}` | {} | {} |", r.name, r.kind, r.doc);
    }
    out.push('\n');
}

/// One row per variant, its fields summarised (`name?` when optional).
fn summary_table(title: &str, first: &str, variants: &[Variant], out: &mut String) {
    table_head(title, [first, "Fields", "Meaning"], out);
    for v in variants {
        let fields = if v.spliced {
            format!("see {} table", v.tag)
        } else if v.rows.is_empty() {
            "—".to_string()
        } else {
            let names: Vec<String> = v
                .rows
                .iter()
                .map(|r| format!("{}{}", r.name, if r.optional { "?" } else { "" }))
                .collect();
            names.join(", ")
        };
        let _ = writeln!(out, "| `{}` | {fields} | {} |", v.tag, v.doc);
    }
    out.push('\n');
}

/// Renders the wire-schema tables embedded in SERVICE.md between the
/// `schema:generated` markers, from the declarations in this module. A
/// test compares the document against this output.
pub fn schema_reference() -> String {
    let requests = ServiceRequest::variants();
    let events = ServiceResponse::variants();
    let mut out = String::new();
    summary_table("Requests", "Request", &requests, &mut out);
    let submit = variant_rows(&requests, "submit");
    field_table("`submit` request", Some("submit"), submit, &mut out);
    field_table("Job object", None, &rows::<SyntheticJob>(), &mut out);
    summary_table("Response events", "Event", &events, &mut out);
    for tag in ["point", "done"] {
        let title = format!("`{tag}` event");
        field_table(&title, Some(tag), variant_rows(&events, tag), &mut out);
    }
    field_table("`stats` snapshot", None, &rows::<StatsSnapshot>(), &mut out);
    let cache = rows::<CacheRecord>();
    field_table(
        "Cache record (segment line)",
        Some("cache"),
        &cache,
        &mut out,
    );
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A key is claimed by the first row that names it, spliced groups
    /// included, and `"type"` is read apart from the rows: so no message
    /// may declare a key twice, nor declare `type`.
    #[test]
    fn no_message_declares_a_key_twice() {
        let mut messages = vec![
            ("SubmitRequest", rows::<SubmitRequest>()),
            ("SyntheticJob", rows::<SyntheticJob>()),
            ("BatchSummary", rows::<BatchSummary>()),
            ("CacheRecord", rows::<CacheRecord>()),
            ("ManifestPoint", rows::<ManifestPoint>()),
            ("FaultRecord", rows::<FaultRecord>()),
            ("RunManifest", rows::<RunManifest>()),
            ("HistogramSnapshot", rows::<HistogramSnapshot>()),
            ("MetricsSnapshot", rows::<MetricsSnapshot>()),
            ("SlowPoint", rows::<SlowPoint>()),
            ("ShardHealth", rows::<ShardHealth>()),
            ("StatsSnapshot", rows::<StatsSnapshot>()),
        ];
        for v in ServiceRequest::variants()
            .into_iter()
            .chain(ServiceResponse::variants())
        {
            messages.push((v.tag, v.rows));
        }
        for (message, rows) in messages {
            let mut keys: Vec<&str> = rows.iter().map(|r| r.name).collect();
            keys.sort_unstable();
            let declared = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), declared, "{message} declares a key twice");
            assert!(!keys.contains(&"type"), "{message} declares `type`");
        }
    }
}
