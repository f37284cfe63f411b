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
//! but of the wrong kind is always an error that names the field; unknown
//! fields are ignored, because tools inject extra keys such as `target`.
//! Semantic checks the kinds cannot express (`level ≥ 1`, `rate` in
//! (0, 1], `hot_fraction` in [0, 1], the stats schema version, a non-empty
//! cache version stamp) run once a message has decoded.

use std::fmt::Write as _;
use std::marker::PhantomData;

use noc_sim::topology::TopologySpec;
use noc_sim::traffic::TrafficPattern;

use crate::experiment::NetworkMetrics;
use crate::metrics::STATS_SCHEMA_VERSION;
use crate::runner::{SyntheticBaseline, SyntheticJob};
use crate::service::{metric_values, metrics_from_values, METRIC_FIELDS};
use crate::telemetry::{JsonValue, RunManifest};

// ---------------------------------------------------------------------------
// Kinds and field groups
// ---------------------------------------------------------------------------

/// How one field's value travels as one JSON value.
pub trait Kind {
    /// The Rust type of the field.
    type T;
    /// The `Type` column of the SERVICE.md tables.
    const DOC: &'static str;
    /// Encodes one value.
    fn enc(v: &Self::T) -> JsonValue;
    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// What was expected instead.
    fn dec(v: &JsonValue) -> Result<Self::T, String>;
}

/// A group of fields spliced into an enclosing JSON object: every declared
/// message, plus the custom shapes that span more than one key.
pub trait Fields {
    /// The Rust type the group encodes.
    type T;
    /// Appends the group's fields to an object under construction.
    fn write(v: &Self::T, out: &mut Vec<(String, JsonValue)>);
    /// Reads the group's fields out of an object.
    ///
    /// # Errors
    ///
    /// The first missing or wrong-kind field, or a failed semantic check.
    fn read(o: &JsonValue) -> Result<Self::T, String>;
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

/// `key`'s value decoded as `K`: `None` when absent, an error naming the
/// key when present but of the wrong kind.
fn field<K: Kind>(o: &JsonValue, key: &str) -> Result<Option<K::T>, String> {
    o.get(key)
        .map(|v| K::dec(v).map_err(|e| format!("field {key:?}: {e}")))
        .transpose()
}

/// `key`'s value decoded as `K`; the key must be present.
fn required<K: Kind>(o: &JsonValue, key: &str) -> Result<K::T, String> {
    field::<K>(o, key)?.ok_or_else(|| format!("missing field {key:?}"))
}

/// Declares a kind whose decoder is an `Option`-returning accessor.
macro_rules! kind {
    ($(#[$doc:meta])* $K:ident: $T:ty, $name:literal, |$v:ident| $enc:expr, |$w:ident| $dec:expr) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $K;

        impl Kind for $K {
            type T = $T;
            const DOC: &'static str = $name;
            fn enc($v: &$T) -> JsonValue {
                $enc
            }
            fn dec($w: &JsonValue) -> Result<$T, String> {
                $dec.ok_or_else(|| concat!("expected a ", $name).to_string())
            }
        }
    };
}

kind!(
    /// A string.
    Str: String, "string", |v| JsonValue::Str(v.clone()), |v| v.as_str().map(str::to_string)
);
kind!(
    /// An `f64` as a JSON number (non-finite values encode as `null`).
    Num: f64, "number", |v| JsonValue::Num(*v), |v| v.as_f64()
);
kind!(
    /// A `u64` identity as a `"0x…"` hex string.
    Hex: u64, "hex string", |v| JsonValue::hex(*v), |v| v.as_u64()
);
kind!(
    /// An `f64` as the hex string of its bit pattern: exact, NaN and −0.0
    /// included.
    Bits: f64, "hex string", |v| JsonValue::hex(v.to_bits()), |v| v.as_u64().map(f64::from_bits)
);
kind!(
    /// A boolean.
    Bool: bool, "bool", |v| JsonValue::Bool(*v), |v| v.as_bool()
);

/// An integer as a JSON number, exact up to 2^53 like every JSON number
/// (values beyond `i64` encode as `null`).
#[derive(Debug)]
pub struct Int<I>(PhantomData<I>);

impl<I: Copy + TryFrom<i64> + TryInto<i64>> Kind for Int<I> {
    type T = I;
    const DOC: &'static str = "number";
    fn enc(v: &I) -> JsonValue {
        JsonValue::Num((*v).try_into().map_or(f64::NAN, |n: i64| n as f64))
    }
    fn dec(v: &JsonValue) -> Result<I, String> {
        v.as_f64()
            .filter(|n| n.fract() == 0.0 && n.abs() <= 2f64.powi(53))
            .and_then(|n| I::try_from(n as i64).ok())
            .ok_or_else(|| "expected an integer".to_string())
    }
}

/// An array of `K` values.
#[derive(Debug)]
pub struct List<K>(PhantomData<K>);

impl<K: Kind> Kind for List<K> {
    type T = Vec<K::T>;
    const DOC: &'static str = "array";
    fn enc(v: &Self::T) -> JsonValue {
        JsonValue::Arr(v.iter().map(K::enc).collect())
    }
    fn dec(v: &JsonValue) -> Result<Self::T, String> {
        let xs = v.as_array().ok_or("expected an array")?;
        xs.iter()
            .enumerate()
            .map(|(i, x)| K::dec(x).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

/// An object of named `K` values, in order: counters, gauges, histograms
/// and a point's metrics.
#[derive(Debug)]
pub struct Map<K>(PhantomData<K>);

impl<K: Kind> Kind for Map<K> {
    type T = Vec<(String, K::T)>;
    const DOC: &'static str = "object";
    fn enc(v: &Self::T) -> JsonValue {
        JsonValue::Obj(v.iter().map(|(k, x)| (k.clone(), K::enc(x))).collect())
    }
    fn dec(v: &JsonValue) -> Result<Self::T, String> {
        let JsonValue::Obj(pairs) = v else {
            return Err("expected an object".into());
        };
        pairs
            .iter()
            .map(|(k, x)| Ok((k.clone(), K::dec(x).map_err(|e| format!("{k:?}: {e}"))?)))
            .collect()
    }
}

/// A nested message.
#[derive(Debug)]
pub struct Obj<M>(PhantomData<M>);

impl<M: Fields> Kind for Obj<M> {
    type T = M::T;
    const DOC: &'static str = "object";
    fn enc(v: &M::T) -> JsonValue {
        let mut out = Vec::new();
        M::write(v, &mut out);
        JsonValue::Obj(out)
    }
    fn dec(v: &JsonValue) -> Result<M::T, String> {
        match v {
            JsonValue::Obj(_) => M::read(v),
            _ => Err("expected an object".into()),
        }
    }
}

/// A `K` value, or `null` for `None`.
#[derive(Debug)]
pub struct Nullable<K>(PhantomData<K>);

impl<K: Kind> Kind for Nullable<K> {
    type T = Option<K::T>;
    const DOC: &'static str = K::DOC;
    fn enc(v: &Self::T) -> JsonValue {
        v.as_ref().map_or(JsonValue::Null, K::enc)
    }
    fn dec(v: &JsonValue) -> Result<Self::T, String> {
        match v {
            JsonValue::Null => Ok(None),
            v => K::dec(v).map(Some),
        }
    }
}

/// A two-element array `[a, b]`, such as a histogram bucket's
/// `[lower, count]`.
#[derive(Debug)]
pub struct Pair<A, B>(PhantomData<(A, B)>);

impl<A: Kind, B: Kind> Kind for Pair<A, B> {
    type T = (A::T, B::T);
    const DOC: &'static str = "array";
    fn enc((a, b): &Self::T) -> JsonValue {
        JsonValue::Arr(vec![A::enc(a), B::enc(b)])
    }
    fn dec(v: &JsonValue) -> Result<Self::T, String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::dec(a)?, B::dec(b)?)),
            _ => Err("expected a pair".into()),
        }
    }
}

/// A [`TopologySpec`] by wire name (`mesh4x4`, `circ16s5`).
#[derive(Debug)]
pub struct Topology;

impl Kind for Topology {
    type T = TopologySpec;
    const DOC: &'static str = "string";
    fn enc(v: &TopologySpec) -> JsonValue {
        JsonValue::Str(v.wire_name())
    }
    fn dec(v: &JsonValue) -> Result<TopologySpec, String> {
        let name = v.as_str().ok_or("expected a string")?;
        TopologySpec::from_wire_name(name).map_err(|e| e.to_string())
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
    fn enc(v: &SyntheticBaseline) -> JsonValue {
        JsonValue::Str(baseline_name(*v).to_string())
    }
    fn dec(v: &JsonValue) -> Result<SyntheticBaseline, String> {
        let name = v.as_str().ok_or("expected a string")?;
        [
            SyntheticBaseline::NocSprinting,
            SyntheticBaseline::RandomEndpoints,
            SyntheticBaseline::SpreadAggregate,
        ]
        .into_iter()
        .find(|&b| baseline_name(b) == name)
        .ok_or_else(|| format!("unknown baseline {name:?}"))
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

impl Fields for Pattern {
    type T = TrafficPattern;
    fn write(v: &TrafficPattern, out: &mut Vec<(String, JsonValue)>) {
        out.push(("pattern".into(), JsonValue::Str(pattern_name(*v).into())));
        if let TrafficPattern::Hotspot { hot_fraction } = v {
            out.push(("hot_fraction".into(), JsonValue::Num(*hot_fraction)));
        }
    }
    fn read(o: &JsonValue) -> Result<TrafficPattern, String> {
        let name = required::<Str>(o, "pattern")?;
        let hot_fraction = field::<Num>(o, "hot_fraction")?;
        if name != "hotspot" {
            return [
                TrafficPattern::UniformRandom,
                TrafficPattern::Transpose,
                TrafficPattern::BitComplement,
                TrafficPattern::Tornado,
                TrafficPattern::Shuffle,
                TrafficPattern::NearestNeighbor,
            ]
            .into_iter()
            .find(|&p| pattern_name(p) == name)
            .ok_or_else(|| format!("unknown pattern {name:?}"));
        }
        let hot_fraction = hot_fraction.ok_or("pattern \"hotspot\" requires hot_fraction")?;
        if !(0.0..=1.0).contains(&hot_fraction) {
            return Err(format!("hot_fraction {hot_fraction} outside [0, 1]"));
        }
        Ok(TrafficPattern::Hotspot { hot_fraction })
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

impl Fields for SumHiLo {
    type T = u128;
    fn write(v: &u128, out: &mut Vec<(String, JsonValue)>) {
        out.push(("sum_hi".into(), JsonValue::hex((v >> 64) as u64)));
        out.push(("sum_lo".into(), JsonValue::hex(*v as u64)));
    }
    fn read(o: &JsonValue) -> Result<u128, String> {
        let (hi, lo) = (required::<Hex>(o, "sum_hi")?, required::<Hex>(o, "sum_lo")?);
        Ok((u128::from(hi) << 64) | u128::from(lo))
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
    fn enc(m: &NetworkMetrics) -> JsonValue {
        let pairs = METRIC_FIELDS.iter().zip(metric_values(m)).map(|(&k, v)| {
            let json = if k == "saturated" {
                Bool::enc(&(v != 0.0))
            } else {
                Bits::enc(&v)
            };
            (k.to_string(), json)
        });
        JsonValue::Obj(pairs.collect())
    }
    fn dec(v: &JsonValue) -> Result<NetworkMetrics, String> {
        if !matches!(v, JsonValue::Obj(_)) {
            return Err("expected an object".into());
        }
        let mut values = [0.0; METRIC_FIELDS.len()];
        for (slot, k) in values.iter_mut().zip(METRIC_FIELDS) {
            *slot = if k == "saturated" {
                f64::from(u8::from(required::<Bool>(v, k)?))
            } else {
                required::<Bits>(v, k)?
            };
        }
        Ok(metrics_from_values(values))
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

/// Fails unless `o`'s `"type"` is `tag`.
fn check_tag(o: &JsonValue, tag: &str) -> Result<(), String> {
    match o.get("type").and_then(JsonValue::as_str) {
        Some(t) if t == tag => Ok(()),
        other => Err(format!("expected type {tag:?}, found {other:?}")),
    }
}

/// Declares a message and generates its type, its [`Fields`] impl and its
/// inherent `to_json`/`from_json` methods (plus `to_json_line`/
/// `from_json_line` for tagged messages). A row reads
/// `field: RustType as Kind = mode, "meaning";` — `as Kind` may be left
/// out when the Rust type is itself a message. Three forms:
///
/// - `pub struct Name: "tag" check f { rows }` — the tag and the semantic
///   check are optional;
/// - `Name: "tag" check f { rows ..rest }` — the codec of a type defined
///   elsewhere; `..rest` fills the fields that are not on the wire;
/// - `pub enum Name { "tag" => Variant(Message) | Variant { rows } | Variant, "meaning"; }`.
macro_rules! message {
    // One row: kind, encode, decode, schema.
    (@kind $R:ty) => { $R };
    (@kind $R:ty, $K:ty) => { $K };
    (@enc flat, $out:ident, $v:expr, $K:ty, $f:ident) => {
        <$K as Fields>::write($v, $out)
    };
    (@enc opt, $out:ident, $v:expr, $K:ty, $f:ident) => {
        if let Some(x) = $v {
            $out.push((stringify!($f).to_string(), <$K as Kind>::enc(x)));
        }
    };
    (@enc $mode:ident $(($d:expr))?, $out:ident, $v:expr, $K:ty, $f:ident) => {
        $out.push((stringify!($f).to_string(), <$K as Kind>::enc($v)))
    };
    (@dec flat, $o:ident, $K:ty, $f:ident) => {
        <$K as Fields>::read($o)?
    };
    (@dec req, $o:ident, $K:ty, $f:ident) => {
        required::<$K>($o, stringify!($f))?
    };
    (@dec opt, $o:ident, $K:ty, $f:ident) => {
        field::<$K>($o, stringify!($f))?
    };
    (@dec $mode:ident($d:expr), $o:ident, $K:ty, $f:ident) => {
        field::<$K>($o, stringify!($f))?.unwrap_or_else(|| $d)
    };
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

    // The inherent methods every message gets.
    (@methods $T:ident $(, $tag:literal)?) => {
        impl $T {
            /// Encodes the value as its wire object (declared in
            /// `crate::wire`).
            pub fn to_json(&self) -> JsonValue {
                let mut out = Vec::new();
                $(out.push(("type".to_string(), JsonValue::Str($tag.to_string())));)?
                <$T as Fields>::write(self, &mut out);
                JsonValue::Obj(out)
            }

            /// Decodes a wire object; unknown fields are ignored.
            ///
            /// # Errors
            ///
            /// The first missing or wrong-kind field, or a failed semantic
            /// check.
            pub fn from_json(v: &JsonValue) -> Result<$T, String> {
                $(check_tag(v, $tag)?;)?
                <$T as Fields>::read(v)
            }
        }
    };
    (@lines $T:ident $(, $tag:literal)?) => {
        impl $T {
            /// Encodes the value as a single JSON line (no trailing newline).
            pub fn to_json_line(&self) -> String {
                self.to_json().to_json()
            }

            /// Parses one JSON line.
            ///
            /// # Errors
            ///
            /// A syntax error, or whatever [`from_json`](Self::from_json)
            /// rejects.
            pub fn from_json_line(line: &str) -> Result<$T, String> {
                $T::from_json(&JsonValue::parse(line)?)
            }
        }
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
        impl Fields for $T {
            type T = $T;
            fn write(v: &$T, out: &mut Vec<(String, JsonValue)>) {
                $(message!(@enc $mode $(($d))?, out, &v.$f, message!(@kind $R $(, $K)?), $f);)*
            }
            fn read(o: &JsonValue) -> Result<$T, String> {
                let v = $T {
                    $($f: message!(@dec $mode $(($d))?, o, message!(@kind $R $(, $K)?), $f),)*
                    $(..$rest)?
                };
                $($check(&v)?;)?
                Ok(v)
            }
            fn rows(out: &mut Vec<Row>) {
                $(message!(@row $mode $(($d))?, out, message!(@kind $R $(, $K)?), $f, $doc);)*
            }
        }
        message!(@methods $T $(, $tag)?);
        $(message!(@lines $T, $tag);)?
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
        impl Fields for $E {
            type T = $E;
            fn write(v: &$E, out: &mut Vec<(String, JsonValue)>) {
                match v {
                    $($E::$V $((message!(@same inner $inner)))? $({ $($f),* })? => {
                        out.push(("type".to_string(), JsonValue::Str($tag.to_string())));
                        $(<$inner as Fields>::write(inner, out);)?
                        $($(message!(@enc $mode $(($d))?, out, $f, message!(@kind $R $(, $K)?), $f);)*)?
                    })*
                }
            }
            fn read(o: &JsonValue) -> Result<$E, String> {
                match o.get("type").and_then(JsonValue::as_str) {
                    $(Some($tag) => Ok($E::$V
                        $((<$inner as Fields>::read(o)?))?
                        $({ $($f: message!(@dec $mode $(($d))?, o, message!(@kind $R $(, $K)?), $f)),* })?),)*
                    other => Err(format!("unknown type {other:?}")),
                }
            }
            fn rows(out: &mut Vec<Row>) {
                $(out.push(Row { name: $tag, kind: "object", doc: $vdoc, optional: false });)*
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
        message!(@methods $E);
        message!(@lines $E);
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
