//! A minimal, dependency-free JSON layer for machine-readable reports.
//!
//! The workspace builds with no network access, so there is no serde;
//! the evaluation harness instead serializes through this hand-rolled
//! [`Json`] value type. Two properties matter more than generality:
//!
//! * **Determinism** — object members render in insertion order and
//!   numbers format identically on every run, so two runs of the same
//!   seeded simulation produce byte-identical report files.
//! * **Verifiability** — [`validate`] is a tiny recursive-descent
//!   checker the CI smoke job (and the harness itself) runs over every
//!   emitted file, so a malformed report fails fast instead of breaking
//!   a downstream consumer.

use std::fmt;

/// One JSON value. Objects keep insertion order (no sorting, no
/// hashing) so serialization is reproducible.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// A float, rendered with Rust's shortest-roundtrip formatting.
    /// Non-finite values render as `null` (JSON has no NaN/Inf).
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, for fluent building.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a member to an object (panics on non-objects: builder
    /// misuse, not data).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            _ => panic!("Json::field on a non-object"),
        }
        self
    }

    /// Serializes to a string (single line; deterministic).
    pub fn to_string_flat(&self) -> String {
        format!("{self}")
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        // Report counters fit comfortably in i64; saturate rather than
        // wrap if one ever does not.
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// An object with one member per `(key, value)` pair, in order: how a
/// block of counters (`ace_machine::counters!`'s `fields()`) becomes
/// one JSON object.
impl<'a, T: Into<Json>> FromIterator<(&'a str, T)> for Json {
    fn from_iter<I: IntoIterator<Item = (&'a str, T)>>(pairs: I) -> Json {
        pairs.into_iter().fold(Json::obj(), |j, (key, value)| j.field(key, value))
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest-roundtrip float formatting is exact and
                    // deterministic, but bare integers like `2` must
                    // still read back as floats.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(members) => {
                write!(f, "{{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Validates that `s` is one well-formed JSON document. Returns the
/// byte offset and a description of the first problem found.
pub fn validate(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

/// Parses one JSON document into a [`Json`] value — the read side of
/// the serializer, used by the baseline-diff layer to load committed
/// `BENCH_*.json` files back into comparable structure.
///
/// Numbers with no fraction or exponent that fit an `i64` come back as
/// [`Json::Int`]; everything else numeric comes back as [`Json::Num`].
/// Object member order is preserved, so `parse(x).to_string_flat()`
/// round-trips documents this crate produced.
pub fn parse(s: &str) -> Result<Json, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = build_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn build_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => build_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            let mut items = Vec::new();
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(build_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            let mut members = Vec::new();
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = build_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let value = build_value(b, pos)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            parse_number(b, pos)?;
            let text = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| format!("non-UTF-8 number at offset {start}"))?;
            let is_integral = !text.contains(['.', 'e', 'E']);
            if is_integral {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            }
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at offset {start}"))
        }
        Some(c) => Err(format!("unexpected byte `{}` at offset {pos}", *c as char)),
    }
}

fn build_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    parse_string(b, pos)?;
    // Contents between the quotes, unescaped.
    let inner = std::str::from_utf8(&b[start + 1..*pos - 1])
        .map_err(|_| format!("non-UTF-8 string at offset {start}"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape in string at offset {start}"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("unpaired surrogate in string at offset {start}"))?,
                );
            }
            _ => return Err(format!("bad escape in string at offset {start}")),
        }
    }
    Ok(out)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit.as_bytes() {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at offset {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null"),
        Some(b't') => expect(b, pos, "true"),
        Some(b'f') => expect(b, pos, "false"),
        Some(b'"') => parse_string(b, pos),
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte `{}` at offset {pos}", *c as char)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at offset {pos}")),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at offset {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad fraction at offset {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad exponent at offset {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_renders_in_insertion_order() {
        let j = Json::obj()
            .field("b", 1i64)
            .field("a", 2.5)
            .field("s", "x\"y")
            .field("arr", vec![Json::Int(1), Json::Null]);
        assert_eq!(format!("{j}"), r#"{"b":1,"a":2.5,"s":"x\"y","arr":[1,null]}"#);
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(format!("{}", Json::Num(2.0)), "2.0");
        assert_eq!(format!("{}", Json::Num(0.25)), "0.25");
        assert_eq!(format!("{}", Json::Num(f64::NAN)), "null");
    }

    #[test]
    fn serialized_values_validate() {
        let j = Json::obj()
            .field("nested", Json::obj().field("k", Json::Arr(vec![])))
            .field("neg", -3i64)
            .field("f", 1e-9)
            .field("ctl", "line\nbreak\tand \\ quote \"");
        validate(&format!("{j}")).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate("").is_err());
        assert!(validate("{").is_err());
        assert!(validate("[1,]").is_err());
        assert!(validate(r#"{"a":}"#).is_err());
        assert!(validate("1 2").is_err());
        assert!(validate("01x").is_err());
        assert!(validate(r#""unterminated"#).is_err());
        assert!(validate(r#"{"a":1}"#).is_ok());
        assert!(validate(" [1, 2.5, -3e4, \"s\", null, true] ").is_ok());
    }

    #[test]
    fn escapes_round_trip_through_the_validator() {
        let j = Json::Str("\u{1}\u{7}control".to_string());
        validate(&format!("{j}")).unwrap();
    }

    #[test]
    fn parse_round_trips_serialized_documents() {
        let j = Json::obj()
            .field("i", 42i64)
            .field("f", 2.5)
            .field("whole", Json::Num(3.0))
            .field("s", "a\"b\\c\nd\u{1}")
            .field("arr", vec![Json::Null, Json::Bool(true), Json::Int(-7)])
            .field("nested", Json::obj().field("k", Json::Arr(vec![])));
        let text = j.to_string_flat();
        let back = parse(&text).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.to_string_flat(), text);
    }

    #[test]
    fn parse_number_classification() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        // Integral but too big for i64: falls back to a float.
        assert!(matches!(parse("99999999999999999999").unwrap(), Json::Num(_)));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"\\q\"").is_err());
        assert!(parse("\"\\ud800\"").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn parse_unescapes_u_sequences() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".to_string()));
    }
}
