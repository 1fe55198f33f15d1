//! A dependency-free JSON value: enough to write the metrics exposition
//! and the `benchmark/` ladder's result files, and to read them back.
//!
//! The workspace builds offline (no serde), and the reports are our own —
//! flat objects of numbers, strings, booleans, and arrays — so a small
//! exact implementation beats vendoring a parser. Serialization escapes
//! strings per RFC 8259; parsing accepts the full JSON value grammar the
//! writer produces (and ordinary hand-written JSON).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integers round-trip exactly up to
    /// 2^53, far beyond any counter the benches emit).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept sorted (`BTreeMap`) so reports are
    /// byte-stable across runs.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field access (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as an integer, if this is a whole number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => Some(*x as i64),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 9e15 => write!(f, "{}", *x as i64),
            Json::Num(x) => write!(f, "{x}"),
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
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
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

/// Parses one JSON value (with optional surrounding whitespace).
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input or trailing
/// garbage.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                map.insert(key, parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape".to_string())?;
                        // The writer never emits surrogate pairs (it
                        // escapes only control characters); reject them
                        // rather than mis-decode.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| "surrogate \\u escape unsupported".to_string())?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}"))?;
                let c = rest.chars().next().expect("non-empty checked above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number chars");
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_reports() {
        let report = Json::obj([
            ("bench", "hardening".into()),
            ("events", 200_000u64.into()),
            ("throughput_meps", 1.25.into()),
            ("ok", true.into()),
            ("note", "quotes \" and \\ and \n".into()),
            ("rows", vec![1i64, 2, 3].into()),
            ("nested", Json::obj([("null", Json::Null)])),
        ]);
        let text = report.to_string();
        let back = parse(&text).expect("own output parses");
        assert_eq!(back, report);
        assert_eq!(back.get("events").and_then(Json::as_i64), Some(200_000));
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("bench").and_then(Json::as_str), Some("hardening"));
        assert_eq!(back.get("rows").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(back.get("note").and_then(Json::as_str), Some("quotes \" and \\ and \n"));
    }

    #[test]
    fn parses_hand_written_json() {
        let v =
            parse(r#"  { "a" : [ 1 , -2.5e1 , true , null ] , "b" : { } , "c": "xAy" } "#).unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].as_bool(), Some(true));
        assert_eq!(a[3], Json::Null);
        assert_eq!(v.get("c").and_then(Json::as_str), Some("xAy"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "12 34", "nul", "{]}"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.5).to_string(), "3.5");
        assert_eq!(Json::from(u64::from(u32::MAX)).to_string(), "4294967295");
    }
}
