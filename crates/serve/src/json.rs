//! Minimal JSON document model, parser and deterministic writer.
//!
//! The daemon speaks JSON on every endpoint but the workspace takes no
//! external dependencies, so this module supplies the subset it needs:
//! a [`Json`] tree (objects keep insertion order), a recursive-descent
//! [`parse`] with byte-offset error positions, and a `Display`
//! implementation that renders *deterministically* — same tree, same
//! bytes. Determinism matters because the daemon's acceptance contract is
//! that identical job specs produce byte-identical result documents.
//!
//! Numbers are stored as `f64`. The writer emits integers without a
//! fractional part when the value is exactly integral (ids, trial
//! counts) and otherwise uses Rust's shortest round-trip float formatting,
//! which is a pure function of the bits.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; must be finite).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and significant for output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn s(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Builds a number value.
    pub fn n(v: f64) -> Json {
        Json::Num(v)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007199254740992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_num(f, *n),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the writer degrades to null rather than
        // emitting an invalid document.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() <= 9.007199254740992e15 {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n}")
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] with the byte offset of the first problem;
/// trailing non-whitespace input is rejected.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

/// Maximum container nesting. The parser recurses once per level, and the
/// daemon parses request bodies on dispatcher threads with default-sized
/// stacks; without a cap, a small body of nested `[` would overflow the
/// stack and abort the whole process. 128 levels is far beyond any job
/// spec while keeping worst-case recursion trivially shallow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character. Decoding from the `&str`
                    // keeps this O(1); re-validating the rest of the input
                    // per character made long strings quadratic.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("bad number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_a_typical_document() {
        let text = r#"{"kind":"characterize","trials":200,"seed":7,"ratio":0.5,"tags":["a","b"],"none":null,"ok":true}"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("characterize"));
        assert_eq!(doc.get("trials").unwrap().as_u64(), Some(200));
        assert_eq!(doc.get("ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        // The writer reproduces the same bytes (insertion order preserved).
        assert_eq!(doc.to_string(), text);
    }

    #[test]
    fn writer_is_deterministic_for_floats() {
        let v = Json::Arr(vec![Json::n(0.1 + 0.2), Json::n(3.0), Json::n(-0.0)]);
        let once = v.to_string();
        assert_eq!(once, v.to_string());
        assert!(once.starts_with("[0.30000000000000004,3,"), "{once}");
        // Round-trip preserves bits.
        let back = parse(&once).unwrap();
        assert_eq!(back.to_string(), once);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = "line1\nline2\ttab \"quoted\" back\\slash";
        let rendered = Json::s(original).to_string();
        let back = parse(&rendered).unwrap();
        assert_eq!(back.as_str(), Some(original));
        // Unicode escapes, including a surrogate pair.
        let doc = parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            "1e999",
            "{} trailing",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // Well inside the cap: parses fine.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // One past the cap: a clean error.
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&over).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // A megabyte of `[` (the attack body) errors instead of aborting
        // the process; objects hit the same cap.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"k\":".repeat(1 << 20)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 4 MiB of string body: milliseconds when each character decodes
        // in O(1), minutes when each one re-validates the rest.
        let doc = format!("\"{}é\"", "a".repeat(4 << 20));
        let start = std::time::Instant::now();
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.as_str().map(str::len), Some((4 << 20) + 2));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn nested_structures_parse() {
        let doc = parse(r#" { "a" : [ { "b" : [ 1 , 2 ] } ] } "#).unwrap();
        let inner = &doc.get("a").unwrap();
        let Json::Arr(items) = inner else {
            panic!("not an array")
        };
        assert_eq!(items[0].get("b").unwrap().to_string(), "[1,2]");
    }

    /// Characters that exercise every writer branch: plain ASCII, quote,
    /// backslash, the named and `\u`-escaped controls, and 2-, 3- and
    /// 4-byte UTF-8.
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', ':', ',', '{', ']', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}',
        '\u{1f}', '\u{7f}', 'é', '€', '😀',
    ];

    fn text(rng: &mut TestRng) -> String {
        (0..rng.next_below(8))
            .map(|_| CHARS[rng.next_below(CHARS.len() as u64) as usize])
            .collect()
    }

    /// A finite number: a small integer, a scaled decimal, or any finite
    /// bit pattern (subnormals and values near `f64::MAX` included).
    fn number(rng: &mut TestRng) -> f64 {
        match rng.next_below(3) {
            0 => rng.next_below(1 << 20) as f64 - (1 << 19) as f64,
            1 => (rng.next_f64() - 0.5) * 10f64.powi(rng.next_below(41) as i32 - 20),
            _ => loop {
                let n = f64::from_bits(rng.next_u64());
                if n.is_finite() {
                    break n;
                }
            },
        }
    }

    /// A random document with finite numbers, at most five levels deep.
    fn document(rng: &mut TestRng, depth: usize) -> Json {
        let kinds = if depth >= 4 { 4 } else { 6 };
        match rng.next_below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_below(2) == 1),
            2 => Json::Num(number(rng)),
            3 => Json::Str(text(rng)),
            4 => Json::Arr(
                (0..rng.next_below(5))
                    .map(|_| document(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.next_below(5))
                    .map(|_| (text(rng), document(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    fn documents() -> impl Strategy<Value = Json> {
        FnStrategy(|rng: &mut TestRng| document(rng, 0))
    }

    /// `depth` nested containers (a random mix of arrays and objects)
    /// around the value `1`.
    fn nested(rng: &mut TestRng, depth: usize) -> String {
        let arrays: Vec<bool> = (0..depth).map(|_| rng.next_below(2) == 0).collect();
        let mut out = String::with_capacity(6 * depth + 1);
        for &array in &arrays {
            out.push_str(if array { "[" } else { "{\"k\":" });
        }
        out.push('1');
        for &array in arrays.iter().rev() {
            out.push(if array { ']' } else { '}' });
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, and rendered documents with random byte flips,
        /// insertions and deletions, only ever parse or error. Whatever
        /// parses re-renders to a document that parses back to itself.
        #[test]
        fn arbitrary_and_mutated_bytes_never_panic(
            noise in collection::vec(0u16..256, 0..600),
            doc in documents(),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let mut mutated = doc.to_string().into_bytes();
            for _ in 0..1 + rng.next_below(8) {
                let at = rng.next_below(mutated.len() as u64 + 1) as usize;
                let byte = rng.next_below(256) as u8;
                match rng.next_below(3) {
                    0 if at < mutated.len() => mutated[at] = byte,
                    1 if at < mutated.len() => {
                        mutated.remove(at);
                    }
                    _ => mutated.insert(at, byte),
                }
            }
            let noise: Vec<u8> = noise.into_iter().map(|b| b as u8).collect();
            for bytes in [noise, mutated] {
                if let Ok(parsed) = parse(&String::from_utf8_lossy(&bytes)) {
                    prop_assert_eq!(parse(&parsed.to_string()), Ok(parsed));
                }
            }
        }

        /// Up to `MAX_DEPTH` levels of arrays and objects parse; anything
        /// deeper, up to 100k levels, is a nesting error rather than a
        /// stack overflow.
        #[test]
        fn nesting_beyond_max_depth_is_an_error(
            within in 1usize..MAX_DEPTH + 1,
            beyond in MAX_DEPTH + 1..100_000,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::from_name(&seed.to_string());
            prop_assert!(parse(&nested(&mut rng, within)).is_ok(), "{within} levels rejected");
            match parse(&nested(&mut rng, beyond)) {
                Err(e) => prop_assert!(e.message.contains("nesting deeper"), "{beyond} levels: {e}"),
                Ok(_) => prop_assert!(false, "{beyond} levels accepted"),
            }
        }

        /// Every document with finite numbers survives render → parse
        /// unchanged.
        #[test]
        fn rendered_documents_parse_back_to_themselves(doc in documents()) {
            prop_assert_eq!(parse(&doc.to_string()), Ok(doc));
        }
    }
}
