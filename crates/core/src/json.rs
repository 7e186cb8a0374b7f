//! A minimal, dependency-free JSON document model.
//!
//! The build environment is fully offline, so the vendored `serde` is a
//! marker-trait stub with no wire format behind it. This module supplies the
//! wire format the experiment API needs: an order-preserving [`Json`] value
//! with a pretty printer and a strict parser. Object keys keep their
//! insertion order so serialized experiment results are stable and
//! diff-friendly, and `f64` numbers are printed with Rust's shortest
//! round-trip representation so `parse(print(x)) == x` exactly.

use std::fmt;

/// A JSON value. Objects preserve key insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, the JSON interchange type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as an insertion-ordered key/value list.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from key/value pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Self {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on one line with no whitespace and no trailing newline —
    /// the NDJSON record form the serving daemon writes decoded frames in.
    pub fn to_string_line(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out);
        out
    }

    fn write_line(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_line(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_line(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. The whole input must be one value (plus
    /// surrounding whitespace), nested at most 64 arrays/objects deep.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends `n` as a JSON number: Rust's shortest round-trip form, or
/// `null` for NaN and ±∞ (JSON has neither), so the document stays valid.
/// The one number format of every document this module prints, shared with
/// writers that append a record without building a [`Json`] tree.
pub fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if n.is_finite() {
        // `{}` on f64 is the shortest representation that round-trips.
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string, escaping `"`, `\` and control
/// bytes — the one escaper of every document this module prints, shared
/// with writers that append a record without building a [`Json`] tree.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy each maximal run that needs no escape in one `push_str`. Every
    // byte that stops a run is ASCII (multi-byte UTF-8 is all >= 0x80), so
    // `run` and `i + 1` are always char boundaries.
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so without a bound one 64 KiB header line of `[` overflows the
/// serving thread's stack and aborts the process.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!(
                "nesting depth {} exceeds the limit of {MAX_DEPTH}",
                MAX_DEPTH + 1
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain UTF-8 bytes in one go.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            if (0xDC00..=0xDFFF).contains(&code) {
                                return Err(self.error("unpaired low surrogate in \\u escape"));
                            }
                            if (0xD800..=0xDBFF).contains(&code) {
                                // A high surrogate must pair with a low one
                                // in a second \uXXXX escape (how other JSON
                                // writers encode supplementary-plane chars).
                                if self.bytes.get(self.pos + 5..self.pos + 7)
                                    != Some(b"\\u".as_slice())
                                {
                                    return Err(self.error("unpaired high surrogate in \\u escape"));
                                }
                                let low = self.hex4(self.pos + 7)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.error("invalid low surrogate in \\u escape"));
                                }
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(c).expect("paired surrogates form a scalar"),
                                );
                                self.pos += 10;
                            } else {
                                out.push(
                                    char::from_u32(code).expect("non-surrogate BMP is a scalar"),
                                );
                                self.pos += 4;
                            }
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads four hex digits starting at byte offset `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.error("invalid \\u escape"));
        }
        let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
        u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))
    }

    /// Parses a number under the strict JSON grammar: `-?int frac? exp?`
    /// with `int = 0 | [1-9][0-9]*` (no leading zeros), a fraction that
    /// requires at least one digit after the dot, and an exponent that
    /// requires at least one digit.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.error("leading zeros are not allowed"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected a digit after the decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_form_is_single_line_and_round_trips() {
        let doc = Json::object(vec![
            ("type", Json::Str("frame".into())),
            ("index", Json::Num(3.0)),
            ("note", Json::Str("a\nb".into())),
            (
                "devices",
                Json::Array(vec![Json::Num(1.0), Json::Null, Json::Bool(true)]),
            ),
            ("empty", Json::object(vec![])),
        ]);
        let line = doc.to_string_line();
        assert!(!line.contains('\n'), "NDJSON records must be one line");
        assert_eq!(
            line,
            r#"{"type":"frame","index":3,"note":"a\nb","devices":[1,null,true],"empty":{}}"#
        );
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn print_and_parse_round_trip() {
        let doc = Json::object(vec![
            ("schema_version", Json::Num(1.0)),
            ("name", Json::Str("fig17 \"quoted\"\n".into())),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "rows",
                Json::Array(vec![
                    Json::Num(0.1),
                    Json::Num(-42.0),
                    Json::Num(1.25e-9),
                    Json::Num(1e21),
                ]),
            ),
            ("empty_obj", Json::Object(vec![])),
            ("empty_arr", Json::Array(vec![])),
        ]);
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).expect("printer output parses");
        assert_eq!(parsed, doc);
        // A second print is byte-identical (stable formatting).
        assert_eq!(parsed.to_string_pretty(), text);
    }

    #[test]
    fn f64_numbers_round_trip_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            123_456_789.123_456_78,
            2.0_f64.powi(-40),
        ] {
            let mut s = String::new();
            write_number(&mut s, x);
            let back = Json::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} round-trips");
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = "{\"z\": 1, \"a\": 2, \"m\": 3}";
        let doc = Json::parse(text).unwrap();
        let Json::Object(fields) = &doc else {
            panic!("expected object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("nope"), None);
    }

    #[test]
    fn accessors_discriminate_types() {
        let doc = Json::parse("{\"n\": 3, \"s\": \"x\", \"a\": [1]}").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(doc.get("s").and_then(Json::as_f64), None);
        assert_eq!(Json::parse("-2.5").unwrap().as_u64(), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
            "[01x]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// `depth` nested empty arrays.
    fn nest(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_to_depth_64_parses() {
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        // Objects and arrays count alike.
        let mixed = |objects: usize| "{\"a\":".repeat(objects) + &nest(32) + &"}".repeat(objects);
        assert!(Json::parse(&mixed(32)).is_ok());
        assert!(Json::parse(&mixed(33)).is_err());
    }

    #[test]
    fn nesting_past_depth_64_is_a_typed_error() {
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "fails at the 65th opener");
        assert!(err.message.contains("nesting depth 65"), "{err}");
        // Far past the limit, where the recursion used to overflow the stack.
        let err = Json::parse(&"[".repeat(60_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn number_grammar_is_strictly_json() {
        // Forms f64::from_str would accept but the JSON grammar forbids.
        for bad in ["01", "-01", "1.", ".5", "1.e5", "1e", "2.5e+", "-", "+1"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let cases: [(&str, f64); 7] = [
            ("0", 0.0),
            ("-0", -0.0),
            ("-0.5", -0.5),
            ("10", 10.0),
            ("1e21", 1e21),
            ("1E-9", 1e-9),
            ("2.5e+3", 2500.0),
        ];
        for (good, want) in cases {
            let got = Json::parse(good).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{good}");
        }
    }

    #[test]
    fn escapes_and_unicode_survive() {
        let original = Json::Str("tabs\there \\ slash \"q\" déjà ✓\u{1}".into());
        let text = original.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // The writer's exact bytes: an escape at the first, a middle and the
        // last position, adjacent escapes, and multi-byte runs between them.
        for (raw, written) in [
            ("", r#""""#),
            ("plain ✓ déjà", r#""plain ✓ déjà""#),
            ("\"ab", r#""\"ab""#),
            ("a\\b", r#""a\\b""#),
            ("ab\n", r#""ab\n""#),
            ("\t\r\n", r#""\t\r\n""#),
            ("é\"\\\u{1}✓\u{1f}", r#""é\"\\\u0001✓\u001f""#),
            ("\u{7f}\u{80}", "\"\u{7f}\u{80}\""),
        ] {
            let text = Json::Str(raw.into()).to_string_line();
            assert_eq!(text, written, "{raw:?}");
            assert_eq!(Json::parse(&text).unwrap().as_str(), Some(raw));
        }
        // \u escapes parse too.
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap().as_str(),
            Some("Aé")
        );
        // UTF-16 surrogate pairs (how most other JSON writers escape
        // supplementary-plane characters) combine into one scalar...
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
        // ...and lone or malformed surrogates are rejected, not replaced.
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83d abc\"",
            "\"\\ude00\"",
            "\"\\ud83d\\u0041\"",
            "\"\\u12g4\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let mut s = String::new();
        write_number(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }
}
