//! A hand-rolled JSON layer: string escaping, an object/array builder,
//! a strict well-formedness validator, and a [`Value`] parser for the
//! read side ([`crate::analyze`] parses traces back through it).
//!
//! The workspace takes no external dependencies, so the exporters and the
//! machine-readable CLI output (`--json`) build their JSON through these
//! helpers. Key order is the insertion order — callers keep it fixed so
//! output is deterministic and diffable.

/// Escape `s` for inclusion in a JSON string literal (without the quotes).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Quote and escape `s` as a JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Incremental JSON object builder; fields appear in call order.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(&string(key));
        self.buf.push(':');
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.push_key(key);
        self.buf.push_str(&string(value));
        self
    }

    /// Add an unsigned integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        self.push_key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Add a float field (rendered with Rust's shortest-roundtrip
    /// formatting, which is deterministic).
    pub fn float(mut self, key: &str, value: f64) -> Self {
        self.push_key(key);
        if value.is_finite() {
            self.buf.push_str(&value.to_string());
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.push_key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Add a field whose value is already-encoded JSON.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.push_key(key);
        self.buf.push_str(json);
        self
    }

    /// Finish: the complete `{...}` text.
    pub fn build(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Encode an iterator of already-encoded JSON values as an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

/// A parsed JSON value. Numbers keep their source text (traces carry
/// `u64` timestamps and byte counts that a float round-trip could
/// corrupt); objects keep their key order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its exact source text.
    Num(String),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object (`None` for non-objects and misses).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a plain decimal number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Strictly validate that `input` is one well-formed JSON value (with
/// optional surrounding whitespace). Returns the byte offset and a
/// message on failure. Used by the trace tests and the CI smoke step to
/// check every exported line without an external JSON library.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ()).map_err(String::from)
}

/// Deepest array/object nesting `parse` accepts. The parser recurses
/// per level, so unbounded input depth would be unbounded stack; the
/// exporters here nest three or four levels.
const MAX_DEPTH: usize = 64;

/// Why [`parse`] refused its input; `Display` names the byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Not one well-formed JSON value.
    Malformed {
        /// What was expected or wrong.
        what: String,
        /// The byte offset where it was found.
        at: usize,
    },
    /// An object names a key twice. No writer here writes that, and a
    /// reader that kept either copy would be guessing which one was meant.
    DuplicateKey {
        /// The key.
        key: String,
        /// The byte offset of its second copy.
        at: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed { what, at } => write!(f, "{what} at byte {at}"),
            Self::DuplicateKey { key, at } => write!(f, "duplicate key {key:?} at byte {at}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> Self {
        e.to_string()
    }
}

/// Parse `input` as one well-formed JSON value (the same strict grammar
/// as [`validate`]), nested at most 64 deep, no object naming a key twice.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing data");
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, ParseError> {
        Err(ParseError::Malformed { what: what.to_string(), at: self.pos })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected {lit:?}"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(ParseError::DuplicateKey { key, at });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let mut code = 0u32;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => {
                                        code = code * 16 + (c as char).to_digit(16).unwrap_or(0);
                                        self.pos += 1;
                                    }
                                    _ => return self.err("bad \\u escape"),
                                }
                            }
                            // Unpaired surrogates can't form a char; our own
                            // escaper never emits them, so map to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            continue;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    // The input is a &str, so slicing at non-escape byte
                    // boundaries stays valid UTF-8.
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(
                        |_| ParseError::Malformed { what: "invalid UTF-8".into(), at: start },
                    )?);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| -> Result<(), ParseError> {
            let ds = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            if p.pos == ds {
                p.err("expected digits")
            } else {
                Ok(())
            }
        };
        digits(self)?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self)?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError::Malformed { what: "invalid UTF-8".into(), at: start })?;
        Ok(Value::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("hi"), "\"hi\"");
    }

    #[test]
    fn builder_orders_fields() {
        let j = Obj::new().num("t", 5).str("kind", "crash").bool("ok", true).build();
        assert_eq!(j, "{\"t\":5,\"kind\":\"crash\",\"ok\":true}");
        validate(&j).unwrap();
    }

    #[test]
    fn arrays_and_raw_nest() {
        let inner = Obj::new().num("x", 1).build();
        let j = Obj::new().raw("items", &array([inner, "2".to_string()])).build();
        assert_eq!(j, "{\"items\":[{\"x\":1},2]}");
        validate(&j).unwrap();
    }

    #[test]
    fn validator_accepts_valid() {
        for ok in
            ["{}", "[]", "null", "-3.25e+2", "\"a\\u00e9b\"", " { \"a\" : [ 1 , true , { } ] } "]
        {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_invalid() {
        for bad in ["{", "{\"a\":}", "[1,]", "01x", "\"unterminated", "{} {}", "{\"a\" 1}"] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        parse(&nest(MAX_DEPTH)).unwrap();
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.to_string(), "nesting deeper than 64 at byte 64");
        let objects = format!("{}1{}", "{\"a\":".repeat(65), "}".repeat(65));
        assert!(parse(&objects).unwrap_err().to_string().starts_with("nesting deeper than 64"));
        // The input that used to overflow the stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn parser_builds_values() {
        let v = parse("{\"t\":5,\"kind\":\"msg-send\",\"ok\":true,\"x\":null}").unwrap();
        assert_eq!(v.get("t").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("msg-send"));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_decodes_escapes() {
        let v = parse("\"a\\\"b\\\\c\\nd\\u00e9\\u0001\"").unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{e9}\u{1}"));
        // Round-trip through our own escaper.
        let text = "quote\" back\\slash \nnewline\ttab\u{1}ctl é";
        assert_eq!(parse(&string(text)).unwrap().as_str(), Some(text));
    }

    #[test]
    fn parser_keeps_u64_numbers_exact() {
        let big = u64::MAX;
        let v = parse(&format!("[{big},-2,3.5]")).unwrap();
        match &v {
            Value::Arr(items) => {
                assert_eq!(items[0].as_u64(), Some(big));
                assert_eq!(items[1], Value::Num("-2".to_string()));
                assert_eq!(items[1].as_u64(), None);
                assert_eq!(items[2], Value::Num("3.5".to_string()));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parser_preserves_object_key_order() {
        let v = parse("{\"z\":1,\"a\":2}").unwrap();
        match v {
            Value::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn a_key_named_twice_is_refused_by_name_at_any_depth() {
        let twice = |at| ParseError::DuplicateKey { key: "t".into(), at };
        assert_eq!(parse("{\"t\":0,\"t\":999999}"), Err(twice(7)));
        assert_eq!(parse("[{\"a\":{\"t\":1, \"t\":1}}]"), Err(twice(14)));
        assert_eq!(twice(7).to_string(), "duplicate key \"t\" at byte 7");
        // The same key in two objects, or as a value, is no duplicate.
        assert!(parse("[{\"t\":0},{\"t\":1,\"u\":\"t\"}]").is_ok());
        assert!(validate("{\"rule\":\"quorum\",\"rule\":\"skeen\"}").is_err());
    }

    #[test]
    fn float_formatting_is_plain() {
        let j = Obj::new().float("v", 2.5).float("bad", f64::NAN).build();
        assert_eq!(j, "{\"v\":2.5,\"bad\":null}");
        validate(&j).unwrap();
    }
}
