//! A minimal JSON reader for the request/serve wire formats.
//!
//! The crate *emits* JSON by string assembly (see
//! [`sunmap_sim::sweep::json_string`]); this module is the matching
//! *reader* — just enough recursive-descent JSON to parse
//! [`crate::request::ExploreRequest`] payloads and serve frames without
//! pulling in a serialization dependency. It accepts standard JSON
//! (RFC 8259) minus some exotica nothing here emits: no `\uXXXX`
//! surrogate pairs, numbers via Rust's `f64` grammar.
//!
//! Arrays and objects may nest at most [`MAX_DEPTH`] deep. The reader
//! is recursive, so without the limit one frame of `[` repeated a
//! million times would overflow the stack and abort the whole daemon;
//! with it, such input is a [`JsonError::TooDeep`] after at most
//! [`MAX_DEPTH`] levels of recursion.

use std::collections::BTreeMap;

/// The deepest array/object nesting [`Json::parse`] accepts. Nothing
/// the tool writes nests more than a few levels.
pub(crate) const MAX_DEPTH: usize = 128;

/// Why a document did not parse.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonError {
    /// Malformed JSON; the message names the byte offset.
    Syntax(String),
    /// Arrays/objects nest deeper than [`MAX_DEPTH`]; `at` is the byte
    /// offset of the first bracket past the limit.
    TooDeep { at: usize },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(message) => f.write_str(message),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

impl From<String> for JsonError {
    fn from(message: String) -> Self {
        JsonError::Syntax(message)
    }
}

impl From<JsonError> for String {
    fn from(e: JsonError) -> Self {
        e.to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// [`JsonError::TooDeep`] past [`MAX_DEPTH`] nested arrays/objects,
    /// [`JsonError::Syntax`] for anything else malformed.
    pub(crate) fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos).into());
        }
        Ok(value)
    }

    /// The object's field, if this is an object that has it.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn eat_word(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => Ok(self.eat_word("null").map(|()| Json::Null)?),
            Some(b't') => Ok(self.eat_word("true").map(|()| Json::Bool(true))?),
            Some(b'f') => Ok(self.eat_word("false").map(|()| Json::Bool(false))?),
            Some(b'"') => Ok(self.string().map(Json::String)?),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::TooDeep { at: self.pos });
                }
                self.depth += 1;
                let container = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                container
            }
            Some(b'-' | b'0'..=b'9') => Ok(self.number()?),
            _ => Err(format!("expected a JSON value at byte {}", self.pos).into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {start}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u escape at byte {start}"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 character (input is a &str, so
                    // boundaries are sound).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid UTF-8".to_string())?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("'{text}' is not a number (byte {start})"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos).into()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos).into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(
            Json::parse("\"a\\\"b\\\\c\\u0041\"").unwrap(),
            Json::String("a\"b\\cA".to_string())
        );
        let v = Json::parse("{\"a\":[1,2,{}],\"b\":\"x\"}").unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("a"),
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.0),
                Json::Object(BTreeMap::new())
            ]))
        );
    }

    #[test]
    fn round_trips_the_emitters_escapes() {
        // Everything sunmap_sim::sweep::json_string can emit must read
        // back to the original text.
        for original in ["plain", "q\"uote", "back\\slash", "tab\there", "bell\u{7}"] {
            let emitted = sunmap_sim::sweep::json_string(original);
            assert_eq!(
                Json::parse(&emitted).unwrap(),
                Json::String(original.to_string()),
                "{emitted}"
            );
        }
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_DEPTH + 1)),
            Err(JsonError::TooDeep { at: MAX_DEPTH })
        );
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            Json::parse(&objects),
            Err(JsonError::TooDeep { at: 5 * MAX_DEPTH })
        );
    }

    #[test]
    fn a_mebibyte_of_open_brackets_is_an_error_not_a_stack_overflow() {
        let hostile = "[".repeat(1 << 20);
        let err = Json::parse(&hostile).expect_err("must not parse");
        assert_eq!(err, JsonError::TooDeep { at: MAX_DEPTH });
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "nul", "1 2", "{}x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
