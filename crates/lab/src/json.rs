//! A minimal JSON reader — just enough for the `lab` CLI to load the
//! artifacts the lab itself emits ([`crate::report::SweepReport::to_json`]
//! full reports, [`crate::partial::PartialReport`] shard partials, and
//! [`crate::trend::BenchArtifact`] bench-trend files). Supports objects,
//! arrays, strings (with the escapes the emitters produce), numbers, bools
//! and null.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (kept as f64; report numbers are small integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys — report readers only look fields up).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer.
    ///
    /// Numbers are stored as `f64`, which represents integers exactly up
    /// to 2⁵³ — far above any counter the lab emits; anything negative,
    /// fractional, or beyond that range is rejected rather than rounded.
    ///
    /// ```
    /// use validity_lab::json::Json;
    ///
    /// assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
    /// assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    /// assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
    /// ```
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return None;
        }
        Some(n as u64)
    }
}

/// Deepest array/object nesting the parser follows. Every input is a file
/// from outside the process and the parser recurses per bracket, so an
/// unbounded depth is a stack overflow; the lab's own emitters nest fewer
/// than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Parses one array or object, refusing to go deeper than [`MAX_DEPTH`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let n: f64 = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad number at byte {start}"))?;
        // `"1e999".parse::<f64>()` is `Ok(inf)`; no emitter writes one.
        if !n.is_finite() {
            return Err(format!("number out of range at byte {start}"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .ok_or("truncated \\u escape")?;
                        self.pos += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        let c = char::from_u32(code).ok_or("bad \\u escape")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_report_shaped_documents() {
        let text = r#"{
            "matrix": "demo",
            "cell_count": 2,
            "cells": [
                {"key": "a", "type": "run", "decided": true, "latency": 120},
                {"key": "b", "type": "classify", "verdict": "unsolvable (C_S violated)"}
            ],
            "groups": []
        }"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("matrix").unwrap().as_str(), Some("demo"));
        let cells = v.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("decided"), Some(&Json::Bool(true)));
        assert_eq!(cells[0].get("latency"), Some(&Json::Num(120.0)));
    }

    #[test]
    fn roundtrips_emitter_escapes() {
        let v = Json::parse(r#"["a\"b\\c\nd", "⟨P1⟩", "\u0001"]"#).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("a\"b\\c\nd"));
        assert_eq!(arr[1].as_str(), Some("⟨P1⟩"));
        assert_eq!(arr[2].as_str(), Some("\u{1}"));
    }

    #[test]
    fn refuses_nesting_deeper_than_the_limit_for_both_brackets() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nest = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
            let at = MAX_DEPTH * open.len();
            assert_eq!(
                Json::parse(&nest(MAX_DEPTH + 1)),
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"))
            );
            // Depth counts open brackets, not brackets seen: siblings are free.
            let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 4].join(","));
            assert!(Json::parse(&wide).is_ok());
            // What used to overflow the stack is now an ordinary error.
            assert!(Json::parse(&open.repeat(200_000)).is_err());
        }
    }

    #[test]
    fn refuses_non_finite_numbers() {
        for (text, at) in [("1e999999", 0), ("[0, -1e400]", 4), ("{\"x\": 1e309}", 6)] {
            assert_eq!(
                Json::parse(text),
                Err(format!("number out of range at byte {at}"))
            );
        }
        // The largest finite double still parses; so does an underflow to 0.
        assert!(Json::parse("1.7976931348623157e308").is_ok());
        assert_eq!(Json::parse("1e-999"), Ok(Json::Num(0.0)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("true false").is_err());
    }
}
