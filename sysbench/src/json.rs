//! A linear-time JSON validator for the exports the benchmark checks.
//!
//! The input is a `&str`, so it is valid UTF-8 by construction; the
//! validator walks the bytes once and checks the grammar: values,
//! string escapes, unescaped control characters, number syntax, and
//! that nothing but whitespace follows the document.

/// Why a document is not valid JSON, with the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What is wrong.
    pub message: &'static str,
    /// Byte offset of the problem.
    pub offset: usize,
}

/// Nesting depth beyond which a document is refused (no exporter comes
/// near it; it bounds the recursion).
const MAX_DEPTH: usize = 128;

/// Checks that `text` is one well-formed JSON document and returns the
/// keys of its top-level object (empty if the top level is not an
/// object).
///
/// # Errors
///
/// The first grammar violation.
pub fn validate(text: &str) -> Result<Vec<String>, JsonError> {
    let mut v = Validator {
        bytes: text.as_bytes(),
        pos: 0,
        top_keys: Vec::new(),
    };
    v.value(0)?;
    v.skip_ws();
    if v.pos != v.bytes.len() {
        return v.err("trailing characters");
    }
    Ok(v.top_keys)
}

struct Validator<'a> {
    bytes: &'a [u8],
    pos: usize,
    top_keys: Vec<String>,
}

impl Validator<'_> {
    fn err<T>(&self, message: &'static str) -> Result<T, JsonError> {
        Err(JsonError {
            message,
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(message)
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(|_| ()),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &[u8]) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            self.err("invalid literal")
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return self.err("expected a string key");
            }
            let key = self.string()?;
            if depth == 0 {
                // Both ends sit on ASCII quotes, so the range is on
                // character boundaries of the (valid UTF-8) input.
                let key = String::from_utf8_lossy(&self.bytes[key]);
                self.top_keys.push(key.into_owned());
            }
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), JsonError> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    /// Checks a string and returns the byte range of its raw (still
    /// escaped) contents.
    fn string(&mut self) -> Result<std::ops::Range<usize>, JsonError> {
        self.pos += 1;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(start..self.pos - 1);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5);
                            if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                                return self.err("invalid \\u escape");
                            }
                            self.pos += 5;
                        }
                        _ => return self.err("invalid escape"),
                    }
                }
                Some(b) if b < 0x20 => return self.err("unescaped control character"),
                Some(_) => self.pos += 1,
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.err("invalid number"),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("invalid fraction");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("invalid exponent");
            }
        }
        Ok(())
    }
}

/// Checks Prometheus text exposition: every line is a `#` comment or
/// `name[{labels}] value [timestamp]` with a numeric value and an
/// integer timestamp. Returns the sample count.
///
/// # Errors
///
/// The first malformed line, 1-based.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("line {}: {line:?}", i + 1);
        let name_end = line.find(['{', ' ']).ok_or_else(bad)?;
        let name = &line[..name_end];
        let rest = if line[name_end..].starts_with('{') {
            let close = line.rfind('}').ok_or_else(bad)?;
            &line[close + 1..]
        } else {
            &line[name_end..]
        };
        let name_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        let mut fields = rest.split_whitespace();
        let value_ok = fields.next().is_some_and(|v| v.parse::<f64>().is_ok());
        let timestamp_ok = fields.next().is_none_or(|t| t.parse::<i64>().is_ok());
        if !name_ok || !value_ok || !timestamp_ok || fields.next().is_some() {
            return Err(bad());
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_documents() {
        let keys = validate(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"\u00e9y"}} "#)
            .expect("valid");
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(validate("[]").unwrap(), Vec::<String>::new());
        assert!(validate("\"plain ünïcode\"").is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"\\u12\"",
            "tru",
            "{} x",
            "\"a\nb\"",
            "{1: 2}",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(validate(&deep).is_err());
    }

    #[test]
    fn validation_is_linear_in_document_size() {
        // A few MB of plain string characters, the shape of a Perfetto
        // export; a quadratic check would take minutes here.
        let body = "x".repeat(4 << 20);
        let doc = format!("{{\"traceEvents\":[\"{body}\",\"{body}\"]}}");
        let start = std::time::Instant::now();
        assert_eq!(validate(&doc).unwrap(), ["traceEvents"]);
        assert!(start.elapsed().as_secs_f64() < 5.0);
    }

    #[test]
    fn checks_prometheus_text() {
        let ok = "# HELP a x\n# TYPE a counter\na 1\nb_total{node=\"P1\",code=\"2\"} 3.5\nc 7 64\n";
        assert_eq!(validate_prometheus(ok), Ok(3));
        assert!(validate_prometheus("c 7 6.5\n").is_err());
        assert!(validate_prometheus("c 7 64 1\n").is_err());
        assert!(validate_prometheus("a\n").is_err());
        assert!(validate_prometheus("a x\n").is_err());
        assert!(validate_prometheus("9a 1\n").is_err());
        assert!(validate_prometheus("a{x=\"1\" 1\n").is_err());
    }
}
