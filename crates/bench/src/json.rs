//! Minimal JSON support for the benchmark trajectory file.
//!
//! The workspace is built offline (no `serde`), and the only JSON the harness
//! needs is the flat run-record array stored in `BENCH_solver.json`. This
//! module provides exactly that: a small value model ([`JsonValue`]), a
//! writer with string escaping, a recursive-descent parser (used both to
//! append to an existing trajectory and to *validate* emitter output in CI),
//! and the [`append_run`] helper the `bench_hotpath` target and the
//! `experiments` binary share.
//!
//! The trajectory file is a single JSON array of flat objects; appending
//! parses the existing array, pushes the new record and rewrites the file, so
//! the file is valid JSON after every write.

use std::fmt::Write as _;
use std::path::Path;

/// A parsed or to-be-written JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks a key up in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value as compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None, 0);
        out
    }

    /// Serialises the value with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: Option<usize>, level: usize) {
        let (nl, pad, pad_close) = match indent {
            Some(w) => ("\n", " ".repeat(w * (level + 1)), " ".repeat(w * level)),
            None => ("", String::new(), String::new()),
        };
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::Str(s) => render_string(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    item.render_into(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad);
                    render_string(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.render_into(out, indent, level + 1);
                }
                out.push_str(nl);
                out.push_str(&pad_close);
                out.push('}');
            }
        }
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a complete JSON document. Rejects trailing garbage.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("invalid number '{text}' at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            if self.pos + 5 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "non-utf8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
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
                    return Ok(JsonValue::Obj(pairs));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

/// Appends `run` to the JSON array stored at `path`, creating the file when it
/// does not exist. The file is rewritten in full so it is valid JSON after
/// every append; a malformed existing file is reported as an error rather
/// than silently overwritten.
pub fn append_run(path: &Path, run: JsonValue) -> Result<(), String> {
    append_runs(path, vec![run])
}

/// Batch variant of [`append_run`]: one read, one parse, one write for any
/// number of new records.
pub fn append_runs(path: &Path, new_runs: Vec<JsonValue>) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) if !text.trim().is_empty() => match parse(&text)? {
            JsonValue::Arr(items) => items,
            other => {
                return Err(format!(
                    "{} exists but is not a JSON array (found {other:?})",
                    path.display()
                ))
            }
        },
        _ => Vec::new(),
    };
    runs.extend(new_runs);
    let rendered = JsonValue::Arr(runs).render_pretty();
    std::fs::write(path, rendered).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Keys every record of the shared trajectory carries, whatever its schema
/// (the maxclique records aside, which check their own set).
pub const COMMON_KEYS: [&str; 6] = ["schema", "variant", "graph", "preset", "seconds", "cliques"];

/// Appends `new_runs` to the trajectory at `path`, re-reads it and checks
/// every record of `schema` for [`COMMON_KEYS`] plus `keys` (the check the CI
/// smoke job relies on). The file is shared by every benchmark, so records of
/// other schemas, which carry other keys, are left to their own emitters.
/// Returns the number of `schema` records in the file.
pub fn append_validated(
    path: &Path,
    new_runs: Vec<JsonValue>,
    schema: &str,
    keys: &[&str],
) -> Result<usize, String> {
    append_runs(path, new_runs)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("re-reading {}: {e}", path.display()))?;
    let parsed = parse(&text)?;
    let runs = parsed
        .as_array()
        .ok_or_else(|| format!("{} is not a JSON array", path.display()))?;
    let mut count = 0;
    for run in runs {
        if run.get("schema").and_then(JsonValue::as_str) != Some(schema) {
            continue;
        }
        count += 1;
        if let Some(key) = COMMON_KEYS
            .iter()
            .chain(keys)
            .find(|key| run.get(key).is_none())
        {
            return Err(format!("{schema} record missing key '{key}'"));
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalar_values() {
        for text in ["null", "true", "false", "42", "-3.5", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.render()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn roundtrip_nested_structure() {
        let v = JsonValue::obj(vec![
            ("graph", JsonValue::Str("er_n200".into())),
            ("seconds", JsonValue::Num(0.125)),
            ("cliques", JsonValue::Num(1234.0)),
            (
                "tags",
                JsonValue::Arr(vec![JsonValue::Str("a\"b\\c\n".into()), JsonValue::Null]),
            ),
        ]);
        let compact = v.render();
        let pretty = v.render_pretty();
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn object_lookup_helpers() {
        let v = parse("{\"a\": 1.5, \"b\": \"x\", \"c\": [2]}").unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(JsonValue::as_array).map(|a| a.len()),
            Some(1)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn append_creates_then_extends_array() {
        let dir = std::env::temp_dir().join("mce_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trajectory.json");
        let _ = std::fs::remove_file(&path);

        append_run(&path, JsonValue::obj(vec![("run", JsonValue::Num(1.0))])).unwrap();
        append_run(&path, JsonValue::obj(vec![("run", JsonValue::Num(2.0))])).unwrap();

        let parsed = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let runs = parsed.as_array().expect("array");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("run").and_then(JsonValue::as_f64), Some(2.0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_refuses_non_array_files() {
        let dir = std::env::temp_dir().join("mce_bench_json_test_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not_array.json");
        std::fs::write(&path, "{\"not\": \"an array\"}").unwrap();
        assert!(append_run(&path, JsonValue::Null).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
