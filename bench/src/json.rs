//! A JSON value with a writer and a reader, enough for the result files, the
//! span file and `BENCHMARK.json`. Objects keep insertion order so that
//! rendered files are stable byte for byte.

use std::fmt::Write;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// One line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// A container holding only scalars stays on one line even when
    /// indenting, so a table of metrics reads one row per line.
    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (items, open, close): (Vec<(Option<&str>, &Json)>, char, char) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return write_num(out, *n),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(a) => (a.iter().map(|v| (None, v)).collect(), '[', ']'),
            Json::Obj(f) => (
                f.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
                '{',
                '}',
            ),
        };
        let broken = indent.filter(|_| !items.iter().all(|(_, v)| v.is_scalar()));
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = broken {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(if broken.is_some() { "," } else { ", " });
            }
            newline(out, depth + 1);
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            value.write(out, indent, depth + 1);
        }
        if !items.is_empty() {
            newline(out, depth);
        }
        out.push(close);
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.at != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(v)
    }
}

/// Shortest text that reads back to the same `f64`; whole numbers print
/// without a fraction. JSON has no NaN or infinity: those become `null` and
/// the readers reject them.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.s.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.at) {
            None => Err("unexpected end".into()),
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.expect(b':')?;
                    fields.push((k, self.value()?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Json::Obj(fields));
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Json::Arr(items));
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self.at < self.s.len()
                    && matches!(
                        self.s[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[start..self.at])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.at) != Some(&b'"') {
            return Err(format!("expected string at offset {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    self.at += 1;
                    let c = *self.s.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match c {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                        }
                        c => out.push(c),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }
}
