//! A minimal self-contained JSON reader/writer (objects, arrays,
//! strings with escapes, numbers, booleans, null).
//!
//! Grown out of the `mpvar-trace/v1` schema validator and shared so
//! other hand-rolled newline-delimited JSON protocols in the workspace
//! (e.g. `mpvar-serve/v1`) parse and emit with one implementation
//! instead of three. It is a *subset* of JSON sufficient for
//! machine-produced line protocols — not a general-purpose document
//! parser: numbers are `f64`, object keys are unique (last wins), and
//! `\u` escapes outside the BMP are replaced, not paired. Arrays and
//! objects nest at most 64 levels deep, so a hostile line cannot
//! recurse the parser off its thread's stack.

use std::collections::BTreeMap;

/// Deepest array/object nesting the parser accepts. The deepest
/// document the workspace writes nests about 5 levels.
const MAX_DEPTH: usize = 64;

/// A JSON object: string-keyed, insertion order not preserved.
pub type Obj = BTreeMap<String, Json>;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Obj),
}

impl Json {
    /// The object map, if this value is an object.
    pub fn as_object(&self) -> Option<&Obj> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The string contents, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one complete JSON value; trailing content is an error.
///
/// # Errors
///
/// A human-readable description of the first syntax problem.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        chars: text.chars().collect(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.chars.len() {
        return Err(format!("trailing content at offset {}", parser.pos));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Object field accessors — shared result-flavoured lookups for schema
// validators built on this parser.
// ---------------------------------------------------------------------

/// A required string field.
///
/// # Errors
///
/// When the key is missing or not a string.
pub fn get_str<'a>(obj: &'a Obj, key: &str) -> Result<&'a str, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(format!("`{key}` must be a string")),
        None => Err(format!("missing `{key}`")),
    }
}

/// A required numeric field (`null` reads as NaN).
///
/// # Errors
///
/// When the key is missing or not a number.
pub fn get_f64(obj: &Obj, key: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(Json::Null) => Ok(f64::NAN),
        Some(_) => Err(format!("`{key}` must be a number")),
        None => Err(format!("missing `{key}`")),
    }
}

/// A required non-negative integer field.
///
/// # Errors
///
/// When the key is missing, not a number, or not a non-negative
/// integer.
pub fn get_u64(obj: &Obj, key: &str) -> Result<u64, String> {
    let n = match obj.get(key) {
        Some(Json::Num(n)) => *n,
        Some(_) => return Err(format!("`{key}` must be a number")),
        None => return Err(format!("missing `{key}`")),
    };
    to_u64(n).map_err(|m| format!("`{key}`: {m}"))
}

/// Converts an `f64` that must hold a non-negative integer.
///
/// # Errors
///
/// When the value is negative, fractional, or out of `u64` range.
pub fn to_u64(n: f64) -> Result<u64, String> {
    if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
        Ok(n as u64)
    } else {
        Err(format!("{n} is not a non-negative integer"))
    }
}

/// A required array-of-numbers field (`null` elements read as NaN).
///
/// # Errors
///
/// When the key is missing, not an array, or holds non-numbers.
pub fn get_f64_array(obj: &Obj, key: &str) -> Result<Vec<f64>, String> {
    let Some(Json::Arr(items)) = obj.get(key) else {
        return Err(format!("`{key}` must be an array"));
    };
    items
        .iter()
        .map(|v| match v {
            Json::Num(n) => Ok(*n),
            Json::Null => Ok(f64::NAN),
            _ => Err(format!("`{key}` must contain numbers")),
        })
        .collect()
}

/// A required array-of-non-negative-integers field.
///
/// # Errors
///
/// When the key is missing, not an array, or holds anything that is
/// not a non-negative integer.
pub fn get_u64_array(obj: &Obj, key: &str) -> Result<Vec<u64>, String> {
    get_f64_array(obj, key)?
        .into_iter()
        .map(|n| to_u64(n).map_err(|m| format!("`{key}`: {m}")))
        .collect()
}

/// A required array-of-strings field.
///
/// # Errors
///
/// When the key is missing, not an array, or holds non-strings.
pub fn get_str_array(obj: &Obj, key: &str) -> Result<Vec<String>, String> {
    let Some(Json::Arr(items)) = obj.get(key) else {
        return Err(format!("`{key}` must be an array"));
    };
    items
        .iter()
        .map(|v| match v {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(format!("`{key}` must contain strings")),
        })
        .collect()
}

/// Appends `text` to `out` as a JSON string literal (quotes included),
/// escaping quotes, backslashes, and control characters.
pub fn push_json_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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
    out.push('"');
}

/// Appends `v` to `out` as a JSON number (`null` for non-finite
/// values, which JSON cannot represent).
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        let got = self.bump()?;
        if got == c {
            Ok(())
        } else {
            Err(format!("expected `{c}`, got `{got}`"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for expected in word.chars() {
            self.expect(expected)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            open @ ('{' | '[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == '{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            '"' => Ok(Json::Str(self.string()?)),
            't' => self.literal("true", Json::Bool(true)),
            'f' => self.literal("false", Json::Bool(false)),
            'n' => self.literal("null", Json::Null),
            '-' | '0'..='9' => self.number(),
            other => Err(format!("unexpected character `{other}`")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = Obj::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                '}' => return Ok(Json::Obj(map)),
                other => return Err(format!("expected `,` or `}}`, got `{other}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                ']' => return Ok(Json::Arr(items)),
                other => return Err(format!("expected `,` or `]`, got `{other}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .bump()?
                                .to_digit(16)
                                .ok_or("invalid \\u escape digit")?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("invalid escape `\\{other}`")),
                },
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some('0'..='9' | '.' | 'e' | 'E' | '+' | '-')) {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let value = parse_json(r#"{"a":[1,2.5,-3e2],"b":"xA\n","c":{"d":null}}"#).expect("parses");
        let obj = value.as_object().expect("object");
        assert_eq!(obj["b"], Json::Str("xA\n".to_string()));
        let Json::Arr(items) = &obj["a"] else {
            panic!("array expected")
        };
        assert_eq!(items[2], Json::Num(-300.0));
    }

    #[test]
    fn emitted_strings_parse_back() {
        let nasty = "line\nquote\" back\\slash \t ctrl\u{1} uni\u{e9}";
        let mut out = String::new();
        push_json_str(&mut out, nasty);
        assert_eq!(parse_json(&out), Ok(Json::Str(nasty.to_string())));
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse_json(&over)
            .unwrap_err()
            .contains("nesting deeper than"));
        let err = parse_json(&"[".repeat(65_536)).unwrap_err();
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
        let err = parse_json(&r#"{"a":"#.repeat(65_536)).unwrap_err();
        assert!(err.contains("nesting deeper than 64 levels"), "{err}");
    }

    #[test]
    fn accessor_errors_name_the_key() {
        let value = parse_json(r#"{"n":-1,"s":"x","a":["y"]}"#).expect("parses");
        let obj = value.as_object().expect("object");
        assert!(get_u64(obj, "n").unwrap_err().contains("`n`"));
        assert!(get_str(obj, "missing").unwrap_err().contains("missing"));
        assert_eq!(get_str_array(obj, "a"), Ok(vec!["y".to_string()]));
        assert!(get_f64_array(obj, "a").is_err());
    }
}
