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
use std::fmt::Write as _;

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
    /// Any number an `f64` holds exactly enough: every non-integer,
    /// and every integer below 2^53.
    Num(f64),
    /// A plain-digit integer from 2^53 up to `u64::MAX`, which an
    /// `f64` would round: a `u64` seed keeps every bit.
    BigUint(u64),
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
    f64::member(obj, key)
}

/// A required non-negative integer field.
///
/// # Errors
///
/// When the key is missing, not a number, or not a non-negative
/// integer.
pub fn get_u64(obj: &Obj, key: &str) -> Result<u64, String> {
    u64::member(obj, key)
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

/// Appends `v` to `out` as a JSON number: the shortest spelling that
/// parses back to the same bits (`1` for `1.0`, `-0` for `-0.0`), or
/// `null` for a non-finite value, which JSON cannot represent.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

// ---------------------------------------------------------------------
// One layout per record
// ---------------------------------------------------------------------

/// A value with one JSON layout: `put` writes it and `get` reads it
/// back. [`json_record!`](crate::json_record) and
/// [`json_tagged!`](crate::json_tagged) derive both from one list of a
/// struct's fields or an enum's variants.
pub trait JsonCodec: Sized {
    /// Appends the value's JSON spelling to `out`.
    fn put(&self, out: &mut String);

    /// Reads the value back from parsed JSON.
    ///
    /// # Errors
    ///
    /// The first shape or range problem, led by the keys on the way to
    /// it (`` `latencies`: `cold`: `count`: must be a number ``).
    fn get(value: &Json) -> Result<Self, String>;

    /// Whether an `#[optional]` field holding this value is left off
    /// the line: `None` and empty collections are.
    fn omitted(&self) -> bool {
        false
    }

    /// Reads the required member `key` of `obj`: an error when it is
    /// missing or [`get`](JsonCodec::get) fails.
    fn member(obj: &Obj, key: &str) -> Result<Self, String> {
        let value = obj.get(key).ok_or_else(|| format!("missing `{key}`"))?;
        Self::get(value).map_err(|e| format!("`{key}`: {e}"))
    }

    /// Appends the members of this value's JSON object, each led by a
    /// comma, to an object already open in `out`.
    fn put_fields(&self, out: &mut String) {
        let start = out.len();
        self.put(out);
        out.pop(); // the `}`: the enclosing object closes itself
        if out.len() == start + 1 {
            out.truncate(start); // `{}` has no members
        } else {
            out.replace_range(start..=start, ",");
        }
    }
}

/// 2^53: every decimal integer below it parses to itself as an `f64`,
/// and every one above it rounds to at least it. Plain-digit integers
/// from here to `u64::MAX` parse as [`Json::BigUint`] instead.
const EXACT_INTEGERS: u64 = 1 << 53;

macro_rules! integer_codec {
    ($($ty:ty),+) => {$(
        impl JsonCodec for $ty {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn get(value: &Json) -> Result<Self, String> {
                match value {
                    Json::BigUint(n) => {
                        <$ty>::try_from(*n).map_err(|_| format!("{n} is out of range"))
                    }
                    // A `Num` this large was rounded: 2^64 and up, or
                    // written with a fraction or an exponent.
                    Json::Num(n) if *n >= EXACT_INTEGERS as f64 => Err(format!(
                        "{n} is out of range: from 2^53 on, an integer must be plain digits up to 18446744073709551615"
                    )),
                    Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= <$ty>::MAX as f64 => {
                        Ok(*n as $ty)
                    }
                    Json::Num(n) => Err(format!("{n} is not a non-negative integer")),
                    _ => Err("must be a number".to_string()),
                }
            }
        }
    )+};
}

integer_codec!(u64, usize);

impl JsonCodec for f64 {
    fn put(&self, out: &mut String) {
        push_json_f64(out, *self);
    }

    fn get(value: &Json) -> Result<Self, String> {
        match value {
            Json::Num(n) => Ok(*n),
            Json::BigUint(n) => Ok(*n as f64),
            Json::Null => Ok(f64::NAN), // how a non-finite value is written
            _ => Err("must be a number".to_string()),
        }
    }
}

impl JsonCodec for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn get(value: &Json) -> Result<Self, String> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err("must be a boolean".to_string()),
        }
    }
}

impl JsonCodec for String {
    fn put(&self, out: &mut String) {
        push_json_str(out, self);
    }

    fn get(value: &Json) -> Result<Self, String> {
        let text = value.as_str().ok_or("must be a string")?;
        Ok(text.to_string())
    }
}

impl<T: JsonCodec> JsonCodec for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }

    fn get(value: &Json) -> Result<Self, String> {
        match value {
            Json::Null => Ok(None),
            v => T::get(v).map(Some),
        }
    }

    fn omitted(&self) -> bool {
        self.is_none()
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn put(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.put(out);
        }
        out.push(']');
    }

    fn get(value: &Json) -> Result<Self, String> {
        let Json::Arr(items) = value else {
            return Err("must be an array".to_string());
        };
        let item = |(i, v)| T::get(v).map_err(|e| format!("item {i}: {e}"));
        items.iter().enumerate().map(item).collect()
    }

    fn omitted(&self) -> bool {
        self.is_empty()
    }
}

impl<T: JsonCodec> JsonCodec for BTreeMap<String, T> {
    fn put(&self, out: &mut String) {
        out.push('{');
        for (i, (key, item)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, key);
            out.push(':');
            item.put(out);
        }
        out.push('}');
    }

    fn get(value: &Json) -> Result<Self, String> {
        let members = value.as_object().ok_or("must be an object")?;
        let member = |(key, v): (&String, _)| match T::get(v) {
            Ok(item) => Ok((key.clone(), item)),
            Err(e) => Err(format!("`{key}`: {e}")),
        };
        members.iter().map(member).collect()
    }

    fn omitted(&self) -> bool {
        self.is_empty()
    }
}

/// Implements [`JsonCodec`] for a struct from one list of its fields,
/// in wire order:
///
/// ```
/// # use mpvar_trace::json::{parse_json, JsonCodec};
/// struct Window { seq: u64, tag: Option<String>, busy: bool }
/// mpvar_trace::json_record!(Window { seq, #[optional] tag, #[optional] busy });
///
/// let mut line = String::new();
/// Window { seq: 3, tag: None, busy: false }.put(&mut line);
/// assert_eq!(line, r#"{"seq":3,"busy":false}"#);
/// let back = Window::get(&parse_json(r#"{"seq":3}"#).unwrap()).unwrap();
/// assert!(back.tag.is_none() && !back.busy);
/// ```
///
/// A bare field is required. `#[optional]` leaves a field off when
/// [`JsonCodec::omitted`] and reads its `Default` when absent;
/// `#[flatten]` writes a record's members into this object and reads
/// them from it; `#[with(m)]` writes with `m::put(&value, out)` and
/// reads with `m::get(obj, key)`, for a type from a crate that cannot
/// implement this one's trait. A trailing `, unknown "what"` rejects a
/// member not in the list (so no field may be flattened), and
/// `, check path` runs `path(&record) -> Result<(), String>` on each
/// record read.
#[macro_export]
macro_rules! json_record {
    (@put $out:ident, $v:expr, $field:ident) => {{
        $out.push_str(concat!(",\"", stringify!($field), "\":"));
        $crate::json::JsonCodec::put(&$v, $out);
    }};
    (@put $out:ident, $v:expr, $field:ident, optional) => {
        if !$crate::json::JsonCodec::omitted(&$v) {
            $crate::json_record!(@put $out, $v, $field);
        }
    };
    (@put $out:ident, $v:expr, $field:ident, flatten) => {
        $crate::json::JsonCodec::put_fields(&$v, $out)
    };
    (@put $out:ident, $v:expr, $field:ident, with($m:ident)) => {{
        $out.push_str(concat!(",\"", stringify!($field), "\":"));
        $m::put(&$v, $out);
    }};
    (@get $obj:ident, $value:ident, $field:ident) => {
        $crate::json::JsonCodec::member($obj, stringify!($field))
    };
    (@get $obj:ident, $value:ident, $field:ident, optional) => {
        match $obj.get(stringify!($field)) {
            Some(_) => $crate::json::JsonCodec::member($obj, stringify!($field)),
            None => Ok(Default::default()),
        }
    };
    (@get $obj:ident, $value:ident, $field:ident, flatten) => {
        $crate::json::JsonCodec::get($value)
    };
    (@get $obj:ident, $value:ident, $field:ident, with($m:ident)) => {
        $m::get($obj, stringify!($field))
    };
    (
        $ty:ident { $( $(#[$($mode:tt)+])? $field:ident ),* $(,)? }
        $(, unknown $what:literal)?
        $(, check $check:expr)?
    ) => {
        impl $crate::json::JsonCodec for $ty {
            fn put(&self, out: &mut String) {
                let start = out.len();
                $( $crate::json_record!(@put out, self.$field, $field $(, $($mode)+)?); )*
                // Each member is led by a comma; the first one's opens.
                if out.len() == start {
                    out.push('{');
                } else {
                    out.replace_range(start..=start, "{");
                }
                out.push('}');
            }

            fn get(value: &$crate::json::Json) -> Result<Self, String> {
                let obj = value.as_object().ok_or("must be an object")?;
                let _members: &[&str] = &[$(stringify!($field)),*];
                $(
                    if let Some(key) = obj.keys().find(|k| !_members.contains(&k.as_str())) {
                        return Err(format!(concat!("unknown ", $what, " `{}`"), key));
                    }
                )?
                let record = $ty {
                    $( $field: $crate::json_record!(@get obj, value, $field $(, $($mode)+)?)?, )*
                };
                $( $check(&record)?; )?
                Ok(record)
            }
        }
    };
}

/// Implements [`JsonCodec`] for an enum written as one object whose
/// `key` member names the variant and whose other members are the
/// variant's: a `V(Record)` variant's are its record's, and a
/// `V { fields }` variant lists them as
/// [`json_record!`](crate::json_record) does (`V {}` for a unit
/// variant), invoked as `json_tagged! { Ty, "key", "what" { "tag" =>
/// Variant .., } }`. An unknown name reads as ``unknown what `name` ``,
/// and a trailing `, check path` runs on each value read.
#[macro_export]
macro_rules! json_tagged {
    (@put $self:ident, $out:ident, $variant:ident ($inner:ty)) => {
        if let Self::$variant(inner) = $self {
            $crate::json::JsonCodec::put_fields(inner, $out);
        }
    };
    (@put $self:ident, $out:ident, $variant:ident { $( $(#[$($mode:tt)+])? $field:ident ),* }) => {
        if let Self::$variant { $($field),* } = $self {
            $( $crate::json_record!(@put $out, (*$field), $field $(, $($mode)+)?); )*
        }
    };
    (@get $obj:ident, $value:ident, $variant:ident ($inner:ty)) => {
        <$inner as $crate::json::JsonCodec>::get($value).map(Self::$variant)
    };
    (@get $obj:ident, $value:ident, $variant:ident { $( $(#[$($mode:tt)+])? $field:ident ),* }) => {
        Ok(Self::$variant {
            $( $field: $crate::json_record!(@get $obj, $value, $field $(, $($mode)+)?)?, )*
        })
    };
    (
        $ty:ident, $key:literal, $what:literal {
            $( $tag:literal => $variant:ident $(($inner:ty))? $({ $($body:tt)* })? ),+ $(,)?
        }
        $(, check $check:expr)?
    ) => {
        impl $crate::json::JsonCodec for $ty {
            fn put(&self, out: &mut String) {
                let tag = match self {
                    $( Self::$variant { .. } => $tag, )+
                };
                out.push_str(concat!("{\"", $key, "\":"));
                $crate::json::push_json_str(out, tag);
                $( $crate::json_tagged!(@put self, out, $variant $(($inner))? $({ $($body)* })?); )+
                out.push('}');
            }

            fn get(value: &$crate::json::Json) -> Result<Self, String> {
                let obj = value.as_object().ok_or("must be an object")?;
                let read: Self = match $crate::json::get_str(obj, $key)? {
                    $(
                        $tag => $crate::json_tagged!(
                            @get obj, value, $variant $(($inner))? $({ $($body)* })?
                        ),
                    )+
                    other => Err(format!(concat!("unknown ", $what, " `{}`"), other)),
                }?;
                $( $check(&read)?; )?
                Ok(read)
            }
        }
    };
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
        if let Ok(n) = text.parse::<u64>() {
            if n >= EXACT_INTEGERS && text.bytes().all(|b| b.is_ascii_digit()) {
                return Ok(Json::BigUint(n));
            }
        }
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
        assert_eq!(Vec::<String>::get(&obj["a"]), Ok(vec!["y".to_string()]));
        assert!(Vec::<f64>::get(&obj["a"]).is_err());
    }

    #[test]
    fn the_float_writer_round_trips_every_bit() {
        for v in [
            1.0,
            -0.0,
            1e-300,
            5e-324,
            1e300,
            f64::MAX,
            0.1,
            92_499.999_999_999_99,
        ] {
            let mut out = String::new();
            v.put(&mut out);
            let back = f64::get(&parse_json(&out).expect("parses")).expect("a number");
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} written as {out}");
        }
        let mut out = String::new();
        f64::NAN.put(&mut out);
        assert_eq!(out, "null");
    }

    #[test]
    fn integers_reject_fractions_signs_and_overflow() {
        for bad in ["-1", "1.5", "1e30", "\"7\"", "null"] {
            let value = parse_json(bad).expect("parses");
            assert!(u64::get(&value).is_err(), "{bad}");
        }
        assert_eq!(u64::get(&Json::Num(9.0)), Ok(9));
    }

    #[test]
    fn big_integers_are_exact_or_refused() {
        let read = |text: &str| u64::get(&parse_json(text).expect("parses"));
        assert_eq!(read("9007199254740991"), Ok((1 << 53) - 1));
        assert_eq!(read("9007199254740993"), Ok((1 << 53) + 1));
        assert_eq!(read("18446744073709551615"), Ok(u64::MAX));
        // Past u64, or not plain digits: the f64 rounded it.
        for big in ["18446744073709551616", "9007199254740993.0", "1e300"] {
            let err = read(big).expect_err(big);
            assert!(err.contains("out of range"), "{big}: {err}");
        }
        assert_eq!(
            parse_json("9007199254740993"),
            Ok(Json::BigUint((1 << 53) + 1))
        );
        assert_eq!(
            f64::get(&Json::BigUint(u64::MAX)),
            Ok(18_446_744_073_709_551_615.0)
        );
    }

    struct Inner {
        a: u64,
        b: Option<String>,
    }
    crate::json_record!(Inner {
        a,
        #[optional]
        b
    });

    struct Outer {
        tag: String,
        inner: Inner,
        list: Vec<u64>,
    }
    crate::json_record!(Outer {
        tag,
        #[flatten]
        inner,
        #[optional]
        list
    });

    struct Closed {
        a: u64,
    }
    crate::json_record!(Closed { a }, unknown "member");

    #[test]
    fn records_write_their_list_once_and_read_it_back() {
        let mut out = String::new();
        let outer = Outer {
            tag: "x".into(),
            inner: Inner { a: 1, b: None },
            list: vec![],
        };
        outer.put(&mut out);
        assert_eq!(out, r#"{"tag":"x","a":1}"#);
        let back = Outer::get(&parse_json(r#"{"tag":"y","a":2,"b":"z","list":[3]}"#).unwrap())
            .expect("reads");
        assert_eq!((back.inner.a, back.inner.b.as_deref()), (2, Some("z")));
        assert_eq!(back.list, vec![3]);
        let err = Closed::get(&parse_json(r#"{"a":2,"c":1}"#).unwrap()).err();
        assert_eq!(err.as_deref(), Some("unknown member `c`"));
        let err = Outer::get(&parse_json(r#"{"a":2}"#).unwrap()).err();
        assert_eq!(err.as_deref(), Some("missing `tag`"));
        let err = Outer::get(&parse_json(r#"{"tag":"y","a":-2}"#).unwrap()).err();
        assert_eq!(
            err.as_deref(),
            Some("`a`: -2 is not a non-negative integer")
        );
    }
}
