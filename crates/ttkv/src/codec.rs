//! Token codec for [`Value`]s: a compact, lossless, whitespace-free text
//! encoding shared by the TTKV text (v1) export and the trace file format.
//! The on-disk store format is the binary v2 segment (`persist_v2.rs`),
//! which carries values in the binary tag space instead; this text codec
//! remains the export and trace-file encoding.
//!
//! Encoding: `n` (null), `b0`/`b1` (bool), `i<dec>` (int), `f<hex bits>`
//! (float, bit-exact), `s<escaped>` (string; backslash-escapes whitespace),
//! `l<count> <tokens…>` (list). Every token is free of spaces, so token
//! streams split on single spaces.

use crate::value::Value;

/// Escapes a string so it contains no whitespace or backslashes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
///
/// Returns a description of the first malformed escape sequence.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("dangling backslash".to_owned()),
        }
    }
    Ok(out)
}

/// Appends the token encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push('n'),
        Value::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
        Value::Int(i) => {
            out.push('i');
            out.push_str(&i.to_string());
        }
        Value::Float(f) => {
            out.push('f');
            out.push_str(&format!("{:016x}", f.to_bits()));
        }
        Value::Str(s) => {
            out.push('s');
            out.push_str(&escape(s));
        }
        Value::List(items) => {
            out.push('l');
            out.push_str(&items.len().to_string());
            for item in items {
                out.push(' ');
                encode_value(item, out);
            }
        }
    }
}

/// Encodes `value` as a standalone token string.
pub fn value_to_token(value: &Value) -> String {
    let mut out = String::new();
    encode_value(value, &mut out);
    out
}

/// Decodes one value from a space-split token stream.
///
/// # Errors
///
/// Returns a description of the problem on malformed or truncated input.
pub fn decode_value<'a, I>(tokens: &mut I) -> Result<Value, String>
where
    I: Iterator<Item = &'a str>,
{
    let token = tokens.next().ok_or("missing value token")?;
    if token.is_empty() {
        return Err("empty value token".to_owned());
    }
    let (tag, rest) = token.split_at(1);
    match tag {
        "n" if rest.is_empty() => Ok(Value::Null),
        "b" => match rest {
            "0" => Ok(Value::Bool(false)),
            "1" => Ok(Value::Bool(true)),
            _ => Err(format!("bad bool payload {rest:?}")),
        },
        "i" => rest
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| format!("bad int payload {rest:?}: {e}")),
        "f" => u64::from_str_radix(rest, 16)
            .map(|bits| Value::Float(f64::from_bits(bits)))
            .map_err(|e| format!("bad float payload {rest:?}: {e}")),
        "s" => unescape(rest).map(Value::Str),
        "l" => {
            let count: usize = rest
                .parse()
                .map_err(|e| format!("bad list length {rest:?}: {e}"))?;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(decode_value(tokens)?);
            }
            Ok(Value::List(items))
        }
        _ => Err(format!("unknown value tag {token:?}")),
    }
}

/// Decodes a standalone token string produced by [`value_to_token`].
///
/// # Errors
///
/// Returns a description of the problem on malformed input or trailing
/// tokens.
pub fn value_from_token(token: &str) -> Result<Value, String> {
    let mut tokens = token.split(' ');
    let value = decode_value(&mut tokens)?;
    if tokens.next().is_some() {
        return Err("trailing tokens after value".to_owned());
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_tokens_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Str("hello world\n\\t".to_owned()),
            Value::Str(String::new()),
        ] {
            let token = value_to_token(&v);
            assert!(
                !token.contains(' ') || matches!(v, Value::List(_)),
                "{token}"
            );
            assert_eq!(value_from_token(&token).unwrap(), v);
        }
    }

    #[test]
    fn nested_lists_roundtrip() {
        let v = Value::List(vec![
            Value::Int(1),
            Value::List(vec![Value::Str("a b".into()), Value::Null]),
            Value::Bool(false),
        ]);
        assert_eq!(value_from_token(&value_to_token(&v)).unwrap(), v);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(value_from_token("x9").is_err());
        assert!(value_from_token("").is_err());
        assert!(value_from_token("i1 i2").is_err());
        assert!(value_from_token("l2 i1").is_err());
        assert!(value_from_token("bX").is_err());
        assert!(value_from_token("szz\\q").is_err());
    }
}
