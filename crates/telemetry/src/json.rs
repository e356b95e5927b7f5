//! The JSON text layer under the event wire format: the string escaper
//! and a parser for the one shape this crate emits, a single-level
//! object of string and number values. What the members *mean* is the
//! event table's business (`event.rs`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Quotes and escapes a JSON string the way the event wire format does
/// (`spotdc-obs` renders its JSON report with the same escapes).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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
    out
}

/// The members of one parsed line, by key.
pub(crate) type Fields = BTreeMap<String, JsonValue>;

/// A value in a flat JSON object: a string, or a number kept as its raw
/// token so integers parse losslessly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JsonValue {
    Str(String),
    Num(String),
}

/// Parses a single-level JSON object (`{"k":v,...}` with string or
/// numeric values — all this crate ever emits).
pub(crate) fn parse_flat_object(input: &str) -> Result<Fields, String> {
    let mut chars = input.trim().chars().peekable();
    let mut out = BTreeMap::new();
    if chars.next() != Some('{') {
        return Err("expected '{'".to_owned());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key or '}}', found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let mut raw = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        raw.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                JsonValue::Num(raw)
            }
            other => return Err(format!("unsupported value start {other:?}")),
        };
        out.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".to_owned());
    }
    Ok(out)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".to_owned());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_owned()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}
