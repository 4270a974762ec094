//! A minimal TOML scanner — real section tracking, none of the rest.
//!
//! Produces a flat list of `(section, key, raw value)` items with line
//! numbers. Understands `[section]` headers, quoted keys, `#` comments
//! (outside strings), and multi-line arrays. Values are returned as raw
//! text for the caller to interpret; a helper extracts quoted strings.
//! This is deliberately *not* a conforming TOML parser — it is exactly
//! enough to read `lint.toml`, with zero dependencies.

/// One `key = value` item under a section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlItem {
    /// Section name as written between the brackets, e.g. `hot-paths`.
    /// Empty for top-level keys.
    pub section: String,
    /// The key, unquoted.
    pub key: String,
    /// Raw value text with comments stripped and whitespace trimmed;
    /// multi-line arrays are joined into one line.
    pub value: String,
    /// 1-based line the key appears on.
    pub line: u32,
}

/// Strip a `#` comment, respecting basic and literal strings.
fn strip_comment(line: &str) -> &str {
    let mut in_basic = false;
    let mut in_literal = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !in_literal && !prev_backslash => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '#' if !in_basic && !in_literal => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Net `[`/`]` bracket balance outside strings, for multi-line arrays.
fn bracket_balance(s: &str) -> i32 {
    let mut bal = 0i32;
    let mut in_basic = false;
    let mut in_literal = false;
    let mut prev_backslash = false;
    for c in s.chars() {
        match c {
            '"' if !in_literal && !prev_backslash => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '[' if !in_basic && !in_literal => bal += 1,
            ']' if !in_basic && !in_literal => bal -= 1,
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    bal
}

fn unquote(s: &str) -> String {
    let s = s.trim();
    if (s.starts_with('"') && s.ends_with('"') && s.len() >= 2)
        || (s.starts_with('\'') && s.ends_with('\'') && s.len() >= 2)
    {
        s[1..s.len() - 1].to_string()
    } else {
        s.to_string()
    }
}

/// Scan a TOML document into items.
pub fn scan(src: &str) -> Vec<TomlItem> {
    let mut items = Vec::new();
    let mut section = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            // Section header: `[name]` or `[[array.of.tables]]`.
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim()
                .to_string();
            continue;
        }
        if let Some(eq) = find_eq(&line) {
            let key = unquote(&line[..eq]);
            let mut value = line[eq + 1..].trim().to_string();
            let mut bal = bracket_balance(&value);
            // Multi-line array: keep consuming until brackets balance.
            while bal > 0 {
                match lines.next() {
                    Some((_, cont)) => {
                        let cont = strip_comment(cont).trim().to_string();
                        bal += bracket_balance(&cont);
                        value.push(' ');
                        value.push_str(&cont);
                    }
                    None => break,
                }
            }
            items.push(TomlItem {
                section: section.clone(),
                key,
                value,
                line: idx as u32 + 1,
            });
        }
    }
    items
}

/// Find the `=` separating key from value, outside quotes.
fn find_eq(line: &str) -> Option<usize> {
    let mut in_basic = false;
    let mut in_literal = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '=' if !in_basic && !in_literal => return Some(i),
            _ => {}
        }
    }
    None
}

/// Extract the string elements of an array value like `["a", "b"]`.
pub fn array_strings(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = value;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        match tail.find('"') {
            Some(end) => {
                out.push(tail[..end].to_string());
                rest = &tail[end + 1..];
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_and_keys() {
        let items = scan("top = 1\n[a]\nx = \"v\" # comment\n[a.b]\ny = 2\n");
        assert_eq!(
            items[0],
            TomlItem {
                section: "".into(),
                key: "top".into(),
                value: "1".into(),
                line: 1
            }
        );
        assert_eq!(items[1].section, "a");
        assert_eq!(items[1].value, "\"v\"");
        assert_eq!(items[2].section, "a.b");
    }

    #[test]
    fn multiline_array_joined() {
        let items = scan("[s]\nglobs = [\n  \"a\", # c\n  \"b\",\n]\nnext = 3\n");
        assert_eq!(items.len(), 2);
        assert_eq!(array_strings(&items[0].value), vec!["a", "b"]);
        assert_eq!(items[1].key, "next");
    }

    #[test]
    fn hash_inside_string_not_comment() {
        let items = scan("k = \"a#b\"\n");
        assert_eq!(items[0].value, "\"a#b\"");
    }
}
