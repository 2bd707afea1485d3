//! `lint.toml` parsing.
//!
//! The linter is dependency-free, so this module implements the small TOML
//! subset the committed configuration actually uses: `[section]` headers,
//! `key = "string"` and (possibly multi-line) arrays of strings. Unknown
//! sections and keys are hard errors — a typo in the rule configuration
//! must not silently disable a rule.

use std::collections::BTreeMap;

/// One rule's raw configuration: string and string-array keys.
#[derive(Debug, Default, Clone)]
pub struct Section {
    strings: BTreeMap<String, String>,
    arrays: BTreeMap<String, Vec<String>>,
}

impl Section {
    /// A string value.
    pub fn string(&self, key: &str) -> Option<&str> {
        self.strings.get(key).map(String::as_str)
    }

    /// An array-of-strings value (empty slice when absent).
    pub fn array(&self, key: &str) -> &[String] {
        self.arrays.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every key present in this section (for validation).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.strings.keys().chain(self.arrays.keys()).map(String::as_str)
    }
}

/// The parsed configuration: one [`Section`] per `[rule]` header.
#[derive(Debug, Default, Clone)]
pub struct Config {
    sections: BTreeMap<String, Section>,
}

impl Config {
    /// Parse a `lint.toml` document.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut current: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().to_string();
                if config.sections.contains_key(&name) {
                    return Err(format!("line {lineno}: duplicate section [{name}]"));
                }
                config.sections.insert(name.clone(), Section::default());
                current = Some(name);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`, got `{line}`"));
            };
            let Some(section) = current.as_ref() else {
                return Err(format!("line {lineno}: `{line}` outside any [section]"));
            };
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            if value.starts_with('[') {
                // Array, possibly spanning lines: accumulate until the
                // bracket balance closes outside strings.
                while !array_closed(&value) {
                    let Some((_, next)) = lines.next() else {
                        return Err(format!("line {lineno}: unterminated array for `{key}`"));
                    };
                    value.push('\n');
                    value.push_str(strip_comment(next).trim());
                }
                let items = parse_string_array(&value)
                    .map_err(|e| format!("line {lineno}: array for `{key}`: {e}"))?;
                config.sections.get_mut(section).unwrap().arrays.insert(key, items);
            } else if let Some(s) = parse_string(&value) {
                config.sections.get_mut(section).unwrap().strings.insert(key, s);
            } else {
                return Err(format!("line {lineno}: unsupported value `{value}` for `{key}`"));
            }
        }
        Ok(config)
    }

    /// A section by rule name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.get(name)
    }

    /// Every configured section name.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }
}

/// Strip a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// Whether an accumulated array literal has balanced brackets outside
/// strings.
fn array_closed(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for c in value.chars() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
        escaped = false;
    }
    depth == 0
}

/// Parse `"…"` into its contents (no escape support needed for paths).
fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

/// Parse `["a", "b", …]` into its items.
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|v| v.trim_end().strip_suffix(']'))
        .ok_or("not an array")?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        items.push(parse_string(part).ok_or_else(|| format!("`{part}` is not a string"))?);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_arrays_and_bools() {
        let config = Config::parse(
            r#"
            # top comment
            [wall-clock]
            crates = ["crates/core/src", "crates/sim/src"] # trailing comment
            banned-modules = [
                "std::time",
            ]
            [no-unsafe]
            require-forbid = ["src/lib.rs"]
            label = "forbid"
            "#,
        )
        .unwrap();
        let wc = config.section("wall-clock").unwrap();
        assert_eq!(wc.array("crates"), ["crates/core/src", "crates/sim/src"]);
        assert_eq!(wc.array("banned-modules"), ["std::time"]);
        let nu = config.section("no-unsafe").unwrap();
        assert_eq!(nu.string("label"), Some("forbid"));
        // No rule key is boolean, so a bare `true` is an unsupported value.
        assert!(Config::parse("[no-unsafe]\nstrict = true").is_err());
    }

    #[test]
    fn rejects_keys_outside_sections_and_bad_values() {
        assert!(Config::parse("key = \"v\"").is_err());
        assert!(Config::parse("[a]\nkey = 12notastring").is_err());
        assert!(Config::parse("[a]\n[a]").is_err());
    }
}
