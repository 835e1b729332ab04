//! A small parser for the YAML subset used by HPC-MixPBench configuration
//! files (Listing 4 of the paper): nested maps keyed by indentation, flow
//! lists (`[ 'make' ]`), block lists (`- item`), and single-quoted or plain
//! scalars. Comments (`#`) and blank lines are ignored.
//!
//! This is deliberately *not* a general YAML implementation — anchors, flow
//! maps, multi-line strings and type tags are out of scope — but it parses
//! every configuration file the suite ships, and rejects what it cannot
//! parse instead of guessing.

use std::fmt;

/// A parsed YAML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A scalar (quotes stripped; no numeric coercion).
    Scalar(String),
    /// A list of values.
    List(Vec<Value>),
    /// A map in file order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The scalar contents, if this is a scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// The list items, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key, if this is a map.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Map entries in file order, if this is a map.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Descends a path of keys through nested maps.
    pub fn path(&self, keys: &[&str]) -> Option<&Value> {
        let mut cur = self;
        for k in keys {
            cur = cur.get(k)?;
        }
        Some(cur)
    }
}

/// Error produced when the input falls outside the supported subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// Innermost enclosing map key, when the error occurred inside a
    /// nested block (so `analysis:\n  garbage` reports `analysis`).
    pub key: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn at(line: usize, message: String) -> Self {
        ParseError {
            line,
            key: None,
            message,
        }
    }

    /// Attaches the enclosing key, keeping the innermost one on the way
    /// out of nested blocks.
    fn under(mut self, key: &str) -> Self {
        if self.key.is_none() {
            self.key = Some(key.to_string());
        }
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.key {
            Some(key) => write!(
                f,
                "yaml parse error at line {} (under `{key}`): {}",
                self.line, self.message
            ),
            None => write!(
                f,
                "yaml parse error at line {}: {}",
                self.line, self.message
            ),
        }
    }
}

impl std::error::Error for ParseError {}

struct Line {
    number: usize,
    indent: usize,
    content: String,
}

fn significant_lines(input: &str) -> Vec<Line> {
    input
        .lines()
        .enumerate()
        .filter_map(|(i, raw)| {
            let without_comment = strip_comment(raw);
            let trimmed = without_comment.trim_end();
            let content = trimmed.trim_start();
            if content.is_empty() {
                return None;
            }
            Some(Line {
                number: i + 1,
                indent: trimmed.len() - content.len(),
                content: content.to_string(),
            })
        })
        .collect()
}

/// Strips a `#` comment, respecting single-quoted spans.
fn strip_comment(raw: &str) -> &str {
    let mut in_quote = false;
    for (idx, ch) in raw.char_indices() {
        match ch {
            '\'' => in_quote = !in_quote,
            '#' if !in_quote => return &raw[..idx],
            _ => {}
        }
    }
    raw
}

fn unquote(s: &str) -> String {
    let t = s.trim();
    if t.len() >= 2 && t.starts_with('\'') && t.ends_with('\'') {
        t[1..t.len() - 1].to_string()
    } else {
        t.to_string()
    }
}

/// Parses a flow list like `[ 'make', 'make clean' ]`.
fn parse_flow_list(s: &str, line: usize) -> Result<Value, ParseError> {
    let inner = s
        .trim()
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
        .ok_or_else(|| ParseError::at(line, "malformed flow list".to_string()))?;
    let items: Vec<Value> = split_flow_items(inner)
        .into_iter()
        .filter(|item| !item.trim().is_empty())
        .map(|item| Value::Scalar(unquote(&item)))
        .collect();
    Ok(Value::List(items))
}

/// Splits flow-list items on commas outside quotes.
fn split_flow_items(s: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    for ch in s.chars() {
        match ch {
            '\'' => {
                in_quote = !in_quote;
                cur.push(ch);
            }
            ',' if !in_quote => {
                items.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    items.push(cur);
    items
}

/// Parses a complete document into its root map.
///
/// # Errors
///
/// Returns [`ParseError`] on inconsistent indentation, unterminated quotes
/// or any construct outside the supported subset.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let lines = significant_lines(input);
    let (value, consumed) = parse_block(&lines, 0, 0)?;
    if consumed != lines.len() {
        return Err(ParseError::at(
            lines[consumed].number,
            "unexpected dedent/indent structure".to_string(),
        ));
    }
    Ok(value)
}

/// Parses the block starting at `start` whose members share `indent`.
fn parse_block(lines: &[Line], start: usize, indent: usize) -> Result<(Value, usize), ParseError> {
    if start >= lines.len() {
        return Ok((Value::Map(Vec::new()), start));
    }
    if lines[start].content.starts_with("- ") || lines[start].content == "-" {
        parse_list_block(lines, start, indent)
    } else {
        parse_map_block(lines, start, indent)
    }
}

fn parse_list_block(
    lines: &[Line],
    start: usize,
    indent: usize,
) -> Result<(Value, usize), ParseError> {
    let mut items = Vec::new();
    let mut i = start;
    while i < lines.len() && lines[i].indent == indent {
        let line = &lines[i];
        let Some(rest) = line.content.strip_prefix('-') else {
            break;
        };
        let rest = rest.trim();
        if rest.is_empty() {
            return Err(ParseError::at(
                line.number,
                "nested block sequences are not supported".to_string(),
            ));
        }
        items.push(Value::Scalar(unquote(rest)));
        i += 1;
    }
    Ok((Value::List(items), i))
}

fn parse_map_block(
    lines: &[Line],
    start: usize,
    indent: usize,
) -> Result<(Value, usize), ParseError> {
    let mut entries: Vec<(String, Value)> = Vec::new();
    let mut i = start;
    while i < lines.len() {
        let line = &lines[i];
        if line.indent < indent {
            break;
        }
        if line.indent > indent {
            return Err(ParseError::at(
                line.number,
                "unexpected indentation".to_string(),
            ));
        }
        let Some(colon) = find_key_colon(&line.content) else {
            return Err(ParseError::at(
                line.number,
                format!("expected `key:`, found `{}`", line.content),
            ));
        };
        let key = unquote(&line.content[..colon]);
        if entries.iter().any(|(k, _)| *k == key) {
            return Err(ParseError::at(
                line.number,
                format!("duplicate key `{key}`"),
            ));
        }
        let rest = line.content[colon + 1..].trim();
        if rest.is_empty() {
            // Nested block follows (or an empty value).
            if i + 1 < lines.len() && lines[i + 1].indent > indent {
                let child_indent = lines[i + 1].indent;
                let (child, next) =
                    parse_block(lines, i + 1, child_indent).map_err(|e| e.under(&key))?;
                entries.push((key, child));
                i = next;
            } else {
                entries.push((key, Value::Scalar(String::new())));
                i += 1;
            }
        } else if rest.starts_with('[') {
            entries.push((
                key.clone(),
                parse_flow_list(rest, line.number).map_err(|e| e.under(&key))?,
            ));
            i += 1;
        } else {
            entries.push((key, Value::Scalar(unquote(rest))));
            i += 1;
        }
    }
    Ok((Value::Map(entries), i))
}

/// Finds the colon separating key from value, respecting quoted keys.
fn find_key_colon(content: &str) -> Option<usize> {
    let mut in_quote = false;
    for (idx, ch) in content.char_indices() {
        match ch {
            '\'' => in_quote = !in_quote,
            ':' if !in_quote => return Some(idx),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING4: &str = "
kmeans:
  build_dir: 'kmeans'
  build: [ 'make' ]
  clean: [ 'make clean' ]
  analysis:
    floatsmith:
      name: 'floatSmith'
      extra_args:
        algorithm: 'ddebug'
  output:
    option: '-o'
    name: 'outputFile.bin'
  metric: 'MAE'
  bin: 'kmeans'
  copy: [ 'kmeans', 'kdd_bin' ]
  args: '-i kdd_bin -k 5 -n 5'
";

    #[test]
    fn parses_the_paper_listing() {
        let v = parse(LISTING4).unwrap();
        assert_eq!(
            v.path(&["kmeans", "build_dir"]).unwrap().as_str(),
            Some("kmeans")
        );
        assert_eq!(
            v.path(&[
                "kmeans",
                "analysis",
                "floatsmith",
                "extra_args",
                "algorithm"
            ])
            .unwrap()
            .as_str(),
            Some("ddebug")
        );
        assert_eq!(
            v.path(&["kmeans", "build"]).unwrap().as_list().unwrap(),
            &[Value::Scalar("make".to_string())]
        );
        assert_eq!(
            v.path(&["kmeans", "copy"])
                .unwrap()
                .as_list()
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            v.path(&["kmeans", "args"]).unwrap().as_str(),
            Some("-i kdd_bin -k 5 -n 5")
        );
    }

    #[test]
    fn parses_block_lists() {
        let v = parse("steps:\n  - build\n  - run\n  - verify\n").unwrap();
        let items = v.get("steps").unwrap().as_list().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[1].as_str(), Some("run"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let v = parse("# header\n\na: '1' # trailing\n\nb: 2\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("1"));
        assert_eq!(v.get("b").unwrap().as_str(), Some("2"));
    }

    #[test]
    fn hash_inside_quotes_is_not_a_comment() {
        let v = parse("a: 'x # y'\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some("x # y"));
    }

    #[test]
    fn empty_value_is_empty_scalar() {
        let v = parse("a:\nb: 1\n").unwrap();
        assert_eq!(v.get("a").unwrap().as_str(), Some(""));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn bad_indent_rejected() {
        let err = parse("a: 1\n   b: 2\n").unwrap_err();
        assert!(err.message.contains("indent") || err.message.contains("dedent"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn missing_colon_rejected() {
        let err = parse("just a line\n").unwrap_err();
        assert!(err.message.contains("expected"));
    }

    #[test]
    fn empty_document_is_empty_map() {
        let v = parse("\n# nothing\n").unwrap();
        assert_eq!(v, Value::Map(Vec::new()));
    }

    #[test]
    fn deep_nesting_round_trips() {
        let v = parse("a:\n  b:\n    c:\n      d: 'leaf'\n").unwrap();
        assert_eq!(
            v.path(&["a", "b", "c", "d"]).unwrap().as_str(),
            Some("leaf")
        );
    }

    #[test]
    fn flow_list_with_quoted_commas() {
        let v = parse("cmd: [ 'a,b', 'c' ]\n").unwrap();
        let items = v.get("cmd").unwrap().as_list().unwrap();
        assert_eq!(items[0].as_str(), Some("a,b"));
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn display_of_error_mentions_line() {
        let err = parse("x\n").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn nested_error_names_enclosing_key_and_line() {
        let err = parse("analysis:\n  just a line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.key.as_deref(), Some("analysis"));
        assert!(err.to_string().contains("`analysis`"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn innermost_enclosing_key_wins() {
        let err = parse("a:\n  b:\n    broken line\n").unwrap_err();
        assert_eq!(err.key.as_deref(), Some("b"));
        assert_eq!(err.line, 3);
    }

    #[test]
    fn malformed_flow_list_names_its_key() {
        let err = parse("build: [ 'make'\n").unwrap_err();
        assert_eq!(err.key.as_deref(), Some("build"));
        assert!(err.message.contains("flow list"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn duplicate_key_error_carries_line() {
        let err = parse("a: 1\nb: 2\na: 3\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("duplicate key `a`"));
    }

    #[test]
    fn top_level_errors_have_no_key_context() {
        let err = parse("just a line\n").unwrap_err();
        assert_eq!(err.key, None);
    }
}
