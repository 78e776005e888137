//! Source preparation for the rule passes: comment/string-aware
//! sanitization, suppression parsing, and `#[cfg(test)]` module
//! blanking.
//!
//! Every rule works on [`SourceFile::code`], a copy of the file where
//! comments, string literals and test modules are replaced by spaces
//! (newlines preserved). That keeps line numbers intact while making
//! naive textual scans safe: a `HashMap` inside a doc comment or a
//! `".lock()"` inside a string can never produce a finding.

use std::cell::Cell;
use std::path::PathBuf;

/// One `// bcrdb-lint: allow(<rule>, reason = "…")` suppression.
#[derive(Debug)]
pub struct Allow {
    /// The suppressed rule name, e.g. `hash-iter`.
    pub rule: String,
    /// The mandatory justification; empty when the author omitted it
    /// (reported by the `bad-allow` rule).
    pub reason: String,
    /// 1-based line of the comment. The allow covers findings on this
    /// line and on the next line (for comment-above-statement style).
    pub line: usize,
    /// Set when a finding was suppressed by this allow; a never-used
    /// allow is reported by the `unused-allow` rule.
    pub used: Cell<bool>,
}

/// A scanned source file, ready for the rule passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators, e.g.
    /// `crates/ordering/src/bft.rs`.
    pub rel: String,
    /// Crate directory name under `crates/`, e.g. `ordering`.
    pub crate_name: String,
    /// Raw file contents.
    pub raw: String,
    /// Sanitized contents: comments, strings and `#[cfg(test)]` modules
    /// blanked with spaces; newlines preserved, so (line, column) in
    /// `code` matches `raw`.
    pub code: String,
    /// Suppression comments, in file order.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Scan `raw` into a rule-ready file.
    pub fn scan(path: PathBuf, rel: String, crate_name: String, raw: String) -> SourceFile {
        let (mut code, comments) = sanitize(&raw);
        blank_test_modules(&mut code);
        let mut allows = Vec::new();
        for (line, text) in &comments {
            let Some(rest) = text.trim().strip_prefix("bcrdb-lint:") else {
                continue;
            };
            let rest = rest.trim();
            if let Some(args) = strip_call(rest, "allow") {
                let (rule, reason) = parse_allow_args(args);
                allows.push(Allow {
                    rule,
                    reason,
                    line: *line,
                    used: Cell::new(false),
                });
            }
        }
        SourceFile {
            path,
            rel,
            crate_name,
            raw,
            code,
            allows,
        }
    }

    /// The sanitized lines (1-based indexing via `line - 1`).
    pub fn code_lines(&self) -> Vec<&str> {
        self.code.lines().collect()
    }

    /// Is a finding of `rule` at `line` covered by an allow on the same
    /// line or the line directly above? Marks the allow used.
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        for a in &self.allows {
            if a.rule == rule && !a.reason.is_empty() && (a.line == line || a.line + 1 == line) {
                a.used.set(true);
                return true;
            }
        }
        false
    }
}

/// `strip_call("allow(x, y)", "allow")` → `Some("x, y")`.
fn strip_call<'a>(s: &'a str, name: &str) -> Option<&'a str> {
    let rest = s.strip_prefix(name)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    Some(&rest[..close])
}

/// Parse `hash-iter, reason = "why"` into (rule, reason).
fn parse_allow_args(args: &str) -> (String, String) {
    let (rule, rest) = match args.split_once(',') {
        Some((r, rest)) => (r.trim().to_string(), rest.trim()),
        None => (args.trim().to_string(), ""),
    };
    let reason = rest
        .strip_prefix("reason")
        .map(|r| r.trim_start())
        .and_then(|r| r.strip_prefix('='))
        .map(|r| r.trim())
        .and_then(|r| r.strip_prefix('"'))
        .and_then(|r| r.strip_suffix('"'))
        .unwrap_or("")
        .trim()
        .to_string();
    (rule, reason)
}

/// Blank comments and string/char literals with spaces, preserving
/// newlines. Returns the sanitized text plus the captured comment
/// bodies as (1-based line, text) pairs (block comments are captured at
/// their starting line).
pub fn sanitize(raw: &str) -> (String, Vec<(usize, String)>) {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        CharLit,
    }
    let mut out = String::with_capacity(raw.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut mode = Mode::Code;
    let mut line = 1usize;
    let mut comment_buf = String::new();
    let mut comment_line = 1usize;
    let chars: Vec<char> = raw.chars().collect();
    let mut i = 0usize;
    // The last code char emitted, for raw-string and lifetime lookback.
    let mut prev_code = ' ';
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied().unwrap_or('\0');
        if c == '\n' {
            if mode == Mode::LineComment {
                comments.push((comment_line, std::mem::take(&mut comment_buf)));
                mode = Mode::Code;
            }
            out.push('\n');
            line += 1;
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && next == '/' {
                    mode = Mode::LineComment;
                    comment_line = line;
                    comment_buf.clear();
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == '*' {
                    mode = Mode::BlockComment(1);
                    comment_line = line;
                    comment_buf.clear();
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    // `r"…"` / `br#"…"#` raw strings: count the hashes.
                    let mut j = i;
                    let mut hashes = 0usize;
                    while j > 0 && chars[j - 1] == '#' {
                        hashes += 1;
                        j -= 1;
                    }
                    let is_raw = j > 0
                        && (chars[j - 1] == 'r' && !prev_code.is_alphanumeric() || {
                            j > 1 && chars[j - 1] == 'r' && chars[j - 2] == 'b'
                        });
                    // Only a raw string if the hashes (if any) directly
                    // follow an `r`; a bare `"` after `#` tokens from
                    // attributes can't happen in valid Rust.
                    if is_raw
                        || (hashes == 0
                            && matches!(chars.get(i.wrapping_sub(1)), Some('r'))
                            && i > 0)
                    {
                        mode = Mode::RawStr(hashes);
                    } else {
                        mode = Mode::Str;
                    }
                    out.push('"');
                    i += 1;
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                    let after = chars.get(i + 2).copied().unwrap_or('\0');
                    if next == '\\' || after == '\'' || !(next.is_alphanumeric() || next == '_') {
                        mode = Mode::CharLit;
                        out.push('\'');
                        i += 1;
                    } else {
                        // Lifetime: emit as-is.
                        out.push('\'');
                        prev_code = '\'';
                        i += 1;
                    }
                } else {
                    out.push(c);
                    if !c.is_whitespace() {
                        prev_code = c;
                    }
                    i += 1;
                }
            }
            Mode::LineComment => {
                comment_buf.push(c);
                out.push(' ');
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '*' && next == '/' {
                    if depth == 1 {
                        comments.push((comment_line, std::mem::take(&mut comment_buf)));
                        mode = Mode::Code;
                    } else {
                        mode = Mode::BlockComment(depth - 1);
                    }
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == '*' {
                    mode = Mode::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    comment_buf.push(c);
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                    if chars.get(i - 1) == Some(&'\n') {
                        // String continuation across a line break.
                        out.pop();
                        out.pop();
                        out.push(' ');
                        out.push('\n');
                        line += 1;
                    }
                } else if c == '"' {
                    mode = Mode::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        mode = Mode::Code;
                        out.push('"');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        i += 1 + hashes;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::CharLit => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    mode = Mode::Code;
                    out.push('\'');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    if mode == Mode::LineComment {
        comments.push((comment_line, comment_buf));
    }
    (out, comments)
}

/// Blank every `#[cfg(test)] mod … { … }` region: test code may be as
/// nondeterministic as it likes.
fn blank_test_modules(code: &mut String) {
    let bytes: Vec<char> = code.chars().collect();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut search = 0usize;
    let text: String = bytes.iter().collect();
    while let Some(pos) = text[search..].find("#[cfg(test)]") {
        let start = search + pos;
        // Find the opening brace of the following item.
        let Some(brace_rel) = text[start..].find('{') else {
            break;
        };
        let open = start + brace_rel;
        let mut depth = 0i32;
        let mut end = None;
        for (off, ch) in text[open..].char_indices() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(open + off);
                        break;
                    }
                }
                _ => {}
            }
        }
        let close = end.unwrap_or(text.len() - 1);
        spans.push((start, close));
        search = close + 1;
    }
    if spans.is_empty() {
        return;
    }
    let mut out: Vec<char> = text.chars().collect();
    for (s, e) in spans {
        for item in out.iter_mut().take(e + 1).skip(s) {
            if *item != '\n' {
                *item = ' ';
            }
        }
    }
    *code = out.into_iter().collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> SourceFile {
        SourceFile::scan(
            PathBuf::from("/x/lib.rs"),
            "crates/x/src/lib.rs".into(),
            "x".into(),
            src.into(),
        )
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = scan("let a = \"HashMap.iter()\"; // HashMap\nlet b = 1; /* Instant::now */\n");
        assert!(!f.code.contains("HashMap"));
        assert!(!f.code.contains("Instant"));
        assert_eq!(f.code.lines().count(), f.raw.lines().count());
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let f = scan("let a = r#\"x \"q\" HashSet\"#; let c = 'h'; let l: &'static str = \"y\";\n");
        assert!(!f.code.contains("HashSet"));
        assert!(f.code.contains("'static"), "lifetime survives: {}", f.code);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let f = scan("let a = \"x\\\"HashMap\"; let b = HashSet::new();\n");
        assert!(!f.code.contains("HashMap"));
        assert!(f.code.contains("HashSet"), "code after string survives");
    }

    #[test]
    fn cfg_test_modules_are_blanked() {
        let src = "fn live() { m.iter(); }\n#[cfg(test)]\nmod tests {\n    fn t() { m.keys(); }\n}\nfn live2() {}\n";
        let f = scan(src);
        assert!(f.code.contains("live2"));
        assert!(f.code.contains("iter"));
        assert!(!f.code.contains("keys"));
    }

    #[test]
    fn allow_directives_are_parsed() {
        let src = "// bcrdb-lint: allow(hash-iter, reason = \"sorted below\")\nx.iter();\n// bcrdb-lint: allow(wall-clock)\ny();\n";
        let f = scan(src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "hash-iter");
        assert_eq!(f.allows[0].reason, "sorted below");
        assert_eq!(f.allows[0].line, 1);
        assert_eq!(f.allows[1].reason, "", "missing reason parses empty");
        assert!(f.suppressed("hash-iter", 2), "line-above coverage");
        assert!(!f.suppressed("wall-clock", 4), "reasonless allow is inert");
        assert!(f.allows[0].used.get());
    }
}
