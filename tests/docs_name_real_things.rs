//! README.md, ARCHITECTURE.md and `crates/bench/README.md` name real
//! things. In their backticked spans (fenced blocks aside):
//!
//! * every `*.rs` path, with or without a `:line`, is the tail of a
//!   workspace file's path, and that file has the line;
//! * every segment of every `a::b` path (a `{x, y}` group names each of
//!   its members) is an identifier that occurs in the workspace's Rust
//!   source. A segment glued to a `.` or `}` before it (`typed.rs::Universe`,
//!   `{batch,grid}_equivalence::name`) is the tail of another name and is
//!   not read on its own; a crate's `-` reads as `_`.
//!
//! A doc that renames, moves or deletes what it cites fails here.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: &[&str] = &["README.md", "ARCHITECTURE.md", "crates/bench/README.md"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under the workspace root, by its path relative to
/// the root with `/` separators, and its text.
fn sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if !matches!(name.to_str(), Some("target" | ".git")) {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut paths = Vec::new();
    walk(root(), &mut paths);
    paths
        .into_iter()
        .map(|path| {
            let relative = path.strip_prefix(root()).unwrap().to_string_lossy();
            let text = fs::read_to_string(&path).unwrap();
            (relative.replace('\\', "/"), text)
        })
        .collect()
}

/// The text of every inline code span of `markdown`, outside fenced
/// blocks, with the 1-based line it starts on.
fn code_spans(markdown: &str) -> Vec<(usize, String)> {
    let mut fenced = false;
    let prose: Vec<&str> = (markdown.lines())
        .map(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                ""
            } else if fenced {
                ""
            } else {
                line
            }
        })
        .collect();
    let mut spans = Vec::new();
    let mut line = 1;
    for (i, piece) in prose.join("\n").split('`').enumerate() {
        if i % 2 == 1 {
            spans.push((line, piece.to_string()));
        }
        line += piece.matches('\n').count();
    }
    spans
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every identifier in the workspace's Rust source, comments and strings
/// included.
fn identifiers(sources: &[(String, String)]) -> HashSet<String> {
    let mut out = HashSet::new();
    // This file's own examples name nothing.
    for (_, text) in sources.iter().filter(|(file, _)| file != file!()) {
        let words = text.split(|c: char| !is_ident_char(c));
        out.extend(words.filter(|w| is_ident(w)).map(String::from));
    }
    out
}

/// What is wrong with the `*.rs` paths in `span`, one line each.
fn check_paths(span: &str, sources: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    for word in span.split_whitespace() {
        let Some(end) = word.find(".rs") else {
            continue;
        };
        let (path, rest) = word.split_at(end + ".rs".len());
        if rest.starts_with(is_ident_char) {
            continue; // `.rsx` or the like: not a Rust file.
        }
        if !path
            .chars()
            .all(|c| is_ident_char(c) || matches!(c, '.' | '/' | '-'))
        {
            problems.push(format!("`{path}` is not one file's path"));
            continue;
        }
        let line: Option<usize> = rest
            .strip_prefix(':')
            .filter(|r| !r.starts_with(':'))
            .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok());
        let files: Vec<&String> = sources
            .iter()
            .filter(|(file, _)| *file == path || file.ends_with(&format!("/{path}")))
            .map(|(_, text)| text)
            .collect();
        if files.is_empty() {
            problems.push(format!("`{path}` names no workspace file"));
        } else if let Some(line) = line {
            if !files.iter().any(|text| text.lines().count() >= line) {
                problems.push(format!("`{path}:{line}` is past the file's end"));
            }
        }
    }
    problems
}

fn is_ident(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') && s.chars().all(is_ident_char)
}

/// The segments of every `a::b` path in `span` that must be identifiers.
fn path_segments(span: &str) -> Vec<String> {
    let parts: Vec<&str> = span.split("::").collect();
    let mut segments = Vec::new();
    for (k, part) in parts.iter().enumerate() {
        let mut rest = *part;
        if k > 0 {
            // What follows a `::`: a name, or a `{a, b}` group of them.
            let after = part.trim_start();
            if let Some((group, tail)) = after.strip_prefix('{').and_then(|g| g.split_once('}')) {
                let names = group.split(',').map(str::trim).filter(|s| is_ident(s));
                segments.extend(names.map(String::from));
                rest = tail;
            } else {
                let len = after.find(|c| !is_ident_char(c)).unwrap_or(after.len());
                if is_ident(&after[..len]) {
                    segments.push(after[..len].to_string());
                }
                rest = &after[len..];
                if rest.is_empty() {
                    continue; // The path goes on past the next `::`.
                }
            }
        }
        if k + 1 < parts.len() {
            // The first name of a path that starts here; a crate's `-`
            // reads as `_`.
            let len = (rest.chars().rev())
                .take_while(|&c| is_ident_char(c) || c == '-')
                .count();
            let (before, head) = rest.split_at(rest.len() - len);
            if is_ident(&head.replace('-', "_")) && !before.ends_with(['.', '}']) {
                segments.push(head.replace('-', "_"));
            }
        }
    }
    segments
}

#[test]
fn docs_name_files_lines_and_items_that_exist() {
    let sources = sources();
    let identifiers = identifiers(&sources);
    let mut problems = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).unwrap();
        for (line, span) in code_spans(&text) {
            for problem in check_paths(&span, &sources) {
                problems.push(format!("{doc}:{line}: {problem}"));
            }
            for segment in path_segments(&span) {
                if !identifiers.contains(&segment) {
                    problems.push(format!(
                        "{doc}:{line}: `{segment}` (in `{span}`) occurs in no source file"
                    ));
                }
            }
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

#[test]
fn the_checks_see_what_they_claim_to() {
    let spans = code_spans("a `x::y` b\n```\n`in::fence`\n```\n`two\nlines` `c.rs:7`");
    let texts: Vec<&str> = spans.iter().map(|(_, s)| s.as_str()).collect();
    assert_eq!(texts, ["x::y", "two\nlines", "c.rs:7"]);
    assert_eq!((spans[1].0, spans[2].0), (5, 6));
    assert_eq!(
        path_segments("galois-core::plan::{Calibration, Planning}"),
        ["galois_core", "plan", "Calibration", "Planning"]
    );
    assert_eq!(path_segments("session/typed.rs::Universe"), ["Universe"]);
    assert_eq!(
        path_segments("{a,b}_equivalence::off(&x) == Replay::misses()"),
        ["off", "Replay", "misses"]
    );
    let sources = vec![("crates/x/src/lib.rs".to_string(), "a\nb\n".to_string())];
    assert!(check_paths("x/src/lib.rs:2", &sources).is_empty());
    assert_eq!(check_paths("lib.rs:3", &sources).len(), 1);
    assert_eq!(check_paths("crates/x/src/{lib,main}.rs", &sources).len(), 1);
    assert_eq!(check_paths("nowhere.rs", &sources).len(), 1);
}
