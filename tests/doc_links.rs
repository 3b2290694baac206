//! Doc-link lint: every intra-repo markdown link in `README.md` and
//! `docs/*.md` must point at a file (or directory) that exists, every
//! document under `docs/` must be reachable from the README, and every
//! `.md` path named in a `//!` or `///` comment under `crates/*/src`
//! must exist relative to the repo root. Runs as part of the normal `cargo test` tier, so a
//! renamed file or a typo'd path fails CI instead of shipping a dead
//! link.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The documents the lint covers, relative to the repo root.
fn documents() -> Vec<PathBuf> {
    let root = repo_root();
    let mut docs = vec![root.join("README.md")];
    let docs_dir = root.join("docs");
    let mut listed: Vec<_> = std::fs::read_dir(&docs_dir)
        .expect("docs/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    listed.sort();
    assert!(!listed.is_empty(), "docs/ contains no markdown files");
    docs.extend(listed);
    docs
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extracts `](target)` markdown link targets from one line, skipping
/// fenced code (handled by the caller) and inline code spans.
fn link_targets(line: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find("](") {
        let after = &rest[open + 2..];
        let Some(close) = after.find(')') else { break };
        targets.push(after[..close].trim().to_string());
        rest = &after[close + 1..];
    }
    // Reference-style definitions: `[label]: target`
    let trimmed = line.trim();
    if trimmed.starts_with('[') {
        if let Some(colon) = trimmed.find("]:") {
            if trimmed[..colon].len() > 1 {
                targets.push(trimmed[colon + 2..].trim().to_string());
            }
        }
    }
    targets
}

/// A target the lint should resolve on disk: not external, not a
/// pure in-page anchor.
fn is_intra_repo(target: &str) -> bool {
    !(target.is_empty()
        || target.starts_with('#')
        || target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:"))
}

#[test]
fn intra_repo_markdown_links_resolve() {
    let root = repo_root();
    let mut broken = Vec::new();
    let mut checked = 0usize;

    for doc in documents() {
        let text = std::fs::read_to_string(&doc)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", doc.display()));
        let base = doc.parent().unwrap_or(Path::new("")).to_path_buf();
        let mut in_fence = false;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if in_fence {
                continue;
            }
            for target in link_targets(line) {
                if !is_intra_repo(&target) {
                    continue;
                }
                // Strip an in-page anchor suffix: `FILE.md#section`.
                let path_part = target.split('#').next().unwrap_or("");
                if path_part.is_empty() {
                    continue; // pure anchor, nothing on disk to check
                }
                checked += 1;
                let resolved = if let Some(abs) = path_part.strip_prefix('/') {
                    root.join(abs)
                } else {
                    base.join(path_part)
                };
                if !resolved.exists() {
                    broken.push(format!(
                        "{}:{}: broken link `{}` (resolved to {})",
                        doc.display(),
                        lineno + 1,
                        target,
                        resolved.display()
                    ));
                }
            }
        }
    }

    assert!(checked > 0, "the lint found no intra-repo links to check");
    assert!(
        broken.is_empty(),
        "broken intra-repo doc links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn every_doc_is_reachable_from_the_readme() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let mut linked: BTreeSet<String> = BTreeSet::new();
    for line in readme.lines() {
        for target in link_targets(line) {
            if let Some(name) = target
                .split('#')
                .next()
                .and_then(|p| p.strip_prefix("docs/"))
            {
                linked.insert(name.to_string());
            }
        }
    }
    let mut unreachable = Vec::new();
    for doc in documents() {
        if doc.parent().is_some_and(|p| p.ends_with("docs")) {
            let name = doc.file_name().unwrap().to_string_lossy().to_string();
            if !linked.contains(&name) {
                unreachable.push(name);
            }
        }
    }
    assert!(
        unreachable.is_empty(),
        "docs not linked from README.md: {unreachable:?}"
    );
}

/// Every `.rs` file under `crates/*/src`, sorted.
fn crate_sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let entries =
            std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("readable dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut sources = Vec::new();
    let crates = std::fs::read_dir(repo_root().join("crates")).expect("crates/ exists");
    for entry in crates {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut sources);
        }
    }
    sources.sort();
    sources
}

/// The `.md` file names a doc-comment line mentions: maximal runs of
/// path characters ending in `.md` (an `#anchor` suffix is dropped).
fn md_references(line: &str) -> Vec<&str> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    line.split(|c: char| !is_path_char(c))
        .map(|word| word.trim_start_matches('.').trim_end_matches('.'))
        .filter(|word| word.len() > ".md".len() && word.ends_with(".md"))
        .collect()
}

#[test]
fn md_references_in_rust_doc_comments_resolve() {
    let root = repo_root();
    let mut broken = Vec::new();
    let mut checked = 0usize;
    for source in crate_sources() {
        let text = std::fs::read_to_string(&source)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", source.display()));
        for (lineno, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if !(trimmed.starts_with("//!") || trimmed.starts_with("///")) {
                continue;
            }
            for reference in md_references(trimmed) {
                // Source comments name documents by repo-root path.
                checked += 1;
                if !root.join(reference).exists() {
                    broken.push(format!(
                        "{}:{}: `{}` does not exist",
                        source.strip_prefix(&root).unwrap_or(&source).display(),
                        lineno + 1,
                        reference
                    ));
                }
            }
        }
    }
    assert!(checked > 0, "no .md references found in crate doc comments");
    assert!(
        broken.is_empty(),
        "unresolved .md references in doc comments:\n{}",
        broken.join("\n")
    );
}

#[test]
fn md_reference_extraction() {
    assert_eq!(
        md_references("//! see `docs/ARCHITECTURE.md#substitution-notes`)."),
        vec!["docs/ARCHITECTURE.md"]
    );
    assert_eq!(md_references("/// per DESIGN.md."), vec!["DESIGN.md"]);
    assert!(md_references("/// the .md suffix, and md5").is_empty());
}
