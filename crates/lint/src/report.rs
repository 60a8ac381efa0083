//! Allowlist application, workspace traversal, and report rendering
//! (human text and the schema-pinned `--json` document).

use std::fs;
use std::io;
use std::path::Path;

use pwf_obs::json::Json;

use crate::allow::{parse_allow, AllowEntry};
use crate::model::SourceModel;
use crate::passes::{FileContext, Finding, Pass};

/// A finding with no valid allow entry.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The finding itself.
    pub finding: Finding,
    /// When an entry's key matched but its fingerprint did not: the
    /// stale fingerprint and the entry's 1-based line in the allow
    /// file — the "edited an allowed site without updating its
    /// justification" hard error.
    pub mismatch: Option<(u64, usize)>,
}

/// One crate's lint outcome.
#[derive(Debug)]
pub struct CrateReport {
    /// Crate directory name (e.g. `hardware`).
    pub name: String,
    /// Display path of the allow file, when one exists.
    pub allow_path: Option<String>,
    /// `.rs` files scanned.
    pub files: usize,
    /// Candidate sites examined across all passes.
    pub sites: usize,
    /// Raw findings before the allowlist.
    pub findings: usize,
    /// Findings not covered by a fingerprint-valid entry.
    pub violations: Vec<Violation>,
    /// Findings covered by a fingerprint-valid entry.
    pub allowed: usize,
    /// Entries (for rules the run covered) that matched nothing.
    pub stale: Vec<AllowEntry>,
    /// Allow-file parse failure: `(line, message)`.
    pub allow_error: Option<(usize, String)>,
}

impl CrateReport {
    /// No violations, no stale entries, no allow-file errors.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty() && self.allow_error.is_none()
    }
}

/// The whole workspace's lint outcome.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Display form of the scanned root.
    pub root: String,
    /// Pass names that ran.
    pub passes: Vec<&'static str>,
    /// Per-crate outcomes, in crate-name order.
    pub crates: Vec<CrateReport>,
}

/// Summed counters across crates.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Files scanned.
    pub files: usize,
    /// Sites examined.
    pub sites: usize,
    /// Raw findings.
    pub findings: usize,
    /// Allowlisted findings.
    pub allowed: usize,
    /// Violations.
    pub violations: usize,
    /// Stale entries.
    pub stale: usize,
}

impl WorkspaceReport {
    /// Whether every crate is clean.
    pub fn clean(&self) -> bool {
        self.crates.iter().all(CrateReport::clean)
    }

    /// Summed counters.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for c in &self.crates {
            t.files += c.files;
            t.sites += c.sites;
            t.findings += c.findings;
            t.allowed += c.allowed;
            t.violations += c.violations.len();
            t.stale += c.stale.len();
        }
        t
    }

    /// Human-readable report. Verbose mode lists per-crate counters
    /// even for clean crates.
    pub fn render_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        for c in &self.crates {
            if verbose || !c.clean() {
                out.push_str(&format!(
                    "crates/{}: {} files, {} sites, {} findings — {} allowed, {} violations, {} stale\n",
                    c.name,
                    c.files,
                    c.sites,
                    c.findings,
                    c.allowed,
                    c.violations.len(),
                    c.stale.len()
                ));
            }
            if let Some((line, msg)) = &c.allow_error {
                let path = c.allow_path.as_deref().unwrap_or("lint.allow");
                out.push_str(&format!("ERROR {path}:{line}: {msg}\n"));
            }
            for v in &c.violations {
                match v.mismatch {
                    Some((old, entry_line)) => {
                        let path = c.allow_path.as_deref().unwrap_or("lint.allow");
                        out.push_str(&format!(
                            "MISMATCH {}\n  allowed as @{old:016x} at {path}:{entry_line}, but the site now fingerprints @{:016x} — re-justify the edit\n",
                            v.finding, v.finding.fingerprint
                        ));
                    }
                    None => {
                        out.push_str(&format!(
                            "VIOLATION {}\n  fix it, or allow with: {} @{:016x}  <justification>\n",
                            v.finding,
                            v.finding.key(),
                            v.finding.fingerprint
                        ));
                    }
                }
            }
            for s in &c.stale {
                let path = c.allow_path.as_deref().unwrap_or("lint.allow");
                out.push_str(&format!(
                    "STALE {path}:{}: entry `{}` matches nothing\n",
                    s.line, s.key
                ));
            }
        }
        let t = self.totals();
        out.push_str(&format!(
            "pwf lint [{}]: {} crates, {} files, {} sites, {} findings — {} allowed, {} violations, {} stale: {}\n",
            self.passes.join(","),
            self.crates.len(),
            t.files,
            t.sites,
            t.findings,
            t.allowed,
            t.violations,
            t.stale,
            if self.clean() { "clean" } else { "DIRTY" }
        ));
        out
    }

    /// The `--json` document: one line of JSON and a newline (schema
    /// pinned by `crates/runner/tests/lint_schema.rs`).
    pub fn render_json(&self) -> String {
        let int = |v: usize| Json::Int(v as i128);
        let hex = |fingerprint: u64| Json::Str(format!("{fingerprint:016x}"));
        let crates = self
            .crates
            .iter()
            .map(|c| {
                let violations = c
                    .violations
                    .iter()
                    .map(|v| {
                        let f = &v.finding;
                        let mut fields = vec![
                            ("path".into(), Json::Str(f.path.clone())),
                            ("line".into(), int(f.line)),
                            ("function".into(), Json::Str(f.function.clone())),
                            ("rule".into(), Json::Str(f.rule.into())),
                            ("message".into(), Json::Str(f.message.clone())),
                            ("fingerprint".into(), hex(f.fingerprint)),
                        ];
                        if let Some((old, line)) = v.mismatch {
                            fields.push(("expected_fingerprint".into(), hex(old)));
                            fields.push(("entry_line".into(), int(line)));
                        }
                        Json::Obj(fields)
                    })
                    .collect();
                let stale = c
                    .stale
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("key".into(), Json::Str(s.key.clone())),
                            ("line".into(), int(s.line)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".into(), Json::Str(c.name.clone())),
                    ("files".into(), int(c.files)),
                    ("sites".into(), int(c.sites)),
                    ("findings".into(), int(c.findings)),
                    ("allowed".into(), int(c.allowed)),
                    ("violations".into(), Json::Arr(violations)),
                    ("stale".into(), Json::Arr(stale)),
                    ("clean".into(), Json::Bool(c.clean())),
                ])
            })
            .collect();
        let t = self.totals();
        let passes = self.passes.iter().map(|p| Json::Str((*p).into())).collect();
        let summary = vec![
            ("crates".into(), int(self.crates.len())),
            ("files".into(), int(t.files)),
            ("sites".into(), int(t.sites)),
            ("findings".into(), int(t.findings)),
            ("allowed".into(), int(t.allowed)),
            ("violations".into(), int(t.violations)),
            ("stale".into(), int(t.stale)),
            ("clean".into(), Json::Bool(self.clean())),
        ];
        let mut doc = Json::Obj(vec![
            ("tool".into(), Json::Str("pwf-lint".into())),
            ("schema_version".into(), Json::Int(1)),
            ("root".into(), Json::Str(self.root.clone())),
            ("passes".into(), Json::Arr(passes)),
            ("crates".into(), Json::Arr(crates)),
            ("summary".into(), Json::Obj(summary)),
        ])
        .render_compact();
        doc.push('\n');
        doc
    }
}

/// Lints one source tree against one (optional) allow file.
///
/// `root` anchors display paths: findings are reported relative to it
/// so diagnostics are clickable from the workspace root.
///
/// # Errors
///
/// Propagates I/O errors from traversal and file reads (a missing
/// allow file is not an error — it means deny-everything).
pub fn lint_tree(
    root: &Path,
    src_root: &Path,
    allow_path: Option<&Path>,
    name: &str,
    passes: &[Pass],
) -> io::Result<CrateReport> {
    let mut findings = Vec::new();
    let mut files = 0usize;
    let mut sites = 0usize;
    let mut stack = vec![src_root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(std::fs::DirEntry::path);
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files += 1;
                let display = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .into_owned();
                let file = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let source = fs::read_to_string(&path)?;
                let model = SourceModel::build(&source);
                let ctx = FileContext {
                    path: &display,
                    file: &file,
                    model: &model,
                };
                for pass in passes {
                    let out = pass.run(&ctx);
                    sites += out.sites;
                    findings.extend(out.findings);
                }
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));

    let allow_display = allow_path.and_then(|p| {
        p.exists().then(|| {
            p.strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .into_owned()
        })
    });
    let (entries, allow_error) = match allow_path {
        Some(p) if p.exists() => match parse_allow(&fs::read_to_string(p)?) {
            Ok(entries) => (entries, None),
            Err(err) => (Vec::new(), Some(err)),
        },
        _ => (Vec::new(), None),
    };

    let covered_rules: Vec<&str> = passes
        .iter()
        .flat_map(|p| p.rules().iter().copied())
        .collect();
    let mut used = vec![false; entries.len()];
    let mut violations = Vec::new();
    let mut allowed = 0usize;
    let total = findings.len();
    for f in findings {
        let key = f.key();
        let mut exact = None;
        let mut near = None;
        for (i, e) in entries.iter().enumerate() {
            if e.key == key {
                if e.fingerprint == f.fingerprint {
                    exact = Some(i);
                    break;
                }
                near = Some(i);
            }
        }
        match (exact, near) {
            (Some(i), _) => {
                used[i] = true;
                allowed += 1;
            }
            (None, Some(i)) => {
                used[i] = true; // consumed by the mismatch diagnostic
                violations.push(Violation {
                    finding: f,
                    mismatch: Some((entries[i].fingerprint, entries[i].line)),
                });
            }
            (None, None) => violations.push(Violation {
                finding: f,
                mismatch: None,
            }),
        }
    }
    let stale = entries
        .into_iter()
        .zip(used)
        .filter(|(e, hit)| !hit && covered_rules.contains(&e.rule()))
        .map(|(e, _)| e)
        .collect();

    Ok(CrateReport {
        name: name.to_string(),
        allow_path: allow_display,
        files,
        sites,
        findings: total,
        violations,
        allowed,
        stale,
        allow_error,
    })
}

/// Lints every crate under `root/crates` (each crate's `src/` tree
/// against its `lint.allow`), optionally restricted to `filter`
/// names.
///
/// # Errors
///
/// Fails when `root/crates` is missing, a filter names an unknown
/// crate, or a source file cannot be read.
pub fn lint_workspace(
    root: &Path,
    passes: &[Pass],
    filter: &[String],
) -> io::Result<WorkspaceReport> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a workspace root (no crates/)", root.display()),
        ));
    }
    let mut dirs: Vec<_> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    dirs.sort();
    let mut crates = Vec::new();
    for dir in dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if !filter.is_empty() && !filter.contains(&name) {
            continue;
        }
        crates.push(lint_tree(
            root,
            &dir.join("src"),
            Some(&dir.join("lint.allow")),
            &name,
            passes,
        )?);
    }
    if !filter.is_empty() && crates.len() != filter.len() {
        let known: Vec<_> = crates.iter().map(|c| c.name.clone()).collect();
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("--crate filter names unknown crates (matched {known:?})"),
        ));
    }
    Ok(WorkspaceReport {
        root: root.to_string_lossy().into_owned(),
        passes: passes.iter().map(|p| p.name()).collect(),
        crates,
    })
}
