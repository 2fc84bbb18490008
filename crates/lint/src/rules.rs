//! The rule table and the per-file analysis pass.
//!
//! Every rule matches *token* sequences produced by [`crate::lexer`], so
//! nothing inside strings or comments can fire a rule, and no amount of
//! creative whitespace can hide a forbidden call. Each rule carries a fix
//! hint shown with every violation; deliberate exceptions are waived
//! inline with
//!
//! ```text
//! // htpb-lint: allow(<rule-id>) -- <justification>
//! ```
//!
//! and the analyzer counts and reports every waiver (see `docs/LINTS.md`
//! for the full catalog and rationale).

use crate::lexer::{lex, Lexed, Tok, TokKind};

/// Crates whose simulation output feeds the paper's quantitative claims.
/// Their sources may not consult wall clocks, entropy, or SipHash-keyed
/// (iteration-order-randomized) collections.
pub(crate) const SIM_CRATES: &[&str] = &[
    "noc", "power", "manycore", "trojan", "attack", "defense", "core",
];

/// Crates that must never register a `Class::Sim` observability series:
/// their instruments measure wall-clock scheduling, and a mislabelled
/// series would leak nondeterminism into `results/metrics.prom`.
pub(crate) const TIMING_ONLY_CRATES: &[&str] = &["harness"];

/// Files holding the crash-recovery state machine and the durable-commit
/// protocol; a panic there turns a recoverable fault into data loss.
pub(crate) const RECOVERY_FILES: &[&str] =
    &["crates/harness/src/campaign.rs", "crates/harness/src/fs.rs"];

/// The single file allowed to call raw filesystem mutation APIs.
pub(crate) const FS_CHOKE_FILE: &str = "crates/harness/src/fs.rs";

/// One catalog entry. `id` is `<category>/<name>`; the full rationale per
/// rule lives in `docs/LINTS.md`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    pub hint: &'static str,
}

/// The complete rule catalog, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "determinism/std-hash",
        summary: "std HashMap/HashSet (SipHash, randomized iteration order) in a sim crate",
        hint: "use htpb_noc::FnvHashMap / fnv::FnvHashSet, or a sorted Vec",
    },
    RuleInfo {
        id: "determinism/wall-clock",
        summary: "wall-clock read (Instant/SystemTime) in a sim crate",
        hint: "derive time from the simulated cycle counter instead",
    },
    RuleInfo {
        id: "determinism/entropy",
        summary: "RNG seeded from process entropy in a sim crate",
        hint: "construct RNGs from an explicit u64 seed carried by the config",
    },
    RuleInfo {
        id: "alloc/hot-loop",
        summary: "heap allocation inside an `// htpb-lint: hot` region",
        hint: "reuse a scratch buffer or preallocate at construction time",
    },
    RuleInfo {
        id: "fs/choke-point",
        summary: "raw filesystem mutation outside crates/harness/src/fs.rs",
        hint: "route durable writes through htpb_harness::fs::{commit_file, commit_append}",
    },
    RuleInfo {
        id: "obs/class-explicit",
        summary: "obs series registered without a literal determinism Class",
        hint: "pass Class::Sim or Class::Timing at the registration site",
    },
    RuleInfo {
        id: "obs/sim-placement",
        summary: "Class::Sim series registered from a timing-only crate",
        hint: "harness instruments are scheduling-dependent: use Class::Timing",
    },
    RuleInfo {
        id: "panic/recovery-path",
        summary: "unwrap/expect/panic in the recovery state machine or commit protocol",
        hint: "bubble the error as io::Result so recovery can degrade gracefully",
    },
    RuleInfo {
        id: "unsafe/forbid-missing",
        summary: "crate root missing #![forbid(unsafe_code)]",
        hint: "add the attribute, or waive with a justification if unsafe is load-bearing",
    },
    RuleInfo {
        id: "lint/marker",
        summary: "malformed htpb-lint directive, unknown rule id, or unused waiver",
        hint: "see the waiver grammar in docs/LINTS.md",
    },
];

/// Looks a rule up by id.
#[must_use]
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileCtx<'a> {
    /// Workspace-relative path with forward slashes
    /// (e.g. `crates/noc/src/network.rs`).
    pub path: &'a str,
    /// The crate directory name under `crates/` (`noc`, `harness`, ...).
    pub crate_name: &'a str,
    /// True for files under a `tests/`, `benches/` or `examples/`
    /// directory: test code may allocate, corrupt files and use std maps.
    pub in_test_dir: bool,
    /// True for `src/lib.rs`, `src/main.rs` and `src/bin/*.rs` — the
    /// compilation roots where `#![forbid(unsafe_code)]` must appear.
    pub is_crate_root: bool,
}

/// One firing: where, which rule, and what matched.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Violation {
    /// `file:line: [rule] message (fix: hint)` — the one-line form the bin
    /// prints and tests assert on.
    #[must_use]
    pub fn render(&self) -> String {
        let hint = rule(self.rule).map_or("", |r| r.hint);
        format!(
            "{}:{}: [{}] {} (fix: {hint})",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One parsed `allow(...)` waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub file: String,
    /// Line of the waiver comment itself.
    pub line: u32,
    /// Line whose violations it covers (same line for trailing comments,
    /// next token-bearing line for standalone ones).
    pub target_line: u32,
    pub rules: Vec<String>,
    pub justification: String,
}

/// Everything the pass found in one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Live violations (not covered by any waiver).
    pub violations: Vec<Violation>,
    /// Violations suppressed by a justified waiver (kept for the tally).
    pub waived: Vec<Violation>,
    /// Every justified waiver, used or not (unused ones also produce a
    /// `lint/marker` violation so stale annotations cannot accumulate).
    pub waivers: Vec<Waiver>,
}

/// Runs every applicable rule over one file's source. Pure: all context
/// comes from `ctx`, so fixtures can exercise any rule in isolation.
#[must_use]
pub fn analyze_source(ctx: &FileCtx, src: &str) -> FileReport {
    let lexed = lex(src);
    let mut report = FileReport::default();

    let directives = parse_directives(ctx, &lexed, &mut report);
    let exempt = if ctx.in_test_dir {
        vec![(1, lexed.lines.max(1))]
    } else {
        test_exempt_ranges(&lexed)
    };
    let in_exempt = |line: u32| exempt.iter().any(|&(a, b)| line >= a && line <= b);

    let mut raw: Vec<Violation> = Vec::new();
    let mut fire = |line: u32, rule_id: &'static str, message: String| {
        raw.push(Violation {
            file: ctx.path.to_string(),
            line,
            rule: rule_id,
            message,
        });
    };

    let toks = &lexed.tokens;
    let is_sim = SIM_CRATES.contains(&ctx.crate_name);
    let is_choke = ctx.path == FS_CHOKE_FILE;
    let is_recovery = RECOVERY_FILES.contains(&ctx.path);
    let timing_only = TIMING_ONLY_CRATES.contains(&ctx.crate_name);

    for (i, t) in toks.iter().enumerate() {
        if in_exempt(t.line) {
            continue;
        }
        if is_sim {
            if t.kind == TokKind::Ident && matches!(t.text, "HashMap" | "HashSet") {
                fire(
                    t.line,
                    "determinism/std-hash",
                    format!("std::collections::{} is SipHash-keyed", t.text),
                );
            }
            if t.kind == TokKind::Ident && matches!(t.text, "Instant" | "SystemTime") {
                fire(
                    t.line,
                    "determinism/wall-clock",
                    format!("`{}` reads the host clock", t.text),
                );
            }
            if t.kind == TokKind::Ident
                && matches!(
                    t.text,
                    "thread_rng" | "from_entropy" | "OsRng" | "getrandom"
                )
            {
                fire(
                    t.line,
                    "determinism/entropy",
                    format!("`{}` draws from process entropy", t.text),
                );
            }
        }
        if !is_choke {
            if seq(toks, i, &["File", ":", ":", "create"])
                || seq(toks, i, &["fs", ":", ":", "write"])
                || seq(toks, i, &["fs", ":", ":", "rename"])
            {
                fire(
                    t.line,
                    "fs/choke-point",
                    format!("raw `{}::{}`", t.text, toks[i + 3].text),
                );
            }
            if t.is_ident("OpenOptions") {
                fire(t.line, "fs/choke-point", "raw `OpenOptions`".to_string());
            }
        }
        if timing_only && seq(toks, i, &["Class", ":", ":", "Sim"]) {
            fire(
                t.line,
                "obs/sim-placement",
                "`Class::Sim` registration in a timing-only crate".to_string(),
            );
        }
        if is_recovery
            && (seq(toks, i, &[".", "unwrap", "("])
                || seq(toks, i, &[".", "expect", "("])
                || seq(toks, i, &["panic", "!"])
                || seq(toks, i, &["unreachable", "!"])
                || seq(toks, i, &["todo", "!"])
                || seq(toks, i, &["unimplemented", "!"]))
        {
            let what = if t.is_punct('.') {
                toks[i + 1].text
            } else {
                t.text
            };
            fire(
                t.line,
                "panic/recovery-path",
                format!("`{what}` can abort mid-recovery"),
            );
        }
        // Registration discipline applies in every crate: a mislabelled
        // series is wrong wherever it is registered.
        for method in ["counter", "gauge", "histogram", "counter_with"] {
            if seq(toks, i, &[".", method, "("]) && !call_names_class(toks, i + 2) {
                fire(
                    t.line,
                    "obs/class-explicit",
                    format!("`.{method}(...)` without a literal `Class::...` argument"),
                );
            }
        }
    }

    // Hot-region allocation scan (regions come from directives; rule
    // applies inside marked regions regardless of crate).
    for &(start, end) in &directives.hot_regions {
        for (i, t) in toks.iter().enumerate() {
            if t.line < start || t.line > end {
                continue;
            }
            let alloc: Option<String> = if seq(toks, i, &["Vec", ":", ":", "new"]) {
                Some("Vec::new".into())
            } else if seq(toks, i, &["Box", ":", ":", "new"]) {
                Some("Box::new".into())
            } else if seq(toks, i, &["String", ":", ":", "from"])
                || seq(toks, i, &["String", ":", ":", "new"])
            {
                Some(format!("String::{}", toks[i + 3].text))
            } else if seq(toks, i, &["vec", "!"]) || seq(toks, i, &["format", "!"]) {
                Some(format!("{}!", t.text))
            } else if seq(toks, i, &[".", "collect"])
                || seq(toks, i, &[".", "to_string"])
                || seq(toks, i, &[".", "to_owned"])
                || seq(toks, i, &[".", "to_vec"])
            {
                Some(format!(".{}()", toks[i + 1].text))
            } else {
                None
            };
            if let Some(what) = alloc {
                fire(
                    t.line,
                    "alloc/hot-loop",
                    format!("`{what}` allocates inside a hot region"),
                );
            }
        }
    }

    // Crate roots must forbid unsafe code (rule fires at line 1; a waiver
    // anywhere in the file covers it, since the "site" is the whole crate).
    if ctx.is_crate_root && !has_forbid_unsafe(toks) {
        fire(
            1,
            "unsafe/forbid-missing",
            "crate root lacks #![forbid(unsafe_code)]".to_string(),
        );
    }

    // Resolve waivers against the raw findings.
    let mut used = vec![false; directives.waivers.len()];
    for v in raw {
        let file_scope = v.rule == "unsafe/forbid-missing";
        let w = directives.waivers.iter().enumerate().find(|(_, w)| {
            w.rules.iter().any(|r| r == v.rule) && (file_scope || w.target_line == v.line)
        });
        match w {
            Some((wi, _)) => {
                used[wi] = true;
                report.waived.push(v);
            }
            None => report.violations.push(v),
        }
    }
    for (wi, w) in directives.waivers.iter().enumerate() {
        if !used[wi] {
            report.violations.push(Violation {
                file: ctx.path.to_string(),
                line: w.line,
                rule: "lint/marker",
                message: format!(
                    "unused waiver for {} — nothing on line {} fires it",
                    w.rules.join(", "),
                    w.target_line
                ),
            });
        }
    }
    report.waivers = directives.waivers;
    report
}

/// True when `toks[i..]` begins with `pattern`, where each element matches
/// an identifier by text or a single punctuation character.
fn seq(toks: &[Tok<'_>], i: usize, pattern: &[&str]) -> bool {
    if i + pattern.len() > toks.len() {
        return false;
    }
    pattern.iter().enumerate().all(|(k, p)| {
        let t = &toks[i + k];
        if p.len() == 1 && !p.chars().next().is_some_and(char::is_alphabetic) {
            t.is_punct(p.chars().next().expect("single-char pattern"))
        } else {
            t.is_ident(p)
        }
    })
}

/// For a registration call whose `(` sits at `toks[open]`: does the
/// argument list contain a literal `Class` path before the matching `)`?
fn call_names_class(toks: &[Tok<'_>], open: usize) -> bool {
    let mut depth = 0i32;
    for t in &toks[open..] {
        match t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokKind::Ident if t.text == "Class" => return true,
            _ => {}
        }
    }
    false
}

/// Token-level check for `#![forbid(unsafe_code)]` anywhere in the file
/// (inner attributes must be at the top for rustc; we only need presence).
fn has_forbid_unsafe(toks: &[Tok<'_>]) -> bool {
    (0..toks.len()).any(|i| {
        seq(
            toks,
            i,
            &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"],
        )
    })
}

/// Line ranges covered by `#[cfg(test)]` items (test modules and helper
/// items). Attributes containing `not` are conservatively ignored so
/// `#[cfg(not(test))]` never exempts production code.
fn test_exempt_ranges(lexed: &Lexed<'_>) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Parse the attribute: find its matching `]`.
        let (attr_end, mut is_test) = (attr_close(toks, i + 1), false);
        let Some(attr_end) = attr_end else {
            i += 1;
            continue;
        };
        let body = &toks[i + 2..attr_end];
        if body.first().is_some_and(|t| t.is_ident("cfg"))
            && body.iter().any(|t| t.is_ident("test"))
            && !body.iter().any(|t| t.is_ident("not"))
        {
            is_test = true;
        }
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = attr_end + 1;
        while j < toks.len()
            && toks[j].is_punct('#')
            && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            match attr_close(toks, j + 1) {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        // The item extends to the first `;` at depth 0, or through the
        // matching brace of its first `{`.
        let start_line = toks[i].line;
        let mut depth = 0i32;
        let mut end_line = start_line;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = toks[j].line;
                        break;
                    }
                }
                TokKind::Punct(';') if depth == 0 => {
                    end_line = toks[j].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[j].line;
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j + 1;
    }
    ranges
}

/// Index of the `]` closing the attribute whose `[` sits at `open`.
fn attr_close(toks: &[Tok<'_>], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parsed directives of one file.
#[derive(Debug, Default)]
struct Directives {
    waivers: Vec<Waiver>,
    /// Inclusive line ranges between `hot` and `end-hot` markers.
    hot_regions: Vec<(u32, u32)>,
}

/// Parses every `htpb-lint:` comment. Malformed directives, unknown rule
/// ids, missing justifications, unterminated hot regions and directives in
/// block comments all produce `lint/marker` violations (not waivable —
/// `lint/marker` findings are never matched against waivers for
/// themselves, which keeps the marker layer trustworthy).
fn parse_directives(ctx: &FileCtx, lexed: &Lexed<'_>, report: &mut FileReport) -> Directives {
    let mut out = Directives::default();
    let mut open_hot: Option<u32> = None;
    let mut marker = |line: u32, message: String| {
        report.violations.push(Violation {
            file: ctx.path.to_string(),
            line,
            rule: "lint/marker",
            message,
        });
    };
    for c in &lexed.comments {
        let Some(rest) = c.text.strip_prefix("htpb-lint:") else {
            continue;
        };
        let rest = rest.trim();
        if c.block {
            marker(c.line, "htpb-lint directives must be line comments".into());
            continue;
        }
        if rest == "hot" {
            if open_hot.is_some() {
                marker(
                    c.line,
                    "nested `hot` region (previous one not closed)".into(),
                );
            } else {
                open_hot = Some(c.line);
            }
        } else if rest == "end-hot" {
            match open_hot.take() {
                Some(start) => out.hot_regions.push((start, c.line)),
                None => marker(c.line, "`end-hot` without an open `hot` region".into()),
            }
        } else if let Some(tail) = rest.strip_prefix("allow(") {
            match parse_allow(tail) {
                Ok((rules, justification)) => {
                    let unknown: Vec<&String> =
                        rules.iter().filter(|r| rule(r).is_none()).collect();
                    if !unknown.is_empty() {
                        marker(
                            c.line,
                            format!(
                                "unknown rule id {} in waiver",
                                unknown
                                    .iter()
                                    .map(|r| format!("`{r}`"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            ),
                        );
                    } else if rules.iter().any(|r| r == "lint/marker") {
                        marker(c.line, "`lint/marker` findings cannot be waived".into());
                    } else {
                        let target_line = if lexed.has_token_on(c.line) {
                            c.line
                        } else {
                            lexed.next_token_line(c.line).unwrap_or(c.line)
                        };
                        out.waivers.push(Waiver {
                            file: ctx.path.to_string(),
                            line: c.line,
                            target_line,
                            rules,
                            justification,
                        });
                    }
                }
                Err(why) => marker(c.line, format!("malformed waiver: {why}")),
            }
        } else {
            marker(c.line, format!("unrecognized directive `{rest}`"));
        }
    }
    if let Some(start) = open_hot {
        marker(start, "`hot` region never closed with `end-hot`".into());
    }
    out
}

/// Parses `rule[, rule]*) -- justification` (the part after `allow(`).
fn parse_allow(tail: &str) -> Result<(Vec<String>, String), String> {
    let close = tail.find(')').ok_or("missing `)` after rule list")?;
    let rules: Vec<String> = tail[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("empty rule list".into());
    }
    let after = tail[close + 1..].trim_start();
    let justification = after
        .strip_prefix("--")
        .map(str::trim)
        .ok_or("missing ` -- <justification>`")?;
    if justification.is_empty() {
        return Err("empty justification".into());
    }
    Ok((rules, justification.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_ctx() -> FileCtx<'static> {
        FileCtx {
            path: "crates/noc/src/x.rs",
            crate_name: "noc",
            in_test_dir: false,
            is_crate_root: false,
        }
    }

    fn rules_fired(report: &FileReport) -> Vec<&'static str> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn std_hash_fires_and_fnv_does_not() {
        let r = analyze_source(&sim_ctx(), "use std::collections::HashMap;\n");
        assert_eq!(rules_fired(&r), vec!["determinism/std-hash"]);
        let r = analyze_source(&sim_ctx(), "use crate::fnv::FnvHashMap;\n");
        assert!(r.violations.is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n}\n";
        assert!(analyze_source(&sim_ctx(), src).violations.is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nmod prod {\n  use std::collections::HashMap;\n}\n";
        assert_eq!(
            rules_fired(&analyze_source(&sim_ctx(), src)),
            vec!["determinism/std-hash"]
        );
    }

    #[test]
    fn trailing_waiver_covers_same_line_and_is_tallied() {
        let src = "use std::collections::HashMap; // htpb-lint: allow(determinism/std-hash) -- alias definition\n";
        let r = analyze_source(&sim_ctx(), src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.waived.len(), 1);
        assert_eq!(r.waivers.len(), 1);
        assert_eq!(r.waivers[0].justification, "alias definition");
    }

    #[test]
    fn standalone_waiver_covers_next_token_line() {
        let src = "// htpb-lint: allow(determinism/std-hash) -- alias definition\n\nuse std::collections::HashMap;\n";
        let r = analyze_source(&sim_ctx(), src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.waived.len(), 1);
    }

    #[test]
    fn waiver_without_justification_is_a_marker_violation() {
        let src = "use std::collections::HashMap; // htpb-lint: allow(determinism/std-hash)\n";
        let fired = rules_fired(&analyze_source(&sim_ctx(), src));
        assert!(fired.contains(&"lint/marker"), "{fired:?}");
        assert!(fired.contains(&"determinism/std-hash"), "{fired:?}");
    }

    #[test]
    fn unknown_rule_id_is_a_marker_violation() {
        let src = "// htpb-lint: allow(determinism/typo) -- whoops\nfn f() {}\n";
        assert_eq!(
            rules_fired(&analyze_source(&sim_ctx(), src)),
            vec!["lint/marker"]
        );
    }

    #[test]
    fn unused_waiver_is_a_marker_violation() {
        let src = "// htpb-lint: allow(determinism/std-hash) -- stale\nfn f() {}\n";
        assert_eq!(
            rules_fired(&analyze_source(&sim_ctx(), src)),
            vec!["lint/marker"]
        );
    }

    #[test]
    fn marker_findings_cannot_be_waived() {
        let src = "// htpb-lint: allow(lint/marker) -- nope\nfn f() {}\n";
        assert_eq!(
            rules_fired(&analyze_source(&sim_ctx(), src)),
            vec!["lint/marker"]
        );
    }

    #[test]
    fn hot_region_flags_allocations_only_inside() {
        let src = "fn cold() { let v = Vec::new(); }\n\
                   // htpb-lint: hot\n\
                   fn hot() { let x = idx + 1; }\n\
                   // htpb-lint: end-hot\n\
                   fn cold2() -> String { format!(\"x\") }\n";
        assert!(analyze_source(&sim_ctx(), src).violations.is_empty());
        let bad = "// htpb-lint: hot\nfn hot() { let v = vec![1]; }\n// htpb-lint: end-hot\n";
        assert_eq!(
            rules_fired(&analyze_source(&sim_ctx(), bad)),
            vec!["alloc/hot-loop"]
        );
    }

    #[test]
    fn unclosed_hot_region_is_a_marker_violation() {
        let src = "// htpb-lint: hot\nfn f() {}\n";
        assert_eq!(
            rules_fired(&analyze_source(&sim_ctx(), src)),
            vec!["lint/marker"]
        );
    }

    #[test]
    fn forbid_unsafe_rule_checks_crate_roots_only() {
        let root = FileCtx {
            path: "crates/noc/src/lib.rs",
            crate_name: "noc",
            in_test_dir: false,
            is_crate_root: true,
        };
        let r = analyze_source(&root, "pub mod x;\n");
        assert_eq!(rules_fired(&r), vec!["unsafe/forbid-missing"]);
        let r = analyze_source(&root, "#![forbid(unsafe_code)]\npub mod x;\n");
        assert!(r.violations.is_empty());
        // Waiver anywhere in the file covers the crate-scoped finding.
        let r = analyze_source(
            &root,
            "//! docs\n// htpb-lint: allow(unsafe/forbid-missing) -- atomics layer\npub mod x;\n",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn obs_registration_without_class_fires() {
        let ctx = FileCtx {
            path: "crates/manycore/src/x.rs",
            crate_name: "manycore",
            in_test_dir: false,
            is_crate_root: false,
        };
        let bad = "fn f(r: &Registry) { r.counter(\"n\", \"h\", class_var); }\n";
        assert_eq!(
            rules_fired(&analyze_source(&ctx, bad)),
            vec!["obs/class-explicit"]
        );
        let good = "fn f(r: &Registry) { r.counter(\"n\", \"h\", Class::Sim); }\n";
        assert!(analyze_source(&ctx, good).violations.is_empty());
        // Nested call arguments still count as inside the registration.
        let nested = "fn f(r: &Registry) { r.histogram(\"n\", &bounds(3), \"h\", Class::Sim); }\n";
        assert!(analyze_source(&ctx, nested).violations.is_empty());
    }

    #[test]
    fn sim_placement_fires_in_harness_but_not_manycore() {
        let harness = FileCtx {
            path: "crates/harness/src/x.rs",
            crate_name: "harness",
            in_test_dir: false,
            is_crate_root: false,
        };
        let src = "fn f(r: &Registry) { r.counter(\"n\", \"h\", Class::Sim); }\n";
        assert_eq!(
            rules_fired(&analyze_source(&harness, src)),
            vec!["obs/sim-placement"]
        );
        let manycore = FileCtx {
            crate_name: "manycore",
            path: "crates/manycore/src/x.rs",
            ..harness
        };
        assert!(analyze_source(&manycore, src).violations.is_empty());
    }

    #[test]
    fn recovery_path_panic_fires_only_in_listed_files() {
        let fs = FileCtx {
            path: "crates/harness/src/fs.rs",
            crate_name: "harness",
            in_test_dir: false,
            is_crate_root: false,
        };
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(
            rules_fired(&analyze_source(&fs, src)),
            vec!["panic/recovery-path"]
        );
        let other = FileCtx {
            path: "crates/harness/src/job.rs",
            ..fs
        };
        assert!(analyze_source(&other, src).violations.is_empty());
        // unwrap_or / expect_err must not fire.
        let ok = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(3) }\n";
        assert!(analyze_source(&fs, ok).violations.is_empty());
    }

    #[test]
    fn choke_point_exempts_fs_rs_and_tests() {
        let bin = FileCtx {
            path: "crates/harness/src/bin/x.rs",
            crate_name: "harness",
            in_test_dir: false,
            is_crate_root: true,
        };
        let src = "#![forbid(unsafe_code)]\nfn f() { std::fs::write(\"a\", b\"x\").ok(); }\n";
        assert_eq!(
            rules_fired(&analyze_source(&bin, src)),
            vec!["fs/choke-point"]
        );
        let fs = FileCtx {
            path: "crates/harness/src/fs.rs",
            crate_name: "harness",
            in_test_dir: false,
            is_crate_root: false,
        };
        assert!(
            analyze_source(&fs, "fn f() { std::fs::write(\"a\", b\"x\").ok(); }\n")
                .violations
                .is_empty()
        );
        let test = FileCtx {
            path: "crates/harness/tests/x.rs",
            crate_name: "harness",
            in_test_dir: true,
            is_crate_root: false,
        };
        assert!(
            analyze_source(&test, "fn f() { std::fs::write(\"a\", b\"x\").ok(); }\n")
                .violations
                .is_empty()
        );
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// std::collections::HashMap\n/* Instant::now() */\nlet s = \"thread_rng OpenOptions\";\nlet r = r#\"fs::write\"#;\n";
        assert!(analyze_source(&sim_ctx(), src).violations.is_empty());
    }
}
