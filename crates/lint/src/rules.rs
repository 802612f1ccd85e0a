//! Per-file rules: D1 (deterministic containers), D2 (no ambient
//! nondeterminism), P1 (panic-freedom on the I/O path), C1/C2 (shard
//! safety), W1 (waiver hygiene), W2 (stale-waiver detection), plus the
//! waiver parser that can silence the scanned rules.
//!
//! D1/D2/C1/C2 are *resolution-aware*: the scan consults the per-file
//! symbol table ([`crate::resolve`]) so `use std::collections::HashMap
//! as Map;` is caught at every `Map` site, while a local `struct
//! Instant` stops bare `Instant` tokens from flagging (a
//! `std::`-qualified occurrence still does).

use std::collections::BTreeSet;

use crate::concurrency;
use crate::resolve::{self, FileSymbols, Workspace};
use crate::strip::{view, FileView};

/// One lint finding. `line` is 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub msg: String,
}

impl Finding {
    fn new(rule: &'static str, file: &str, line: usize, msg: String) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            msg,
        }
    }
}

/// Rule ids a waiver may name. (W1/W2 police the waivers themselves and
/// cannot be waived; X1 findings are cross-file, so a line-scoped
/// waiver naming it can never be live and W2 will flag it.)
pub const KNOWN_RULES: &[&str] = &["D1", "D2", "P1", "C1", "C2", "X1"];

/// Which rule families apply to a file. The caller derives this from the
/// path; fixture tests construct it directly.
#[derive(Debug, Clone, Copy)]
pub struct FileCfg {
    /// D1: ban `HashMap`/`HashSet` (sim-visible iteration order).
    pub d1: bool,
    /// D2: ban wall-clock / ambient nondeterminism.
    pub d2: bool,
    /// D2 thread ban: `thread::spawn` / `std::thread` are banned in
    /// *every* crate, the sim included — host threads may only be
    /// touched by the sanctioned parallel-kernel module
    /// (`crates/sim/src/parallel.rs`), which carries explicit
    /// W1-justified waivers rather than a config exemption.
    pub threads: bool,
    /// P1: ban panicking constructs (I/O-path crates only).
    pub p1: bool,
    /// C1: ban thread-shareable mutable state (everywhere except the
    /// sanctioned parallel kernel + merge path).
    pub c1: bool,
    /// C2: ban host channel construction (same sanctioned modules).
    pub c2: bool,
}

impl FileCfg {
    pub fn all() -> Self {
        FileCfg {
            d1: true,
            d2: true,
            threads: true,
            p1: true,
            c1: true,
            c2: true,
        }
    }
}

/// A parsed `// paragon-lint: allow(<rules>) — <reason>` waiver.
///
/// A waiver on a line that also carries code covers that line only; a
/// waiver on a line of its own covers the rest of its enclosing brace
/// block. The justification after the dash is mandatory (W1), and
/// `used` tracks — per named rule — whether the waiver suppressed
/// anything, so W2 can flag the stale ones.
struct Waiver {
    rules: Vec<String>,
    first: usize,
    last: usize,
    used: Vec<bool>,
    in_test: bool,
}

const WAIVER_TAG: &str = "paragon-lint:";

/// Extract the waiver directive from `raw`, if the line carries one.
///
/// A directive must *open* the line's comment (`// paragon-lint: ...`),
/// so prose or string literals that merely mention the syntax do not
/// parse as waivers. `comment_col` is where the stripper saw this
/// line's `//` comment begin.
fn directive(raw: &str, comment_col: Option<usize>) -> Option<String> {
    let col = comment_col?;
    let text: String = raw
        .chars()
        .skip(col)
        .skip_while(|c| *c == '/')
        .collect::<String>()
        .trim_start_matches('!')
        .trim_start()
        .to_string();
    text.strip_prefix(WAIVER_TAG)
        .map(|rest| rest.trim_start().to_string())
}

fn parse_waivers(file: &str, src: &str, v: &FileView) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    let n_lines = v.test.len();
    for (idx, raw) in src.lines().enumerate() {
        let line = idx + 1;
        let Some(body) = directive(raw, v.comment_col_at(line)) else {
            continue;
        };
        let Some(after) = body.strip_prefix("allow(") else {
            findings.push(Finding::new(
                "W1",
                file,
                line,
                "malformed waiver: expected `paragon-lint: allow(<rules>) — <reason>`".into(),
            ));
            continue;
        };
        let Some(close) = after.find(')') else {
            findings.push(Finding::new(
                "W1",
                file,
                line,
                "malformed waiver: missing ')' after allow(".into(),
            ));
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            findings.push(Finding::new(
                "W1",
                file,
                line,
                "waiver names no rules".into(),
            ));
            continue;
        }
        let mut unknown = false;
        for r in &rules {
            if !KNOWN_RULES.contains(&r.as_str()) {
                unknown = true;
                findings.push(Finding::new(
                    "W1",
                    file,
                    line,
                    format!(
                        "waiver names unknown rule `{r}` (known: {})",
                        KNOWN_RULES.join(", ")
                    ),
                ));
            }
        }
        if unknown {
            // A malformed waiver must not silence anything (and must not
            // count as a registered waiver for W2 either).
            continue;
        }
        // Mandatory justification: a dash separator followed by prose.
        let rest = after[close + 1..].trim();
        let reason = ["—", "--", "-"]
            .iter()
            .find_map(|sep| rest.strip_prefix(sep))
            .map(str::trim)
            .unwrap_or("");
        if reason.len() < 8 {
            findings.push(Finding::new(
                "W1",
                file,
                line,
                "waiver lacks a justification (`// paragon-lint: allow(RULE) — why this is sound`)"
                    .into(),
            ));
            continue;
        }
        // Scope: own-line waivers cover the rest of the enclosing block.
        let code_line = v.line(line);
        let own_line = code_line.trim().is_empty();
        let last = if own_line {
            // Advance while the next line still starts inside the block;
            // the closing-brace line starts at depth `d0`, so it is the
            // last line covered.
            let d0 = v.depth_at(line);
            let mut l = line;
            while l < n_lines && v.depth_at(l + 1) >= d0 {
                l += 1;
            }
            l
        } else {
            line
        };
        let used = vec![false; rules.len()];
        waivers.push(Waiver {
            rules,
            first: line,
            last,
            used,
            in_test: v.is_test(line),
        });
    }
    (waivers, findings)
}

/// Would any registered waiver cover `rule` at `line`? Marks every
/// covering waiver's rule slot as used (for W2) and returns whether the
/// finding is silenced.
fn try_waive(waivers: &mut [Waiver], rule: &str, line: usize) -> bool {
    let mut hit = false;
    for w in waivers.iter_mut() {
        if line < w.first || line > w.last {
            continue;
        }
        for (i, r) in w.rules.iter().enumerate() {
            if r == rule {
                w.used[i] = true;
                hit = true;
            }
        }
    }
    hit
}

/// Does `hay` contain `word` bounded by non-identifier chars?
fn has_word(hay: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(at) = hay[from..].find(word) {
        let s = from + at;
        let e = s + word.len();
        let pre = hay[..s].chars().next_back();
        let post = hay[e..].chars().next();
        let pre_ok = pre.is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let post_ok = post.is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if pre_ok && post_ok {
            return true;
        }
        from = e;
    }
    false
}

/// Char columns at which `word` occurs in `chars` with identifier
/// boundaries.
fn word_cols(chars: &[char], word: &str) -> Vec<usize> {
    let w: Vec<char> = word.chars().collect();
    let mut out = Vec::new();
    if w.is_empty() || chars.len() < w.len() {
        return out;
    }
    for s in 0..=chars.len() - w.len() {
        if chars[s..s + w.len()] != w[..] {
            continue;
        }
        let pre_ok = s == 0 || !(chars[s - 1].is_alphanumeric() || chars[s - 1] == '_');
        let post = chars.get(s + w.len());
        let post_ok = post.is_none_or(|c| !c.is_alphanumeric() && *c != '_');
        if pre_ok && post_ok {
            out.push(s);
        }
    }
    out
}

/// Identifier path segments immediately preceding the token at char
/// column `col`: for `a::b::WORD`, returns `["a", "b"]`.
fn leading_path(chars: &[char], col: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut k = col;
    loop {
        if k < 2 || !(chars[k - 1] == ':' && chars[k - 2] == ':') {
            break;
        }
        k -= 2;
        let end = k;
        while k > 0 && (chars[k - 1].is_alphanumeric() || chars[k - 1] == '_') {
            k -= 1;
        }
        if k == end {
            break;
        }
        segs.push(chars[k..end].iter().collect());
    }
    segs.reverse();
    segs
}

/// Should a bare/qualified occurrence of banned-vocabulary `word` at
/// `col` flag? Fully `std::`-qualified occurrences always do (shadowing
/// hides a name, not the item); `crate`/`self`/`super`-relative paths
/// never do; other qualifier roots resolve through the symbol table.
fn classify(
    chars: &[char],
    col: usize,
    word: &str,
    shadow: &BTreeSet<String>,
    syms: &FileSymbols,
    ws: &Workspace,
    crate_ident: &str,
) -> bool {
    let quals = leading_path(chars, col);
    if quals.is_empty() {
        return !shadow.contains(word);
    }
    match quals[0].as_str() {
        "std" | "core" | "alloc" => true,
        "crate" | "self" | "super" => false,
        root => {
            if let Some(b) = syms.binding(root) {
                let mut full = b.target.clone();
                full.extend(quals[1..].iter().cloned());
                full.push(word.to_string());
                return ws.banned(crate_ident, &full).is_some();
            }
            if syms.defines.contains(root) {
                return false;
            }
            if ws.exports.contains_key(root) {
                let mut full = quals.clone();
                full.push(word.to_string());
                return ws.banned(crate_ident, &full).is_some();
            }
            // Unknown root: keep the lexer's strictness — an unresolved
            // qualifier is not evidence of innocence.
            !shadow.contains(word)
        }
    }
}

/// P1 slice-index heuristic: flag `expr[index]` where `index` is a plain
/// identifier or field path (`slot`, `p.member`, `src.0`). Those indexes
/// are typically request- or wire-derived, exactly where an out-of-range
/// value must become a protocol error, not a crash. Ranges (`buf[a..b]`),
/// integer literals (`v[0]`), and compound expressions (`v[i + 1]`,
/// `v[i as usize]`) are loop/invariant-shaped and are not flagged.
fn index_findings(code_line: &str) -> Vec<String> {
    let chars: Vec<char> = code_line.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] != '[' {
            i += 1;
            continue;
        }
        // Preceding significant char must end an indexable expression.
        let mut p = i;
        while p > 0 && chars[p - 1] == ' ' {
            p -= 1;
        }
        let prev = if p > 0 { Some(chars[p - 1]) } else { None };
        // A `[` after the keyword `mut` opens a slice type (`&mut [u8]`).
        let mut w = p;
        while w > 0 && (chars[w - 1].is_alphanumeric() || chars[w - 1] == '_') {
            w -= 1;
        }
        let after_mut = chars[w..p].iter().copied().eq("mut".chars());
        let indexable = !after_mut
            && matches!(prev, Some(c) if c.is_alphanumeric() || c == '_' || c == ')' || c == ']');
        // Find the matching `]` on this line.
        let mut depth = 1;
        let mut j = i + 1;
        while j < chars.len() && depth > 0 {
            match chars[j] {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if depth != 0 {
            break; // index spans lines; out of scope for the heuristic
        }
        let inner: String = chars[i + 1..j - 1].iter().collect();
        i = j;
        if !indexable {
            continue;
        }
        let inner = inner.trim();
        if inner.is_empty() || inner.contains("..") {
            continue;
        }
        if inner.chars().all(|c| c.is_ascii_digit() || c == '_') {
            continue;
        }
        let is_path = inner.split('.').all(|seg| {
            !seg.is_empty()
                && (seg.chars().all(|c| c.is_ascii_digit())
                    || (seg
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                        && seg.chars().all(|c| c.is_alphanumeric() || c == '_')))
        });
        if is_path {
            out.push(inner.to_string());
        }
    }
    out
}

const D2_WORDS: &[&str] = &["Instant", "SystemTime", "thread_rng"];
const P1_MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];

/// Every token the base word scans can produce, for deciding whether an
/// import-site finding would duplicate one.
fn is_base_word(name: &str) -> bool {
    matches!(name, "HashMap" | "HashSet")
        || D2_WORDS.contains(&name)
        || concurrency::C1_WORDS.contains(&name)
        || concurrency::C2_WORDS.contains(&name)
        // The atomic scan already sees every `Atomic*` token, so an
        // un-aliased atomic import must not get a second, duplicate
        // alias check.
        || (name.starts_with("Atomic") && name.chars().nth(6).is_some_and(|c| c.is_ascii_uppercase()))
}

/// Is `rule` (for an item canonicalizing to `canon`) active under `cfg`?
/// `std::thread` is special: it rides the thread-ban dimension, which
/// stays on even where the D2 wall-clock words are off.
fn rule_enabled(cfg: &FileCfg, rule: &str, canon: &[String]) -> bool {
    match rule {
        "D1" => cfg.d1,
        "D2" if canon.get(1).is_some_and(|s| s == "thread") => cfg.threads,
        "D2" => cfg.d2,
        "P1" => cfg.p1,
        "C1" => cfg.c1,
        "C2" => cfg.c2,
        _ => false,
    }
}

fn base_msg(rule: &'static str, word: &str) -> String {
    match rule {
        "D1" => format!(
            "`{word}` in sim-visible code: iteration order is randomly seeded; \
             use `BTreeMap`/`BTreeSet` so same-seed runs stay byte-identical"
        ),
        "D2" => format!(
            "`{word}` outside the sim kernel: wall-clock/ambient entropy breaks \
             same-seed reproducibility; use SimTime / seeded rng streams"
        ),
        "C1" => concurrency::c1_msg(word),
        "C2" => concurrency::c2_msg(word),
        _ => format!("`{word}` is banned"),
    }
}

fn short_why(rule: &str) -> &'static str {
    match rule {
        "D1" => "iteration order is randomly seeded; use `BTreeMap`/`BTreeSet`",
        "D2" => "wall-clock/ambient entropy breaks same-seed reproducibility",
        "C1" => "thread-shareable mutable state is confined to the sanctioned parallel kernel",
        "C2" => "cross-shard handoff must use the typed frame-channel/epoch-barrier API",
        _ => "banned item",
    }
}

/// A word the line scan looks for. `resolved` marks alias checks whose
/// target is already known-banned; base checks go through [`classify`].
struct Check {
    word: String,
    rule: &'static str,
    msg: String,
    skip_span: Option<(usize, usize)>,
    resolved: bool,
}

/// Run the per-file rules with an empty workspace model (fixture entry
/// point; real scans go through [`lint_file_in`]).
pub fn lint_file(file: &str, src: &str, cfg: FileCfg) -> Vec<Finding> {
    lint_file_in(file, src, cfg, &Workspace::default(), "")
}

/// Run D1/D2/P1/C1/C2/W1/W2 over one file. `src` is the raw source
/// text; `ws`/`crate_ident` supply the workspace resolution context.
pub fn lint_file_in(
    file: &str,
    src: &str,
    cfg: FileCfg,
    ws: &Workspace,
    crate_ident: &str,
) -> Vec<Finding> {
    let v = view(src);
    let syms = resolve::parse_file(&v);
    let (mut waivers, mut findings) = parse_waivers(file, src, &v);

    // Partition use-bindings: banned targets become scannable names,
    // everything else rebinds (shadows) its name.
    let mut banned_bindings: Vec<(&resolve::UseBinding, &'static str, Vec<String>)> = Vec::new();
    let mut shadow: BTreeSet<String> = syms.defines.clone();
    for b in &syms.uses {
        match ws.banned(crate_ident, &b.target) {
            Some((rule, canon)) => banned_bindings.push((b, rule, canon)),
            None => {
                shadow.insert(b.name.clone());
            }
        }
    }
    for (b, _, _) in &banned_bindings {
        shadow.remove(&b.name);
    }

    fn base(word: &str, rule: &'static str) -> Check {
        Check {
            word: word.to_string(),
            rule,
            msg: base_msg(rule, word),
            skip_span: None,
            resolved: false,
        }
    }
    let mut checks: Vec<Check> = Vec::new();
    if cfg.d1 {
        checks.extend(["HashMap", "HashSet"].map(|w| base(w, "D1")));
    }
    if cfg.d2 {
        checks.extend(D2_WORDS.iter().map(|w| base(w, "D2")));
    }
    if cfg.c1 {
        checks.extend(concurrency::C1_WORDS.iter().map(|w| base(w, "C1")));
    }
    if cfg.c2 {
        checks.extend(concurrency::C2_WORDS.iter().map(|w| base(w, "C2")));
    }
    for (b, rule, canon) in &banned_bindings {
        if !rule_enabled(&cfg, rule, canon) || is_base_word(&b.name) {
            continue;
        }
        // `use std::thread;` keeps its historical handling via the
        // dedicated thread line check below.
        if b.name == "thread" {
            continue;
        }
        let canon_s = canon.join("::");
        checks.push(Check {
            word: b.name.clone(),
            rule,
            msg: format!(
                "`{}` resolves to banned `{canon_s}` via use-declaration: {}",
                b.name,
                short_why(rule)
            ),
            skip_span: Some(b.span),
            resolved: true,
        });
    }

    for (idx, code_line) in v.code.lines().enumerate() {
        let line = idx + 1;
        if v.is_test(line) {
            continue;
        }
        let chars: Vec<char> = code_line.chars().collect();
        for ck in &checks {
            if ck.skip_span.is_some_and(|(a, b)| line >= a && line <= b) {
                continue;
            }
            let hit = word_cols(&chars, &ck.word).into_iter().any(|col| {
                ck.resolved || classify(&chars, col, &ck.word, &shadow, &syms, ws, crate_ident)
            });
            if hit && !try_waive(&mut waivers, ck.rule, line) {
                findings.push(Finding::new(ck.rule, file, line, ck.msg.clone()));
            }
        }
        if cfg.c1 {
            let atomic_hit = concurrency::atomic_tokens(code_line)
                .into_iter()
                .find(|tok| {
                    word_cols(&chars, tok)
                        .into_iter()
                        .any(|col| classify(&chars, col, tok, &shadow, &syms, ws, crate_ident))
                });
            if let Some(tok) = atomic_hit {
                if !try_waive(&mut waivers, "C1", line) {
                    findings.push(Finding::new("C1", file, line, concurrency::c1_msg(&tok)));
                }
            }
            for (_what, msg) in concurrency::c1_line_extras(code_line) {
                if !try_waive(&mut waivers, "C1", line) {
                    findings.push(Finding::new("C1", file, line, msg));
                }
            }
        }
        if cfg.threads
            && (code_line.contains("thread::spawn") || has_word(code_line, "std::thread"))
            && !try_waive(&mut waivers, "D2", line)
        {
            findings.push(Finding::new(
                "D2",
                file,
                line,
                "host threads (`thread::spawn` / `std::thread`): OS scheduling order is \
                 nondeterministic; spawn sim tasks on the executor, or route host \
                 parallelism through the sanctioned `sim::parallel` module"
                    .into(),
            ));
        }
        if cfg.p1 {
            for mac in P1_MACROS {
                if code_line.contains(mac) && !try_waive(&mut waivers, "P1", line) {
                    findings.push(Finding::new(
                        "P1",
                        file,
                        line,
                        format!(
                            "`{mac}` on the I/O path: faults must surface as protocol errors \
                             (PfsError/DiskError/RpcError), not process aborts"
                        ),
                    ));
                }
            }
            for call in [".unwrap()", ".expect("] {
                if code_line.contains(call) && !try_waive(&mut waivers, "P1", line) {
                    findings.push(Finding::new(
                        "P1",
                        file,
                        line,
                        format!("`{call}` on the I/O path: propagate the error instead"),
                    ));
                }
            }
            if !index_findings(code_line).is_empty() && !try_waive(&mut waivers, "P1", line) {
                for idx_expr in index_findings(code_line) {
                    findings.push(Finding::new(
                        "P1",
                        file,
                        line,
                        format!(
                            "unchecked slice index `[{idx_expr}]`: use `.get({idx_expr})` and \
                             map None to an error (or waive with the bounds invariant)"
                        ),
                    ));
                }
            }
        }
    }

    // Import-site findings for banned bindings the token scans could
    // not see (re-exported names, module imports): skipped when a
    // same-rule finding already landed inside the declaration's span.
    for (b, rule, canon) in &banned_bindings {
        if !rule_enabled(&cfg, rule, canon) || v.is_test(b.span.0) {
            continue;
        }
        let covered = findings
            .iter()
            .any(|f| f.rule == *rule && f.line >= b.span.0 && f.line <= b.span.1);
        if covered || try_waive(&mut waivers, rule, b.span.0) {
            continue;
        }
        findings.push(Finding::new(
            rule,
            file,
            b.span.0,
            format!(
                "`use` binds `{}` to banned `{}`: {}",
                b.name,
                canon.join("::"),
                short_why(rule)
            ),
        ));
    }

    // W2: every registered waiver must have suppressed something for
    // every rule it names, or the ledger has rotted.
    for w in &waivers {
        if w.in_test {
            continue;
        }
        for (i, r) in w.rules.iter().enumerate() {
            if !w.used[i] {
                findings.push(Finding::new(
                    "W2",
                    file,
                    w.first,
                    format!(
                        "stale waiver: `{r}` does not fire on the line(s) this waiver covers — \
                         delete the waiver or restore the invariant it documents"
                    ),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries() {
        assert!(has_word("use std::collections::HashMap;", "HashMap"));
        assert!(!has_word("struct MyHashMapLike;", "HashMap"));
        assert!(!has_word("InstantReplay", "Instant"));
    }

    #[test]
    fn leading_path_walks_qualifiers() {
        let line: Vec<char> = "let t = std::time::Instant::now();".chars().collect();
        let col = "let t = std::time::".chars().count();
        assert_eq!(leading_path(&line, col), ["std", "time"]);
        let line: Vec<char> = "Instant::now()".chars().collect();
        assert!(leading_path(&line, 0).is_empty());
    }

    #[test]
    fn index_heuristic_shapes() {
        assert_eq!(index_findings("let d = self.ids[ion];"), vec!["ion"]);
        assert_eq!(index_findings("per[p.member].push(x)"), vec!["p.member"]);
        assert_eq!(index_findings("t[src.0]"), vec!["src.0"]);
        assert!(index_findings("buf[a..b].copy_from_slice(&x[c..d])").is_empty());
        assert!(index_findings("v[0] + v[i + 1] + v[i as usize]").is_empty());
        assert!(index_findings("#[derive(Clone)]").is_empty());
        assert!(index_findings("vec![0u8; 4]").is_empty());
        // `mut [` is a slice type, not an index; a real index still fires.
        assert!(index_findings("fn f(out: &mut [u8])").is_empty());
        assert!(index_findings("fn f(out: &mut[u8])").is_empty());
        assert_eq!(index_findings("let b = buf[i];"), vec!["i"]);
        assert_eq!(index_findings("g(&mut v[i])"), vec!["i"]);
        assert_eq!(index_findings("let x = komut[u8];"), vec!["u8"]);
        assert!(index_findings("let x: [u8; 4] = y;").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(lint_file("x.rs", src, FileCfg::all()).is_empty());
    }

    #[test]
    fn waiver_silences_and_w1_fires() {
        let ok = "use std::collections::HashMap; // paragon-lint: allow(D1) — host-only tool state, never sim-visible\n";
        assert!(lint_file("x.rs", ok, FileCfg::all()).is_empty());
        let bare = "use std::collections::HashMap; // paragon-lint: allow(D1)\n";
        let f = lint_file("x.rs", bare, FileCfg::all());
        assert!(f.iter().any(|f| f.rule == "W1"));
        assert!(
            f.iter().any(|f| f.rule == "D1"),
            "unjustified waiver must not silence"
        );
    }

    #[test]
    fn thread_ban_applies_even_where_d2_is_off() {
        // The sim crate is exempt from the wall-clock D2 words but NOT
        // from the thread ban: a sharded kernel that raced the host
        // scheduler would silently break byte-identity.
        let sim_cfg = FileCfg {
            d1: true,
            d2: false,
            threads: true,
            p1: false,
            c1: true,
            c2: true,
        };
        let spawn = "let h = std::thread::spawn(move || world.run());\n";
        let f = lint_file("crates/sim/src/executor.rs", spawn, sim_cfg);
        assert_eq!(f.iter().filter(|f| f.rule == "D2").count(), 1);
        let import = "use std::thread;\n";
        let f = lint_file("crates/sim/src/executor.rs", import, sim_cfg);
        assert_eq!(f.iter().filter(|f| f.rule == "D2").count(), 1);
        // `Instant` stays allowed under this cfg (d2 off) — the ban is
        // its own dimension.
        let inst = "let t = Instant::now();\n";
        assert!(lint_file("crates/sim/src/executor.rs", inst, sim_cfg).is_empty());
    }

    #[test]
    fn thread_ban_is_waiverable_with_justification() {
        let ok = "// paragon-lint: allow(D2) — epoch barrier: worlds only interact at deterministic merge points\n\
                  let h = std::thread::spawn(run);\n";
        // Own-line waiver covers the rest of the block.
        assert!(lint_file("crates/sim/src/parallel.rs", ok, FileCfg::all()).is_empty());
        let bare = "let h = std::thread::spawn(run); // paragon-lint: allow(D2)\n";
        let f = lint_file("crates/sim/src/parallel.rs", bare, FileCfg::all());
        assert!(f.iter().any(|f| f.rule == "W1"));
        assert!(
            f.iter().any(|f| f.rule == "D2"),
            "unjustified waiver must not silence the thread ban"
        );
    }

    #[test]
    fn block_scope_waiver() {
        let src = "fn f(v: &[u32], pos: usize) -> u32 {\n    \
                   // paragon-lint: allow(P1) — pos comes from binary_search, in bounds\n    \
                   v[pos]\n}\nfn g(v: &[u32], pos: usize) -> u32 {\n    v[pos]\n}\n";
        let f = lint_file("x.rs", src, FileCfg::all());
        assert_eq!(f.iter().filter(|f| f.rule == "P1").count(), 1);
        assert_eq!(f.iter().find(|f| f.rule == "P1").map(|f| f.line), Some(6));
    }

    #[test]
    fn alias_import_is_caught_and_local_shadow_is_not() {
        let src =
            "use std::collections::HashMap as Map;\nfn f() { let m = Map::new(); let _ = m; }\n";
        let f = lint_file("x.rs", src, FileCfg::all());
        assert_eq!(
            f.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
            [("D1", 1), ("D1", 2)]
        );
        assert!(
            f[1].msg.contains("std::collections::HashMap"),
            "{}",
            f[1].msg
        );

        let shadowed = "struct Instant(u64);\nfn f() -> Instant { Instant(3) }\n";
        assert!(lint_file("x.rs", shadowed, FileCfg::all()).is_empty());
        let qualified = "struct Instant(u64);\nfn f() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n";
        let f = lint_file("x.rs", qualified, FileCfg::all());
        assert_eq!(
            f.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
            [("D2", 2)],
            "std-qualified use must pierce the local shadow"
        );
    }

    #[test]
    fn crate_relative_paths_are_never_banned() {
        let src = "fn f() { let b = crate::sync::Barrier::new(2); let _ = b; }\n";
        assert!(lint_file("x.rs", src, FileCfg::all()).is_empty());
    }

    #[test]
    fn stale_waiver_is_a_w2_finding() {
        let live = "use std::collections::HashMap; // paragon-lint: allow(D1) — host-side cache, never sim-visible\n";
        assert!(lint_file("x.rs", live, FileCfg::all()).is_empty());
        let stale = "fn f(v: &[u32]) -> usize {\n    \
                     // paragon-lint: allow(P1) — index checked by caller contract\n    \
                     v.len()\n}\n";
        let f = lint_file("x.rs", stale, FileCfg::all());
        assert_eq!(
            f.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
            [("W2", 2)]
        );
        assert!(f[0].msg.contains("stale waiver"), "{}", f[0].msg);
    }

    #[test]
    fn multi_rule_waiver_tracks_each_rule_separately() {
        let src = "use std::collections::HashMap; // paragon-lint: allow(D1, C1) — host-side tool state only\n";
        let f = lint_file("x.rs", src, FileCfg::all());
        assert_eq!(
            f.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
            [("W2", 1)],
            "D1 is live but the C1 half is stale"
        );
        let both = "use std::collections::HashMap; use std::sync::Mutex; // paragon-lint: allow(D1, C1) — host-side tool state only\n";
        assert!(lint_file("x.rs", both, FileCfg::all()).is_empty());
    }
}
