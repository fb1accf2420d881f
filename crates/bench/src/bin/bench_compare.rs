//! Warn-only benchmark-regression triage: diffs the numeric leaves of a
//! current `BENCH_*.json` against the committed baseline and prints a
//! rate-delta table.
//!
//! Usage: `bench_compare <baseline.json> <current.json> [<baseline2>
//! <current2> ...]`
//!
//! Every numeric leaf present in both documents becomes one row keyed by
//! its JSON path (array elements are labelled by their `name`/`mesh`/
//! `workload` field when they carry one, by index otherwise). Rows whose
//! relative delta exceeds the warn threshold are flagged, and leaves
//! that appear on only one side are listed — but the exit status is
//! **always zero**: benchmark numbers are wall-clock observations of the
//! host that produced them, so a delta is a prompt for a human, never a
//! CI failure. Determinism regressions are caught elsewhere, by the
//! byte-identity assertions in the experiments themselves.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use std::collections::BTreeMap;

use multinoc_bench::json::{parse, Json};
use multinoc_bench::{table_row, Report};

/// Relative delta (in percent) above which a row is flagged.
const WARN_PCT: f64 = 10.0;

/// Flattens every numeric leaf into `path -> value`.
fn flatten(json: &Json, path: &str, out: &mut BTreeMap<String, f64>) {
    match json {
        Json::Num(n) => {
            out.insert(path.to_string(), *n);
        }
        Json::Bool(b) => {
            out.insert(path.to_string(), f64::from(u8::from(*b)));
        }
        Json::Obj(map) => {
            for (key, value) in map {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(value, &sub, out);
            }
        }
        Json::Arr(items) => {
            for (index, item) in items.iter().enumerate() {
                // Human-readable element labels where the row has one;
                // the index stays in the path so repeated labels (two
                // "2x2" points, say) never collide.
                let label = ["name", "mesh", "workload", "threads"]
                    .iter()
                    .find_map(|k| {
                        let v = item.get(k)?;
                        v.as_str()
                            .map(str::to_string)
                            .or_else(|| v.as_num().map(|n| format!("{n}")))
                    })
                    .map(|l| format!("{index}:{l}"))
                    .unwrap_or_else(|| index.to_string());
                flatten(item, &format!("{path}[{label}]"), out);
            }
        }
        Json::Null | Json::Str(_) => {}
    }
}

fn compare(baseline_path: &str, current_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let baseline_text = std::fs::read_to_string(baseline_path)?;
    let current_text = std::fs::read_to_string(current_path)?;
    let mut baseline = BTreeMap::new();
    let mut current = BTreeMap::new();
    flatten(&parse(&baseline_text)?, "", &mut baseline);
    flatten(&parse(&current_text)?, "", &mut current);

    let mut r = Report::default();
    writeln!(r, "\n== {current_path} vs baseline {baseline_path}")?;
    table_row!(r, "leaf", "baseline", "current", "delta", "");
    let mut warned = 0usize;
    let mut shown = 0usize;
    for (path, &base) in &baseline {
        let Some(&cur) = current.get(path) else {
            writeln!(r, "  missing in current: {path}")?;
            continue;
        };
        if cur == base {
            continue;
        }
        let delta_pct = if base == 0.0 {
            f64::INFINITY
        } else {
            100.0 * (cur - base) / base
        };
        let warn = !delta_pct.is_finite() || delta_pct.abs() >= WARN_PCT;
        if warn {
            warned += 1;
        }
        shown += 1;
        table_row!(
            r,
            path,
            format!("{base}"),
            format!("{cur}"),
            format!("{delta_pct:+.1}%"),
            if warn { "WARN" } else { "" }
        );
    }
    for path in current.keys() {
        if !baseline.contains_key(path) {
            writeln!(r, "  new leaf (no baseline): {path}")?;
        }
    }
    if shown == 0 {
        writeln!(
            r,
            "  all {} shared numeric leaves identical",
            baseline.len()
        )?;
    } else {
        writeln!(
            r,
            "  {shown} leaves moved, {warned} beyond the {WARN_PCT:.0}% warn threshold \
             (informational only — wall-clock rates vary by host)"
        )?;
    }
    print!("{}", r.text);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench_compare <baseline.json> <current.json> [...]");
        // Still exit 0: this tool is warn-only by contract.
        return;
    }
    for pair in args.chunks(2) {
        if let Err(e) = compare(&pair[0], &pair[1]) {
            // A missing or unparsable file is reported, not fatal: a new
            // experiment may not have a committed baseline yet.
            println!("\n== {} vs baseline {}: skipped ({e})", pair[1], pair[0]);
        }
    }
}
