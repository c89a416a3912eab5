//! # Experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation, plus extension
//! experiments. Each prints a self-describing report with the paper's
//! numbers alongside the measured ones, and emits machine-readable CSV
//! blocks (lines prefixed `csv,`) for downstream plotting.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — data-decomposition latencies (real kernels + cost model) |
//! | `fig3` | Fig. 3 — tuning curve vs the precomputed optimal point |
//! | `fig4` | Fig. 4 — pthread-style vs naive-pipeline schedules (Gantt) |
//! | `fig5` | Fig. 5 — task-parallel and task+data-parallel optimal schedules |
//! | `regime_switch` | §3.4 — regime switching under a dynamic customer process |
//! | `ablation` | extension — enumerator vs list scheduling vs pipeline across states |

use std::fmt::Display;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Print an aligned text table with a title.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let headers: Vec<String> = headers.iter().map(ToString::to_string).collect();
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(ToString::to_string).collect())
        .collect();
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for r in &rows {
        assert_eq!(r.len(), n_cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            s.push_str(&format!("{cell:>w$}  "));
        }
        println!("{}", s.trim_end());
    };
    line(&headers);
    for r in &rows {
        line(r);
    }
}

/// Emit one machine-readable CSV line, prefixed so it is easy to grep out.
pub fn csv_line<C: Display>(cells: &[C]) {
    let joined: Vec<String> = cells.iter().map(ToString::to_string).collect();
    println!("csv,{}", joined.join(","));
}

/// Print a `[PASS]`/`[FAIL]` checklist and return whether every check
/// held — for a binary with several report sections, which must print them
/// all before it fails. Pair it with [`run_checks`] on the last section.
pub fn report_checks<S: Display>(checks: &[(S, bool)]) -> bool {
    let mut all_ok = true;
    for (name, ok) in checks {
        all_ok &= ok;
        println!("  [{}] {name}", if *ok { "PASS" } else { "FAIL" });
    }
    all_ok
}

/// Print a final `[PASS]`/`[FAIL]` checklist and **exit nonzero** when any
/// check failed, so a CI smoke run of the binary gates on correctness
/// instead of only on it not crashing. Call this last — it does not
/// return on failure.
pub fn run_checks<S: Display>(checks: &[(S, bool)]) {
    if !report_checks(checks) {
        eprintln!("FAILED: at least one check above did not hold");
        std::process::exit(1);
    }
}

/// A JSON scalar for [`JsonReport`] fields — the two shapes bench results
/// actually need. Numbers render via `f64`'s shortest round-trip form;
/// non-finite values become `null` so the file always parses.
pub enum Json {
    /// A number.
    Num(f64),
    /// A string, escaped on render.
    Str(String),
}

impl Json {
    fn render(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

/// A machine-readable results file: top-level metadata plus a flat `rows`
/// array of uniform objects. Dependency-free by design (the workspace bakes
/// no serde); the output is plain, stable JSON for downstream tooling:
///
/// ```json
/// {"bench": "simd", "host_features": "sse2+ssse3+avx2", "rows": [
///   {"kernel": "change_detection", "backend": "simd", "ns_per_op": 123.0}
/// ]}
/// ```
#[derive(Default)]
pub struct JsonReport {
    meta: Vec<(String, Json)>,
    rows: Vec<Vec<(String, Json)>>,
}

impl JsonReport {
    /// A report whose first metadata field names the benchmark.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        let mut r = JsonReport::default();
        r.meta("bench", Json::Str(bench.to_string()));
        r
    }

    /// Append a top-level metadata field.
    pub fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    /// Append one result row.
    pub fn row(&mut self, fields: Vec<(&str, Json)>) {
        self.rows.push(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
    }

    /// Render the whole report as a JSON object.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push('{');
        for (k, v) in &self.meta {
            Json::Str(k.clone()).render(&mut out);
            out.push_str(": ");
            v.render(&mut out);
            out.push_str(", ");
        }
        out.push_str("\"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            for (j, (k, v)) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                Json::Str(k.clone()).render(&mut out);
                out.push_str(": ");
                v.render(&mut out);
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write the rendered report to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (unwritable path, full disk).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table("t", &["a", "bb"], &[vec!["1".to_string(), "2".to_string()]]);
        csv_line(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        print_table("t", &["a", "b"], &[vec!["1".to_string()]]);
    }

    #[test]
    fn json_report_renders_escaped_and_parseable_shape() {
        let mut r = JsonReport::new("simd");
        r.meta("host_features", Json::Str("sse2+avx2".into()));
        r.row(vec![
            ("kernel", Json::Str("change\"quote\nline".into())),
            ("ns_per_op", Json::Num(123.5)),
            ("bad", Json::Num(f64::NAN)),
        ]);
        r.row(vec![("kernel", Json::Str("hist".into()))]);
        let s = r.render();
        assert!(
            s.starts_with("{\"bench\": \"simd\", \"host_features\": \"sse2+avx2\", \"rows\": [")
        );
        assert!(s.contains("\"change\\\"quote\\nline\""));
        assert!(s.contains("\"ns_per_op\": 123.5"));
        assert!(s.contains("\"bad\": null"));
        assert!(s.trim_end().ends_with("]}"));
        // Balanced braces/brackets — the cheap structural sanity check.
        let braces = s.matches('{').count();
        assert_eq!(braces, s.matches('}').count());
        assert_eq!(braces, 3);
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
