use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// One row of a rendered experiment table: a label plus per-column
/// `(accuracy, litho)` cells.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Row label (benchmark name, "Average", "Ratio", …).
    pub label: String,
    /// `(accuracy, litho)` cells, one per method column.
    pub cells: Vec<(f64, f64)>,
    /// Whether the first cell component is a fraction to render as a
    /// percentage (`true` for data rows) or already a plain ratio (`false`
    /// for the "Ratio" summary row).
    pub percent: bool,
}

/// Renders a Table II/III-style table: one column pair (`Acc(%)`, `Litho#`)
/// per method, rows per benchmark.
///
/// # Panics
///
/// Panics when a row has a different number of cells than there are methods.
pub fn render_table(methods: &[&str], rows: &[TableRow]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<12}", "Benchmark");
    for m in methods {
        let _ = write!(out, " | {:^19}", m);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<12}", "");
    for _ in methods {
        let _ = write!(out, " | {:>8} {:>10}", "Acc(%)", "Litho#");
    }
    let _ = writeln!(out);
    let dash_width = 12 + methods.len() * 22;
    let _ = writeln!(out, "{}", "-".repeat(dash_width));
    for row in rows {
        assert_eq!(row.cells.len(), methods.len(), "row width mismatch");
        let _ = write!(out, "{:<12}", row.label);
        for &(acc, litho) in &row.cells {
            if row.percent {
                let _ = write!(out, " | {:>8.2} {:>10.1}", acc * 100.0, litho);
            } else {
                let _ = write!(out, " | {:>8.3} {:>10.3}", acc, litho);
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Builds the paper's "Average" and "Ratio" summary rows from per-benchmark
/// rows: averages are plain means; ratios normalise each method's averages
/// by the last column's (the paper normalises by "Ours").
pub fn ratio_row(rows: &[TableRow]) -> (TableRow, TableRow) {
    assert!(!rows.is_empty(), "need at least one row");
    let columns = rows[0].cells.len();
    let mut avg = vec![(0.0f64, 0.0f64); columns];
    for row in rows {
        for (a, &(acc, litho)) in avg.iter_mut().zip(&row.cells) {
            a.0 += acc;
            a.1 += litho;
        }
    }
    for a in &mut avg {
        a.0 /= rows.len() as f64;
        a.1 /= rows.len() as f64;
    }
    let (ref_acc, ref_litho) = avg[columns - 1];
    let ratio: Vec<(f64, f64)> = avg
        .iter()
        .map(|&(acc, litho)| {
            (
                if ref_acc > 0.0 { acc / ref_acc } else { 0.0 },
                if ref_litho > 0.0 {
                    litho / ref_litho
                } else {
                    0.0
                },
            )
        })
        .collect();
    (
        TableRow {
            label: "Average".to_owned(),
            cells: avg,
            percent: true,
        },
        TableRow {
            label: "Ratio".to_owned(),
            cells: ratio,
            percent: false,
        },
    )
}

/// Writes a serialisable result to `<dir>/<name>.json`, creating the
/// directory when needed. The event it logs names the file, not `dir`, so
/// canonical journals do not depend on `--out`.
///
/// # Panics
///
/// Panics on I/O failure — experiment binaries want loud failures.
pub fn write_json<T: Serialize>(dir: &Path, name: &str, value: &T) {
    // lithohd-lint: allow(panic-safety) — documented: experiment binaries want loud I/O failures
    std::fs::create_dir_all(dir).expect("create experiment output directory");
    let path = dir.join(format!("{name}.json"));
    // lithohd-lint: allow(panic-safety) — documented: experiment binaries want loud I/O failures
    let file = std::fs::File::create(&path).expect("create experiment output file");
    // lithohd-lint: allow(panic-safety) — documented: experiment binaries want loud I/O failures
    serde_json::to_writer_pretty(file, value).expect("serialise experiment result");
    hotspot_telemetry::info(
        "bench.report",
        "wrote result file",
        &[("file", format!("{name}.json").into())],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<TableRow> {
        vec![
            TableRow {
                label: "B1".to_owned(),
                cells: vec![(1.0, 100.0), (0.9, 50.0)],
                percent: true,
            },
            TableRow {
                label: "B2".to_owned(),
                cells: vec![(0.8, 300.0), (0.7, 150.0)],
                percent: true,
            },
        ]
    }

    #[test]
    fn render_contains_all_cells() {
        let table = render_table(&["PM", "Ours"], &rows());
        assert!(table.contains("B1"));
        assert!(table.contains("100.0"));
        assert!(table.contains("90.00"));
        assert!(table.contains("Ours"));
    }

    #[test]
    fn averages_and_ratios() {
        let (avg, ratio) = ratio_row(&rows());
        assert!((avg.cells[0].0 - 0.9).abs() < 1e-12);
        assert!((avg.cells[0].1 - 200.0).abs() < 1e-12);
        assert!((avg.cells[1].0 - 0.8).abs() < 1e-12);
        // Ratios are normalised by the last column.
        assert!((ratio.cells[1].0 - 1.0).abs() < 1e-12);
        assert!((ratio.cells[1].1 - 1.0).abs() < 1e-12);
        assert!((ratio.cells[0].0 - 0.9 / 0.8).abs() < 1e-12);
        assert!((ratio.cells[0].1 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn render_rejects_ragged_rows() {
        let _ = render_table(&["only-one"], &rows());
    }

    #[test]
    fn write_json_roundtrip() {
        // Key the directory on the pid so concurrent `cargo test` processes
        // (e.g. a CI retry racing a stale run) never share the output file.
        let dir = std::env::temp_dir().join(format!("hotspot-bench-test-{}", std::process::id()));
        write_json(&dir, "unit", &vec![1, 2, 3]);
        let text = std::fs::read_to_string(dir.join("unit.json")).unwrap();
        assert!(text.contains('1'));
    }
}
