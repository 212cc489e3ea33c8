//! Table I — statistics of the benchmark suite.
//!
//! Prints the HS / NHS / tech-node rows for ICCAD12 and ICCAD16-1..4 at the
//! requested `--scale`, and verifies by generation that the synthetic suite
//! actually realises those statistics (for the smaller suites; pass
//! `--scale 1.0` to verify the full-size ICCAD12 population too).

use hotspot_bench::{write_json, ExperimentArgs};
use hotspot_layout::{bench_suite, BenchmarkStats, GeneratedBenchmark};
use serde::Serialize;

/// One row of `table1.json`: the fields of [`BenchmarkStats`], in order.
#[derive(Debug, Serialize)]
struct Table1Row {
    name: String,
    hotspots: usize,
    non_hotspots: usize,
    tech_nm: u32,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let specs = bench_suite(args.scale);

    println!("Table I: statistics of benchmarks (scale {})", args.scale);
    println!(
        "{:<12} {:>8} {:>10} {:>6}",
        "Benchmarks", "HS #", "NHS #", "Tech(nm)"
    );
    let mut rows = Vec::new();
    for spec in &specs {
        let s = BenchmarkStats::from(spec);
        println!("{s}");
        rows.push(Table1Row {
            name: s.name,
            hotspots: s.hotspots,
            non_hotspots: s.non_hotspots,
            tech_nm: s.tech_nm,
        });
    }

    // Generate and verify realised counts for every benchmark the scale
    // keeps small enough to be quick; ICCAD12 is included above ~0.05 full
    // scale only when explicitly asked for.
    println!();
    println!("verification by generation:");
    for spec in &specs {
        if spec.total() > 25_000 && args.scale < 1.0 {
            println!(
                "{:<12} skipped (use --scale 1.0 to generate the full population)",
                spec.name
            );
            continue;
        }
        let bench = GeneratedBenchmark::generate(spec, args.seed).expect("generation succeeds");
        let ok = bench.hotspot_count() == spec.hotspots && bench.len() == spec.total();
        println!(
            "{:<12} generated {:>8} clips, {:>7} hotspots  [{}]",
            spec.name,
            bench.len(),
            bench.hotspot_count(),
            if ok { "ok" } else { "MISMATCH" }
        );
        assert!(ok, "generated counts diverge from the specification");
    }

    write_json(&args.out, "table1", &rows);
    args.finish_telemetry();
}
