//! Offline dashboard rendering: a run journal in, a directory of SVG charts
//! and a self-contained `index.html` out.
//!
//! Everything renders from the journal alone — trajectory charts and
//! reliability diagrams come from `iteration complete` / `calibration bin`
//! events, selection maps from `clip selected` events, and clip geometry is
//! re-synthesized deterministically from the spec and seed carried by
//! `benchmark ready` events. No network, no extra artifacts, and the same
//! journal always renders byte-identical output (the `hotspot-viz`
//! determinism contract).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark, Tech};
use hotspot_litho::{DefectKind, LithoSimulator};
use hotspot_viz::{
    fmt_num, ramp_color, BarChart, FlameChart, FlameFrame, Heatmap, LineChart, RelBin,
    ReliabilityChart, Series, Svg, TextAnchor,
};

use crate::journal::{
    method_for_selector, BenchmarkRecord, CalibrationBinRecord, Journal, SelectionRecord,
    ShardIncidentRecord,
};

/// Knobs for [`render_dashboard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOptions {
    /// Maximum clip-geometry renderings (hotspot-labelled clips first).
    pub max_clips: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions { max_clips: 8 }
    }
}

/// What [`render_dashboard`] wrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RenderSummary {
    /// Files created inside the output directory, in creation order
    /// (`index.html` last).
    pub files: Vec<String>,
    /// Runs found in the journal.
    pub runs: usize,
    /// Clip geometries rendered.
    pub clips: usize,
}

/// Renders the full dashboard for `journal` into `out_dir` (created if
/// missing): per-method accuracy and Litho# bars, per-run trajectory
/// charts, selection maps, reliability diagrams, clip geometry renderings,
/// and an `index.html` inlining every SVG.
///
/// # Errors
///
/// Returns a human-readable message when the journal has no runs or a file
/// cannot be written. Missing optional record kinds (selections, bins,
/// benchmark specs) degrade to omitted sections, never to an error.
pub fn render_dashboard(
    journal: &Journal,
    out_dir: &Path,
    options: &RenderOptions,
) -> Result<RenderSummary, String> {
    let runs = journal.runs();
    if runs.is_empty() {
        return Err("journal contains no `run complete` events; nothing to render".to_string());
    }
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;

    let iterations = journal.iterations();
    let selections = journal.selections();
    let bins = journal.calibration_bins();
    let benchmarks: BTreeMap<String, BenchmarkRecord> = journal
        .benchmarks()
        .into_iter()
        .map(|b| (b.benchmark.clone(), b))
        .collect();
    let run_bench = run_to_benchmark(journal);

    // (file name, svg text) in final dashboard order.
    let mut files: Vec<(String, String)> = Vec::new();

    // Per-method headline bars.
    if let Some((accuracy, litho)) = method_bars(&runs) {
        files.push(("methods_accuracy.svg".to_string(), accuracy));
        files.push(("methods_litho.svg".to_string(), litho));
    }

    // Shard health: the coordinator's dead/hung-worker incident log, by
    // shard. Canonical journals withhold the coordinator target, so the
    // panel only appears on provenance journals that saw an incident.
    let incidents = journal.shard_incidents();
    if let Some(svg) = shard_health(&incidents) {
        files.push(("shard_health.svg".to_string(), svg));
    }

    // Performance: an icicle flame graph over the journal's span profile.
    // Canonical journals withhold the profile target, so this panel only
    // appears on provenance journals — canonical dashboards stay
    // byte-identical with and without tracing.
    if let Some(svg) = span_flame(journal) {
        files.push(("perf_flame.svg".to_string(), svg));
    }

    // Per-run panels, ordered by run id for stable output.
    let mut run_ids: Vec<u64> = runs.iter().map(|r| r.run_id).collect();
    run_ids.sort_unstable();
    run_ids.dedup();
    for &run_id in &run_ids {
        let label = run_label(&runs, &run_bench, run_id);
        let iters: Vec<_> = iterations.iter().filter(|i| i.run_id == run_id).collect();
        if !iters.is_empty() {
            let mut svg = Svg::new(640.0, 3.0 * 280.0);
            let panel = |title: &str, values: Vec<(f64, f64)>| {
                LineChart::new(
                    format!("{label} — {title}"),
                    "iteration",
                    title,
                    vec![Series::new(label.clone(), values)],
                )
            };
            panel(
                "temperature",
                iters
                    .iter()
                    .map(|i| (i.iteration as f64, i.temperature))
                    .collect(),
            )
            .render_into(&mut svg, 0.0, 0.0);
            panel(
                "ECE",
                iters.iter().map(|i| (i.iteration as f64, i.ece)).collect(),
            )
            .render_into(&mut svg, 0.0, 280.0);
            panel(
                "train loss",
                iters
                    .iter()
                    .map(|i| (i.iteration as f64, i.train_loss))
                    .collect(),
            )
            .render_into(&mut svg, 0.0, 560.0);
            files.push((format!("run{run_id:03}_trajectory.svg"), svg.finish()));
        }

        let picks: Vec<&SelectionRecord> =
            selections.iter().filter(|s| s.run_id == run_id).collect();
        if !picks.is_empty() {
            files.push((
                format!("run{run_id:03}_selection.svg"),
                selection_map(&label, &picks),
            ));
        }

        let run_bins: Vec<&CalibrationBinRecord> =
            bins.iter().filter(|b| b.run_id == run_id).collect();
        if !run_bins.is_empty() {
            files.push((
                format!("run{run_id:03}_reliability.svg"),
                reliability_panels(&label, &run_bins),
            ));
        }
    }

    // Clip geometry: selected clips, hotspot labels first, capped.
    let mut clip_count = 0usize;
    for (name, svg) in clip_renderings(&selections, &run_bench, &benchmarks, options.max_clips)? {
        files.push((name, svg));
        clip_count += 1;
    }

    let mut summary = RenderSummary {
        files: Vec::with_capacity(files.len() + 1),
        runs: run_ids.len(),
        clips: clip_count,
    };
    for (name, svg) in &files {
        std::fs::write(out_dir.join(name), svg).map_err(|e| format!("cannot write {name}: {e}"))?;
        summary.files.push(name.clone());
    }
    let degraded = runs.iter().filter(|r| r.degraded).count();
    let index = index_html(&files, degraded);
    std::fs::write(out_dir.join("index.html"), index)
        .map_err(|e| format!("cannot write index.html: {e}"))?;
    summary.files.push("index.html".to_string());
    Ok(summary)
}

/// Maps each run id to the benchmark generated most recently before the
/// run started, by walking the journal's records in order.
fn run_to_benchmark(journal: &Journal) -> BTreeMap<u64, String> {
    let mut current: Option<String> = None;
    let mut map = BTreeMap::new();
    for event in journal.events() {
        let message = event.get("message").and_then(|m| m.as_str());
        if message == Some(hotspot_telemetry::names::EVENT_BENCHMARK_READY) {
            current = event
                .get("benchmark")
                .and_then(|b| b.as_str())
                .map(str::to_string);
        } else if message == Some("run started") {
            if let (Some(run_id), Some(bench)) =
                (event.get("run_id").and_then(|v| v.as_u64()), &current)
            {
                map.insert(run_id, bench.clone());
            }
        }
    }
    map
}

/// Human label for a run: method (via its selector) plus benchmark, with a
/// visible `(degraded)` marker when the run lost labels to oracle faults —
/// a degraded trajectory must never pass for a healthy one.
fn run_label(
    runs: &[crate::journal::RunRecord],
    run_bench: &BTreeMap<u64, String>,
    run_id: u64,
) -> String {
    let record = runs.iter().find(|r| r.run_id == run_id);
    let method = record
        .map(|r| {
            method_for_selector(&r.selector)
                .unwrap_or(r.selector.as_str())
                .to_string()
        })
        .unwrap_or_else(|| format!("run {run_id}"));
    let degraded = if record.is_some_and(|r| r.degraded) {
        " (degraded)"
    } else {
        ""
    };
    match run_bench.get(&run_id) {
        Some(bench) => format!("{method} on {bench}{degraded}"),
        None => format!("{method}{degraded}"),
    }
}

/// Per-shard fault-count panels from the coordinator's incident log: how
/// often each shard's worker was lost (dead or hung) and how many clips
/// were reassigned to recovery rounds. `None` when the journal recorded no
/// incidents.
fn shard_health(incidents: &[ShardIncidentRecord]) -> Option<String> {
    if incidents.is_empty() {
        return None;
    }
    // shard -> (workers lost, clips orphaned).
    let mut by_shard: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for incident in incidents {
        let entry = by_shard.entry(incident.shard).or_default();
        entry.0 += 1;
        entry.1 += incident.orphaned;
    }
    let bars = |pick: fn(&(u64, u64)) -> u64| -> Vec<(String, f64)> {
        by_shard
            .iter()
            .map(|(shard, counts)| (format!("shard {shard}"), pick(counts) as f64))
            .collect()
    };
    let mut svg = Svg::new(2.0 * 420.0, 260.0);
    BarChart::new("workers lost", "incidents", bars(|c| c.0)).render_into(&mut svg, 0.0, 0.0);
    BarChart::new("clips reassigned", "clips", bars(|c| c.1)).render_into(&mut svg, 420.0, 0.0);
    Some(svg.finish())
}

/// An icicle flame graph of total time per span path, from the journal's
/// `profile` debug events (worker spans replayed by the shard coordinator
/// included). `None` when the journal carries no span profile.
fn span_flame(journal: &Journal) -> Option<String> {
    let spans = journal.span_durations_us();
    if spans.is_empty() {
        return None;
    }
    // BTreeMap iteration gives sorted paths, so sibling order — and with it
    // the rendered bytes — is a pure function of the journal.
    let paths: Vec<(String, f64)> = spans
        .iter()
        .map(|(path, durations)| (path.clone(), durations.iter().sum::<f64>() / 1000.0))
        .collect();
    let chart = FlameChart::new(
        "span time (total ms per path)",
        "ms",
        FlameFrame::from_paths(&paths),
    );
    let mut svg = Svg::new(chart.width, chart.height());
    chart.render_into(&mut svg, 0.0, 0.0);
    Some(svg.finish())
}

/// Mean accuracy (%) and Litho# bar charts over the journal's methods.
fn method_bars(runs: &[crate::journal::RunRecord]) -> Option<(String, String)> {
    let mut sums: BTreeMap<String, (f64, f64, usize)> = BTreeMap::new();
    for run in runs {
        let label = method_for_selector(&run.selector)
            .unwrap_or(run.selector.as_str())
            .to_string();
        let entry = sums.entry(label).or_insert((0.0, 0.0, 0));
        entry.0 += run.accuracy;
        entry.1 += run.litho as f64;
        entry.2 += 1;
    }
    if sums.is_empty() {
        return None;
    }
    // Table II order first, stragglers alphabetically after.
    let preferred = ["Ours", "TS", "QP", "Random"];
    let mut labels: Vec<String> = preferred
        .iter()
        .filter(|m| sums.contains_key(**m))
        .map(|m| (*m).to_string())
        .collect();
    labels.extend(
        sums.keys()
            .filter(|k| !preferred.contains(&k.as_str()))
            .cloned(),
    );
    let bar = |title: &str, y: &str, pick: fn(&(f64, f64, usize)) -> f64| {
        BarChart::new(
            title,
            y,
            labels.iter().map(|l| (l.clone(), pick(&sums[l]))).collect(),
        )
        .to_svg()
    };
    Some((
        bar("mean detection accuracy", "%", |(acc, _, n)| {
            100.0 * acc / *n as f64
        }),
        bar("mean litho-clip overhead", "Litho#", |(_, litho, n)| {
            litho / *n as f64
        }),
    ))
}

/// The selection map of one run: the uncertainty–diversity plane with a
/// binned-density background and each pick coloured by iteration.
fn selection_map(label: &str, picks: &[&SelectionRecord]) -> String {
    let points: Vec<(f64, f64)> = picks.iter().map(|s| (s.uncertainty, s.diversity)).collect();
    let heatmap = Heatmap::new(
        format!("{label} — selection map"),
        "uncertainty",
        "diversity",
        points,
    );
    let mut svg = Svg::new(heatmap.width, heatmap.height + 22.0);
    let (x_scale, y_scale) = heatmap.render_into(&mut svg, 0.0, 0.0);
    let max_iteration = picks.iter().map(|s| s.iteration).max().unwrap_or(1).max(1);
    for pick in picks {
        if !(pick.uncertainty.is_finite() && pick.diversity.is_finite()) {
            continue;
        }
        let t = if max_iteration > 1 {
            (pick.iteration.saturating_sub(1)) as f64 / (max_iteration - 1) as f64
        } else {
            1.0
        };
        svg.circle_outline(
            x_scale.map(pick.uncertainty),
            y_scale.map(pick.diversity),
            2.4,
            &ramp_color(t),
            1.4,
        );
    }
    svg.text(
        52.0,
        heatmap.height + 10.0,
        9.0,
        TextAnchor::Start,
        "#334155",
        &format!(
            "{} picks over {} iterations (light = early, dark = late)",
            picks.len(),
            max_iteration
        ),
    );
    svg.finish()
}

/// Small-multiple reliability diagrams for one run: `before`, up to four
/// evenly spaced in-loop measurements, and `after`.
fn reliability_panels(label: &str, bins: &[&CalibrationBinRecord]) -> String {
    // Measurement keys in stage order; iteration measurements sorted.
    let mut iteration_keys: Vec<u64> = bins
        .iter()
        .filter(|b| b.stage == "iteration")
        .map(|b| b.iteration)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    if iteration_keys.len() > 4 {
        // First, last, and two evenly spaced between.
        let n = iteration_keys.len();
        let chosen: Vec<u64> = (0..4).map(|i| iteration_keys[i * (n - 1) / 3]).collect();
        iteration_keys = chosen;
    }
    let mut panels: Vec<(String, Vec<&CalibrationBinRecord>)> = Vec::new();
    let stage_bins = |stage: &str, iteration: u64| -> Vec<&CalibrationBinRecord> {
        bins.iter()
            .filter(|b| b.stage == stage && b.iteration == iteration)
            .copied()
            .collect()
    };
    let before = stage_bins("before", 0);
    if !before.is_empty() {
        panels.push(("before (T = 1)".to_string(), before));
    }
    for &it in &iteration_keys {
        panels.push((format!("iteration {it}"), stage_bins("iteration", it)));
    }
    let after = stage_bins("after", 0);
    if !after.is_empty() {
        panels.push(("after".to_string(), after));
    }

    let width = 300.0 * panels.len().max(1) as f64;
    let mut svg = Svg::new(width + 16.0, 280.0 + 28.0);
    svg.text(
        8.0,
        16.0,
        12.0,
        TextAnchor::Start,
        "#0f172a",
        &format!("{label} — reliability"),
    );
    for (i, (title, panel_bins)) in panels.iter().enumerate() {
        let rel_bins: Vec<RelBin> = panel_bins
            .iter()
            .map(|b| RelBin {
                lower: b.lower,
                upper: b.upper,
                count: b.count,
                confidence: b.confidence,
                accuracy: b.accuracy,
            })
            .collect();
        let total: u64 = rel_bins.iter().map(|b| b.count).sum();
        let ece = if total > 0 {
            rel_bins
                .iter()
                .map(|b| b.count as f64 / total as f64 * (b.confidence - b.accuracy).abs())
                .sum()
        } else {
            0.0
        };
        ReliabilityChart::new(title.clone(), rel_bins, ece).render_into(
            &mut svg,
            8.0 + 300.0 * i as f64,
            24.0,
        );
    }
    svg.finish()
}

/// Selected-clip geometry renderings: metal from the re-synthesized raster,
/// the core window, and simulated defect overlays. Hotspot-labelled clips
/// come first; at most `max_clips` render. Returns `(file name, svg)` pairs.
fn clip_renderings(
    selections: &[SelectionRecord],
    run_bench: &BTreeMap<u64, String>,
    benchmarks: &BTreeMap<String, BenchmarkRecord>,
    max_clips: usize,
) -> Result<Vec<(String, String)>, String> {
    // Candidate (benchmark, clip) pairs in first-selected order.
    let mut seen = BTreeSet::new();
    let mut candidates: Vec<(String, usize)> = Vec::new();
    for s in selections {
        let Some(bench) = run_bench.get(&s.run_id) else {
            continue;
        };
        if !benchmarks.contains_key(bench) {
            continue;
        }
        let key = (bench.clone(), s.clip as usize);
        if seen.insert(key.clone()) {
            candidates.push(key);
        }
    }
    if candidates.is_empty() || max_clips == 0 {
        return Ok(Vec::new());
    }

    // Re-synthesize each referenced benchmark once.
    let mut generated: BTreeMap<String, GeneratedBenchmark> = BTreeMap::new();
    for (name, _) in &candidates {
        if generated.contains_key(name) {
            continue;
        }
        let record = &benchmarks[name];
        let spec = BenchmarkSpec {
            name: record.benchmark.clone(),
            tech: Tech::from_name(&record.tech).map_err(|e| e.to_string())?,
            hotspots: record.hotspots as usize,
            non_hotspots: record.non_hotspots as usize,
            dup_rate: record.dup_rate,
            near_miss_rate: record.near_miss_rate,
        };
        let bench = GeneratedBenchmark::generate(&spec, record.seed)
            .map_err(|e| format!("cannot re-synthesize benchmark {name}: {e}"))?;
        generated.insert(name.clone(), bench);
    }

    // Hotspot-labelled candidates first, preserving selection order inside
    // each class; then cap.
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    for (bench_name, clip) in candidates {
        let bench = &generated[&bench_name];
        if clip >= bench.len() {
            continue;
        }
        if bench.labels()[clip].is_hotspot() {
            hot.push((bench_name, clip));
        } else {
            cold.push((bench_name, clip));
        }
    }
    hot.extend(cold);
    hot.truncate(max_clips);

    let mut out = Vec::with_capacity(hot.len());
    for (bench_name, clip) in hot {
        let bench = &generated[&bench_name];
        out.push((
            format!("clip_{}_{clip:05}.svg", file_slug(&bench_name)),
            render_clip(bench, clip),
        ));
    }
    Ok(out)
}

/// One clip's geometry: metal rectangles recovered from the deterministic
/// raster, the core window outline, and the litho simulator's defects
/// (bridge/pinch) marked at their centroids.
fn render_clip(bench: &GeneratedBenchmark, clip: usize) -> String {
    let raster = bench.clip_raster(clip);
    let region = raster.region();
    let core = bench.core();
    let sim = LithoSimulator::new(bench.spec().tech.litho_config());
    let report = sim.analyze(&raster, core);

    let plot = 360.0;
    let pad = 24.0;
    let scale = plot / region.width().max(1) as f64;
    let to_x = |x: i64| pad + (x - region.x0()) as f64 * scale;
    // SVG y grows downward; raster row 0 is the region's bottom.
    let to_y = |y: i64| pad + (region.y1() - y) as f64 * scale;

    let mut svg = Svg::new(plot + 2.0 * pad, plot + 2.0 * pad + 36.0);
    svg.rect(pad, pad, plot, plot, "#f8fafc");
    for rect in raster.filled_rects(0.5) {
        svg.rect(
            to_x(rect.x0()),
            to_y(rect.y1()),
            rect.width() as f64 * scale,
            rect.height() as f64 * scale,
            "#1e293b",
        );
    }
    svg.rect_outline(
        to_x(core.x0()),
        to_y(core.y1()),
        core.width() as f64 * scale,
        core.height() as f64 * scale,
        "#2563eb",
        1.2,
        Some(5.0),
    );
    for defect in report.defects() {
        let color = match defect.kind {
            DefectKind::Bridge => "#dc2626",
            DefectKind::Pinch => "#ea580c",
        };
        svg.circle_outline(
            to_x(defect.location.x),
            to_y(defect.location.y),
            7.0,
            color,
            1.8,
        );
    }
    svg.rect_outline(pad, pad, plot, plot, "#334155", 1.0, None);
    let label = if bench.labels()[clip].is_hotspot() {
        "hotspot"
    } else {
        "non-hotspot"
    };
    svg.text(
        pad,
        plot + 2.0 * pad + 14.0,
        11.0,
        TextAnchor::Start,
        "#0f172a",
        &format!(
            "{} clip {clip} — {label}, {} defect(s), {} nm window",
            bench.spec().name,
            report.defects().len(),
            region.width()
        ),
    );
    svg.text(
        pad,
        plot + 2.0 * pad + 28.0,
        9.0,
        TextAnchor::Start,
        "#334155",
        &format!(
            "dashed = core, red = bridge, orange = pinch, density {}",
            fmt_num(raster.density())
        ),
    );
    svg.finish()
}

/// Lowercase alphanumeric-and-dash form of a benchmark name for file names.
fn file_slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// A single-page dashboard inlining every SVG, with no external resources.
/// `degraded_runs` adds a visible warning banner so fault-degraded
/// campaigns never render indistinguishably from healthy ones.
fn index_html(files: &[(String, String)], degraded_runs: usize) -> String {
    let mut html = String::new();
    html.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>lithohd dashboard</title>\n<style>\n\
         body { font-family: Helvetica, Arial, sans-serif; margin: 24px; color: #0f172a; }\n\
         h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px; }\n\
         figure { display: inline-block; margin: 8px; vertical-align: top; }\n\
         figcaption { font-size: 11px; color: #334155; margin-top: 2px; }\n\
         .warn { background: #fef3c7; border: 1px solid #d97706; color: #92400e;\n\
                 padding: 8px 12px; border-radius: 4px; }\n\
         </style>\n</head>\n<body>\n<h1>lithohd run dashboard</h1>\n\
         <p>Rendered offline from the run journal by <code>lithohd-report render</code>.</p>\n",
    );
    if degraded_runs > 0 {
        let _ = writeln!(
            html,
            "<p class=\"warn\">warning: {degraded_runs} run(s) degraded under oracle \
             faults (labels lost after retries); their charts are marked \
             <em>(degraded)</em> below.</p>"
        );
    }
    let section = |html: &mut String, title: &str| {
        let _ = writeln!(html, "<h2>{title}</h2>");
    };
    let mut current = "";
    for (name, svg) in files {
        let kind = if name.starts_with("methods_") {
            "Methods"
        } else if name.starts_with("shard_") {
            "Shard health"
        } else if name.starts_with("perf_") {
            "Performance"
        } else if name.starts_with("clip_") {
            "Selected clips"
        } else {
            "Runs"
        };
        if kind != current {
            section(&mut html, kind);
            current = kind;
        }
        let _ = writeln!(
            html,
            "<figure>{svg}<figcaption>{name}</figcaption></figure>"
        );
    }
    html.push_str("</body>\n</html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selection(run_id: u64, iteration: u64, clip: u64) -> SelectionRecord {
        SelectionRecord {
            run_id,
            iteration,
            clip,
            rank: 0,
            uncertainty: 0.5,
            diversity: 0.5,
        }
    }

    #[test]
    fn selection_map_is_deterministic_and_nan_free() {
        let picks = [
            selection(1, 1, 10),
            selection(1, 2, 11),
            SelectionRecord {
                uncertainty: f64::NAN,
                ..selection(1, 3, 12)
            },
        ];
        let refs: Vec<&SelectionRecord> = picks.iter().collect();
        let a = selection_map("Ours on X", &refs);
        let b = selection_map("Ours on X", &refs);
        assert_eq!(a, b);
        assert!(!a.contains("NaN"));
        assert!(a.contains("3 picks over 3 iterations"));
    }

    #[test]
    fn reliability_panels_pick_before_iterations_after() {
        let bin = |stage: &str, iteration: u64| CalibrationBinRecord {
            run_id: 1,
            stage: stage.to_string(),
            iteration,
            bin: 9,
            lower: 0.9,
            upper: 1.0,
            count: 5,
            confidence: 0.95,
            accuracy: 0.9,
        };
        let bins = [
            bin("before", 0),
            bin("iteration", 1),
            bin("iteration", 2),
            bin("after", 0),
        ];
        let refs: Vec<&CalibrationBinRecord> = bins.iter().collect();
        let svg = reliability_panels("Ours", &refs);
        assert!(svg.contains("before (T = 1)"));
        assert!(svg.contains("iteration 1") && svg.contains("iteration 2"));
        assert!(svg.contains(">after<"));
    }

    #[test]
    fn degraded_runs_are_marked_in_labels_and_banner() {
        let run = crate::journal::RunRecord {
            run_id: 4,
            selector: "entropy".to_string(),
            accuracy: 0.9,
            litho: 100,
            false_alarms: 0,
            ece_before: 0.1,
            ece_after: 0.05,
            degraded: true,
            label_failures: 3,
            oracle_retries: 5,
            oracle_giveups: 3,
            quorum_votes: 0,
            elapsed_ms: 10,
        };
        let label = run_label(std::slice::from_ref(&run), &BTreeMap::new(), 4);
        assert_eq!(label, "Ours (degraded)");
        let healthy = crate::journal::RunRecord {
            degraded: false,
            ..run
        };
        assert_eq!(run_label(&[healthy], &BTreeMap::new(), 4), "Ours");

        let banner = index_html(&[], 2);
        assert!(banner.contains("2 run(s) degraded"));
        assert!(!index_html(&[], 0).contains("degraded"));
    }

    #[test]
    fn shard_health_aggregates_per_shard_and_is_deterministic() {
        assert!(shard_health(&[]).is_none());
        let incident = |shard: u64, orphaned: u64| ShardIncidentRecord {
            batch: 1,
            shard,
            dead: true,
            orphaned,
        };
        let incidents = [incident(1, 2), incident(0, 5), incident(1, 1)];
        let a = shard_health(&incidents).unwrap();
        let b = shard_health(&incidents).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("workers lost"));
        assert!(a.contains("clips reassigned"));
        assert!(a.contains("shard 0") && a.contains("shard 1"));
    }

    #[test]
    fn span_flame_nests_profile_paths_and_is_deterministic() {
        let text = concat!(
            r#"{"type":"event","target":"profile","message":"run/iteration/nn.train","span":"run/iteration/nn.train","duration_us":1500}"#,
            "\n",
            r#"{"type":"event","target":"profile","message":"run/iteration/select","span":"run/iteration/select","duration_us":500}"#,
            "\n",
        );
        let journal = Journal::parse_str(text);
        let a = span_flame(&journal).unwrap();
        let b = span_flame(&journal).unwrap();
        assert_eq!(a, b);
        for label in ["run", "iteration", "nn.train", "select"] {
            assert!(a.contains(&format!(">{label}<")), "missing {label}");
        }
        // A journal with no profile events (canonical) renders no panel.
        assert!(span_flame(&Journal::parse_str("")).is_none());
    }

    #[test]
    fn file_slug_is_filesystem_safe() {
        assert_eq!(file_slug("ICCAD16-2"), "iccad16-2");
        assert_eq!(file_slug("a b/c"), "a-b-c");
    }

    #[test]
    fn empty_journal_is_an_error() {
        let journal = Journal::parse_str("");
        let err = render_dashboard(
            &journal,
            Path::new("/nonexistent/never-created"),
            &RenderOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("no `run complete`"));
    }
}
