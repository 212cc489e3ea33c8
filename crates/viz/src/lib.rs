//! Deterministic, zero-dependency SVG rendering for journal dashboards.
//!
//! `lithohd-report render` turns a JSONL run journal into a static SVG
//! dashboard; this crate is the drawing layer it (and any other tool)
//! builds on:
//!
//! - [`Svg`] — a low-level SVG document builder (rects, lines, polylines,
//!   paths, circles, text, groups) with XML escaping.
//! - [`LinearScale`] — data-to-pixel mapping with "nice" tick generation.
//! - [`LineChart`] / [`BarChart`] — axis-and-legend chart primitives.
//! - [`Heatmap`] — binned 2-D density as a colour-ramped cell grid.
//! - [`FlameChart`] — icicle-layout flame graph over nested span frames.
//! - [`ReliabilityChart`] — the calibration reliability diagram of Fig. 2
//!   (per-bin confidence vs. accuracy with the identity diagonal).
//!
//! # Determinism contract
//!
//! Rendering the same inputs must produce **byte-identical** SVG, so CI can
//! golden-test dashboards and artifact diffs stay meaningful. The crate
//! therefore:
//!
//! - formats every coordinate through one fixed-precision formatter
//!   ([`fmt_num`]) — no locale, no shortest-round-trip jitter;
//! - never reads clocks, RNGs, or environment;
//! - iterates only ordered containers (slices, `Vec`).
//!
//! Non-finite inputs never panic and never leak `NaN`/`inf` into the
//! output: coordinates are dropped or clamped, so a journal with a
//! pathological series still renders.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod chart;
mod flame;
mod heatmap;
mod latency;
mod reliability;
mod scale;
mod svg;

pub use chart::{BarChart, LineChart, Series};
pub use flame::{FlameChart, FlameFrame};
pub use heatmap::Heatmap;
pub use latency::{
    latency_quantile_panel, latency_report_panel, latency_timeline_panel, LatencySummary,
};
pub use reliability::{RelBin, ReliabilityChart};
pub use scale::LinearScale;
pub use svg::{escape_text, fmt_num, Svg, TextAnchor};

/// The categorical colour palette, in assignment order (series `i` uses
/// `PALETTE[i % PALETTE.len()]`). Chosen for contrast on a white canvas.
pub const PALETTE: &[&str] = &[
    "#2563eb", // blue
    "#dc2626", // red
    "#16a34a", // green
    "#9333ea", // purple
    "#ea580c", // orange
    "#0891b2", // cyan
    "#ca8a04", // mustard
    "#db2777", // pink
];

/// Colour ramp from cool to warm, for ordered encodings such as
/// iteration number. `t` is clamped to `[0, 1]`; non-finite maps to `0`.
pub fn ramp_color(t: f64) -> String {
    let t = if t.is_finite() {
        t.clamp(0.0, 1.0)
    } else {
        0.0
    };
    // Linear blend #dbeafe -> #1e3a8a (light to dark blue).
    let lerp = |a: f64, b: f64| (a + (b - a) * t).round() as u8;
    format!(
        "#{:02x}{:02x}{:02x}",
        lerp(219.0, 30.0),
        lerp(234.0, 58.0),
        lerp(254.0, 138.0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn palette_entries_are_hex_colors() {
        for color in PALETTE {
            assert!(color.starts_with('#') && color.len() == 7, "{color}");
        }
    }

    #[test]
    fn ramp_is_clamped_and_finite_safe() {
        assert_eq!(ramp_color(0.0), "#dbeafe");
        assert_eq!(ramp_color(1.0), "#1e3a8a");
        assert_eq!(ramp_color(-5.0), ramp_color(0.0));
        assert_eq!(ramp_color(7.0), ramp_color(1.0));
        assert_eq!(ramp_color(f64::NAN), ramp_color(0.0));
    }
}
