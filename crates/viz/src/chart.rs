//! Axis-and-legend chart primitives: multi-series line/step charts and
//! category bar charts.

use crate::{fmt_num, LinearScale, Svg, TextAnchor, PALETTE};

const MARGIN_LEFT: f64 = 52.0;
const MARGIN_RIGHT: f64 = 16.0;
const MARGIN_TOP: f64 = 30.0;
const MARGIN_BOTTOM: f64 = 40.0;
const AXIS_COLOR: &str = "#334155";
const GRID_COLOR: &str = "#e2e8f0";
const TEXT_COLOR: &str = "#0f172a";

/// One named line-chart series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` samples in drawing order; non-finite points are skipped.
    pub points: Vec<(f64, f64)>,
    /// Explicit colour; `None` assigns from [`PALETTE`] by series index.
    pub color: Option<String>,
}

impl Series {
    /// A series with palette-assigned colour.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            label: label.into(),
            points,
            color: None,
        }
    }
}

/// A multi-series line (or step) chart with axes, grid, and legend.
#[derive(Debug, Clone)]
pub struct LineChart {
    /// Chart title, drawn top-left.
    pub title: String,
    /// X-axis caption.
    pub x_label: String,
    /// Y-axis caption.
    pub y_label: String,
    /// The series, drawn in order (later series on top).
    pub series: Vec<Series>,
    /// Viewport width in pixels.
    pub width: f64,
    /// Viewport height in pixels.
    pub height: f64,
    /// Draw horizontal steps between samples instead of straight segments.
    pub step: bool,
    /// Draw a small marker on every sample.
    pub markers: bool,
}

impl LineChart {
    /// A chart with the default 640×280 viewport, straight segments, and
    /// markers on.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        series: Vec<Series>,
    ) -> LineChart {
        LineChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
            width: 640.0,
            height: 280.0,
            step: false,
            markers: true,
        }
    }

    fn series_color(&self, index: usize) -> String {
        self.series[index]
            .color
            .clone()
            .unwrap_or_else(|| PALETTE[index % PALETTE.len()].to_string())
    }

    /// Renders the chart into `svg` with its top-left corner at `(ox, oy)`.
    pub fn render_into(&self, svg: &mut Svg, ox: f64, oy: f64) {
        svg.group(ox, oy);
        let plot_x0 = MARGIN_LEFT;
        let plot_x1 = self.width - MARGIN_RIGHT;
        let plot_y0 = MARGIN_TOP;
        let plot_y1 = self.height - MARGIN_BOTTOM;

        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        let ys: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .collect();
        let x_scale = LinearScale::covering(&xs, plot_x0, plot_x1, 0.02);
        let y_scale = LinearScale::covering(&ys, plot_y1, plot_y0, 0.08);

        draw_frame_and_axes(
            svg,
            &x_scale,
            &y_scale,
            (plot_x0, plot_y0, plot_x1, plot_y1),
            &self.title,
            &self.x_label,
            &self.y_label,
        );

        for (i, series) in self.series.iter().enumerate() {
            let color = self.series_color(i);
            let pixels: Vec<(f64, f64)> = if self.step {
                let mut path = Vec::new();
                let mut last_y: Option<f64> = None;
                for &(x, y) in &series.points {
                    if !(x.is_finite() && y.is_finite()) {
                        continue;
                    }
                    let px = x_scale.map(x);
                    let py = y_scale.map(y);
                    if let Some(prev) = last_y {
                        path.push((px, prev));
                    }
                    path.push((px, py));
                    last_y = Some(py);
                }
                path
            } else {
                series
                    .points
                    .iter()
                    .filter(|(x, y)| x.is_finite() && y.is_finite())
                    .map(|&(x, y)| (x_scale.map(x), y_scale.map(y)))
                    .collect()
            };
            svg.polyline(&pixels, &color, 1.6);
            if self.markers {
                for &(x, y) in &series.points {
                    if x.is_finite() && y.is_finite() {
                        svg.circle(x_scale.map(x), y_scale.map(y), 2.2, &color);
                    }
                }
            }
        }

        // Legend, top-right inside the plot.
        let mut ly = plot_y0 + 12.0;
        for (i, series) in self.series.iter().enumerate() {
            let color = self.series_color(i);
            svg.line(
                plot_x1 - 86.0,
                ly - 3.0,
                plot_x1 - 70.0,
                ly - 3.0,
                &color,
                2.0,
            );
            svg.text(
                plot_x1 - 64.0,
                ly,
                10.0,
                TextAnchor::Start,
                TEXT_COLOR,
                &series.label,
            );
            ly += 14.0;
        }
        svg.group_end();
    }

    /// Renders the chart as a standalone document.
    pub fn to_svg(&self) -> String {
        let mut svg = Svg::new(self.width, self.height);
        self.render_into(&mut svg, 0.0, 0.0);
        svg.finish()
    }
}

/// A category bar chart (one bar per labelled value).
#[derive(Debug, Clone)]
pub struct BarChart {
    /// Chart title, drawn top-left.
    pub title: String,
    /// Y-axis caption.
    pub y_label: String,
    /// `(category, value)` bars, drawn left to right.
    pub bars: Vec<(String, f64)>,
    /// Viewport width in pixels.
    pub width: f64,
    /// Viewport height in pixels.
    pub height: f64,
}

impl BarChart {
    /// A bar chart with the default 420×260 viewport.
    pub fn new(
        title: impl Into<String>,
        y_label: impl Into<String>,
        bars: Vec<(String, f64)>,
    ) -> BarChart {
        BarChart {
            title: title.into(),
            y_label: y_label.into(),
            bars,
            width: 420.0,
            height: 260.0,
        }
    }

    /// Renders the chart into `svg` with its top-left corner at `(ox, oy)`.
    pub fn render_into(&self, svg: &mut Svg, ox: f64, oy: f64) {
        svg.group(ox, oy);
        let plot_x0 = MARGIN_LEFT;
        let plot_x1 = self.width - MARGIN_RIGHT;
        let plot_y0 = MARGIN_TOP;
        let plot_y1 = self.height - MARGIN_BOTTOM;

        let values: Vec<f64> = self.bars.iter().map(|(_, v)| *v).collect();
        let mut padded = values.clone();
        padded.push(0.0); // bars grow from zero
        let y_scale = LinearScale::covering(&padded, plot_y1, plot_y0, 0.05);

        draw_frame_and_axes(
            svg,
            &LinearScale::new(0.0, 1.0, plot_x0, plot_x1),
            &y_scale,
            (plot_x0, plot_y0, plot_x1, plot_y1),
            &self.title,
            "",
            &self.y_label,
        );

        let n = self.bars.len();
        if n == 0 {
            svg.text(
                (plot_x0 + plot_x1) / 2.0,
                (plot_y0 + plot_y1) / 2.0,
                11.0,
                TextAnchor::Middle,
                AXIS_COLOR,
                "no data",
            );
            svg.group_end();
            return;
        }
        let slot = (plot_x1 - plot_x0) / n as f64;
        let bar_w = slot * 0.6;
        let zero_y = y_scale.map(0.0);
        for (i, (label, value)) in self.bars.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let x = plot_x0 + slot * i as f64 + (slot - bar_w) / 2.0;
            let v = if value.is_finite() { *value } else { 0.0 };
            let top = y_scale.map(v);
            let (y, h) = if top <= zero_y {
                (top, zero_y - top)
            } else {
                (zero_y, top - zero_y)
            };
            svg.rect(x, y, bar_w, h, color);
            svg.text(
                x + bar_w / 2.0,
                y - 4.0,
                10.0,
                TextAnchor::Middle,
                TEXT_COLOR,
                &fmt_num(v),
            );
            svg.text(
                x + bar_w / 2.0,
                plot_y1 + 14.0,
                10.0,
                TextAnchor::Middle,
                TEXT_COLOR,
                label,
            );
        }
        svg.group_end();
    }

    /// Renders the chart as a standalone document.
    pub fn to_svg(&self) -> String {
        let mut svg = Svg::new(self.width, self.height);
        self.render_into(&mut svg, 0.0, 0.0);
        svg.finish()
    }
}

/// Shared frame: plot border, y grid + tick labels, x tick labels (when the
/// x scale is meaningful), title and axis captions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn draw_frame_and_axes(
    svg: &mut Svg,
    x_scale: &LinearScale,
    y_scale: &LinearScale,
    plot: (f64, f64, f64, f64),
    title: &str,
    x_label: &str,
    y_label: &str,
) {
    let (x0, y0, x1, y1) = plot;
    svg.text(x0, y0 - 12.0, 12.0, TextAnchor::Start, TEXT_COLOR, title);

    for tick in y_scale.ticks(5) {
        let py = y_scale.map(tick);
        svg.line(x0, py, x1, py, GRID_COLOR, 1.0);
        svg.text(
            x0 - 6.0,
            py + 3.0,
            9.0,
            TextAnchor::End,
            AXIS_COLOR,
            &fmt_num(tick),
        );
    }
    if !x_label.is_empty() {
        for tick in x_scale.ticks(6) {
            let px = x_scale.map(tick);
            svg.line(px, y1, px, y1 + 4.0, AXIS_COLOR, 1.0);
            svg.text(
                px,
                y1 + 14.0,
                9.0,
                TextAnchor::Middle,
                AXIS_COLOR,
                &fmt_num(tick),
            );
        }
        svg.text(
            (x0 + x1) / 2.0,
            y1 + 28.0,
            10.0,
            TextAnchor::Middle,
            AXIS_COLOR,
            x_label,
        );
    }
    if !y_label.is_empty() {
        svg.text(x0, y0 - 2.0, 9.0, TextAnchor::End, AXIS_COLOR, y_label);
    }
    svg.rect_outline(x0, y0, x1 - x0, y1 - y0, AXIS_COLOR, 1.0, None);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chart() -> LineChart {
        LineChart::new(
            "temperature",
            "iteration",
            "T",
            vec![
                Series::new("Ours", vec![(1.0, 1.2), (2.0, 1.4), (3.0, 1.3)]),
                Series::new("Random", vec![(1.0, 1.0), (2.0, 1.0), (3.0, 1.1)]),
            ],
        )
    }

    #[test]
    fn line_chart_contains_title_legend_and_series() {
        let out = sample_chart().to_svg();
        assert!(out.contains(">temperature<"));
        assert!(out.contains(">Ours<"));
        assert!(out.contains(">Random<"));
        assert!(out.matches("<polyline").count() >= 2);
    }

    #[test]
    fn line_chart_is_deterministic() {
        assert_eq!(sample_chart().to_svg(), sample_chart().to_svg());
    }

    #[test]
    fn constant_series_draws_a_flat_line() {
        let chart = LineChart::new(
            "flat",
            "x",
            "y",
            vec![Series::new("c", vec![(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)])],
        );
        let out = chart.to_svg();
        // All three points map to the same y — the polyline's y values are equal.
        assert!(out.contains("<polyline"));
        assert!(!out.contains("NaN"));
    }

    #[test]
    fn nan_series_renders_without_garbage() {
        let chart = LineChart::new(
            "nan",
            "x",
            "y",
            vec![Series::new(
                "n",
                vec![
                    (0.0, f64::NAN),
                    (1.0, 1.0),
                    (2.0, f64::INFINITY),
                    (3.0, 3.0),
                ],
            )],
        );
        let out = chart.to_svg();
        assert!(!out.contains("NaN") && !out.contains("inf"));
    }

    #[test]
    fn step_mode_inserts_horizontal_segments() {
        let mut chart = sample_chart();
        chart.step = true;
        let out = chart.to_svg();
        assert!(out.contains("<polyline"));
    }

    #[test]
    fn bar_chart_labels_every_category() {
        let chart = BarChart::new(
            "accuracy",
            "%",
            vec![("Ours".to_string(), 96.5), ("TS".to_string(), 94.0)],
        );
        let out = chart.to_svg();
        assert!(out.contains(">Ours<") && out.contains(">TS<"));
        assert!(out.contains(">96.5<"));
        assert_eq!(out, {
            let again = BarChart::new(
                "accuracy",
                "%",
                vec![("Ours".to_string(), 96.5), ("TS".to_string(), 94.0)],
            );
            again.to_svg()
        });
    }

    #[test]
    fn empty_bar_chart_says_no_data() {
        let out = BarChart::new("empty", "y", vec![]).to_svg();
        assert!(out.contains("no data"));
    }

    #[test]
    fn nonfinite_bar_draws_as_zero() {
        let out = BarChart::new("x", "y", vec![("a".to_string(), f64::NAN)]).to_svg();
        assert!(!out.contains("NaN"));
    }
}
