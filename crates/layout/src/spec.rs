use crate::LayoutError;
use hotspot_geom::Coord;
use hotspot_litho::LithoConfig;

/// Technology node of a benchmark — selects the lithography model and the
/// geometry windows that print cleanly, marginally, or defectively under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tech {
    /// 28 nm-class DUV metal (ICCAD12-like).
    Duv28,
    /// 7 nm-class EUV metal (ICCAD16-like).
    Euv7,
}

/// Geometry windows, in nanometres, for one technology.
///
/// Widths/gaps inside the `safe` windows print cleanly under the node's
/// [`LithoConfig`]; the `hot` windows reliably pinch or bridge; `near`
/// windows are printable but close to the cliff — they become the hard
/// non-hotspots a detector tends to false-alarm on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryParams {
    /// Safe wire widths (inclusive range).
    pub safe_width: (Coord, Coord),
    /// Minimum spacing between safe wires.
    pub safe_gap_min: Coord,
    /// Near-miss wire widths (printable, marginal).
    pub near_width: (Coord, Coord),
    /// Near-miss spacings (resolvable, marginal).
    pub near_gap: (Coord, Coord),
    /// Pinching (sub-printable) wire widths.
    pub hot_width: (Coord, Coord),
    /// Bridging (sub-resolution) gaps.
    pub hot_gap: (Coord, Coord),
    /// Coordinate snap grid.
    pub snap: Coord,
}

impl Tech {
    /// The lithography model for this node.
    pub fn litho_config(self) -> LithoConfig {
        match self {
            Tech::Duv28 => LithoConfig::duv_28nm(),
            Tech::Euv7 => LithoConfig::euv_7nm(),
        }
    }

    /// The geometry windows for this node (validated against the litho model
    /// by this crate's tests).
    pub fn geometry(self) -> GeometryParams {
        match self {
            Tech::Duv28 => GeometryParams {
                safe_width: (60, 120),
                safe_gap_min: 64,
                near_width: (44, 56),
                near_gap: (52, 62),
                hot_width: (24, 32),
                hot_gap: (28, 38),
                snap: 2,
            },
            Tech::Euv7 => GeometryParams {
                safe_width: (20, 40),
                safe_gap_min: 28,
                near_width: (16, 18),
                near_gap: (22, 26),
                hot_width: (8, 13),
                hot_gap: (10, 16),
                snap: 1,
            },
        }
    }

    /// Nominal feature size in nanometres, for reporting (Table I's "Tech").
    pub fn node_nm(self) -> u32 {
        match self {
            Tech::Duv28 => 28,
            Tech::Euv7 => 7,
        }
    }

    /// Clip window edge length for this node.
    pub fn clip_edge(self) -> Coord {
        match self {
            Tech::Duv28 => 1200,
            Tech::Euv7 => 480,
        }
    }

    /// Clip core edge length for this node.
    pub fn core_edge(self) -> Coord {
        self.clip_edge() / 2
    }

    /// Stable identifier for journals and reports; inverse of
    /// [`Tech::from_name`].
    pub fn name(self) -> &'static str {
        match self {
            Tech::Duv28 => "Duv28",
            Tech::Euv7 => "Euv7",
        }
    }

    /// Parses a [`Tech::name`] identifier, e.g. when reconstructing a
    /// benchmark spec from a journal record.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadSpec`] for an unknown identifier.
    pub fn from_name(name: &str) -> Result<Self, LayoutError> {
        match name {
            "Duv28" => Ok(Tech::Duv28),
            "Euv7" => Ok(Tech::Euv7),
            other => Err(LayoutError::BadSpec {
                detail: format!("unknown tech node {other:?}"),
            }),
        }
    }
}

/// Specification of one benchmark: cardinalities and technology.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name (e.g. `"ICCAD12"`).
    pub name: String,
    /// Technology node.
    pub tech: Tech,
    /// Hotspot clip count.
    pub hotspots: usize,
    /// Non-hotspot clip count.
    pub non_hotspots: usize,
    /// Probability that a clip duplicates an earlier pattern, which is what
    /// lets exact pattern matching pay fewer simulations than clips.
    pub dup_rate: f64,
    /// Fraction of non-hotspots drawn from the near-miss family.
    pub near_miss_rate: f64,
}

impl BenchmarkSpec {
    /// ICCAD12-like: 3 728 hotspots, 159 672 non-hotspots at 28 nm
    /// (Table I).
    pub fn iccad12() -> Self {
        BenchmarkSpec {
            name: "ICCAD12".to_owned(),
            tech: Tech::Duv28,
            hotspots: 3728,
            non_hotspots: 159_672,
            dup_rate: 0.22,
            near_miss_rate: 0.3,
        }
    }

    /// ICCAD16-1-like: 0 hotspots, 63 non-hotspots at 7 nm. The paper drops
    /// this case from the experiments for lack of hotspots; it is kept here
    /// for Table I.
    pub fn iccad16_1() -> Self {
        BenchmarkSpec {
            name: "ICCAD16-1".to_owned(),
            tech: Tech::Euv7,
            hotspots: 0,
            non_hotspots: 63,
            dup_rate: 0.1,
            near_miss_rate: 0.3,
        }
    }

    /// ICCAD16-2-like: 56 hotspots, 967 non-hotspots at 7 nm.
    pub fn iccad16_2() -> Self {
        BenchmarkSpec {
            name: "ICCAD16-2".to_owned(),
            tech: Tech::Euv7,
            hotspots: 56,
            non_hotspots: 967,
            dup_rate: 0.1,
            near_miss_rate: 0.3,
        }
    }

    /// ICCAD16-3-like: 1 100 hotspots, 3 916 non-hotspots at 7 nm.
    pub fn iccad16_3() -> Self {
        BenchmarkSpec {
            name: "ICCAD16-3".to_owned(),
            tech: Tech::Euv7,
            hotspots: 1100,
            non_hotspots: 3916,
            dup_rate: 0.1,
            near_miss_rate: 0.3,
        }
    }

    /// ICCAD16-4-like: 157 hotspots, 1 678 non-hotspots at 7 nm.
    pub fn iccad16_4() -> Self {
        BenchmarkSpec {
            name: "ICCAD16-4".to_owned(),
            tech: Tech::Euv7,
            hotspots: 157,
            non_hotspots: 1678,
            dup_rate: 0.1,
            near_miss_rate: 0.3,
        }
    }

    /// Looks up a Table I spec by its lowercase identifier: `iccad12` or
    /// `iccad16_1` … `iccad16_4` (the names the scoring service accepts).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadSpec`], listing the valid names, for an
    /// unknown identifier.
    pub fn by_name(name: &str) -> Result<Self, LayoutError> {
        match name {
            "iccad12" => Ok(BenchmarkSpec::iccad12()),
            "iccad16_1" => Ok(BenchmarkSpec::iccad16_1()),
            "iccad16_2" => Ok(BenchmarkSpec::iccad16_2()),
            "iccad16_3" => Ok(BenchmarkSpec::iccad16_3()),
            "iccad16_4" => Ok(BenchmarkSpec::iccad16_4()),
            other => Err(LayoutError::BadSpec {
                detail: format!(
                    "unknown benchmark {other:?}; expected iccad12 or iccad16_1..iccad16_4"
                ),
            }),
        }
    }

    /// Scales both cardinalities by `factor` (at least one clip per class
    /// that was non-empty). Use factors < 1 for quick runs; 1.0 reproduces
    /// Table I.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not finite and positive.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive, got {factor}"
        );
        let scale = |n: usize| -> usize {
            if n == 0 {
                0
            } else {
                ((n as f64 * factor).round() as usize).max(1)
            }
        };
        self.hotspots = scale(self.hotspots);
        self.non_hotspots = scale(self.non_hotspots);
        self
    }

    /// Total clip count.
    pub fn total(&self) -> usize {
        self.hotspots + self.non_hotspots
    }

    /// Validates rates and cardinalities.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadSpec`] on an empty benchmark or rates
    /// outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), LayoutError> {
        if self.total() == 0 {
            return Err(LayoutError::BadSpec {
                detail: "benchmark must contain at least one clip".to_owned(),
            });
        }
        if !(0.0..1.0).contains(&self.dup_rate) {
            return Err(LayoutError::BadSpec {
                detail: format!("dup_rate {} outside [0, 1)", self.dup_rate),
            });
        }
        if !(0.0..1.0).contains(&self.near_miss_rate) {
            return Err(LayoutError::BadSpec {
                detail: format!("near_miss_rate {} outside [0, 1)", self.near_miss_rate),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_one() {
        assert_eq!(BenchmarkSpec::iccad12().hotspots, 3728);
        assert_eq!(BenchmarkSpec::iccad12().non_hotspots, 159_672);
        assert_eq!(BenchmarkSpec::iccad16_1().hotspots, 0);
        assert_eq!(BenchmarkSpec::iccad16_2().total(), 1023);
        assert_eq!(BenchmarkSpec::iccad16_3().total(), 5016);
        assert_eq!(BenchmarkSpec::iccad16_4().total(), 1835);
        assert_eq!(BenchmarkSpec::iccad12().tech.node_nm(), 28);
        assert_eq!(BenchmarkSpec::iccad16_2().tech.node_nm(), 7);
    }

    #[test]
    fn scaled_keeps_nonzero_classes() {
        let s = BenchmarkSpec::iccad16_2().scaled(0.01);
        assert!(s.hotspots >= 1);
        assert!(s.non_hotspots >= 1);
        let z = BenchmarkSpec::iccad16_1().scaled(0.5);
        assert_eq!(z.hotspots, 0);
    }

    #[test]
    fn validate_rejects_empty() {
        let mut s = BenchmarkSpec::iccad16_2();
        s.hotspots = 0;
        s.non_hotspots = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut s = BenchmarkSpec::iccad16_2();
        s.dup_rate = 1.0;
        assert!(s.validate().is_err());
        s.dup_rate = 0.1;
        s.near_miss_rate = -0.1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn geometry_windows_are_ordered() {
        for tech in [Tech::Duv28, Tech::Euv7] {
            let g = tech.geometry();
            assert!(g.hot_width.1 < g.near_width.0);
            assert!(g.near_width.1 < g.safe_width.0);
            assert!(g.hot_gap.1 < g.near_gap.0);
            assert!(g.near_gap.1 <= g.safe_gap_min);
            assert!(g.snap > 0);
        }
    }

    #[test]
    fn clip_fits_core() {
        for tech in [Tech::Duv28, Tech::Euv7] {
            assert!(tech.core_edge() < tech.clip_edge());
        }
    }

    #[test]
    fn tech_name_roundtrips() {
        for tech in [Tech::Duv28, Tech::Euv7] {
            assert_eq!(Tech::from_name(tech.name()).unwrap(), tech);
        }
        assert!(Tech::from_name("Euv5").is_err());
        assert_eq!(
            BenchmarkSpec::by_name("iccad16_3").unwrap(),
            BenchmarkSpec::iccad16_3()
        );
        let err = BenchmarkSpec::by_name("iccad99").unwrap_err().to_string();
        assert!(
            err.contains("iccad12") && err.contains("iccad16_4"),
            "{err}"
        );
    }
}
