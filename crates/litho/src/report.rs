use crate::Defect;
use std::fmt;

/// The binary outcome of lithography analysis on one clip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// At least one defect in the core region.
    Hotspot,
    /// Core prints cleanly.
    NonHotspot,
}

impl Label {
    /// `true` for [`Label::Hotspot`].
    pub fn is_hotspot(self) -> bool {
        matches!(self, Label::Hotspot)
    }

    /// Class index used by the classifier: non-hotspot = 0, hotspot = 1.
    pub fn class_index(self) -> usize {
        match self {
            Label::NonHotspot => 0,
            Label::Hotspot => 1,
        }
    }

    /// Inverse of [`Label::class_index`].
    ///
    /// # Panics
    ///
    /// Panics when `index > 1`.
    pub fn from_class_index(index: usize) -> Label {
        match index {
            0 => Label::NonHotspot,
            1 => Label::Hotspot,
            // lithohd-lint: allow(panic-safety) — documented contract: class indices of a binary task are 0 or 1
            _ => panic!("binary label index must be 0 or 1, got {index}"),
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Hotspot => write!(f, "hotspot"),
            Label::NonHotspot => write!(f, "non-hotspot"),
        }
    }
}

/// The full result of analysing one clip: the defects found in its core.
#[derive(Debug, Clone, PartialEq)]
pub struct LithoReport {
    defects: Vec<Defect>,
}

impl LithoReport {
    /// Wraps a defect list produced by the simulator.
    pub fn new(defects: Vec<Defect>) -> Self {
        LithoReport { defects }
    }

    /// The defects found inside the clip core.
    pub fn defects(&self) -> &[Defect] {
        &self.defects
    }

    /// The clip label implied by the defect list (Definition 1 of the paper).
    pub fn label(&self) -> Label {
        if self.defects.is_empty() {
            Label::NonHotspot
        } else {
            Label::Hotspot
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefectKind;
    use hotspot_geom::Point;

    #[test]
    fn empty_report_is_non_hotspot() {
        assert_eq!(LithoReport::new(Vec::new()).label(), Label::NonHotspot);
    }

    #[test]
    fn any_defect_makes_hotspot() {
        let report = LithoReport::new(vec![Defect {
            kind: DefectKind::Pinch,
            location: Point::new(0, 0),
            size_px: 5,
        }]);
        assert_eq!(report.label(), Label::Hotspot);
        assert!(report.label().is_hotspot());
    }

    #[test]
    fn class_index_roundtrip() {
        for label in [Label::Hotspot, Label::NonHotspot] {
            assert_eq!(Label::from_class_index(label.class_index()), label);
        }
    }

    #[test]
    #[should_panic(expected = "must be 0 or 1")]
    fn bad_class_index_panics() {
        let _ = Label::from_class_index(2);
    }
}
