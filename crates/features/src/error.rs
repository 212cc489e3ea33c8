use std::fmt;

/// Error type for feature-extraction configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FeatureError {
    /// The raster size is not a positive multiple of the block size.
    BadBlockTiling {
        /// Requested square raster edge in pixels.
        raster: usize,
        /// Requested block edge in pixels.
        block: usize,
    },
    /// More coefficients were requested than a block contains.
    TooManyCoefficients {
        /// Requested coefficients per block.
        requested: usize,
        /// Available coefficients (`block * block`).
        available: usize,
    },
}

impl fmt::Display for FeatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureError::BadBlockTiling { raster, block } => write!(
                f,
                "raster edge {raster} px is not a positive multiple of block edge {block} px"
            ),
            FeatureError::TooManyCoefficients {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} coefficients per block but only {available} exist"
            ),
        }
    }
}

impl std::error::Error for FeatureError {}
