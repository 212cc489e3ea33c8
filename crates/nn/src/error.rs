use std::fmt;

/// Error type for network construction, training, and serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NnError {
    /// A matrix was built from rows of inconsistent width.
    RaggedRows {
        /// Width of the first row.
        expected: usize,
        /// Width of the offending row.
        found: usize,
    },
    /// Two matrices had incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Left operand shape `(rows, cols)`.
        left: (usize, usize),
        /// Right operand shape `(rows, cols)`.
        right: (usize, usize),
    },
    /// The label vector length does not match the batch size.
    LabelCountMismatch {
        /// Batch rows.
        batch: usize,
        /// Labels provided.
        labels: usize,
    },
    /// A label index was out of range for the class count.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of classes.
        classes: usize,
    },
    /// An empty batch was passed to training.
    EmptyBatch,
    /// A serialised snapshot did not match the network architecture.
    SnapshotMismatch {
        /// Description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::RaggedRows { expected, found } => {
                write!(
                    f,
                    "matrix rows have inconsistent widths: expected {expected}, found {found}"
                )
            }
            NnError::ShapeMismatch { op, left, right } => write!(
                f,
                "shape mismatch in {op}: {}x{} vs {}x{}",
                left.0, left.1, right.0, right.1
            ),
            NnError::LabelCountMismatch { batch, labels } => {
                write!(
                    f,
                    "batch has {batch} rows but {labels} labels were provided"
                )
            }
            NnError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            NnError::EmptyBatch => write!(f, "training batch is empty"),
            NnError::SnapshotMismatch { detail } => {
                write!(f, "network snapshot mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for NnError {}
