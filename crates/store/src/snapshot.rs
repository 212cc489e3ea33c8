//! [`Snapshot`]/[`Restore`] — deterministic binary (de)serialisation for
//! every piece of run state a checkpoint carries.
//!
//! Implementations exist for the framework's checkpoint types (dataset
//! partition, model weights + optimiser moments, oracle cache and meters,
//! per-iteration history, fault tallies) and for the telemetry state that
//! must survive a process boundary. Every impl round-trips bit-exactly:
//! floats are stored as raw IEEE-754 bits, so `decode(encode(x)) == x` even
//! for NaN payloads.

use crate::codec::{ByteReader, ByteWriter};
use crate::StoreError;
use hotspot_active::{DatasetCheckpoint, IterationStats, ModelState, RunFaultStats};
use hotspot_litho::{
    FaultInjectionStats, FaultMeterState, Label, OracleStateSnapshot, OracleStats, RetryMeterState,
};
use hotspot_nn::NetworkSnapshot;
use hotspot_telemetry::{HistogramState, JournalPosition, MetricsState};

/// Deterministic binary encoding into a [`ByteWriter`]. Infallible: every
/// in-memory value has an encoding.
pub trait Snapshot {
    /// Appends this value's encoding.
    fn encode(&self, w: &mut ByteWriter);
}

/// Checked decoding from a [`ByteReader`] — the inverse of [`Snapshot`].
pub trait Restore: Sized {
    /// Reads one value, validating structure as it goes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] on short input, [`StoreError::Corrupt`] on
    /// structurally invalid content.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError>;
}

/// Encodes a value to a standalone byte buffer.
pub fn encode_to_vec<T: Snapshot + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from a standalone byte buffer, requiring full
/// consumption.
///
/// # Errors
///
/// Propagates decode errors and rejects trailing bytes.
pub fn decode_from_slice<T: Restore>(bytes: &[u8], context: &'static str) -> Result<T, StoreError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish(context)?;
    Ok(value)
}

// ---------------------------------------------------------------------------
// Primitives and generic containers
// ---------------------------------------------------------------------------

macro_rules! primitive_snapshot {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl Snapshot for $t {
            fn encode(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
        }
        impl Restore for $t {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
                r.$get(stringify!($t))
            }
        }
    )*};
}

primitive_snapshot! {
    u8 => put_u8 / get_u8,
    u16 => put_u16 / get_u16,
    u32 => put_u32 / get_u32,
    u64 => put_u64 / get_u64,
    usize => put_usize / get_usize,
    f32 => put_f32 / get_f32,
    f64 => put_f64 / get_f64,
    bool => put_bool / get_bool,
}

impl Snapshot for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
}

impl Restore for String {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        r.get_str("string")
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Restore> Restore for Vec<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let len = r.get_seq_len("sequence length")?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(value) => {
                w.put_u8(1);
                value.encode(w);
            }
        }
    }
}

impl<T: Restore> Restore for Option<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(StoreError::Corrupt {
                detail: format!("invalid option tag {tag}"),
            }),
        }
    }
}

macro_rules! tuple_snapshot {
    ($(($($name:ident . $idx:tt),+);)*) => {$(
        impl<$($name: Snapshot),+> Snapshot for ($($name,)+) {
            fn encode(&self, w: &mut ByteWriter) {
                $(self.$idx.encode(w);)+
            }
        }
        impl<$($name: Restore),+> Restore for ($($name,)+) {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    )*};
}

tuple_snapshot! {
    (A.0, B.1);
    (A.0, B.1, C.2);
}

// ---------------------------------------------------------------------------
// Litho types: labels, oracle cache, and meters
// ---------------------------------------------------------------------------

impl Snapshot for Label {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.is_hotspot() as u8);
    }
}

impl Restore for Label {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        match r.get_u8("label")? {
            0 => Ok(Label::NonHotspot),
            1 => Ok(Label::Hotspot),
            tag => Err(StoreError::Corrupt {
                detail: format!("invalid label tag {tag}"),
            }),
        }
    }
}

impl Snapshot for OracleStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.unique);
        w.put_usize(self.total);
        w.put_usize(self.retries);
        w.put_usize(self.giveups);
        w.put_usize(self.quorum_votes);
    }
}

impl Restore for OracleStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(OracleStats {
            unique: r.get_usize("oracle stats")?,
            total: r.get_usize("oracle stats")?,
            retries: r.get_usize("oracle stats")?,
            giveups: r.get_usize("oracle stats")?,
            quorum_votes: r.get_usize("oracle stats")?,
        })
    }
}

impl Snapshot for RetryMeterState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.retries);
        w.put_usize(self.giveups);
        w.put_usize(self.quorum_votes);
    }
}

impl Restore for RetryMeterState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(RetryMeterState {
            retries: r.get_usize("retry meter")?,
            giveups: r.get_usize("retry meter")?,
            quorum_votes: r.get_usize("retry meter")?,
        })
    }
}

impl Snapshot for FaultInjectionStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.transients);
        w.put_usize(self.timeouts);
        w.put_usize(self.corruptions);
        w.put_usize(self.flips);
        w.put_usize(self.permanents);
    }
}

impl Restore for FaultInjectionStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(FaultInjectionStats {
            transients: r.get_usize("fault stats")?,
            timeouts: r.get_usize("fault stats")?,
            corruptions: r.get_usize("fault stats")?,
            flips: r.get_usize("fault stats")?,
            permanents: r.get_usize("fault stats")?,
        })
    }
}

impl Snapshot for FaultMeterState {
    fn encode(&self, w: &mut ByteWriter) {
        self.attempts.encode(w);
        self.injected.encode(w);
    }
}

impl Restore for FaultMeterState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(FaultMeterState {
            attempts: Vec::decode(r)?,
            injected: FaultInjectionStats::decode(r)?,
        })
    }
}

impl Snapshot for OracleStateSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        self.cache.encode(w);
        w.put_usize(self.total);
        w.put_usize(self.resimulations);
        self.retry.encode(w);
        self.fault.encode(w);
    }
}

impl Restore for OracleStateSnapshot {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(OracleStateSnapshot {
            cache: Vec::decode(r)?,
            total: r.get_usize("oracle snapshot")?,
            resimulations: r.get_usize("oracle snapshot")?,
            retry: Option::decode(r)?,
            fault: Option::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Framework types: dataset, model, history
// ---------------------------------------------------------------------------

impl Snapshot for DatasetCheckpoint {
    fn encode(&self, w: &mut ByteWriter) {
        self.labeled.encode(w);
        self.labeled_classes.encode(w);
        self.validation.encode(w);
        self.validation_classes.encode(w);
    }
}

impl Restore for DatasetCheckpoint {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(DatasetCheckpoint {
            labeled: Vec::decode(r)?,
            labeled_classes: Vec::decode(r)?,
            validation: Vec::decode(r)?,
            validation_classes: Vec::decode(r)?,
        })
    }
}

impl Snapshot for NetworkSnapshot {
    fn encode(&self, w: &mut ByteWriter) {
        let parts: Vec<(String, Vec<Vec<f32>>)> = self
            .layer_parts()
            .map(|(kind, buffers)| (kind.to_owned(), buffers.to_vec()))
            .collect();
        parts.encode(w);
    }
}

impl Restore for NetworkSnapshot {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(NetworkSnapshot::from_layer_parts(Vec::decode(r)?))
    }
}

impl Snapshot for ModelState {
    fn encode(&self, w: &mut ByteWriter) {
        self.snapshot.encode(w);
        w.put_u64(self.optimizer.step);
        self.optimizer.moments.encode(w);
        w.put_usize(self.steps_trained);
    }
}

impl Restore for ModelState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let snapshot = NetworkSnapshot::decode(r)?;
        let step = r.get_u64("adam step")?;
        let moments = Vec::decode(r)?;
        let steps_trained = r.get_usize("steps trained")?;
        Ok(ModelState {
            snapshot,
            optimizer: hotspot_nn::AdamState { step, moments },
            steps_trained,
        })
    }
}

impl Snapshot for RunFaultStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.label_failures);
        w.put_usize(self.oracle_retries);
        w.put_usize(self.oracle_giveups);
        w.put_usize(self.quorum_votes);
        w.put_usize(self.nan_rollbacks);
        w.put_usize(self.temperature_fallbacks);
    }
}

impl Restore for RunFaultStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(RunFaultStats {
            label_failures: r.get_usize("fault tallies")?,
            oracle_retries: r.get_usize("fault tallies")?,
            oracle_giveups: r.get_usize("fault tallies")?,
            quorum_votes: r.get_usize("fault tallies")?,
            nan_rollbacks: r.get_usize("fault tallies")?,
            temperature_fallbacks: r.get_usize("fault tallies")?,
        })
    }
}

impl Snapshot for IterationStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.iteration);
        w.put_f64(self.temperature);
        self.weights.encode(w);
        w.put_usize(self.batch_hotspots);
        w.put_usize(self.labeled_size);
        w.put_f64(self.train_loss);
        w.put_f64(self.ece);
        w.put_usize(self.failed_labels);
    }
}

impl Restore for IterationStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(IterationStats {
            iteration: r.get_usize("iteration stats")?,
            temperature: r.get_f64("iteration stats")?,
            weights: Option::decode(r)?,
            batch_hotspots: r.get_usize("iteration stats")?,
            labeled_size: r.get_usize("iteration stats")?,
            train_loss: r.get_f64("iteration stats")?,
            ece: r.get_f64("iteration stats")?,
            failed_labels: r.get_usize("iteration stats")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Telemetry state
// ---------------------------------------------------------------------------

impl Snapshot for HistogramState {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(&self.name);
        self.buckets.encode(w);
        w.put_u64(self.count);
        w.put_u64(self.sum_bits);
        w.put_u64(self.min_bits);
        w.put_u64(self.max_bits);
    }
}

impl Restore for HistogramState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(HistogramState {
            name: r.get_str("histogram name")?,
            buckets: Vec::decode(r)?,
            count: r.get_u64("histogram count")?,
            sum_bits: r.get_u64("histogram sum")?,
            min_bits: r.get_u64("histogram min")?,
            max_bits: r.get_u64("histogram max")?,
        })
    }
}

impl Snapshot for MetricsState {
    fn encode(&self, w: &mut ByteWriter) {
        self.counters.encode(w);
        self.gauges.encode(w);
        self.histograms.encode(w);
    }
}

impl Restore for MetricsState {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(MetricsState {
            counters: Vec::decode(r)?,
            gauges: Vec::decode(r)?,
            histograms: Vec::decode(r)?,
        })
    }
}

impl Snapshot for JournalPosition {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.bytes);
        w.put_u64(self.seq);
    }
}

impl Restore for JournalPosition {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(JournalPosition {
            bytes: r.get_u64("journal position")?,
            seq: r.get_u64("journal position")?,
        })
    }
}

// ---------------------------------------------------------------------------
// The run checkpoint's scalar header
// ---------------------------------------------------------------------------

/// The scalar header of a [`RunCheckpoint`](hotspot_active::RunCheckpoint) —
/// everything that is not one of the bulk sections. Kept as its own
/// encoding unit so the bundle can give it a dedicated CRC-protected
/// section.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunMeta {
    pub iteration: usize,
    pub seed: u64,
    pub run_id: u64,
    pub total: usize,
    pub ece_before: f64,
    pub oracle_calls_before: u64,
    pub stats_before: OracleStats,
    pub fault_stats: RunFaultStats,
}

impl Snapshot for RunMeta {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.iteration);
        w.put_u64(self.seed);
        w.put_u64(self.run_id);
        w.put_usize(self.total);
        w.put_f64(self.ece_before);
        w.put_u64(self.oracle_calls_before);
        self.stats_before.encode(w);
        self.fault_stats.encode(w);
    }
}

impl Restore for RunMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(RunMeta {
            iteration: r.get_usize("run meta")?,
            seed: r.get_u64("run meta")?,
            run_id: r.get_u64("run meta")?,
            total: r.get_usize("run meta")?,
            ece_before: r.get_f64("run meta")?,
            oracle_calls_before: r.get_u64("run meta")?,
            stats_before: OracleStats::decode(r)?,
            fault_stats: RunFaultStats::decode(r)?,
        })
    }
}
