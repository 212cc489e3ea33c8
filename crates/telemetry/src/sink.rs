//! Pluggable event sinks: console (filtered), JSONL run journal, memory.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

use crate::{EnvFilter, Event, MetricsSnapshot};

/// Receives every telemetry event and metrics snapshot.
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn on_event(&self, event: &Event);

    /// Handles a metrics snapshot (journals record it; consoles may ignore).
    fn on_snapshot(&self, _snapshot: &MetricsSnapshot) {}

    /// Flushes buffered output.
    fn flush(&self) {}
}

/// Human-readable sink writing to stderr, honouring a [`EnvFilter`]
/// (normally built from `LITHOHD_LOG`).
pub struct ConsoleSink {
    filter: EnvFilter,
}

impl ConsoleSink {
    /// Console with an explicit filter.
    pub fn new(filter: EnvFilter) -> Self {
        ConsoleSink { filter }
    }

    /// Console filtered by the `LITHOHD_LOG` environment variable.
    pub fn from_env() -> Self {
        ConsoleSink {
            filter: EnvFilter::from_env(),
        }
    }
}

impl Sink for ConsoleSink {
    fn on_event(&self, event: &Event) {
        if !self.filter.enabled(event.level, event.target) {
            return;
        }
        let mut line = format!(
            "[{:5} {}] {}",
            event.level.as_str(),
            event.target,
            event.message
        );
        for (key, value) in &event.fields {
            line.push_str(&format!(" {key}={value}"));
        }
        eprintln!("{line}");
    }

    fn flush(&self) {
        let _ = io::stderr().flush();
    }
}

/// Append-only JSONL run journal: one JSON object per line, tagged
/// `"type":"event"` or `"type":"snapshot"`, each carrying the microseconds
/// elapsed since the journal was opened and a per-journal sequence number.
///
/// [`JsonlSink::create_canonical`] opens the journal in *canonical* mode:
/// every wall-clock measurement is withheld (the `elapsed_us` header,
/// `profile` span-close events, `elapsed_ms`/`duration_us` event fields,
/// and `.seconds` latency histograms in snapshots), so two runs of the same
/// binary with the same seed produce byte-identical journal files. The
/// determinism suite diffs exactly that.
pub struct JsonlSink {
    writer: Mutex<JournalWriter>,
    opened: Instant,
    canonical: bool,
}

/// Exact byte offset and next sequence number of a journal, as used by
/// checkpoints: a resumed process truncates the journal to `bytes` and
/// continues writing records numbered from `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalPosition {
    /// File length in bytes after the last complete record.
    pub bytes: u64,
    /// Sequence number the next record will carry.
    pub seq: u64,
}

struct JournalWriter {
    out: BufWriter<File>,
    seq: u64,
    bytes: u64,
}

impl JsonlSink {
    /// Creates (truncating) the journal file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open(path, false)
    }

    /// Creates (truncating) the journal file in canonical mode: all
    /// wall-clock data is withheld so identically-seeded runs write
    /// byte-identical journals.
    pub fn create_canonical(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open(path, true)
    }

    /// Reopens a journal for a resumed run: the file is truncated to the
    /// checkpoint's [`JournalPosition`] (records an interrupted process
    /// wrote after its last save must not survive twice) and new records
    /// are appended, numbered from `position.seq`. With the same
    /// `canonical` mode as the interrupted run, the continuation is
    /// byte-identical to an uninterrupted run's journal.
    ///
    /// A file shorter than `position.bytes` — in particular a missing file
    /// when `position.bytes > 0` — is an error: appending would silently
    /// lose the journal prefix the checkpoint accounts for. A missing file
    /// at position zero is created.
    pub fn resume(
        path: impl AsRef<Path>,
        position: JournalPosition,
        canonical: bool,
    ) -> io::Result<Self> {
        let file = File::options()
            .append(true)
            .create(position.bytes == 0)
            .open(path)?;
        let len = file.metadata()?.len();
        if len < position.bytes {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "journal holds {len} bytes but the checkpoint resumes at byte {}",
                    position.bytes
                ),
            ));
        }
        file.set_len(position.bytes)?;
        Ok(Self::with_file(file, canonical, position))
    }

    fn open(path: impl AsRef<Path>, canonical: bool) -> io::Result<Self> {
        Ok(Self::with_file(
            File::create(path)?,
            canonical,
            JournalPosition::default(),
        ))
    }

    fn with_file(file: File, canonical: bool, position: JournalPosition) -> Self {
        JsonlSink {
            writer: Mutex::new(JournalWriter {
                out: BufWriter::new(file),
                seq: position.seq,
                bytes: position.bytes,
            }),
            opened: Instant::now(),
            canonical,
        }
    }

    /// The current end-of-journal position (all records are flushed before
    /// this returns, so the position is durable).
    pub fn position(&self) -> JournalPosition {
        let writer = crate::recover(self.writer.lock());
        JournalPosition {
            bytes: writer.bytes,
            seq: writer.seq,
        }
    }

    /// Writes the `resume` header record a resumed run opens with, carrying
    /// the restored iteration and checkpoint id. Withheld in canonical mode
    /// — an uninterrupted run has no such record, and checkpoint provenance
    /// must not break the byte-identity oracle.
    pub fn record_resume(&self, iteration: u64, checkpoint_id: u64) {
        if self.canonical {
            return;
        }
        self.write_record(
            "resume",
            vec![
                ("iteration".to_string(), Value::U64(iteration)),
                ("checkpoint".to_string(), Value::U64(checkpoint_id)),
            ],
        );
    }

    fn write_record(&self, kind: &str, mut body: Vec<(String, Value)>) {
        let mut writer = crate::recover(self.writer.lock());
        let mut entries = vec![
            ("type".to_string(), Value::Str(kind.to_string())),
            ("seq".to_string(), Value::U64(writer.seq)),
        ];
        if self.canonical {
            body.retain(|(key, _)| !crate::names::is_withheld_canonical_field(key));
        } else {
            entries.push((
                "elapsed_us".to_string(),
                Value::U64(self.opened.elapsed().as_micros().min(u128::from(u64::MAX)) as u64),
            ));
        }
        entries.append(&mut body);
        writer.seq += 1;
        // Journal output is best-effort: losing a line must not kill a run.
        let mut line = Vec::new();
        if serde_json::to_writer(&mut line, &Value::Map(entries)).is_ok() {
            line.push(b'\n');
            if writer.out.write_all(&line).is_ok() {
                writer.bytes += line.len() as u64;
            }
        }
        // Flush per record, not only on drop: a killed or scraped-mid-run
        // process must still leave a journal readable up to its last line
        // (at worst one truncated trailing line, which parsers skip).
        let _ = writer.out.flush();
    }
}

impl Sink for JsonlSink {
    fn on_event(&self, event: &Event) {
        // Span-close profile events are pure wall-clock measurements, and
        // checkpoint provenance differs between resumed and uninterrupted
        // runs; canonical journals withhold both.
        if self.canonical && crate::names::is_withheld_canonical_target(event.target) {
            return;
        }
        let body = match event.to_json() {
            Value::Map(entries) => entries,
            other => vec![("event".to_string(), other)],
        };
        self.write_record("event", body);
    }

    fn on_snapshot(&self, snapshot: &MetricsSnapshot) {
        let metrics = if self.canonical {
            let mut canonical = snapshot.clone();
            canonical
                .histograms
                .retain(|h| !crate::names::is_withheld_canonical_metric(&h.name));
            canonical
                .counters
                .retain(|(name, _)| !crate::names::is_withheld_canonical_metric(name));
            canonical.to_json()
        } else {
            snapshot.to_json()
        };
        self.write_record("snapshot", vec![("metrics".to_string(), metrics)]);
    }

    fn flush(&self) {
        let _ = crate::recover(self.writer.lock()).out.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

/// Test-oriented sink retaining events and snapshots in memory.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
    snapshots: Mutex<Vec<MetricsSnapshot>>,
}

impl MemorySink {
    /// Copies of all events received so far.
    pub fn events(&self) -> Vec<Event> {
        crate::recover(self.events.lock()).clone()
    }

    /// Copies of all snapshots received so far.
    pub fn snapshots(&self) -> Vec<MetricsSnapshot> {
        crate::recover(self.snapshots.lock()).clone()
    }
}

impl Sink for MemorySink {
    fn on_event(&self, event: &Event) {
        crate::recover(self.events.lock()).push(event.clone());
    }

    fn on_snapshot(&self, snapshot: &MetricsSnapshot) {
        crate::recover(self.snapshots.lock()).push(snapshot.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldValue, Level};

    fn sample_event() -> Event {
        Event {
            level: Level::Info,
            target: "core.framework",
            message: "iteration complete".to_string(),
            fields: vec![
                ("iteration", FieldValue::U64(3)),
                ("temperature", FieldValue::F64(1.5)),
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_events_and_snapshots() {
        let path =
            std::env::temp_dir().join(format!("lithohd-journal-test-{}.jsonl", std::process::id()));
        let sink = JsonlSink::create(&path).unwrap();
        sink.on_event(&sample_event());
        let mut snapshot = MetricsSnapshot::default();
        snapshot
            .counters
            .push(("litho.oracle.calls".to_string(), 42));
        sink.on_snapshot(&snapshot);
        drop(sink); // flush

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);

        let event: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(event.get("type").unwrap().as_str(), Some("event"));
        assert_eq!(event.get("seq").unwrap().as_u64(), Some(0));
        assert_eq!(event.get("iteration").unwrap().as_u64(), Some(3));
        assert_eq!(event.get("temperature").unwrap().as_f64(), Some(1.5));

        let snap: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(snap.get("type").unwrap().as_str(), Some("snapshot"));
        assert_eq!(
            snap.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("litho.oracle.calls")
                .unwrap()
                .as_u64(),
            Some(42)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_flushes_after_every_record() {
        let path = std::env::temp_dir().join(format!(
            "lithohd-journal-flush-test-{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create(&path).unwrap();
        sink.on_event(&sample_event());
        // Without dropping (flushing) the sink, the record must already be
        // on disk — a killed process leaves a readable journal.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let parsed: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.get("type").unwrap().as_str(), Some("event"));
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn canonical_journal_withholds_all_wall_clock_data() {
        let path = std::env::temp_dir().join(format!(
            "lithohd-journal-canonical-test-{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create_canonical(&path).unwrap();
        // A profile event must be dropped entirely.
        sink.on_event(&Event {
            level: Level::Debug,
            target: "profile",
            message: "nn.train".to_string(),
            fields: vec![("duration_us", FieldValue::U64(1500))],
        });
        // A normal event keeps its fields except wall-clock durations.
        sink.on_event(&Event {
            level: Level::Info,
            target: "core.framework",
            message: "run complete".to_string(),
            fields: vec![
                ("run_id", FieldValue::U64(0)),
                ("elapsed_ms", FieldValue::U64(2500)),
            ],
        });
        // Latency histograms are withheld from snapshots; counters stay.
        let mut snapshot = MetricsSnapshot::default();
        snapshot
            .counters
            .push(("litho.oracle.calls".to_string(), 42));
        snapshot.histograms.push(crate::HistogramSummary {
            name: "litho.oracle.seconds".to_string(),
            ..Default::default()
        });
        sink.on_snapshot(&snapshot);
        drop(sink);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("elapsed_us"), "{text}");
        assert!(!text.contains("elapsed_ms"), "{text}");
        assert!(!text.contains("duration_us"), "{text}");
        assert!(!text.contains(".seconds"), "{text}");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "profile event must be dropped: {text}");
        let event: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(event.get("run_id").unwrap().as_u64(), Some(0));
        let snap: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(
            snap.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("litho.oracle.calls")
                .unwrap()
                .as_u64(),
            Some(42)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_truncates_to_the_position_and_continues_the_sequence() {
        let path = std::env::temp_dir().join(format!(
            "lithohd-journal-resume-test-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let sink = JsonlSink::create_canonical(&path).unwrap();
        sink.on_event(&sample_event());
        sink.on_event(&sample_event());
        let position = sink.position();
        // A record written after the checkpoint: the resume must drop it.
        sink.on_event(&sample_event());
        drop(sink);
        assert_eq!(position.seq, 2);
        assert!(position.bytes < std::fs::metadata(&path).unwrap().len());

        let resumed = JsonlSink::resume(&path, position, true).unwrap();
        assert_eq!(resumed.position(), position);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            position.bytes,
            "the journal is truncated to the checkpoint's byte offset"
        );
        resumed.on_event(&sample_event());
        drop(resumed);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let last: Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(last.get("seq").unwrap().as_u64(), Some(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_journal_shorter_than_its_position() {
        let path = std::env::temp_dir().join(format!(
            "lithohd-journal-resume-missing-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let position = JournalPosition { bytes: 64, seq: 1 };
        assert!(JsonlSink::resume(&path, position, true).is_err());
        assert!(!path.exists(), "a refused resume must not create the file");

        std::fs::write(&path, b"{}\n").unwrap();
        let err = JsonlSink::resume(&path, position, false).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"{}\n",
            "file left untouched"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_record_written_plainly_but_withheld_canonically() {
        let dir = std::env::temp_dir();
        let plain_path = dir.join(format!(
            "lithohd-journal-resume-plain-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&plain_path).ok();
        let plain = JsonlSink::resume(&plain_path, JournalPosition::default(), false).unwrap();
        plain.record_resume(7, 3);
        drop(plain);
        let text = std::fs::read_to_string(&plain_path).unwrap();
        let record: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(record.get("type").unwrap().as_str(), Some("resume"));
        assert_eq!(record.get("iteration").unwrap().as_u64(), Some(7));
        assert_eq!(record.get("checkpoint").unwrap().as_u64(), Some(3));
        std::fs::remove_file(&plain_path).ok();

        let canonical_path = dir.join(format!(
            "lithohd-journal-resume-canon-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&canonical_path).ok();
        let canonical =
            JsonlSink::resume(&canonical_path, JournalPosition::default(), true).unwrap();
        canonical.record_resume(7, 3);
        drop(canonical);
        let text = std::fs::read_to_string(&canonical_path).unwrap();
        assert!(
            text.is_empty(),
            "canonical mode must withhold resume records"
        );
        std::fs::remove_file(&canonical_path).ok();
    }

    #[test]
    fn canonical_journal_withholds_checkpoint_provenance() {
        let path = std::env::temp_dir().join(format!(
            "lithohd-journal-ckpt-test-{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create_canonical(&path).unwrap();
        sink.on_event(&Event {
            level: Level::Info,
            target: "store.checkpoint",
            message: "checkpoint saved".to_string(),
            fields: vec![("iteration", FieldValue::U64(4))],
        });
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.push(("checkpoint.saves".to_string(), 4));
        snapshot
            .counters
            .push(("litho.oracle.calls".to_string(), 9));
        sink.on_snapshot(&snapshot);
        drop(sink);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("checkpoint"), "{text}");
        assert!(text.contains("litho.oracle.calls"), "{text}");
        assert_eq!(text.lines().count(), 1, "event must be dropped: {text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn canonical_journal_withholds_shard_provenance() {
        let path = std::env::temp_dir().join(format!(
            "lithohd-journal-shard-test-{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create_canonical(&path).unwrap();
        sink.on_event(&Event {
            level: Level::Debug,
            target: "shard.coordinator",
            message: "shard batch merged".to_string(),
            fields: vec![("workers", FieldValue::U64(4))],
        });
        let mut snapshot = MetricsSnapshot::default();
        snapshot.counters.push(("shard.batches".to_string(), 7));
        snapshot
            .counters
            .push(("litho.oracle.calls".to_string(), 9));
        sink.on_snapshot(&snapshot);
        drop(sink);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("shard"), "{text}");
        assert!(text.contains("litho.oracle.calls"), "{text}");
        assert_eq!(text.lines().count(), 1, "event must be dropped: {text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn canonical_journal_withholds_kernel_counters() {
        let path = std::env::temp_dir().join(format!(
            "lithohd-journal-kernel-test-{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create_canonical(&path).unwrap();
        let mut snapshot = MetricsSnapshot::default();
        snapshot
            .counters
            .push(("kernel.dct.flops".to_string(), 123));
        snapshot
            .counters
            .push(("litho.oracle.calls".to_string(), 9));
        sink.on_snapshot(&snapshot);
        drop(sink);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("kernel."), "{text}");
        assert!(text.contains("litho.oracle.calls"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_sink_retains_in_order() {
        let sink = MemorySink::default();
        sink.on_event(&sample_event());
        sink.on_event(&sample_event());
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.events()[0].target, "core.framework");
    }
}
