//! The crash-forensics flight recorder.
//!
//! A bounded ring of the most recent typed events, kept alongside the
//! trace inside the recorder's single mutex (one `VecDeque` push per
//! event — no extra lock, no allocation beyond the record itself).
//! When something goes wrong — a [`CrashPoint`] fires, a recovery path
//! runs, an SLO alert trips — the ring is dumped to
//! `results/traces/flight_<seed>.jsonl`, so a `tests/durability.rs`
//! failure comes with the last N events before the crash instead of
//! nothing.
//!
//! Records carry a monotonically increasing sequence number instead of
//! a timestamp: the virtual clock does not advance inside a parallel
//! LLM batch, so arrival order is the honest ordering signal. Dumps are
//! forensic artifacts, not determinism-checked exports — the byte-
//! stable surfaces remain `to_jsonl` and `health.jsonl`.
//!
//! [`CrashPoint`]: ../../aida_llm/snapshot/enum.CrashPoint.html

use std::collections::VecDeque;

use crate::event::Event;
use crate::json::Json;

/// Default ring capacity. The acceptance bar is "the last ≥ 64 events
/// before the crash"; 256 leaves headroom without measurable cost.
const FLIGHT_CAPACITY: usize = 256;

/// One flight-recorder entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotonic sequence number (global across the recorder's life).
    pub seq: u64,
    /// Emitting subsystem, e.g. `serve.wal`, `llm.crash`, `agents.step`.
    pub source: String,
    /// Short event kind, e.g. `llm_call`, `crash_point`, `slo_alert`.
    pub kind: String,
    /// Human-readable payload (often a rendered event JSON).
    pub detail: String,
}

impl FlightRecord {
    /// Serializes as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("seq", self.seq)
            .field("source", self.source.as_str())
            .field("kind", self.kind.as_str())
            .field("detail", self.detail.as_str())
    }
}

/// One retained entry. Typed events are stored as-is and rendered only
/// when a dump is actually taken — pushing must stay off the hot path's
/// allocator (no JSON rendering per event).
#[derive(Debug, Clone)]
enum Entry {
    /// Free-form record from `Recorder::flight`.
    Text {
        seq: u64,
        source: String,
        kind: String,
        detail: String,
    },
    /// A typed event, moved in whole from `Recorder::event`.
    Event { seq: u64, event: Event },
}

impl Entry {
    fn render(&self) -> FlightRecord {
        match self {
            Entry::Text {
                seq,
                source,
                kind,
                detail,
            } => FlightRecord {
                seq: *seq,
                source: source.clone(),
                kind: kind.clone(),
                detail: detail.clone(),
            },
            Entry::Event { seq, event } => FlightRecord {
                seq: *seq,
                source: "event".to_string(),
                kind: event.name().to_string(),
                detail: event.to_json().render(),
            },
        }
    }
}

/// The bounded ring itself. Pushing at capacity drops the oldest record.
#[derive(Debug, Clone)]
pub struct FlightRing {
    capacity: usize,
    next_seq: u64,
    ring: VecDeque<Entry>,
}

impl Default for FlightRing {
    fn default() -> FlightRing {
        FlightRing::new(FLIGHT_CAPACITY)
    }
}

impl FlightRing {
    /// Creates an empty ring holding at most `capacity` records.
    pub fn new(capacity: usize) -> FlightRing {
        assert!(capacity > 0, "flight ring capacity must be positive");
        FlightRing {
            capacity,
            next_seq: 0,
            ring: VecDeque::with_capacity(capacity),
        }
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Appends a record, evicting the oldest at capacity.
    pub fn push(&mut self, source: &str, kind: &str, detail: String) {
        self.push_entry(Entry::Text {
            seq: self.next_seq,
            source: source.to_string(),
            kind: kind.to_string(),
            detail,
        });
    }

    /// Appends a typed event without rendering it; the JSON detail is
    /// produced lazily if this entry survives until a dump.
    pub fn push_event(&mut self, event: Event) {
        self.push_entry(Entry::Event {
            seq: self.next_seq,
            event,
        });
    }

    fn push_entry(&mut self, entry: Entry) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(entry);
        self.next_seq += 1;
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<FlightRecord> {
        self.ring.iter().map(Entry::render).collect()
    }

    /// Renders the dump: a header line naming the trigger, then one
    /// JSON object per retained record, oldest first.
    pub fn render_dump(&self, reason: &str) -> String {
        let mut out = String::new();
        let header = Json::obj()
            .field("flight", reason)
            .field("events", self.ring.len() as u64)
            .field("dropped", self.next_seq - self.ring.len() as u64)
            .field("capacity", self.capacity as u64);
        out.push_str(&header.render());
        out.push('\n');
        for entry in &self.ring {
            out.push_str(&entry.render().to_json().render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let mut ring = FlightRing::new(3);
        for i in 0..5 {
            ring.push("src", "kind", format!("d{i}"));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.next_seq, 5);
        let records = ring.records();
        assert_eq!(records[0].seq, 2);
        assert_eq!(records[2].seq, 4);
        assert_eq!(records[2].detail, "d4");
    }

    #[test]
    fn dump_has_header_then_records() {
        let mut ring = FlightRing::new(2);
        ring.push("serve.wal", "recovery", "replayed=3".to_string());
        let dump = ring.render_dump("crash");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"flight":"crash","events":1,"dropped":0,"capacity":2}"#
        );
        assert_eq!(
            lines[1],
            r#"{"seq":0,"source":"serve.wal","kind":"recovery","detail":"replayed=3"}"#
        );
    }

    #[test]
    fn default_capacity_covers_acceptance_floor() {
        assert!(FlightRing::default().capacity() >= 64);
    }
}
