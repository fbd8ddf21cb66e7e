//! Bounded flight recorder: a fixed-capacity ring buffer of recent
//! engine events, dumpable as JSONL for postmortems.
//!
//! The recorder is the observability plane's black box. Producers push
//! [`FlightRecord`]s — the online engine's events (its only record of
//! them) plus alert transitions — into a preallocated ring.
//! Once the ring reaches capacity every push overwrites the oldest
//! record in place, so the steady state allocates nothing and the memory
//! footprint is fixed at construction time. When an anomaly fires
//! (breaker-budget violation, alert transition, oracle failure) the last
//! N records are rendered to JSON-lines and shipped with the report.
//!
//! Records are engine-agnostic on purpose: this crate sits at the bottom
//! of the workspace dependency graph, so the engine encodes its
//! `EventRecord`s into the generic `(kind, a, b, c, value)` payload and
//! decodes them back on the oracle side. The JSONL dump names the payload
//! slots per kind (`slot`/`ordinal`/`rack`/…) so postmortems read
//! naturally without the decoder.

use crate::export::BenchObject;

/// What kind of moment a [`FlightRecord`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// An arrival was committed onto a rack (`a`=slot, `b`=ordinal,
    /// `c`=rack).
    Committed,
    /// An arrival was rejected (`b`=ordinal).
    Rejected,
    /// A live instance was retired (`a`=slot, `c`=rack).
    Retired,
    /// Repair moved a live instance between racks (`a`=slot, `b`=from
    /// rack, `c`=to rack).
    Moved,
    /// An alert rule transitioned to firing (`a`=rule index,
    /// `b`=evaluation index, `value`=measured signal).
    AlertFired,
    /// An alert rule transitioned back to resolved (`a`=rule index,
    /// `b`=evaluation index, `value`=measured signal).
    AlertResolved,
    /// An admission was rejected by a breaker budget while a slot was
    /// free (`b`=ordinal, `value`=candidate peak watts).
    BreakerViolation,
}

impl FlightKind {
    /// Stable lowercase label used by the JSONL dump.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Committed => "committed",
            FlightKind::Rejected => "rejected",
            FlightKind::Retired => "retired",
            FlightKind::Moved => "moved",
            FlightKind::AlertFired => "alert_fired",
            FlightKind::AlertResolved => "alert_resolved",
            FlightKind::BreakerViolation => "breaker_violation",
        }
    }
}

/// One recorded moment. Plain old data (`Copy`), so ring writes are a
/// store, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightRecord {
    /// Monotone sequence number over the recorder's lifetime (assigned
    /// by [`FlightRecorder::record`]; survives ring wrap, so dumps show
    /// how much history was overwritten).
    pub seq: u64,
    /// Milliseconds since the owning clock's origin.
    pub ts_ms: u64,
    /// What happened.
    pub kind: FlightKind,
    /// First payload slot (meaning depends on `kind`; see [`FlightKind`]).
    pub a: u64,
    /// Second payload slot.
    pub b: u64,
    /// Third payload slot.
    pub c: u64,
    /// Float payload (signal value for alerts, candidate watts for
    /// breaker violations; 0.0 otherwise).
    pub value: f64,
}

/// Fixed-capacity ring buffer of [`FlightRecord`]s.
///
/// The backing storage is reserved up front; after the ring fills, every
/// [`record`](FlightRecorder::record) overwrites the oldest entry in
/// place — zero allocation in steady state.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<FlightRecord>,
    capacity: usize,
    head: usize,
    seq: u64,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` records
    /// (`capacity` is clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            seq: 0,
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever pushed (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.seq
    }

    /// Records lost to ring wrap.
    pub fn dropped(&self) -> u64 {
        self.seq - self.ring.len() as u64
    }

    /// Pushes one record, overwriting the oldest when full. Returns the
    /// assigned sequence number.
    pub fn record(
        &mut self,
        ts_ms: u64,
        kind: FlightKind,
        a: u64,
        b: u64,
        c: u64,
        value: f64,
    ) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        let record = FlightRecord {
            seq,
            ts_ms,
            kind,
            a,
            b,
            c,
            value,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(record);
        } else {
            self.ring[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
        }
        seq
    }

    /// The most recent `n` records, oldest first (`n == 0` means all
    /// currently held).
    pub fn recent(&self, n: usize) -> Vec<FlightRecord> {
        let held = self.ring.len();
        let take = if n == 0 { held } else { n.min(held) };
        let mut out = Vec::with_capacity(take);
        // Oldest record sits at `head` once the ring has wrapped, at 0
        // before that (head stays 0 until the first overwrite).
        let start = held - take;
        for i in 0..take {
            let idx = (self.head + start + i) % held.max(1);
            out.push(self.ring[idx]);
        }
        out
    }

    /// Renders the most recent `n` records (0 = all) as JSON-lines,
    /// naming payload slots per kind and resolving alert rule indices
    /// through `rule_names` when provided.
    pub fn to_jsonl(&self, n: usize, rule_names: &[String]) -> String {
        let mut out = String::new();
        for record in self.recent(n) {
            render_record(&record, rule_names).write_compact(&mut out);
            out.push('\n');
        }
        out
    }
}

/// One record as a JSON object, its payload slots named per kind.
fn render_record(record: &FlightRecord, rule_names: &[String]) -> BenchObject {
    let line = BenchObject::default()
        .raw("seq", record.seq)
        .raw("ts_ms", record.ts_ms)
        .string("kind", record.kind.label());
    match record.kind {
        FlightKind::Committed => line
            .raw("slot", record.a)
            .raw("ordinal", record.b)
            .raw("rack", record.c),
        FlightKind::Rejected => line.raw("ordinal", record.b),
        FlightKind::Retired => line.raw("slot", record.a).raw("rack", record.c),
        FlightKind::Moved => line
            .raw("slot", record.a)
            .raw("from", record.b)
            .raw("to", record.c),
        FlightKind::AlertFired | FlightKind::AlertResolved => {
            let line = match rule_names.get(record.a as usize) {
                Some(name) => line.string("rule", name),
                None => line.raw("rule", record.a),
            };
            line.raw("eval", record.b).float("value", record.value)
        }
        FlightKind::BreakerViolation => line.raw("ordinal", record.b).float("value", record.value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_seq() {
        let mut rec = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            rec.record(i, FlightKind::Committed, i, i, i, 0.0);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.total(), 5);
        assert_eq!(rec.dropped(), 2);
        let recent = rec.recent(0);
        assert_eq!(
            recent.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest-first order survives wrap"
        );
        let last_two = rec.recent(2);
        assert_eq!(
            last_two.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }

    #[test]
    fn steady_state_does_not_grow_the_ring() {
        let mut rec = FlightRecorder::with_capacity(4);
        for i in 0..100u64 {
            rec.record(i, FlightKind::Retired, i, 0, 0, 0.0);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.capacity(), 4);
        assert!(rec.ring.capacity() >= 4);
        assert_eq!(rec.total(), 100);
    }

    #[test]
    fn jsonl_names_payload_slots_per_kind() {
        let mut rec = FlightRecorder::with_capacity(8);
        rec.record(1, FlightKind::Committed, 7, 3, 2, 0.0);
        rec.record(2, FlightKind::Rejected, 0, 9, 0, 0.0);
        rec.record(3, FlightKind::Moved, 7, 2, 5, 0.0);
        rec.record(4, FlightKind::AlertFired, 0, 11, 0, 1.5);
        rec.record(5, FlightKind::BreakerViolation, 0, 12, 0, 900.0);
        let names = vec!["breaker_budget_violation".to_string()];
        let text = rec.to_jsonl(0, &names);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"ts_ms\":1,\"kind\":\"committed\",\"slot\":7,\"ordinal\":3,\"rack\":2}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"ts_ms\":2,\"kind\":\"rejected\",\"ordinal\":9}"
        );
        assert_eq!(
            lines[2],
            "{\"seq\":2,\"ts_ms\":3,\"kind\":\"moved\",\"slot\":7,\"from\":2,\"to\":5}"
        );
        assert_eq!(
            lines[3],
            "{\"seq\":3,\"ts_ms\":4,\"kind\":\"alert_fired\",\"rule\":\"breaker_budget_violation\",\"eval\":11,\"value\":1.5}"
        );
        assert_eq!(
            lines[4],
            "{\"seq\":4,\"ts_ms\":5,\"kind\":\"breaker_violation\",\"ordinal\":12,\"value\":900}"
        );
    }

    #[test]
    fn zero_n_dumps_everything_and_large_n_clamps() {
        let mut rec = FlightRecorder::with_capacity(2);
        rec.record(0, FlightKind::Retired, 1, 0, 4, 0.0);
        assert_eq!(rec.recent(10).len(), 1);
        assert_eq!(rec.to_jsonl(0, &[]).lines().count(), 1);
    }
}
