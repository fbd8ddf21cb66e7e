//! Resident daemon state: streaming sample ingest over an [`OnlineFleet`].
//!
//! SmoothOperator ran as a continuous production service — the framework
//! "continuously records the I-traces and the S-traces and dynamically
//! re-evaluates the severity of the fragmentation problem" (§3.6). A
//! [`DaemonFleet`] is that loop's state: it wraps an [`OnlineFleet`]
//! (topology, per-node budgets, the columnar [`TraceArena`] of live
//! windows, exact [`NodeAggregates`]) and adds *streaming* sample
//! ingest on top of the engine's arrival/retirement churn.
//!
//! [`TraceArena`]: so_powertrace::TraceArena
//! [`NodeAggregates`]: so_powertree::NodeAggregates
//!
//! # Ring-buffer windows
//!
//! Each live slot's arena row *is* its sample window: `T` columns on the
//! engine's [`TimeGrid`](so_powertrace::TimeGrid). A per-row cursor
//! tracks the next write position; each ingested sample overwrites the
//! oldest column and advances the cursor modulo `T`. A commit that
//! reuses a retired slot's row restarts its cursor at column 0, as a
//! fresh row starts, so the cursors are as large as the arena: O(live).
//! No rotation or copying ever happens — the window is circular by
//! indexing. That is
//! sound because every score the engine serves is column-order
//! *invariant*: per-column sums do not care how columns are labelled,
//! and peaks are max-reductions over columns. A rotated window scores
//! bit-identically to the chronologically-ordered one.
//!
//! # The incremental-update contract
//!
//! Ingest costs O(path) per sample, never a re-sum: each reading is
//! snapped onto the exact grid of [`snap_samples`], written into its
//! window, and its rack path shifted by `new − old` at that position.
//! Sums on the grid are exact, so the resident aggregates after **any**
//! ingest stream are bit-identical to a
//! [`compute`](so_powertree::NodeAggregates::compute) of the final
//! windows — the invariant the `daemon` oracle family pins. Each write
//! goes through the engine, which also keeps the slot's window peak and
//! its rack's exact peak sum current (a row is refolded only when its
//! peak sample fell), so an asynchrony query is
//! O(1) per rack and bit-identical to
//! [`asynchrony_score`](crate::asynchrony_score) over the materialized
//! member windows.
//!
//! # Serial commits
//!
//! `DaemonFleet` is deliberately not `Sync`-clever: the daemon binary
//! holds it behind one mutex and applies every mutation (ingest batch,
//! arrival, retirement, repair) at that single serial commit point, in
//! connection order. Determinism then follows from the engine's own
//! guarantees — no mutation interleaves mid-batch.

use so_powertrace::{snap_samples, PowerTrace};
use so_powertree::NodeId;

use crate::error::CoreError;
use crate::online::OnlineFleet;
use crate::remap::RemapReport;

/// One streamed power reading: `slot` drew `watts` at the next window
/// position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleUpdate {
    /// Slot id of the instance (as returned by arrival).
    pub slot: usize,
    /// Observed power draw in watts. Must be finite and non-negative.
    pub watts: f64,
}

/// What one [`DaemonFleet::ingest_batch`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Samples written into live windows.
    pub applied: usize,
    /// Samples addressed to retired or never-seen slots, skipped.
    pub dropped: usize,
    /// Distinct racks whose aggregate path was updated.
    pub racks_touched: usize,
}

/// A resident [`OnlineFleet`] plus streaming-ingest state: per-row ring
/// cursors. See the module docs for the ring-buffer and bit-identity
/// contracts.
#[derive(Debug, Clone)]
pub struct DaemonFleet {
    fleet: OnlineFleet,
    /// Next ring write position per arena row (column index into the
    /// window).
    cursor: Vec<usize>,
    /// Per rack, the last ingest call that touched it: counts distinct
    /// racks without a touched set.
    rack_stamp: Vec<u64>,
    samples_ingested: u64,
    samples_dropped: u64,
    batches_ingested: u64,
}

impl DaemonFleet {
    /// Wraps `fleet`, priming ring cursors at position 0.
    #[must_use]
    pub fn new(fleet: OnlineFleet) -> Self {
        Self {
            rack_stamp: vec![0; fleet.topology().len()],
            cursor: vec![0; fleet.arena_rows()],
            fleet,
            samples_ingested: 0,
            samples_dropped: 0,
            batches_ingested: 0,
        }
    }

    /// Read-only access to the wrapped engine. Mutations must go through
    /// the daemon's own methods so the ingest caches stay coherent.
    #[must_use]
    pub fn fleet(&self) -> &OnlineFleet {
        &self.fleet
    }

    /// Window length in samples (the engine grid's length).
    #[must_use]
    pub fn window(&self) -> usize {
        self.fleet.grid().len()
    }

    /// Samples written into live windows over the daemon's lifetime.
    #[must_use]
    pub fn samples_ingested(&self) -> u64 {
        self.samples_ingested
    }

    /// Samples dropped (retired or unknown slots) over the lifetime.
    #[must_use]
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    /// Ingest batches applied over the lifetime.
    #[must_use]
    pub fn batches_ingested(&self) -> u64 {
        self.batches_ingested
    }

    /// Applies one batch of streamed samples at the serial commit point.
    ///
    /// The whole batch is snapped first ([`snap_samples`]): a NaN,
    /// negative or over-cap reading rejects the call *before any
    /// mutation*, so a malformed batch never half-applies. Samples
    /// addressed to retired or unknown slots are counted and skipped
    /// (instances retire while their last readings are in flight — that
    /// is churn, not corruption). Writes land in submission order, each
    /// shifting its rack path by delta, so the call is O(batch · path).
    ///
    /// # Errors
    ///
    /// [`so_powertrace::TraceError::InvalidSample`] (wrapped in
    /// [`CoreError::Trace`]) for an out-of-range reading.
    pub fn ingest_batch(&mut self, updates: &[SampleUpdate]) -> Result<IngestReport, CoreError> {
        let watts: Vec<f64> = updates.iter().map(|u| u.watts).collect();
        let watts = snap_samples(&watts)?;
        let window = self.window();
        let stamp = self.batches_ingested + 1;
        let mut report = IngestReport::default();
        for (update, watts) in updates.iter().zip(watts) {
            let Some(row) = self.fleet.slot_row(update.slot) else {
                report.dropped += 1;
                continue;
            };
            let pos = self.cursor[row];
            let rack = self.fleet.write_window_sample(row, pos, watts)?;
            self.cursor[row] = (pos + 1) % window;
            if std::mem::replace(&mut self.rack_stamp[rack.index()], stamp) != stamp {
                report.racks_touched += 1;
            }
            report.applied += 1;
        }
        self.samples_ingested += report.applied as u64;
        self.samples_dropped += report.dropped as u64;
        self.batches_ingested += 1;
        if so_telemetry::enabled() {
            so_telemetry::counter_add(
                "so_daemon_samples_ingested_total",
                &[],
                report.applied as u64,
            );
            so_telemetry::counter_add(
                "so_daemon_samples_dropped_total",
                &[],
                report.dropped as u64,
            );
            so_telemetry::counter_add("so_daemon_ingest_batches_total", &[], 1);
        }
        Ok(report)
    }

    /// Commits an arrival through the engine (see
    /// [`OnlineFleet::arrive`]) and starts the ring cursor of its row, a
    /// fresh one or a retired slot's, at column 0.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn arrive(&mut self, candidate: &PowerTrace) -> Result<Option<usize>, CoreError> {
        let committed = self.fleet.arrive(candidate)?;
        if let Some(row) = committed.and_then(|slot| self.fleet.slot_row(slot)) {
            self.cursor.resize(self.fleet.arena_rows(), 0);
            self.cursor[row] = 0;
        }
        Ok(committed)
    }

    /// Retires a live slot (see [`OnlineFleet::retire`]). Its row, and
    /// with it the row's cursor, waits for the next commit; the slot id
    /// resolves to nothing from now on, so later samples for it are
    /// dropped.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn retire(&mut self, slot: usize) -> Result<(), CoreError> {
        self.fleet.retire(slot)
    }

    /// Runs one budgeted §3.6 differential-score repair pass on the
    /// resident racks (see [`OnlineFleet::repair`]). Moves swap instances
    /// between racks without touching window contents or cursors.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn repair(&mut self) -> Result<RemapReport, CoreError> {
        self.fleet.repair()
    }

    /// Rack asynchrony, O(1) (see [`OnlineFleet::rack_asynchrony`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptySet`] for an empty rack; propagates tree
    /// lookups.
    pub fn rack_asynchrony(&self, rack: NodeId) -> Result<f64, CoreError> {
        self.fleet.rack_asynchrony(rack)
    }

    /// Mean rack asynchrony over non-empty racks, or `None` for an empty
    /// fleet (see [`OnlineFleet::mean_rack_asynchrony`]).
    #[must_use]
    pub fn mean_rack_asynchrony(&self) -> Option<f64> {
        self.fleet.mean_rack_asynchrony()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{CommitPolicy, OnlineConfig};
    use so_powertrace::TimeGrid;
    use so_powertree::{NodeAggregates, PowerTopology};

    fn small_topology() -> PowerTopology {
        PowerTopology::builder()
            .suites(1)
            .msbs_per_suite(1)
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .rack_capacity(4)
            .name("daemon-test")
            .build()
            .unwrap()
    }

    fn seeded_daemon(n: usize) -> DaemonFleet {
        let grid = TimeGrid::new(15, 8);
        let config = OnlineConfig {
            policy: CommitPolicy::Sampling {
                probes: small_topology().racks().len(),
            },
            repair_budget: 0,
            min_gain: 0.0,
            sample_salt: 7,
        };
        let fleet = OnlineFleet::new(small_topology(), grid, config)
            .with_budgets(vec![1e9; small_topology().len()])
            .unwrap();
        let mut daemon = DaemonFleet::new(fleet);
        for i in 0..n {
            let samples: Vec<f64> = (0..8).map(|t| ((i * 8 + t) % 5) as f64 + 1.0).collect();
            let trace = PowerTrace::new(samples, 15).unwrap();
            daemon.arrive(&trace).unwrap().expect("fits");
        }
        daemon
    }

    /// From-scratch recompute of the live fleet's aggregates.
    fn recompute(daemon: &DaemonFleet) -> NodeAggregates {
        let (traces, assignment, _) = daemon.fleet().live_view().unwrap();
        if traces.is_empty() {
            NodeAggregates::zeros(daemon.fleet().topology(), daemon.fleet().grid())
        } else {
            NodeAggregates::compute(daemon.fleet().topology(), &assignment, &traces).unwrap()
        }
    }

    fn assert_bit_identical(daemon: &DaemonFleet) {
        let offline = recompute(daemon);
        for node in daemon.fleet().topology().nodes().iter().map(|n| n.id()) {
            let got = daemon.fleet().aggregates().trace(node).unwrap();
            let want = offline.trace(node).unwrap();
            assert_eq!(
                got.samples().len(),
                want.samples().len(),
                "node {node} length"
            );
            for (g, w) in got.samples().iter().zip(want.samples()) {
                assert_eq!(g.to_bits(), w.to_bits(), "node {node} sample drift");
            }
            assert_eq!(
                daemon.fleet().aggregates().peak(node).unwrap().to_bits(),
                offline.peak(node).unwrap().to_bits(),
                "node {node} peak drift"
            );
        }
    }

    #[test]
    fn ingest_keeps_aggregates_bit_identical_to_recompute() {
        let mut daemon = seeded_daemon(6);
        let mut updates = Vec::new();
        for round in 0..23u64 {
            updates.clear();
            for slot in 0..6 {
                updates.push(SampleUpdate {
                    slot,
                    watts: ((round * 31 + slot as u64 * 7) % 17) as f64 * 0.5,
                });
            }
            let report = daemon.ingest_batch(&updates).unwrap();
            assert_eq!(report.applied, 6);
            assert_eq!(report.dropped, 0);
            assert_bit_identical(&daemon);
        }
        assert_eq!(daemon.samples_ingested(), 23 * 6);
        assert_eq!(daemon.batches_ingested(), 23);
    }

    #[test]
    fn asynchrony_after_ingest_matches_materialized_score() {
        let mut daemon = seeded_daemon(6);
        let updates: Vec<SampleUpdate> = (0..6)
            .map(|slot| SampleUpdate {
                slot,
                watts: (slot as f64 + 1.0) * 3.25,
            })
            .collect();
        // Eleven rounds wrap the 8-sample windows, so old peaks fall out
        // and rows are refolded.
        for _ in 0..11 {
            daemon.ingest_batch(&updates).unwrap();
        }
        let (traces, assignment, _) = daemon.fleet().live_view().unwrap();
        let mut scores = Vec::new();
        for (rack, members) in assignment.by_rack() {
            let want = crate::asynchrony_score(members.iter().map(|&i| &traces[i])).unwrap();
            let got = daemon.rack_asynchrony(rack).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "rack {rack}");
            scores.push(want);
        }
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        assert_eq!(
            daemon.mean_rack_asynchrony().map(f64::to_bits),
            Some(mean.to_bits())
        );
    }

    #[test]
    fn retired_and_unknown_slots_are_dropped_not_applied() {
        let mut daemon = seeded_daemon(4);
        daemon.retire(1).unwrap();
        let updates = [
            SampleUpdate {
                slot: 0,
                watts: 9.0,
            },
            SampleUpdate {
                slot: 1,
                watts: 9.0,
            },
            SampleUpdate {
                slot: 99,
                watts: 9.0,
            },
        ];
        let report = daemon.ingest_batch(&updates).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.dropped, 2);
        assert_bit_identical(&daemon);
    }

    #[test]
    fn malformed_batch_rejects_without_mutating() {
        let mut daemon = seeded_daemon(3);
        let before: Vec<u64> = daemon
            .fleet()
            .aggregates()
            .trace(daemon.fleet().topology().root())
            .unwrap()
            .samples()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        let updates = [
            SampleUpdate {
                slot: 0,
                watts: 5.0,
            },
            SampleUpdate {
                slot: 1,
                watts: f64::NAN,
            },
        ];
        assert!(daemon.ingest_batch(&updates).is_err());
        let after: Vec<u64> = daemon
            .fleet()
            .aggregates()
            .trace(daemon.fleet().topology().root())
            .unwrap()
            .samples()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(before, after, "rejected batch must not half-apply");
        assert_eq!(daemon.samples_ingested(), 0);
    }

    #[test]
    fn ring_cursor_wraps_and_overwrites_oldest() {
        let mut daemon = seeded_daemon(1);
        let window = daemon.window();
        // Fill more than one full window with a recognizable staircase.
        for k in 0..window + 3 {
            daemon
                .ingest_batch(&[SampleUpdate {
                    slot: 0,
                    watts: k as f64,
                }])
                .unwrap();
        }
        let row = daemon.fleet().row(0).to_vec();
        // The window holds the *last* `window` values in ring order.
        let mut expect: Vec<f64> = (0..window).map(|k| k as f64).collect();
        for k in window..window + 3 {
            expect[k % window] = k as f64;
        }
        assert_eq!(row, expect);
        assert_bit_identical(&daemon);
    }

    #[test]
    fn churn_interleaved_with_ingest_stays_bit_identical() {
        let mut daemon = seeded_daemon(5);
        daemon
            .ingest_batch(&[SampleUpdate {
                slot: 2,
                watts: 4.5,
            }])
            .unwrap();
        daemon.retire(2).unwrap();
        let trace = PowerTrace::new(vec![2.0; 8], 15).unwrap();
        let slot = daemon.arrive(&trace).unwrap().expect("fits");
        daemon
            .ingest_batch(&[
                SampleUpdate { slot, watts: 7.75 },
                SampleUpdate {
                    slot: 0,
                    watts: 1.25,
                },
            ])
            .unwrap();
        daemon.repair().unwrap();
        assert_bit_identical(&daemon);
    }
}
