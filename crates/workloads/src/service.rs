//! Service classes modeled after the paper's production workloads
//! (Figure 5: top-10 power consumers of three Facebook datacenters).

use std::fmt;

/// Broad scheduling category of a service, which determines how the
/// reshaping runtime may treat its servers (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// Latency-critical, user-facing (the paper's *LC*): web, cache,
    /// search. Power follows user activity; QoS-bound.
    LatencyCritical,
    /// Throughput-oriented batch (the paper's *Batch*): hadoop, batch jobs.
    /// Power is constantly high; throttleable/boostable via DVFS.
    Batch,
    /// Storage-dominated services with low, flat compute power.
    Storage,
}

impl fmt::Display for WorkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkKind::LatencyCritical => f.write_str("LC"),
            WorkKind::Batch => f.write_str("Batch"),
            WorkKind::Storage => f.write_str("Storage"),
        }
    }
}

/// The diurnal power shape a service's instances follow (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiurnalShape {
    /// Follows user activity: low at night, double-peaked during the day
    /// (web, cache, search frontends).
    UserFacing,
    /// Mostly flat and I/O-bound by day, with a pronounced nightly backup /
    /// compression bump (the paper's `db` clusters).
    NightBackup,
    /// Constantly high, driven by the batch scheduler rather than users
    /// (the paper's `hadoop` clusters).
    FlatHigh,
    /// Low, flat compute power (photo/blob storage tiers).
    FlatLow,
    /// Weekday office-hours bump (development and lab machines).
    OfficeHours,
    /// Token-level LLM inference: a diurnal demand envelope modulated by
    /// correlated burst arrivals shared across a service's instances and a
    /// per-instance prefill/decode duty cycle (see `llm.rs`). Far spikier
    /// than the paper's web workloads: peak-to-mean ≥ 3×.
    TokenBursty,
}

impl DiurnalShape {
    /// Declared bounds `(min, max)` on the weekly peak-to-mean power ratio
    /// of a nominal instance's trace. The workload-contract battery holds
    /// every family to its declared band; the LLM family's lower bound of
    /// 3× is the defining property of the token-bursty regime.
    pub fn peak_to_mean_bounds(self) -> (f64, f64) {
        match self {
            DiurnalShape::UserFacing => (1.2, 2.8),
            DiurnalShape::NightBackup => (1.4, 3.2),
            DiurnalShape::FlatHigh => (1.0, 1.35),
            DiurnalShape::FlatLow => (1.0, 1.4),
            DiurnalShape::OfficeHours => (1.4, 3.4),
            DiurnalShape::TokenBursty => (3.0, 6.5),
        }
    }
}

/// One of the named services hosted in the synthetic datacenters.
///
/// Each service carries a [`WorkKind`], a [`DiurnalShape`], and nominal
/// per-server base/peak wattages used by the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServiceClass {
    /// Web frontend serving live user traffic.
    Frontend,
    /// In-memory cache tier (memcached-like).
    Cache,
    /// Search serving tier.
    Search,
    /// Search index builders (batch-leaning but user-correlated).
    SearchIndex,
    /// Database backend with nightly backup compression.
    Db,
    /// Hadoop batch analytics.
    Hadoop,
    /// Miscellaneous scheduled batch jobs.
    BatchJob,
    /// Photo/blob storage tier.
    PhotoStorage,
    /// Instagram serving tier.
    Instagram,
    /// Mobile build & test farm.
    MobileDev,
    /// Internal development servers.
    Dev,
    /// Lab/test machines with flat utilization.
    LabServer,
    /// Conversational LLM inference serving (chat assistants).
    LlmChat,
    /// Code-completion LLM inference serving (IDE integrations).
    LlmCode,
}

impl ServiceClass {
    /// All service classes.
    pub const ALL: [ServiceClass; 14] = [
        ServiceClass::Frontend,
        ServiceClass::Cache,
        ServiceClass::Search,
        ServiceClass::SearchIndex,
        ServiceClass::Db,
        ServiceClass::Hadoop,
        ServiceClass::BatchJob,
        ServiceClass::PhotoStorage,
        ServiceClass::Instagram,
        ServiceClass::MobileDev,
        ServiceClass::Dev,
        ServiceClass::LabServer,
        ServiceClass::LlmChat,
        ServiceClass::LlmCode,
    ];

    /// The service's scheduling category.
    pub fn kind(self) -> WorkKind {
        match self {
            ServiceClass::Frontend
            | ServiceClass::Cache
            | ServiceClass::Search
            | ServiceClass::Instagram
            | ServiceClass::LlmChat
            | ServiceClass::LlmCode => WorkKind::LatencyCritical,
            ServiceClass::SearchIndex
            | ServiceClass::Hadoop
            | ServiceClass::BatchJob
            | ServiceClass::MobileDev
            | ServiceClass::Dev
            | ServiceClass::LabServer => WorkKind::Batch,
            ServiceClass::Db | ServiceClass::PhotoStorage => WorkKind::Storage,
        }
    }

    /// The diurnal power shape of this service's instances.
    pub fn shape(self) -> DiurnalShape {
        match self {
            ServiceClass::Frontend
            | ServiceClass::Cache
            | ServiceClass::Search
            | ServiceClass::Instagram => DiurnalShape::UserFacing,
            ServiceClass::Db => DiurnalShape::NightBackup,
            ServiceClass::Hadoop | ServiceClass::BatchJob | ServiceClass::SearchIndex => {
                DiurnalShape::FlatHigh
            }
            ServiceClass::PhotoStorage => DiurnalShape::FlatLow,
            ServiceClass::MobileDev | ServiceClass::Dev | ServiceClass::LabServer => {
                DiurnalShape::OfficeHours
            }
            ServiceClass::LlmChat | ServiceClass::LlmCode => DiurnalShape::TokenBursty,
        }
    }

    /// Nominal per-server idle/base power, watts.
    pub fn base_watts(self) -> f64 {
        match self.shape() {
            DiurnalShape::UserFacing => 70.0,
            DiurnalShape::NightBackup => 75.0,
            DiurnalShape::FlatHigh => 150.0,
            DiurnalShape::FlatLow => 60.0,
            DiurnalShape::OfficeHours => 70.0,
            // Accelerator hosts idle low relative to their huge dynamic
            // range (prefill compute saturates the whole board).
            DiurnalShape::TokenBursty => 80.0,
        }
    }

    /// Nominal per-server peak power, watts.
    pub fn peak_watts(self) -> f64 {
        match self.shape() {
            DiurnalShape::UserFacing => 320.0,
            DiurnalShape::NightBackup => 260.0,
            DiurnalShape::FlatHigh => 280.0,
            DiurnalShape::FlatLow => 110.0,
            DiurnalShape::OfficeHours => 250.0,
            DiurnalShape::TokenBursty => 750.0,
        }
    }

    /// Characteristic shift of this service's diurnal pattern, minutes.
    ///
    /// Different user-facing services peak at different times of day
    /// (regional audiences, pipeline position): this is a major source of
    /// the cross-service asynchrony SmoothOperator exploits.
    pub fn phase_offset_minutes(self) -> f64 {
        match self {
            ServiceClass::Frontend => 0.0,
            ServiceClass::Cache => 45.0,
            ServiceClass::Search => -75.0,
            ServiceClass::Instagram => 170.0,
            ServiceClass::SearchIndex => 60.0,
            ServiceClass::Db => 0.0,
            ServiceClass::Hadoop => 0.0,
            ServiceClass::BatchJob => 240.0,
            ServiceClass::PhotoStorage => 0.0,
            ServiceClass::MobileDev => -90.0,
            ServiceClass::Dev => 0.0,
            ServiceClass::LabServer => 120.0,
            ServiceClass::LlmChat => 30.0,
            ServiceClass::LlmCode => -60.0,
        }
    }

    /// Short lowercase name, as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Frontend => "frontend",
            ServiceClass::Cache => "cache",
            ServiceClass::Search => "search",
            ServiceClass::SearchIndex => "searchindex",
            ServiceClass::Db => "db",
            ServiceClass::Hadoop => "hadoop",
            ServiceClass::BatchJob => "batchjob",
            ServiceClass::PhotoStorage => "photostorage",
            ServiceClass::Instagram => "instagram",
            ServiceClass::MobileDev => "mobiledev",
            ServiceClass::Dev => "dev",
            ServiceClass::LabServer => "labserver",
            ServiceClass::LlmChat => "llmchat",
            ServiceClass::LlmCode => "llmcode",
        }
    }
}

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_service_has_consistent_power_range() {
        for s in ServiceClass::ALL {
            assert!(
                s.base_watts() < s.peak_watts(),
                "{s} base must be below peak"
            );
            assert!(s.base_watts() > 0.0);
        }
    }

    #[test]
    fn kinds_cover_lc_and_batch() {
        let lc = ServiceClass::ALL
            .iter()
            .filter(|s| s.kind() == WorkKind::LatencyCritical);
        let batch = ServiceClass::ALL
            .iter()
            .filter(|s| s.kind() == WorkKind::Batch);
        assert!(lc.count() >= 3);
        assert!(batch.count() >= 3);
    }

    #[test]
    fn user_facing_services_are_latency_critical() {
        for s in ServiceClass::ALL {
            if s.shape() == DiurnalShape::UserFacing {
                assert_eq!(s.kind(), WorkKind::LatencyCritical);
            }
        }
    }

    #[test]
    fn declared_peak_to_mean_bands_are_well_formed() {
        for s in ServiceClass::ALL {
            let (lo, hi) = s.shape().peak_to_mean_bounds();
            assert!(lo >= 1.0, "{s}: peak/mean cannot fall below 1");
            assert!(lo < hi, "{s}: empty band");
        }
        let (llm_lo, _) = DiurnalShape::TokenBursty.peak_to_mean_bounds();
        assert!(llm_lo >= 3.0, "the LLM family declares >= 3x peak-to-mean");
    }

    #[test]
    fn llm_services_are_latency_critical_and_bursty() {
        for s in [ServiceClass::LlmChat, ServiceClass::LlmCode] {
            assert_eq!(s.kind(), WorkKind::LatencyCritical);
            assert_eq!(s.shape(), DiurnalShape::TokenBursty);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ServiceClass::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ServiceClass::ALL.len());
    }
}
