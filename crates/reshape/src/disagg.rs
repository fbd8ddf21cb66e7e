//! Storage-disaggregated server model (§4.2, after Klimovic et al.).
//!
//! Conversion is only practical because compute and storage are decoupled:
//! data stays on dedicated storage nodes reachable over the datacenter
//! network, so converting a compute node needs no data migration and no
//! reboot. This module captures those properties so the policies (and
//! Table 1) can state their assumptions explicitly.

/// How a server's storage is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageAttachment {
    /// Flash/disks on the local PCIe bus: conversion must migrate data.
    Local,
    /// Storage disaggregated behind the datacenter network: conversion is
    /// instantaneous and data stays available to other servers.
    Disaggregated,
}

/// Cost model of converting one server between Batch and LC roles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionModel {
    /// Storage attachment of the fleet's conversion candidates.
    pub attachment: StorageAttachment,
    /// Data to migrate per conversion for locally-attached storage, GiB.
    pub local_data_gib: f64,
    /// Sustained migration bandwidth, GiB/min.
    pub migration_gib_per_min: f64,
}

impl Default for ConversionModel {
    fn default() -> Self {
        Self {
            attachment: StorageAttachment::Disaggregated,
            local_data_gib: 512.0,
            migration_gib_per_min: 6.0,
        }
    }
}

impl ConversionModel {
    /// Minutes one conversion takes.
    ///
    /// Disaggregated conversions are effectively free (process switch, no
    /// reboot); locally-attached storage pays a full data migration.
    pub fn conversion_minutes(&self) -> f64 {
        match self.attachment {
            StorageAttachment::Disaggregated => 0.0,
            StorageAttachment::Local => self.local_data_gib / self.migration_gib_per_min,
        }
    }

    /// Whether data hosted on a converting server stays available to the
    /// rest of the fleet during/after conversion.
    pub fn preserves_data_availability(&self) -> bool {
        self.attachment == StorageAttachment::Disaggregated
    }

    /// Whether the OS keeps running through a conversion (power-safety
    /// monitors stay in control).
    pub fn os_stays_up(&self) -> bool {
        self.attachment == StorageAttachment::Disaggregated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disaggregated_conversion_is_free_and_safe() {
        let m = ConversionModel::default();
        assert_eq!(m.conversion_minutes(), 0.0);
        assert!(m.preserves_data_availability());
        assert!(m.os_stays_up());
    }

    #[test]
    fn local_storage_pays_migration() {
        let m = ConversionModel {
            attachment: StorageAttachment::Local,
            ..ConversionModel::default()
        };
        assert!(m.conversion_minutes() > 60.0);
        assert!(!m.preserves_data_availability());
    }
}
