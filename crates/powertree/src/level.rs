//! Levels of the multi-level power delivery infrastructure (Figure 2).
//!
//! Facebook datacenters feature a four-level infrastructure consistent with
//! the Open Compute Project specification: each datacenter is composed of
//! suites fed by main switching boards (MSBs), which feed switching boards
//! (SBs), which feed reactive power panels (RPPs), which finally feed racks
//! of servers.

use std::fmt;

/// One level of the power delivery tree, from the datacenter root down to
/// the rack that servers plug into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The datacenter root (fed by the substation).
    Datacenter,
    /// A suite: one room of the datacenter.
    Suite,
    /// Main switching board.
    Msb,
    /// Switching board.
    Sb,
    /// Reactive power panel — the lowest-level *power node*; the paper's
    /// leaf power nodes where fragmentation bites hardest.
    Rpp,
    /// A rack of servers (the unit service instances are assigned to).
    Rack,
}

impl Level {
    /// All levels, root first.
    pub const ALL: [Level; 6] = [
        Level::Datacenter,
        Level::Suite,
        Level::Msb,
        Level::Sb,
        Level::Rpp,
        Level::Rack,
    ];

    /// Depth below the root: `Datacenter` is 0, `Rack` is 5.
    pub fn depth(self) -> usize {
        match self {
            Level::Datacenter => 0,
            Level::Suite => 1,
            Level::Msb => 2,
            Level::Sb => 3,
            Level::Rpp => 4,
            Level::Rack => 5,
        }
    }

    /// The level directly below, or `None` for `Rack`.
    pub fn child(self) -> Option<Level> {
        match self {
            Level::Datacenter => Some(Level::Suite),
            Level::Suite => Some(Level::Msb),
            Level::Msb => Some(Level::Sb),
            Level::Sb => Some(Level::Rpp),
            Level::Rpp => Some(Level::Rack),
            Level::Rack => None,
        }
    }

    /// The level directly above, or `None` for `Datacenter`.
    pub fn parent(self) -> Option<Level> {
        match self {
            Level::Datacenter => None,
            Level::Suite => Some(Level::Datacenter),
            Level::Msb => Some(Level::Suite),
            Level::Sb => Some(Level::Msb),
            Level::Rpp => Some(Level::Sb),
            Level::Rack => Some(Level::Rpp),
        }
    }

    /// Whether this is the rack (leaf) level.
    pub fn is_rack(self) -> bool {
        self == Level::Rack
    }

    /// Short display name matching the paper's figures
    /// (`DC`, `SUITE`, `MSB`, `SB`, `RPP`, `RACK`).
    pub fn short_name(self) -> &'static str {
        match self {
            Level::Datacenter => "DC",
            Level::Suite => "SUITE",
            Level::Msb => "MSB",
            Level::Sb => "SB",
            Level::Rpp => "RPP",
            Level::Rack => "RACK",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depths_are_contiguous_root_first() {
        for (i, level) in Level::ALL.iter().enumerate() {
            assert_eq!(level.depth(), i);
        }
    }

    #[test]
    fn child_and_parent_are_inverse() {
        for level in Level::ALL {
            if let Some(child) = level.child() {
                assert_eq!(child.parent(), Some(level));
            }
            if let Some(parent) = level.parent() {
                assert_eq!(parent.child(), Some(level));
            }
        }
        assert_eq!(Level::Rack.child(), None);
        assert_eq!(Level::Datacenter.parent(), None);
    }

    #[test]
    fn ordering_follows_depth() {
        assert!(Level::Datacenter < Level::Suite);
        assert!(Level::Rpp < Level::Rack);
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(Level::Rpp.to_string(), "RPP");
        assert_eq!(Level::Datacenter.to_string(), "DC");
    }
}
