//! Hierarchical priority-aware power capping substrate.
//!
//! The paper delegates short-term power emergencies to "commonly deployed
//! emergency measures such as power capping solutions" (§3.6, citing
//! Dynamo) and argues its placement is complementary to them (§6). This
//! crate provides that substrate: a Dynamo/SHIP-style top-down,
//! priority-strict cap allocator over the power tree, so experiments can
//! study how much capping (and hence performance loss) each placement
//! forces.
//!
//! * [`Priority`] / [`ClassDemand`] — demand stratified by shedding
//!   priority (LC last);
//! * [`allocate_caps`] — one instant of hierarchical water-filling;
//! * [`cap_over_window`] — shed-energy accounting over a trace window.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), so_powertree::TreeError> {
//! use so_capping::{allocate_caps, ClassDemand};
//! use so_powertree::PowerTopology;
//!
//! let topo = PowerTopology::builder().build()?;
//! let demands = vec![ClassDemand { high: 100.0, medium: 0.0, low: 300.0 };
//!     topo.racks().len()];
//! let budgets: Vec<f64> = topo
//!     .nodes()
//!     .iter()
//!     .map(|n| if n.is_rack() { 200.0 } else { f64::INFINITY })
//!     .collect();
//! let outcome = allocate_caps(&topo, &demands, &budgets)?;
//! assert!(!outcome.lc_was_shed()); // batch absorbed the whole cut
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod allocate;
mod demand;
mod timeseries;

pub use allocate::{allocate_caps, CapOutcome};
pub use demand::{ClassDemand, Priority};
pub use timeseries::{cap_over_window, CappingReport};
