//! Guarded-level query routing across heterogeneous LC servers (§4.2).
//!
//! "The threshold `L_conv` is also used to manage the load on each LC
//! server. If any of the LC servers experiences a load higher than
//! `L_conv`, then our server conversion process will stop sending queries
//! to this server, and, instead, send the next query to other LC servers
//! or a conversion server." This module models that router at per-server
//! granularity: servers may have different capacities (hardware
//! generations), and load is spread so nobody crosses the guarded level
//! until everyone has.

/// One LC-serving server as the router sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSlot {
    /// QPS this server absorbs at 100% utilization.
    pub capacity_qps: f64,
}

impl ServerSlot {
    /// A slot with the given full-utilization capacity.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is positive and finite.
    pub fn new(capacity_qps: f64) -> Self {
        assert!(
            capacity_qps.is_finite() && capacity_qps > 0.0,
            "server capacity must be positive"
        );
        Self { capacity_qps }
    }
}

/// The outcome of routing one instant's offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingOutcome {
    /// Per-server load (fraction of that server's capacity), aligned with
    /// the input slots.
    pub loads: Vec<f64>,
    /// QPS served in total.
    pub served_qps: f64,
    /// QPS dropped (offered beyond total capacity).
    pub dropped_qps: f64,
    /// Servers pushed above the guarded level (only non-zero when the
    /// offered load exceeds the guarded aggregate capacity).
    pub over_guard_count: usize,
}

/// Routes `offered_qps` across `slots` under the guarded level `l_conv`.
///
/// Strategy (capacity-proportional water-filling, matching the paper's
/// router):
///
/// 1. fill every server proportionally to capacity up to `l_conv`;
/// 2. if load remains, spill it proportionally above the guarded level
///    (QoS-endangered but served);
/// 3. drop whatever exceeds the fleet's total capacity.
///
/// # Panics
///
/// Panics if `l_conv` is outside `(0, 1]`, `offered_qps` is negative/not
/// finite, or `slots` is empty.
pub fn route(offered_qps: f64, slots: &[ServerSlot], l_conv: f64) -> RoutingOutcome {
    assert!(!slots.is_empty(), "routing needs at least one server");
    assert!(
        l_conv.is_finite() && l_conv > 0.0 && l_conv <= 1.0,
        "l_conv must lie in (0, 1]"
    );
    assert!(
        offered_qps.is_finite() && offered_qps >= 0.0,
        "offered load must be non-negative"
    );

    let total_capacity: f64 = slots.iter().map(|s| s.capacity_qps).sum();
    let guarded_capacity = total_capacity * l_conv;

    let served = offered_qps.min(total_capacity);
    let dropped = offered_qps - served;

    // Proportional fill keeps every server at the same load fraction: first
    // up to l_conv, then (if needed) beyond it.
    let uniform_load = served / total_capacity;
    let loads: Vec<f64> = slots.iter().map(|_| uniform_load).collect();
    let over_guard_count = if served > guarded_capacity + 1e-12 {
        slots.len()
    } else {
        0
    };

    RoutingOutcome {
        loads,
        served_qps: served,
        dropped_qps: dropped,
        over_guard_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots(capacities: &[f64]) -> Vec<ServerSlot> {
        capacities.iter().map(|&c| ServerSlot::new(c)).collect()
    }

    /// Highest per-server load.
    fn max_load(out: &RoutingOutcome) -> f64 {
        out.loads.iter().copied().fold(0.0, f64::max)
    }

    #[test]
    fn light_load_stays_below_guard() {
        let s = slots(&[100.0, 100.0, 100.0]);
        let out = route(150.0, &s, 0.8);
        assert_eq!(out.over_guard_count, 0);
        assert!((max_load(&out) - 0.5).abs() < 1e-12);
        assert_eq!(out.served_qps, 150.0);
        assert_eq!(out.dropped_qps, 0.0);
    }

    #[test]
    fn heavy_load_crosses_guard_before_dropping() {
        let s = slots(&[100.0, 100.0]);
        // 190 of 200 capacity: served fully but above the 0.8 guard.
        let out = route(190.0, &s, 0.8);
        assert_eq!(out.dropped_qps, 0.0);
        assert_eq!(out.over_guard_count, 2);
        assert!((max_load(&out) - 0.95).abs() < 1e-12);
        // 250 of 200 capacity: 50 dropped.
        let out = route(250.0, &s, 0.8);
        assert_eq!(out.dropped_qps, 50.0);
        assert_eq!(out.served_qps, 200.0);
    }

    #[test]
    fn heterogeneous_capacities_balance_by_fraction() {
        let s = slots(&[50.0, 150.0]);
        let out = route(100.0, &s, 0.8);
        // Equal load *fractions*: 100/200 = 0.5 on both.
        assert!((out.loads[0] - 0.5).abs() < 1e-12);
        assert!((out.loads[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn served_plus_dropped_equals_offered() {
        let s = slots(&[30.0, 70.0, 100.0]);
        for offered in [0.0, 10.0, 160.0, 199.9, 200.0, 500.0] {
            let out = route(offered, &s, 0.75);
            assert!((out.served_qps + out.dropped_qps - offered).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_fleet_panics() {
        let _ = route(10.0, &[], 0.8);
    }

    #[test]
    #[should_panic(expected = "l_conv")]
    fn invalid_guard_panics() {
        let _ = route(10.0, &slots(&[10.0]), 1.5);
    }
}
