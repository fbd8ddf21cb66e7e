//! Serial-vs-parallel determinism: running on more than one thread must
//! not change a single bit of any result.
//!
//! Every parallel helper in the workspace uses positional output slots and
//! canonically chunked reductions, so the floating-point evaluation order
//! is independent of the thread count. These tests pin that contract: a
//! full placement, a remap run, and the tree aggregation each produce
//! identical results with multi-threading forced on and forced off.
//!
//! The thread limit is raised explicitly so the comparison is meaningful
//! even on single-core CI runners.

use so_core::{remap, RemapConfig, SmoothPlacer};
use so_parallel::{serial_scope, set_thread_limit};
use so_powertree::{Level, NodeAggregates, PowerTopology};
use so_workloads::DcScenario;

fn topo() -> PowerTopology {
    PowerTopology::builder()
        .suites(2)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(4)
        .build()
        .unwrap()
}

#[test]
fn placement_is_bit_identical_serial_vs_parallel() {
    set_thread_limit(4);
    let fleet = DcScenario::dc3().generate_fleet(128).unwrap();
    let topo = topo();

    let parallel = SmoothPlacer::default().place(&fleet, &topo).unwrap();
    let serial = serial_scope(|| SmoothPlacer::default().place(&fleet, &topo).unwrap());

    for i in 0..fleet.len() {
        assert_eq!(
            parallel.rack_of(i).unwrap(),
            serial.rack_of(i).unwrap(),
            "instance {i} placed differently under threading"
        );
    }
}

#[test]
fn remap_is_bit_identical_serial_vs_parallel() {
    set_thread_limit(4);
    let fleet = DcScenario::dc2().generate_fleet(128).unwrap();
    let topo = topo();
    let config = RemapConfig::default();

    // Start both runs from the same fragmented (fleet-order) assignment.
    let base = {
        let racks = topo.racks();
        let ids: Vec<_> = (0..fleet.len()).map(|i| racks[i / 4]).collect();
        so_powertree::Assignment::new(ids, &topo).unwrap()
    };

    let mut a_par = base.clone();
    let report_par = remap(&fleet, &topo, &mut a_par, config).unwrap();

    let mut a_ser = base.clone();
    let report_ser = serial_scope(|| remap(&fleet, &topo, &mut a_ser, config).unwrap());

    assert_eq!(
        report_par.swaps, report_ser.swaps,
        "swap sequences diverged"
    );
    assert_eq!(
        report_par.final_worst_score.to_bits(),
        report_ser.final_worst_score.to_bits(),
        "final worst score diverged"
    );
    for i in 0..fleet.len() {
        assert_eq!(a_par.rack_of(i).unwrap(), a_ser.rack_of(i).unwrap());
    }
}

#[test]
fn tree_aggregation_is_bit_identical_serial_vs_parallel() {
    set_thread_limit(4);
    let fleet = DcScenario::dc1().generate_fleet(128).unwrap();
    let topo = topo();
    let assignment = SmoothPlacer::default().place(&fleet, &topo).unwrap();
    let traces = fleet.test_traces();

    let agg_par = NodeAggregates::compute(&topo, &assignment, traces).unwrap();
    let agg_ser = serial_scope(|| NodeAggregates::compute(&topo, &assignment, traces).unwrap());

    for level in Level::ALL {
        for &node in topo.nodes_at_level(level) {
            let p = agg_par.trace(node).unwrap().samples();
            let s = agg_ser.trace(node).unwrap().samples();
            assert_eq!(p.len(), s.len());
            for (x, y) in p.iter().zip(s) {
                assert_eq!(x.to_bits(), y.to_bits(), "node {node:?} diverged");
            }
        }
    }
}
