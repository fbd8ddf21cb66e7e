//! Golden test for the `BENCH_plan.json` schema plus the planning
//! acceptance pin: field names and ordering are read by name in CI
//! (`smoothop gate` in the plan-smoke job), so any drift here must be
//! deliberate (bump `PLAN_SCHEMA_VERSION`); and
//! on an LLM-heavy candidate mix SmoothOperator provisioning must fit
//! *strictly* more racks than StatProf at δ = 0.05 — the headline row of
//! the EXPERIMENTS.md racks-fit table.

use smoothoperator::plan::{run_plan, PlanConfig, PlanWorkload, PLAN_SCHEMA_VERSION};

/// Scaled-down sweep with the default config's structure: a diurnal base
/// fleet an order of magnitude smaller, same rack slots, same deltas.
fn small_sweep() -> PlanConfig {
    PlanConfig {
        base_instances: 2_000,
        rack_slots: 12,
        max_racks: 256,
        ..PlanConfig::default()
    }
}

const TOP_LEVEL_FIELDS: [&str; 9] = [
    "\"benchmark\": \"plan\"",
    "\"schema_version\"",
    "\"seed\"",
    "\"samples_per_trace\"",
    "\"step_minutes\"",
    "\"base_instances\"",
    "\"rack_slots\"",
    "\"max_racks\"",
    "\"points\"",
];

const POINT_FIELDS: [&str; 12] = [
    "\"instances\"",
    "\"workload\"",
    "\"threads\"",
    "\"budget_watts\"",
    "\"base_peak_watts\"",
    "\"base_sum_of_peaks_watts\"",
    "\"fits\"",
    "\"synth_ms\"",
    "\"sweep_ms\"",
    "\"total_ms\"",
    "\"peak_rss_bytes\"",
    "\"checksum\"",
];

const FIT_FIELDS: [&str; 7] = [
    "\"delta\"",
    "\"statprof_racks_fit\"",
    "\"statprof_stranded_watts\"",
    "\"statprof_projected_peak_watts\"",
    "\"smoothoperator_racks_fit\"",
    "\"smoothoperator_stranded_watts\"",
    "\"smoothoperator_projected_peak_watts\"",
];

#[test]
fn artifact_carries_the_pinned_schema() {
    let config = small_sweep();
    let report = run_plan(&config).unwrap();
    let json = report.to_json();

    assert_eq!(PLAN_SCHEMA_VERSION, 1, "schema bumped: update this test");
    for field in TOP_LEVEL_FIELDS {
        assert!(json.contains(field), "missing top-level field {field}");
    }
    for field in POINT_FIELDS {
        assert_eq!(
            json.matches(field).count(),
            report.points.len(),
            "field {field} must appear once per point"
        );
    }
    let fits = report.points.len() * config.deltas.len();
    for field in FIT_FIELDS {
        assert_eq!(
            json.matches(field).count(),
            fits,
            "field {field} must appear once per (point, δ)"
        );
    }
}

#[test]
fn deterministic_fields_never_wobble() {
    let config = small_sweep();
    let a = run_plan(&config).unwrap();
    let b = run_plan(&config).unwrap();
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.checksum.to_bits(), y.checksum.to_bits());
        assert_eq!(x.budget_watts.to_bits(), y.budget_watts.to_bits());
        assert_eq!(x.base_peak_watts.to_bits(), y.base_peak_watts.to_bits());
        assert_eq!(x.fits, y.fits);
    }
}

#[test]
fn llm_mix_widens_the_provisioning_gap() {
    // The acceptance pin: at δ = 0.05 on the LLM mix, SmoothOperator
    // fits strictly more racks than StatProf — and the *relative* gap is
    // wider than on the web mix, because token-bursty peaks inflate
    // sum-of-peaks much more than the aggregate peak.
    let report = run_plan(&small_sweep()).unwrap();
    let point = |w: PlanWorkload| {
        report
            .points
            .iter()
            .find(|p| p.workload == w)
            .expect("both default workloads present")
    };
    let fit_at = |w: PlanWorkload, delta: f64| {
        point(w)
            .fits
            .iter()
            .find(|f| (f.delta - delta).abs() < 1e-12)
            .expect("default deltas include 0.05")
    };

    let llm = fit_at(PlanWorkload::LlmMix, 0.05);
    assert!(
        llm.smoothoperator_racks_fit > llm.statprof_racks_fit,
        "llm-mix δ=0.05: smoothoperator {} must strictly beat statprof {}",
        llm.smoothoperator_racks_fit,
        llm.statprof_racks_fit
    );

    let web = fit_at(PlanWorkload::WebMix, 0.05);
    let ratio = |f: &smoothoperator::plan::PlanFit| {
        f.smoothoperator_racks_fit as f64 / (f.statprof_racks_fit.max(1)) as f64
    };
    assert!(
        ratio(llm) > ratio(web),
        "llm gap ratio {:.2} must exceed web gap ratio {:.2}",
        ratio(llm),
        ratio(web)
    );

    // δ-monotone fits, both workloads, both schemes.
    for p in &report.points {
        for w in p.fits.windows(2) {
            assert!(w[0].delta < w[1].delta);
            assert!(w[0].statprof_racks_fit <= w[1].statprof_racks_fit);
            assert!(w[0].smoothoperator_racks_fit <= w[1].smoothoperator_racks_fit);
        }
    }
}

#[test]
fn production_sweep_satisfies_the_plan_oracle_boundary_laws() {
    // Cross-crate pin: the racks-fit implementation the CLI ships obeys
    // the plan oracle family's boundary laws on a series with an exact
    // cap hit (the inclusive-≤ boundary the mutation suite attacks).
    let required: Vec<f64> = (1..=32).map(|k| 90.0 + 2.5 * k as f64).collect();
    let mut report = so_oracles::OracleReport::new();
    so_oracles::plan::check_sweep_fit(
        &smoothoperator::plan::racks_fit_from_series,
        &required,
        100.0,
        &so_oracles::plan::PLAN_DELTAS,
        &mut report,
    );
    assert!(report.is_clean(), "{:#?}", report.violations());
}

#[test]
fn json_numbers_parse_back() {
    // No JSON parser in-tree: every value token must parse as a finite
    // number or be one of the schema's non-numeric literals (the
    // workload string, `null` for an absent RSS).
    let report = run_plan(&small_sweep()).unwrap();
    for line in report.to_json().lines() {
        let Some((_, value)) = line.split_once(": ") else {
            continue;
        };
        let value = value.trim_end_matches(',').trim();
        if value.starts_with('"') || value.starts_with('[') || value.starts_with('{') {
            continue;
        }
        if value == "null" {
            continue;
        }
        let parsed: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value `{value}` in line `{line}`"));
        assert!(parsed.is_finite(), "non-finite value in `{line}`");
    }
}

#[test]
fn plan_cli_end_to_end() {
    // The CLI path: flags parse, the sweep runs, the artifact lands where
    // --out points, and the table names both schemes.
    let out_dir = std::env::temp_dir().join(format!("plan-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).unwrap();
    let out = out_dir.join("BENCH_plan.json");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_smoothop"))
        .args([
            "plan",
            "--base",
            "1200",
            "--racks",
            "64",
            "--deltas",
            "0,0.05",
            "--workloads",
            "llm-mix",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("smoothop plan runs");
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("capacity plan"), "{stdout}");
    assert!(stdout.contains("statprof-fit"), "{stdout}");

    let json = std::fs::read_to_string(&out).expect("artifact written");
    assert!(json.contains("\"benchmark\": \"plan\""));
    assert!(json.contains("\"workload\": \"llm-mix\""));
    assert!(!json.contains("\"workload\": \"web-mix\""));
    assert_eq!(json.matches("\"delta\": ").count(), 2);

    // Bad flags fail loudly rather than silently sweeping nothing.
    let bad = std::process::Command::new(env!("CARGO_BIN_EXE_smoothop"))
        .args(["plan", "--deltas", "0.10,0.05"])
        .output()
        .expect("smoothop runs");
    assert!(!bad.status.success(), "descending deltas must be rejected");

    std::fs::remove_dir_all(&out_dir).ok();
}
