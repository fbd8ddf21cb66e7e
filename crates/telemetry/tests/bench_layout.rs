//! The `BENCH_*.json` layout of `so_telemetry::export::BenchObject`:
//! the exact text the writer renders, and the reader taking back what
//! the writer wrote.

use proptest::prelude::*;
use so_telemetry::export::{BenchJson, BenchObject};

fn sample_bench() -> BenchObject {
    let fit = |n: u32| BenchObject::default().fixed("delta", 0.05, 3).raw("fit", n);
    BenchObject::default()
        .string("benchmark", "unit \"q\"")
        .raw("seed", 7)
        .array(
            "points",
            [
                BenchObject::default()
                    .raw("instances", 10)
                    .nullable("peak_rss_bytes", None::<u64>)
                    .array("fits", [fit(1), fit(2)])
                    .fixed("checksum", 1.0 / 3.0, 6),
                BenchObject::default()
                    .raw("instances", 20)
                    .nullable("peak_rss_bytes", Some(4096))
                    .array("fits", [])
                    .field("metrics", BenchJson::Object(BenchObject::default())),
            ],
        )
}

#[test]
fn bench_layout_puts_one_field_per_line() {
    let expected = concat!(
        "{\n",
        "  \"benchmark\": \"unit \\\"q\\\"\",\n",
        "  \"seed\": 7,\n",
        "  \"points\": [\n",
        "    {\n",
        "      \"instances\": 10,\n",
        "      \"peak_rss_bytes\": null,\n",
        "      \"fits\": [\n",
        "        {\n",
        "          \"delta\": 0.050,\n",
        "          \"fit\": 1\n",
        "        },\n",
        "        {\n",
        "          \"delta\": 0.050,\n",
        "          \"fit\": 2\n",
        "        }\n",
        "      ],\n",
        "      \"checksum\": 0.333333\n",
        "    },\n",
        "    {\n",
        "      \"instances\": 20,\n",
        "      \"peak_rss_bytes\": 4096,\n",
        "      \"fits\": [],\n",
        "      \"metrics\": {}\n",
        "    }\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(sample_bench().render(), expected);
}

#[test]
fn bench_layout_reads_back_what_it_writes() {
    let parsed = BenchObject::parse(&sample_bench().render()).unwrap();
    assert_eq!(parsed, sample_bench());
    let Some(BenchJson::Array(points)) = parsed.get("points") else {
        panic!("points is an array");
    };
    let scalar = |key| points[0].get(key).cloned();
    assert_eq!(
        scalar("checksum"),
        Some(BenchJson::Scalar("0.333333".into()))
    );
    assert_eq!(
        scalar("peak_rss_bytes"),
        Some(BenchJson::Scalar("null".into()))
    );
    assert_eq!(scalar("absent"), None);
}

#[test]
fn bench_reader_names_the_offending_line() {
    for (text, needle) in [
        ("", "line 1"),
        ("[\n]\n", "line 1"),
        ("{\n  \"a\": 1,\n  b: 2\n}\n", "line 3"),
        ("{\n  \"a\": [\n    7\n  ]\n}\n", "line 3"),
        ("{\n  \"a\": ]\n}\n", "line 2"),
        ("{\n  \"a\": 1\n}\n}\n", "line 4"),
        ("{\n  \"a\": {\n", "ends inside an object"),
        ("{\n  \"a\": [\n", "ends inside an array"),
        ("{\n  \"a\\\"b\": 1\n}\n", "line 2"),
    ] {
        let err = BenchObject::parse(text).unwrap_err();
        assert!(err.contains(needle), "{text:?}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bench_layout_round_trips_any_strings(
        keys in prop::collection::vec(prop::collection::vec(0u32..0x300, 0..6), 1..6),
        values in prop::collection::vec(0u64..u64::MAX, 1..6),
    ) {
        // Keys skip what `json_escape` would escape, which the reader
        // does not take; string values may hold anything.
        let text = |cs: &Vec<u32>| -> String {
            cs.iter().filter_map(|&c| char::from_u32(c)).collect()
        };
        let mut point = BenchObject::default();
        let mut doc = BenchObject::default();
        for (i, (key, value)) in keys.iter().zip(values.iter().cycle()).enumerate() {
            let key = text(key).replace(|c| c < ' ' || c == '"' || c == '\\', "");
            point = point.raw(&key, value).string(&format!("{key}{i}"), &text(&keys[0]));
            doc = doc.fixed(&key, *value as f64 / 7.0, i);
        }
        let doc = doc.array("points", [point.clone(), BenchObject::default(), point]);
        prop_assert_eq!(BenchObject::parse(&doc.render()).unwrap(), doc);
    }
}
