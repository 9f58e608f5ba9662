//! The metric names, their units, `BENCHMARK.json` and the JSON result
//! line must agree and keep their schema.

use std::collections::BTreeMap;

use perfbench::metrics::{result_json, Def, END_TO_END, PER_LAYER};
use perfbench::workload::Workload;

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_and_workload_names_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        assert!(seen.insert(d.name), "metric {} defined twice", d.name);
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("nope"), None);
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`
/// (every entry of these arrays is a flat object).
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[body.find('[').expect("array")..=body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("value") + 1..];
            s[..s.find('"').expect("value end")].to_owned()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = |defs: &[Def]| defs.iter().map(|d| d.name.to_owned()).collect::<Vec<_>>();
    assert_eq!(names_under(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(names_under(&json, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names_under(&json, "workloads"), workloads);
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                d.name, d.unit
            )),
            "unit of {} differs in BENCHMARK.json",
            d.name
        );
    }
}

fn values(defs: &[Def]) -> BTreeMap<&'static str, f64> {
    defs.iter()
        .enumerate()
        .map(|(i, d)| (d.name, 0.5 + i as f64))
        .collect()
}

#[test]
fn result_line_keeps_its_schema() {
    for defs in [END_TO_END, PER_LAYER] {
        let line = result_json(true, 12, 0, defs, &values(defs)).expect("complete metrics");
        let prefix = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {";
        assert!(line.starts_with(prefix), "{line}");
        assert!(line.ends_with("}}}"), "{line}");
        assert!(!line.contains('\n'));
        let mut rest = &line[prefix.len()..];
        for (i, d) in defs.iter().enumerate() {
            let entry = format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                0.5 + i as f64,
                d.unit
            );
            let at = rest
                .find(&entry)
                .unwrap_or_else(|| panic!("{entry} missing or out of order"));
            rest = &rest[at + entry.len()..];
        }
        assert_eq!(rest, "}}");
    }
}

#[test]
fn result_line_rejects_missing_extra_and_non_finite_metrics() {
    let mut v = values(END_TO_END);
    v.remove("wall_s");
    assert!(result_json(true, 1, 0, END_TO_END, &v).is_err());

    let mut v = values(END_TO_END);
    v.insert("core.l1.self_s", 1.0);
    assert!(result_json(true, 1, 0, END_TO_END, &v).is_err());

    let mut v = values(END_TO_END);
    v.insert("wall_s", f64::NAN);
    assert!(result_json(true, 1, 0, END_TO_END, &v).is_err());

    let mut v = values(END_TO_END);
    v.insert("wall_s", -0.0);
    let line = result_json(true, 1, 0, END_TO_END, &v).expect("complete metrics");
    assert!(line.contains("\"wall_s\": {\"value\": 0, "), "{line}");
}
