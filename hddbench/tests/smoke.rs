//! `hddbench --smoke` runs every workload briefly in both modes. This
//! test checks that every output check passes and that each result line
//! carries exactly the metrics `BENCHMARK.json` names, each with the
//! unit given there.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("unterminated list")];
    let string_after = |s: &str, key: &str| -> (String, usize) {
        let at = s.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let open = at + s[at..].find('"').expect("string value") + 1;
        let close = open + s[open..].find('"').expect("closing quote");
        (s[open..close].to_string(), close + 1)
    };
    let mut out = Vec::new();
    let mut rest = body;
    while rest.contains("\"name\"") {
        let (name, after_name) = string_after(rest, "name");
        let (unit, after_unit) = string_after(&rest[after_name..], "unit");
        out.push((name, unit));
        rest = &rest[after_name + after_unit..];
    }
    out
}

/// `(name, unit)` pairs printed in one result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.trim_start().trim_start_matches('"');
            let name = &name[..name.find('"').expect("metric name")];
            let unit = &entry[entry.find("\"unit\": \"").expect("unit") + 9..];
            let unit = &unit[..unit.find('"').expect("unit value")];
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn smoke_passes_every_check_and_prints_every_listed_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let json = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let out = Command::new(env!("CARGO_BIN_EXE_hddbench"))
        .arg("--smoke")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run hddbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect();
    let headers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"workload\""))
        .collect();
    assert_eq!(results.len(), 4, "two workloads, untraced and traced");
    assert_eq!(headers.len(), results.len(), "every result is stamped");
    for (header, result) in headers.iter().zip(&results) {
        assert!(header.contains("\"seed\": "), "{header}");
        assert!(header.contains("\"available_parallelism\": "), "{header}");
        assert!(result.contains("\"correct\": true"), "{result}");
        let section = if header.contains("\"trace\": 1") {
            "per_layer"
        } else {
            "end_to_end"
        };
        assert_eq!(printed(result), listed(&json, section), "{header}");
    }
}
