//! Result output: CSV series and JSON summaries under `results/`.

use serde::Serialize;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Where experiment outputs land (relative to the workspace root when the
/// binary runs from there).
pub const RESULTS_DIR: &str = "results";

/// Ensure the results directory exists and return its path.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(RESULTS_DIR);
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a JSON summary of any serializable result.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize result");
    fs::write(&path, json).expect("write result json");
    path
}

/// Write a CSV file: a header row and then data rows.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<f64>]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    let mut out = fs::File::create(&path).expect("create csv");
    writeln!(out, "{}", header.join(",")).expect("write header");
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(out, "{}", line.join(",")).expect("write row");
    }
    path
}

/// Pretty-print a small table to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", header.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_through_disk() {
        let path = write_csv(
            "test_report_csv",
            &["a", "b"],
            &[vec![1.0, 2.5], vec![3.0, -4.0]],
        );
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, vec!["a,b", "1,2.5", "3,-4"]);
        fs::remove_file(path).unwrap();
    }

    #[test]
    fn json_is_valid_and_pretty() {
        #[derive(serde::Serialize)]
        struct R {
            x: u32,
            name: &'static str,
        }
        let path = write_json("test_report_json", &R { x: 7, name: "ok" });
        let text = fs::read_to_string(&path).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["x"], 7);
        assert_eq!(parsed["name"], "ok");
        fs::remove_file(path).unwrap();
    }
}
