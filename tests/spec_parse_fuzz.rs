//! Seeded truncation/mutation fuzz sweep over scenario spec parsing.
//!
//! Spec files are hand-written, so `ScenarioSpec::from_json` (and
//! `validate` on what parses) must turn any text into a value or a typed
//! `ScenarioError` — never a panic, a stack overflow or a quadratic
//! stall. Every checked-in `scenarios/*.json` is the seed corpus:
//! truncated at every byte, bit-flipped at seeded positions, wrapped in
//! 100 000-deep nesting and given huge numbers. The sweep is
//! deterministic (splitmix64 from fixed seeds) so a failure reproduces.

use mdn_core::scenario::{ScenarioError, ScenarioSpec, SplitMix64};
use std::time::{Duration, Instant};

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|entry| entry.expect("read scenarios/").path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("json"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("read spec");
            (path.display().to_string(), text)
        })
        .collect();
    specs.sort();
    assert!(specs.len() >= 8, "spec corpus shrank to {}", specs.len());
    specs
}

/// Parse, and validate what parses. Any panic fails the test.
fn parse_and_validate(text: &str) -> Result<(), ScenarioError> {
    ScenarioSpec::from_json(text)?.validate()
}

/// Every proper prefix that stops short of the closing brace is
/// malformed JSON, so it must be a parse error.
#[test]
fn truncation_at_every_byte_is_a_parse_error() {
    for (path, text) in corpus() {
        let bytes = text.as_bytes();
        let end = text.trim_end().len();
        for cut in 0..bytes.len() {
            let prefix = String::from_utf8_lossy(&bytes[..cut]);
            let got = parse_and_validate(&prefix);
            if cut < end {
                assert!(
                    matches!(got, Err(ScenarioError::Parse(_))),
                    "{path} cut at byte {cut} was not a parse error: {got:?}"
                );
            }
        }
    }
}

/// One to three flipped bits anywhere in the file: whatever parses must
/// validate or be rejected, and nothing may panic.
#[test]
fn bit_flips_never_panic() {
    let mut rng = SplitMix64::new(0x5EC5_F1A7);
    let mut rejected = 0;
    let mut cases = 0;
    for (path, text) in corpus() {
        for case in 0..400 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..rng.range(1, 4) {
                let at = rng.range(0, bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.range(0, 8);
            }
            let mutated = String::from_utf8_lossy(&bytes);
            let got = std::panic::catch_unwind(|| parse_and_validate(&mutated));
            match got {
                Ok(result) => rejected += usize::from(result.is_err()),
                Err(_) => panic!("{path} flip case {case} panicked on:\n{mutated}"),
            }
            cases += 1;
        }
    }
    // Most flips break the syntax or a field; the sweep is not vacuous.
    assert!(rejected * 2 > cases, "only {rejected} of {cases} flips rejected");
}

/// 100 000 levels of arrays or objects, alone or in a spec field: an
/// error, not a stack overflow.
#[test]
fn deep_nesting_is_an_error() {
    const DEPTH: usize = 100_000;
    let arrays = "[".repeat(DEPTH) + &"]".repeat(DEPTH);
    let objects = "{\"a\":".repeat(DEPTH) + "1" + &"}".repeat(DEPTH);
    let in_field = format!("{{\"name\": {arrays}}}");
    let unclosed = "[".repeat(DEPTH);
    for (what, text) in [
        ("arrays", &arrays),
        ("objects", &objects),
        ("a spec field", &in_field),
        ("unclosed arrays", &unclosed),
    ] {
        assert!(
            matches!(parse_and_validate(text), Err(ScenarioError::Parse(_))),
            "{what} nested {DEPTH} deep was not a parse error"
        );
    }
}

/// Every number in every spec replaced by values at and past the edges
/// of the integer and float types, and duration parts that overflow.
#[test]
fn huge_numbers_never_panic() {
    const HUGE: [&str; 8] = [
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775809",
        "4294967296",
        "1e400",
        "-1e400",
        "1e-400",
        "1.7976931348623157e308",
    ];
    let long_digits = "9".repeat(400);
    let mut cases = 0;
    for (path, text) in corpus() {
        let bytes = text.as_bytes();
        let mut at = 0;
        while at < bytes.len() {
            if !bytes[at].is_ascii_digit() {
                at += 1;
                continue;
            }
            let end = at + bytes[at..].iter().take_while(|b| b.is_ascii_digit()).count();
            for huge in HUGE.iter().copied().chain([long_digits.as_str()]) {
                let mutated = format!("{}{huge}{}", &text[..at], &text[end..]);
                let got = std::panic::catch_unwind(|| parse_and_validate(&mutated));
                assert!(got.is_ok(), "{path}: {huge} at byte {at} panicked");
                cases += 1;
            }
            at = end;
        }
    }
    assert!(cases > 100, "only {cases} number substitutions");
    for duration in [
        r#"{"secs": 18446744073709551615, "nanos": 1000000000}"#,
        r#"{"secs": 18446744073709551615, "ms": 18446744073709551615}"#,
    ] {
        // No spec field is a `Duration` any more; the deserializer the
        // DSL would use must still refuse overflowing parts.
        let value = serde_json::from_str(duration).expect("a JSON object");
        assert!(
            <Duration as serde::Deserialize>::from_value(&value).is_err(),
            "overflowing duration {duration} was not an error"
        );
    }
}

/// A long string parses in linear time: no per-character pass over the
/// rest of the input.
#[test]
fn long_strings_parse_in_linear_time() {
    let name = "é".repeat(200_000);
    let text = format!(r#"{{"name": "{name}"}}"#);
    let start = Instant::now();
    let spec = ScenarioSpec::from_json(&text).expect("a long name parses");
    assert_eq!(spec.name, name);
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "400 kB string took {:?}",
        start.elapsed()
    );
}
