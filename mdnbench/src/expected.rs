//! The recorded deterministic outcomes in `expected.txt`.
//!
//! One line per workload and seed (`*` for the workloads `--seed` does
//! not change): window count, queue events, packets delivered and
//! dropped, tone emissions, tones scheduled and heard, replans as
//! `cell@window`, and the digest of the per-window outcomes. Regenerate
//! a line with `--record`.

use crate::scenario::Outcome;
use crate::workloads::Workload;

const RECORDED: &str = include_str!("../expected.txt");

/// `Outcome` as one `expected.txt` line.
pub fn line(w: Workload, seed: u64, o: &Outcome) -> String {
    let seed = if w.seeded() {
        seed.to_string()
    } else {
        "*".into()
    };
    format!(
        "{} {seed} {} {} {} {} {} {} {} {} {:016x}",
        w.name(),
        o.windows.len(),
        o.events_total,
        o.delivered,
        o.dropped,
        o.tone_events,
        o.expected,
        o.heard,
        o.replans_text(),
        o.digest()
    )
}

/// The recorded line for `w` at `seed`, if there is one.
pub fn lookup(w: Workload, seed: u64) -> Option<&'static str> {
    let seed = if w.seeded() {
        seed.to_string()
    } else {
        "*".into()
    };
    RECORDED.lines().find(|l| {
        let mut f = l.split_whitespace();
        f.next() == Some(w.name()) && f.next() == Some(seed.as_str())
    })
}

/// Compare an untraced run's outcome with its recorded line; `None`
/// when no line is recorded for this seed.
pub fn check(w: Workload, seed: u64, o: &Outcome) -> Option<Result<(), String>> {
    let want = lookup(w, seed)?;
    let got = line(w, seed, o);
    Some(if got == want {
        Ok(())
    } else {
        Err(format!(
            "outcome differs from the record:\n  got  {got}\n  want {want}"
        ))
    })
}
