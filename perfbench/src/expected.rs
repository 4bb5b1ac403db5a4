//! Expected outputs and work counters captured from this tree, checked
//! on every run whose seed was captured.
//!
//! Each workload has a file under `perfbench/expected/` with lines
//! `<seed> <key> <value>`: a key names one output (a report, a serve
//! response, a simulation point) or one deterministic counter, and the
//! value is the output's FNV-1a digest or the counter's value. Running
//! with `--capture <file>` appends the observed lines to `<file>`
//! instead of checking them; see `perfbench/README.md`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::util::Outcome;

fn captured_text(workload: &str) -> &'static str {
    match workload {
        "explore-strict" => include_str!("../expected/explore-strict.txt"),
        "explore-relaxed" => include_str!("../expected/explore-relaxed.txt"),
        "serve-mixed" => include_str!("../expected/serve-mixed.txt"),
        "sim-ladder" => include_str!("../expected/sim-ladder.txt"),
        _ => "",
    }
}

/// Checks observations against the captured file, or collects them for
/// capture.
pub struct Checker {
    seed: u64,
    /// Whether `seed` was captured at all; observations under other
    /// seeds are only checked by the workload's own cross-checks.
    seed_captured: bool,
    expected: BTreeMap<String, String>,
    capture: Option<String>,
    captured: String,
    /// Every observation of this run, so repeats within a run can be
    /// compared too.
    seen: BTreeMap<String, String>,
}

impl Checker {
    pub fn new(workload: &str, seed: u64, capture: Option<String>) -> Checker {
        let mut expected = BTreeMap::new();
        let mut seeds = BTreeSet::new();
        for line in captured_text(workload).lines() {
            let mut parts = line.split_whitespace();
            let (Some(s), Some(key), Some(value)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(s) = s.parse::<u64>() else { continue };
            seeds.insert(s);
            if s == seed {
                expected.insert(key.to_string(), value.to_string());
            }
        }
        Checker {
            seed,
            seed_captured: capture.is_none() && seeds.contains(&seed),
            expected,
            capture,
            captured: String::new(),
            seen: BTreeMap::new(),
        }
    }

    /// Records one observation. A value that differs from the captured
    /// one, from an earlier observation of the same key in this run, or
    /// that is missing from a captured seed's file is a mismatch.
    pub fn observe(&mut self, out: &mut Outcome, key: &str, value: &str) {
        if let Some(previous) = self.seen.get(key) {
            if previous != value {
                out.mismatch(format!(
                    "{key}: {value} differs from {previous} earlier in this run"
                ));
            }
            return;
        }
        self.seen.insert(key.to_string(), value.to_string());
        if self.capture.is_some() {
            let _ = writeln!(self.captured, "{} {key} {value}", self.seed);
            return;
        }
        if self.seed_captured {
            match self.expected.get(key) {
                Some(want) if want == value => {}
                Some(want) => out.mismatch(format!(
                    "{key}: {value} differs from the captured {want} (seed {})",
                    self.seed
                )),
                None => out.mismatch(format!("{key}: no captured value for seed {}", self.seed)),
            }
        }
    }

    /// Whether this run's seed has captured outputs.
    pub fn seed_captured(&self) -> bool {
        self.seed_captured
    }

    /// Appends the collected observations to the capture file, if any.
    pub fn finish(&self) -> Result<(), String> {
        let Some(path) = &self.capture else {
            return Ok(());
        };
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        file.write_all(self.captured.as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))
    }
}
