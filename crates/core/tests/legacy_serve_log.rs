//! Wire compatibility with serve logs written when `auto` still
//! switched to a separate dense-scan (`flat`) engine at loads of 0.15
//! and above.
//!
//! `fixtures/serve_log_engine_spellings.jsonl` was recorded by
//! `sunmap serve --log` before that engine was removed. Its requests
//! spell `engine` as `auto`, `flat`, `event` and `reference`, each with
//! top-k (k = 3) probes at rates 0.05 and 0.3, so the probe records
//! carry both historical `"engine"` labels. Every request must still
//! parse, re-render its canonical JSON unchanged, and replay to the
//! logged report byte for byte.

use std::path::PathBuf;

use sunmap::request::ExploreRequest;
use sunmap::serve::verify_replay;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/serve_log_engine_spellings.jsonl")
}

#[test]
fn pre_removal_log_replays_byte_for_byte() {
    let summary = verify_replay(&fixture(), 2).expect("legacy log replays byte-identically");
    assert_eq!(summary.replayed, 8);
}

#[test]
fn every_engine_spelling_round_trips_canonically() {
    let text = std::fs::read_to_string(fixture()).unwrap();
    let mut spellings = Vec::new();
    for line in text.lines() {
        // Each entry is `{"schema":..,"seq":..,"request":{..},"report":{..}}`.
        let start = line.find("\"request\":").expect("logged request") + "\"request\":".len();
        let end = line.find(",\"report\":").expect("logged report");
        let logged = &line[start..end];
        let req = ExploreRequest::from_json(logged).unwrap();
        assert_eq!(req.to_json(), logged, "canonical request bytes drifted");
        spellings.push(req.engine.name());
    }
    spellings.dedup();
    assert_eq!(spellings, ["auto", "flat", "event", "reference"]);
}
