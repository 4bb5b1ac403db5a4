//! Pinned swap-search work counts on seeded synthetic applications.
//!
//! The bit-identity suites prove that the fast path returns the same
//! winner as the reference; they do not pin *how much* work the search
//! does. This fixture does: for seeded `synth:` applications (24-core
//! strict and 36-core relaxed, MinDelay and MinPower, default mapper
//! configuration) on every standard-library topology it pins whether a
//! feasible mapping exists, how many candidates were fully evaluated,
//! how many reports the observer saw, an FNV-1a digest of every
//! observed report's field bits, and — for `NoFeasibleMapping` — the
//! least-infeasible report's `max_link_load` bits.
//!
//! An optimisation of the evaluation engine that claims to move no
//! count must leave every line unchanged. The pinned lines were
//! captured before the floorplan of abandoned candidates was deferred.

use sunmap_mapping::{Constraints, CostReport, Mapper, MapperConfig, MappingError, Objective};
use sunmap_topology::builders;
use sunmap_traffic::synthetic::SyntheticSpec;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds every field of `r` into `hash`, floats by their bit patterns.
fn fold_report(hash: &mut u64, r: &CostReport) {
    for x in [
        r.avg_hops,
        r.mean_hops,
        r.design_area,
        r.floorplan_area,
        r.switch_area,
        r.power_mw,
        r.switch_power_mw,
        r.link_power_mw,
        r.max_link_load,
        r.avg_link_length_mm,
        r.chip_aspect,
    ] {
        fnv(hash, x.to_bits());
    }
    for flag in [r.bandwidth_ok, r.area_ok, r.bandwidth_enforced] {
        fnv(hash, u64::from(flag));
    }
    fnv(hash, r.switch_count as u64);
    fnv(hash, r.link_count as u64);
}

/// One pinned run: `spec objective mode topology feasible evaluated
/// observed digest load-bits`.
fn run_line(spec: &str, objective: Objective, relaxed: bool, topo: usize) -> String {
    let app = spec
        .parse::<SyntheticSpec>()
        .expect("valid spec")
        .generate();
    let mut library = builders::standard_library(app.core_count(), 500.0).expect("library builds");
    let g = library.swap_remove(topo);
    let config = MapperConfig {
        objective,
        constraints: if relaxed {
            Constraints::relaxed_bandwidth()
        } else {
            Constraints::default()
        },
        ..MapperConfig::default()
    };
    let mut observed = 0usize;
    let mut digest = FNV_OFFSET;
    let result = Mapper::new(&g, &app, config).run_observed(|r| {
        observed += 1;
        fold_report(&mut digest, r);
    });
    let (feasible, evaluated, load) = match result {
        Ok(mapping) => (true, mapping.evaluated_candidates().to_string(), "-".into()),
        Err(MappingError::NoFeasibleMapping(best)) => (
            false,
            "-".into(),
            format!("{:016x}", best.max_link_load.to_bits()),
        ),
        Err(e) => panic!("{spec} {objective} topology {topo}: unexpected error {e}"),
    };
    format!(
        "{spec} {objective} {} {} {} {evaluated} {observed} {digest:016x} {load}",
        if relaxed { "relaxed" } else { "strict" },
        g.kind(),
        if feasible { "feasible" } else { "infeasible" },
    )
}

/// Runs `spec` under both objectives on all five library topologies
/// and compares the lines with `pinned`.
fn check(spec: &str, relaxed: bool, pinned: &[&str]) {
    let mut lines = Vec::new();
    for objective in [Objective::MinDelay, Objective::MinPower] {
        for topo in 0..5 {
            lines.push(run_line(spec, objective, relaxed, topo));
        }
    }
    assert_eq!(lines, pinned, "{spec}: search counts moved");
}

const STRICT_SEED_4: &[&str] = &[
    "synth:seed=4,cores=24 min-delay strict Mesh 4x6 infeasible - 1105 05e9739258242ebc 4081f7671e06112c",
    "synth:seed=4,cores=24 min-delay strict Torus 4x6 feasible 1105 1105 e17c2cb60777b950 -",
    "synth:seed=4,cores=24 min-delay strict Hypercube dim=5 feasible 2 2 0a905e07c595f34b -",
    "synth:seed=4,cores=24 min-delay strict Clos r=5 n=5 m=5 infeasible - 473 133ccfac6a35827e 40811d1461b510c8",
    "synth:seed=4,cores=24 min-delay strict Butterfly 4-ary 3-fly infeasible - 1712 5d227fe7a2f65bb8 4090781f7055b4d8",
    "synth:seed=4,cores=24 min-power strict Mesh 4x6 infeasible - 1105 05e9739258242ebc 4081f7671e06112c",
    "synth:seed=4,cores=24 min-power strict Torus 4x6 feasible 1105 1105 e17c2cb60777b950 -",
    "synth:seed=4,cores=24 min-power strict Hypercube dim=5 feasible 2 2 0a905e07c595f34b -",
    "synth:seed=4,cores=24 min-power strict Clos r=5 n=5 m=5 infeasible - 473 133ccfac6a35827e 40811d1461b510c8",
    "synth:seed=4,cores=24 min-power strict Butterfly 4-ary 3-fly infeasible - 1500 0c0e25451c8a1de4 408ea1825c0f6772",
];

const STRICT_SEED_11: &[&str] = &[
    "synth:seed=11,cores=24 min-delay strict Mesh 4x6 infeasible - 1105 2621bb01279d7741 4082024ee18df1f6",
    "synth:seed=11,cores=24 min-delay strict Torus 4x6 infeasible - 829 787d81c5ddc2db4a 4082024ee18df1f6",
    "synth:seed=11,cores=24 min-delay strict Hypercube dim=5 infeasible - 1634 26911c3471913c57 4082024ee18df1f6",
    "synth:seed=11,cores=24 min-delay strict Clos r=5 n=5 m=5 infeasible - 179 6a73570003b0cf92 4082024ee18df1f6",
    "synth:seed=11,cores=24 min-delay strict Butterfly 4-ary 3-fly infeasible - 1966 231f01a73cf0ef07 408c0ad752726cbc",
    "synth:seed=11,cores=24 min-power strict Mesh 4x6 infeasible - 1105 2621bb01279d7741 4082024ee18df1f6",
    "synth:seed=11,cores=24 min-power strict Torus 4x6 infeasible - 829 787d81c5ddc2db4a 4082024ee18df1f6",
    "synth:seed=11,cores=24 min-power strict Hypercube dim=5 infeasible - 1634 26911c3471913c57 4082024ee18df1f6",
    "synth:seed=11,cores=24 min-power strict Clos r=5 n=5 m=5 infeasible - 578 460597ed63141ab0 4082024ee18df1f6",
    "synth:seed=11,cores=24 min-power strict Butterfly 4-ary 3-fly infeasible - 1741 b555c8aa0062a053 40895e364e6c9606",
];

const RELAXED_SEED_5: &[&str] = &[
    "synth:seed=5,cores=36 min-delay relaxed Mesh 6x6 feasible 28 28 111424ce2b96f8cb -",
    "synth:seed=5,cores=36 min-delay relaxed Torus 6x6 feasible 6 6 8617bcebbdb45fe9 -",
    "synth:seed=5,cores=36 min-delay relaxed Hypercube dim=6 feasible 8 8 d418dac64da729fc -",
    "synth:seed=5,cores=36 min-delay relaxed Clos r=6 n=6 m=6 feasible 2521 2521 b90a2a79f77eebf8 -",
    "synth:seed=5,cores=36 min-delay relaxed Butterfly 4-ary 3-fly feasible 6553 6553 7c666959d15702e4 -",
    "synth:seed=5,cores=36 min-power relaxed Mesh 6x6 feasible 26 26 1b350fe3d08818c0 -",
    "synth:seed=5,cores=36 min-power relaxed Torus 6x6 feasible 12 12 fe909ce7056e282b -",
    "synth:seed=5,cores=36 min-power relaxed Hypercube dim=6 feasible 7 7 2964f4fc1804d444 -",
    "synth:seed=5,cores=36 min-power relaxed Clos r=6 n=6 m=6 feasible 441 441 cd0d05f98443fd06 -",
    "synth:seed=5,cores=36 min-power relaxed Butterfly 4-ary 3-fly feasible 197 197 4a44c283e1d63969 -",
];

#[test]
fn strict_24_core_seed_4_counts_match_the_pinned_fixture() {
    check("synth:seed=4,cores=24", false, STRICT_SEED_4);
}

#[test]
fn strict_24_core_seed_11_counts_match_the_pinned_fixture() {
    check("synth:seed=11,cores=24", false, STRICT_SEED_11);
}

#[test]
fn relaxed_36_core_seed_5_counts_match_the_pinned_fixture() {
    check("synth:seed=5,cores=36", true, RELAXED_SEED_5);
}
