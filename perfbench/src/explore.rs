//! `explore-strict` and `explore-relaxed`: closed loop, one client,
//! sequential cold explore requests on seeded `synth:` applications.
//!
//! A round is a fixed list of requests made from the seed. Every
//! request runs on a fresh `RequestRunner`, so it is cold like the
//! one-shot CLI. The untraced run repeats the round until the time is
//! up; `wall_s` sums each request's median latency over the rounds. The
//! traced run alternates an untraced pass with a traced pass,
//! in which the benchmark drives the layers itself
//! (`CandidateLibrary::build`, `RouteTable::prepare`,
//! `Mapper::greedy_placement`, `Mapper::run_observed`) and rebuilds the
//! report, which must equal the untraced report byte for byte.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sunmap::mapping::timing;
use sunmap::request::{CandidateLibrary, ConstraintMode, ExploreRequest, RequestRunner};
use sunmap::schema::REPORT_SCHEMA;
use sunmap::sim::sweep::{json_number, json_string};
use sunmap::{CostReport, Mapper, MapperConfig, Mapping, MappingError, Objective};

use crate::expected::Checker;
use crate::trace::{self_time_table, Tracer};
use crate::util::{
    cpu_ticks, digest, geometric_mean, median, metric, ms, peak_rss_mb, since_ms, unstolen_share,
    Outcome, Rng,
};

/// Application size and number of applications in one round. One size
/// per workload keeps the round's cost steady from seed to seed.
const STRICT: (usize, usize) = (24, 24);
const RELAXED: (usize, usize) = (36, 24);
/// Objectives in turn, one per application, so that every round has the
/// same mix. Power searches take about twice as long as delay searches.
const OBJECTIVES: [Objective; 3] = [
    Objective::MinDelay,
    Objective::MinDelay,
    Objective::MinPower,
];
/// How many times set-up (application resolution) is repeated; its
/// median is `setup_s`.
const SETUP_REPEATS: usize = 101;
const SETUP_WARM_UP: Duration = Duration::from_millis(200);

/// The round's requests, made from `seed`.
pub fn round(seed: u64, relaxed: bool) -> Vec<ExploreRequest> {
    let mut rng = Rng::new(seed);
    let ((cores, apps), mode) = if relaxed {
        (RELAXED, ConstraintMode::Relaxed)
    } else {
        (STRICT, ConstraintMode::Strict)
    };
    (0..apps)
        .map(|i| {
            let spec = format!("synth:seed={},cores={cores}", rng.app_seed());
            let mut req = ExploreRequest::new(spec.parse().expect("generated specs parse"));
            req.objective = OBJECTIVES[i % OBJECTIVES.len()];
            req.constraints = mode;
            req
        })
        .collect()
}

/// Per-round layer totals from a traced pass.
#[derive(Default, Clone, Copy)]
struct Layers {
    table_ns: u64,
    pairs: u64,
    greedy_ns: u64,
    search_ns: u64,
    infeasible_ns: u64,
    evaluated: u64,
    evaluated_infeasible: u64,
    floorplan_ns: u64,
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    checker: &mut Checker,
) -> Outcome {
    let relaxed = workload == "explore-relaxed";
    let requests = round(seed, relaxed);
    let mut out = Outcome::default();

    // Set-up is timed after a warm-up of untimed repeats, so that it does
    // not measure how long the process takes to get going.
    let mut setup = Vec::new();
    let warm_up = Instant::now();
    while warm_up.elapsed() < SETUP_WARM_UP || setup.len() < SETUP_REPEATS {
        let start = Instant::now();
        for req in &requests {
            black_box(req.app.resolve().expect("generated apps resolve"));
        }
        if warm_up.elapsed() >= SETUP_WARM_UP {
            setup.push(start.elapsed().as_secs_f64());
        }
    }

    let started = Instant::now();
    let mut raw_walls = Vec::new();
    // Each request's latencies, one per round.
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); requests.len()];
    let mut execute_ms = Vec::new();
    let mut route_table_ms = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers = Vec::new();
    let mut tracer = Tracer::new();
    let mut round_no = 0u64;
    // Whole rounds until the time is up: the last one may overrun it.
    while started.elapsed().as_secs_f64() < seconds {
        let round_start = Instant::now();
        for (i, req) in requests.iter().enumerate() {
            out.attempted += 1;
            let ticks = cpu_ticks();
            let t = Instant::now();
            match RequestRunner::new(1).run(req) {
                Ok(outcome) => {
                    latencies[i].push(since_ms(t) * unstolen_share(ticks));
                    if round_no == 0 {
                        eprintln!(
                            "  op{i} {:<28} {:>9.1} ms, {} of {} topologies feasible",
                            req.app.to_string(),
                            since_ms(t),
                            outcome.stats.feasible,
                            outcome.stats.candidates
                        );
                    }
                    execute_ms.push(ms(Duration::from_nanos(
                        outcome.stats.mapping_nanos + outcome.route_table_nanos,
                    )));
                    route_table_ms.push(ms(Duration::from_nanos(outcome.route_table_nanos)));
                    checker.observe(
                        &mut out,
                        &format!("op{i}.report"),
                        &digest(outcome.line.as_bytes()),
                    );
                    checker.observe(
                        &mut out,
                        &format!("op{i}.evaluated"),
                        &outcome.stats.evaluated.to_string(),
                    );
                }
                Err(e) => out.mismatch(format!("op{i}: request failed: {e}")),
            }
        }
        raw_walls.push(round_start.elapsed().as_secs_f64());
        if traced {
            let start = Instant::now();
            let mut round_layers = Layers::default();
            for (i, req) in requests.iter().enumerate() {
                let id = round_no * requests.len() as u64 + i as u64;
                traced_request(
                    &mut tracer,
                    id,
                    i,
                    req,
                    &mut round_layers,
                    checker,
                    &mut out,
                );
            }
            traced_walls.push(start.elapsed().as_secs_f64());
            layers.push(round_layers);
        }
        round_no += 1;
    }

    if !traced {
        // Each request's median over the rounds, so that a round slowed or
        // sped up by other work on the host moves no request's figure. The
        // typical latency is their geometric mean, as for the other
        // workloads: delay and power requests form two groups, and a
        // median would jump between them with the seed.
        let typical: Vec<f64> = latencies.iter().map(|l| median(l)).collect();
        eprintln!(
            "  {} round(s) of {} request(s), round wall p50 {:.3} s",
            raw_walls.len(),
            requests.len(),
            median(&raw_walls)
        );
        out.metrics = vec![
            metric("setup_s", median(&setup), "s"),
            metric("wall_s", typical.iter().sum::<f64>() / 1e3, "s"),
            metric("latency_ms", geometric_mean(&typical), "ms"),
            metric("peak_rss_mb", peak_rss_mb("self"), "MiB"),
        ];
        return out;
    }

    let untraced = median(&raw_walls);
    let traced_wall = median(&traced_walls);
    let overhead = (traced_wall - untraced) / untraced;
    let pick =
        |f: fn(&Layers) -> u64| median(&layers.iter().map(|l| f(l) as f64).collect::<Vec<_>>());
    let search_ms = pick(|l| l.search_ns) / 1e6;
    let infeasible_ms = pick(|l| l.infeasible_ns) / 1e6;
    let floorplan_ms = pick(|l| l.floorplan_ns) / 1e6;
    let evaluated = pick(|l| l.evaluated);
    let workers = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let floorplan_share = if search_ms > 0.0 {
        floorplan_ms / (search_ms * workers)
    } else {
        0.0
    };
    out.metrics = vec![
        metric("table.build_ms", pick(|l| l.table_ns) / 1e6, "ms"),
        metric("table.pairs_materialized", pick(|l| l.pairs), "count"),
        metric("request.execute_ms", median(&execute_ms), "ms"),
        metric("request.route_table_ms", median(&route_table_ms), "ms"),
        metric("request.cache_hit_ratio", 0.0, "ratio"),
        metric("mapping.greedy_ms", pick(|l| l.greedy_ns) / 1e6, "ms"),
        metric("mapping.search_ms", search_ms, "ms"),
        metric("mapping.evaluated", evaluated, "count"),
        metric(
            "mapping.evals_per_s",
            if search_ms > 0.0 {
                evaluated / (search_ms / 1e3)
            } else {
                0.0
            },
            "1/s",
        ),
        metric("mapping.infeasible_ms", infeasible_ms, "ms"),
        metric(
            "mapping.infeasible_share",
            if search_ms > 0.0 {
                infeasible_ms / search_ms
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "mapping.evaluated_infeasible",
            pick(|l| l.evaluated_infeasible),
            "count",
        ),
        metric("floorplan.ms", floorplan_ms, "ms"),
        metric("floorplan.share", floorplan_share, "ratio"),
        metric("trace.overhead_frac", overhead, "ratio"),
    ];

    // The self-time table covers every traced round; the accounting
    // line compares one traced round's layer time with the untraced
    // round's wall time.
    let rows = tracer.self_times();
    let total: u64 = rows.values().sum();
    let rounds = layers.len().max(1) as f64;
    let greedy_dup_ms = pick(|l| l.greedy_ns) / 1e6;
    let accounted_s = (total as f64 / 1e9) / rounds - greedy_dup_ms / 1e3;
    out.summary = format!(
        "{workload}: {} request(s) per round, {} traced round(s)\n{}\
         floorplan (sweep-thread time {:.1} ms per round, {:.1}% of {} sweep thread(s)) \
         runs inside mapping.search\n\
         mapping.search spans include one greedy re-run ({greedy_dup_ms:.1} ms per round), \
         subtracted from mapping.search_ms\n\
         untraced wall_s {untraced:.3} s; traced layer self time {accounted_s:.3} s per round \
         ({:+.1}%); trace.overhead_frac {overhead:+.3}\n",
        requests.len(),
        layers.len(),
        self_time_table(&rows, total),
        floorplan_ms,
        floorplan_share * 100.0,
        workers,
        (accounted_s - untraced) / untraced * 100.0,
    );
    out.spans = tracer.to_jsonl();
    out
}

/// One request through the layers, each call inside a span, checked
/// against the untraced report.
fn traced_request(
    tr: &mut Tracer,
    id: u64,
    index: usize,
    req: &ExploreRequest,
    layers: &mut Layers,
    checker: &mut Checker,
    out: &mut Outcome,
) {
    tr.begin("request", id);
    let app = tr
        .span("app.resolve", id, || req.app.resolve())
        .expect("generated apps resolve");
    tr.begin("table.build", id);
    let mut library = CandidateLibrary::build(app.core_count(), req.capacity, req.table_prep);
    layers.table_ns += tr.end();
    let config = MapperConfig {
        routing: req.routing,
        objective: req.objective,
        constraints: req.constraints.constraints(),
        swap_strategy: req.swap,
        table_prep: req.table_prep,
        ..MapperConfig::default()
    };
    timing::set_floorplan_timing(true);
    let mut results = Vec::new();
    let mut names = Vec::new();
    for tc in &mut library.topos {
        let name = tc.graph.kind().name();
        tr.begin("topology", id);
        tr.begin("table.prepare", id);
        tc.table.prepare(&tc.graph, req.routing);
        layers.table_ns += tr.end();
        let mut mapper = Mapper::new(&tc.graph, &app, config).with_route_table(&mut tc.table);
        tr.begin("mapping.greedy", id);
        black_box(mapper.greedy_placement());
        let greedy_ns = tr.end();
        timing::take_floorplan_nanos();
        let mut evaluated = 0u64;
        tr.begin("mapping.search", id);
        let result = mapper.run_observed(|_| evaluated += 1);
        let feasible = result.is_ok();
        let search_ns = tr.end_as(if feasible {
            "mapping.search[feasible]"
        } else {
            "mapping.search[infeasible]"
        });
        tr.end_as(if feasible {
            "topology[feasible]"
        } else {
            "topology[infeasible]"
        });
        let floorplan_ns = timing::take_floorplan_nanos();
        let pairs = tc.table.materialized_pairs(req.routing) as u64;
        layers.greedy_ns += greedy_ns;
        // run_observed repeats the greedy placement before its search.
        let search_ns = search_ns.saturating_sub(greedy_ns);
        layers.search_ns += search_ns;
        layers.evaluated += evaluated;
        layers.floorplan_ns += floorplan_ns;
        layers.pairs += pairs;
        if !feasible {
            layers.infeasible_ns += search_ns;
            layers.evaluated_infeasible += evaluated;
        }
        let tag = if feasible { "feasible" } else { "infeasible" };
        checker.observe(
            out,
            &format!("op{index}.{name}.evaluated"),
            &format!("{evaluated}:{tag}"),
        );
        checker.observe(out, &format!("op{index}.{name}.pairs"), &pairs.to_string());
        names.push(name);
        results.push(result);
    }
    timing::set_floorplan_timing(false);
    let spec = req.app.to_string();
    let (line, evaluated) = tr.span("report.render", id, || {
        render_report(&spec, app.core_count(), req, &names, &results)
    });
    tr.end();
    checker.observe(out, &format!("op{index}.report"), &digest(line.as_bytes()));
    checker.observe(out, &format!("op{index}.evaluated"), &evaluated.to_string());
}

/// The report line `RequestRunner::run` prints for a request without a
/// probe, rebuilt from the per-topology mapping results, and the
/// feasible topologies' evaluation total (`ExecStats::evaluated`).
fn render_report(
    spec: &str,
    cores: usize,
    req: &ExploreRequest,
    names: &[&str],
    results: &[Result<Mapping, MappingError>],
) -> (String, usize) {
    let reports: Vec<Option<&CostReport>> = results
        .iter()
        .map(|r| r.as_ref().ok().map(Mapping::report))
        .collect();
    let feasible = reports.iter().filter(|r| r.is_some()).count();
    let evaluated: usize = results
        .iter()
        .filter_map(|r| r.as_ref().ok().map(Mapping::evaluated_candidates))
        .sum();
    let mut body = format!(
        "\"app\":{},\"cores\":{cores},\"capacity\":{},\"objective\":{},\"routing\":{},\
         \"constraints\":{},\"candidates\":{},\"feasible\":{feasible},\"evaluated\":{evaluated},\
         \"topologies\":[",
        json_string(spec),
        json_number(req.capacity),
        json_string(&req.objective.to_string()),
        json_string(req.routing.abbrev()),
        json_string(req.constraints.name()),
        names.len(),
    );
    for (i, (name, report)) in names.iter().zip(&reports).enumerate() {
        if i > 0 {
            body.push(',');
        }
        match report {
            Some(r) => body.push_str(&format!(
                "{{\"topology\":{},\"feasible\":true,\"avg_hops\":{},\"design_area\":{},\
                 \"power_mw\":{}}}",
                json_string(name),
                json_number(r.avg_hops),
                json_number(r.design_area),
                json_number(r.power_mw),
            )),
            None => body.push_str(&format!(
                "{{\"topology\":{},\"feasible\":false}}",
                json_string(name)
            )),
        }
    }
    body.push(']');
    match balanced_winner(&reports) {
        Some(w) => {
            let r = reports[w].expect("the winner is feasible");
            body.push_str(&format!(
                ",\"winner\":{{\"topology\":{},\"avg_hops\":{},\"design_area\":{},\
                 \"floorplan_area\":{},\"power_mw\":{},\"max_link_load\":{},\"evaluated\":{}}}",
                json_string(names[w]),
                json_number(r.avg_hops),
                json_number(r.design_area),
                json_number(r.floorplan_area),
                json_number(r.power_mw),
                json_number(r.max_link_load),
                results[w]
                    .as_ref()
                    .map(Mapping::evaluated_candidates)
                    .expect("feasible"),
            ));
        }
        None => body.push_str(",\"winner\":null"),
    }
    (
        format!("{{\"schema\":\"{REPORT_SCHEMA}\",{body}}}"),
        evaluated,
    )
}

/// The selection `sunmap` makes under its default balanced policy: each
/// feasible candidate's hops, area and power normalised to the minimum
/// among feasible candidates and summed; the lowest sum wins, ties to
/// library order.
fn balanced_winner(reports: &[Option<&CostReport>]) -> Option<usize> {
    let feasible: Vec<(usize, &CostReport)> = reports
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.map(|r| (i, r)))
        .collect();
    let min_of = |f: fn(&CostReport) -> f64| {
        feasible
            .iter()
            .map(|(_, r)| f(r))
            .fold(f64::INFINITY, f64::min)
            .max(1e-12)
    };
    let (dmin, amin, pmin) = (
        min_of(|r| r.avg_hops),
        min_of(|r| r.design_area),
        min_of(|r| r.power_mw),
    );
    let mut scored: Vec<(usize, f64)> = feasible
        .iter()
        .map(|(i, r)| {
            (
                *i,
                r.avg_hops / dmin + r.design_area / amin + r.power_mw / pmin,
            )
        })
        .collect();
    scored.sort_by(|(_, a), (_, b)| a.total_cmp(b));
    scored.first().map(|(i, _)| *i)
}
