//! `sim-ladder`: closed loop, sequential `SimSession::run_synthetic`
//! points over the 64-core standard library and a 16×16 mesh, under
//! uniform traffic and each topology's adversarial pattern, at rates
//! on both sides of `SimEngine::AUTO_EVENT_MAX_LOAD`.
//!
//! A round is every (topology, pattern, rate) point once; the run
//! repeats rounds until the time is up, and `wall_s` is the sum of the
//! points' median times. The seed picks the simulator's random stream, so
//! the traffic differs per seed while the work stays the same shape.

use std::sync::Arc;
use std::time::Instant;

use sunmap::mapping::RouteTable;
use sunmap::sim::sweep::stats_json_fields;
use sunmap::sim::{adversarial_pattern, RoutePlan, SimConfig, SimEngine, SimSession};
use sunmap::topology::builders;
use sunmap::traffic::patterns::TrafficPattern;
use sunmap::TopologyGraph;

use crate::expected::Checker;
use crate::trace::{self_time_table, Tracer};
use crate::util::{
    digest, geometric_mean, median, metric, peak_rss_mb, percentile, since_ms, Outcome, Rng,
};

const RATES: [f64; 6] = [0.01, 0.05, 0.1, 0.2, 0.3, 0.45];
/// Rates in the low band (event engine under `Auto`) and the high band.
const LOW_MAX: f64 = 0.1;
const HIGH_MIN: f64 = 0.3;
const SETUP_REPEATS: usize = 5;
/// Simulation windows of half the library default, so that a run repeats
/// every point several times.
const WARMUP_CYCLES: u64 = 500;
const MEASURE_CYCLES: u64 = 2_500;
const DRAIN_CYCLES: u64 = 2_500;

fn graphs() -> Vec<TopologyGraph> {
    let mut graphs = builders::standard_library(64, 500.0).expect("64-core library builds");
    graphs.push(builders::mesh(16, 16, 500.0).expect("16x16 mesh builds"));
    graphs
}

fn compile(graphs: &[TopologyGraph], config: &SimConfig) -> Vec<Arc<RoutePlan>> {
    graphs
        .iter()
        .map(|g| {
            let mut table = RouteTable::new(g);
            Arc::new(RoutePlan::synthetic(g, &mut table, config))
        })
        .collect()
}

struct Point {
    ms: f64,
    rate: f64,
    cycles: u64,
    delivered: u64,
    event: bool,
}

pub fn run(seed: u64, seconds: f64, traced: bool, checker: &mut Checker) -> Outcome {
    let config = SimConfig {
        seed: Rng::new(seed).next_u64(),
        warmup_cycles: WARMUP_CYCLES,
        measure_cycles: MEASURE_CYCLES,
        drain_cycles: DRAIN_CYCLES,
        ..SimConfig::default()
    };
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut plan_ms = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let graphs = graphs();
        let t = Instant::now();
        let plans = compile(&graphs, &config);
        plan_ms.push(since_ms(t));
        setup.push(start.elapsed().as_secs_f64());
        built = Some((graphs, plans));
    }
    let (graphs, plans) = built.expect("set up at least once");
    let per_round = graphs.len() * 2 * RATES.len();

    let started = Instant::now();
    // Untraced times of each point, one per round.
    let mut point_ms: Vec<Vec<f64>> = vec![Vec::new(); per_round];
    let mut raw_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_points: Vec<Point> = Vec::new();
    let mut tracer = Tracer::new();
    let mut round_no = 0u64;
    // Whole rounds until the time is up: the last one may overrun it.
    while started.elapsed().as_secs_f64() < seconds {
        let mut passes = vec![false];
        if traced {
            passes.push(true);
        }
        for trace_pass in passes {
            let start = Instant::now();
            let mut index = 0usize;
            for (g, plan) in graphs.iter().zip(&plans) {
                let kind = g.kind().name();
                let mut session = SimSession::builder(g)
                    .config(config)
                    .plan(plan.clone())
                    .build();
                for pattern in [TrafficPattern::UniformRandom, adversarial_pattern(g.kind())] {
                    for rate in RATES {
                        out.attempted += 1;
                        let event = session.engine_for(rate) == SimEngine::EventDriven;
                        if trace_pass {
                            tracer.begin("sim.run_synthetic", round_no);
                        }
                        let t = Instant::now();
                        let stats = session.run_synthetic(&pattern, rate);
                        let point_time = since_ms(t);
                        if trace_pass {
                            tracer.end_as(if event {
                                "sim.run_synthetic[event]"
                            } else {
                                "sim.run_synthetic[flat]"
                            });
                        }
                        let key = format!("p{index}.{kind}.{}.{rate}", pattern.name());
                        checker.observe(
                            &mut out,
                            &key,
                            &digest(stats_json_fields(&stats).as_bytes()),
                        );
                        checker.observe(
                            &mut out,
                            &format!("{key}.counters"),
                            &format!("{}:{}", stats.measured_cycles, stats.packets_delivered),
                        );
                        if stats.measured_cycles != config.measure_cycles
                            || stats.packets_delivered > stats.packets_offered
                        {
                            out.mismatch(format!("{key}: implausible statistics {stats:?}"));
                        }
                        if trace_pass {
                            traced_points.push(Point {
                                ms: point_time,
                                rate,
                                cycles: stats.measured_cycles,
                                delivered: stats.packets_delivered as u64,
                                event,
                            });
                        } else {
                            point_ms[index].push(point_time);
                        }
                        index += 1;
                    }
                }
            }
            let wall = start.elapsed().as_secs_f64();
            if trace_pass {
                traced_walls.push(wall);
            } else {
                raw_walls.push(wall);
            }
        }
        round_no += 1;
    }

    if !traced {
        // Each point's median time over the rounds, so that a round slowed
        // or sped up by other work on the host moves no point's figure.
        let typical: Vec<f64> = point_ms.iter().map(|times| median(times)).collect();
        let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
            .iter()
            .map(|&p| format!("{:.1}", percentile(&typical, p)))
            .collect();
        // The points' costs spread over two orders of magnitude with no
        // cluster in the middle, so their median jumps from one point to
        // another from seed to seed; their geometric mean does not.
        let (wall, latency) = (typical.iter().sum::<f64>() / 1e3, geometric_mean(&typical));
        eprintln!(
            "  {} round(s) of {per_round} point(s), point time p10/p25/p50/p75/p90 {} ms; \
             round wall p50 {:.3} s",
            raw_walls.len(),
            q.join("/"),
            median(&raw_walls)
        );
        out.metrics = vec![
            metric("setup_s", median(&setup), "s"),
            metric("wall_s", wall, "s"),
            metric("latency_ms", latency, "ms"),
            metric("peak_rss_mb", peak_rss_mb("self"), "MiB"),
        ];
        return out;
    }

    let rate_of = |keep: &dyn Fn(&Point) -> bool| {
        let (cycles, ms) = traced_points
            .iter()
            .filter(|p| keep(p))
            .fold((0u64, 0.0), |(c, t), p| (c + p.cycles, t + p.ms));
        if ms > 0.0 {
            cycles as f64 / (ms / 1e3)
        } else {
            0.0
        }
    };
    let rounds = traced_walls.len() as f64;
    let untraced = median(&raw_walls);
    let overhead = (median(&traced_walls) - untraced) / untraced;
    let round_points = &traced_points[..per_round];
    out.metrics = vec![
        metric("sim.plan_ms", median(&plan_ms), "ms"),
        metric("sim.cycles_per_s", rate_of(&|_| true), "1/s"),
        metric(
            "sim.low.cycles_per_s",
            rate_of(&|p| p.rate <= LOW_MAX),
            "1/s",
        ),
        metric(
            "sim.high.cycles_per_s",
            rate_of(&|p| p.rate >= HIGH_MIN),
            "1/s",
        ),
        metric(
            "sim.measured_cycles",
            round_points.iter().map(|p| p.cycles).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "sim.packets_delivered",
            round_points.iter().map(|p| p.delivered).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "sim.event_share",
            round_points.iter().filter(|p| p.event).count() as f64 / per_round as f64,
            "ratio",
        ),
        metric("trace.overhead_frac", overhead, "ratio"),
    ];
    let rows = tracer.self_times();
    let total: u64 = rows.values().sum();
    out.summary = format!(
        "sim-ladder: {per_round} point(s) per round, {rounds} traced round(s)\n{}\
         untraced wall_s {untraced:.3} s; trace.overhead_frac {overhead:+.3}\n",
        self_time_table(&rows, total)
    );
    out.spans = tracer.to_jsonl();
    out
}
