//! The reported metrics: names, units, and how each is computed from
//! trials. `BENCHMARK.json` at the repository root lists the same names
//! and units; the smoke test keeps the two in step.

use crate::engine::Trial;
use crate::host::quote;
use crate::probe::ProbeSlot;
use crate::stats::{median, quantile, ratio};
use crate::trace::{Call, StoreCall, TraceSlot};
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("commits_per_s", "1/s"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("ro_p50_us", "us"),
    ("ro_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("driver.self_share", "share"),
    ("driver.ops_per_commit", "ops/commit"),
    ("driver.restarts_per_1k_commits", "restarts/1k"),
    ("driver.blocks_per_1k_ops", "blocks/1k"),
    ("driver.decile_drift", "ratio"),
    ("driver.failed_share", "share"),
    ("hdd.begin.ns", "ns"),
    ("hdd.commit.ns", "ns"),
    ("hdd.read_b.ns", "ns"),
    ("hdd.read_a.ns", "ns"),
    ("hdd.read_ro.ns", "ns"),
    ("hdd.write.ns", "ns"),
    ("hdd.abort.ns", "ns"),
    ("hdd.calls_per_commit", "calls/commit"),
    ("maint.busy_share", "share"),
    ("maint.self_us_per_call", "us"),
    ("hdd.walls_released_per_s", "1/s"),
    ("hdd.wall_blocks_per_1k_ro_reads", "blocks/1k"),
    ("mvstore.chain.ns", "ns"),
    ("mvstore.chain_calls_per_commit", "calls/commit"),
    ("mvstore.commit_writes.ns", "ns"),
    ("mvstore.prune.ms_per_call", "ms"),
    ("mvstore.prune.busy_share", "share"),
    ("mvstore.gced_per_commit", "versions/commit"),
    ("mvstore.versions_per_granule_end", "versions/granule"),
    ("mvstore.granules_end", "count"),
    ("wal.commits_per_s", "1/s"),
    ("wal.frames_per_batch", "frames/batch"),
    ("wal.bytes_per_commit", "B/commit"),
    ("wal.fsync_p50_us", "us"),
    ("wal.fsync_p99_us", "us"),
    ("wal.fsync_busy_share", "share"),
    ("wal.ack_wait_p50_us", "us"),
    ("log.on_ratio", "ratio"),
    ("baselines.mvto_commits_per_s", "1/s"),
    ("baselines.hdd_over_mvto", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "share"),
];

/// Program latencies of one trial, µs: update p50 and p99, read-only
/// p50 and p99.
fn latencies_us(t: &Trial) -> [f64; 4] {
    let pooled = |f: fn(&ProbeSlot) -> &Vec<u64>| -> Vec<u64> {
        t.probe.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let mut upd = pooled(|s| &s.update_ns);
    let mut ro = pooled(|s| &s.ro_ns);
    [
        quantile(&mut upd, 0.5),
        quantile(&mut upd, 0.99),
        quantile(&mut ro, 0.5),
        quantile(&mut ro, 0.99),
    ]
    .map(|ns| ns as f64 / 1e3)
}

/// End-to-end values in `END_TO_END` order: medians over the measured
/// `trials`, so a burst of interference that hits one trial does not
/// move them; set-up time is the median over every set-up in `setups_s`.
pub fn end_to_end(trials: &[Trial], setups_s: &[f64], peak_rss_mb: f64) -> Vec<f64> {
    let lat: Vec<[f64; 4]> = trials.iter().map(latencies_us).collect();
    let at = |i: usize| median(&lat.iter().map(|l| l[i]).collect::<Vec<_>>());
    vec![
        median(&trials.iter().map(|t| t.run.throughput).collect::<Vec<_>>()),
        at(0),
        at(1),
        at(2),
        at(3),
        median(setups_s),
        peak_rss_mb,
    ]
}

/// One traced round: the same programs run plain, traced and under mvto;
/// their certified prefix run plain and with the schedule log captured;
/// and a shorter prefix traced with every update journaled.
pub struct Round {
    pub plain: Trial,
    pub traced: Trial,
    pub mvto: Trial,
    pub plain_prefix: Trial,
    pub logged_prefix: Trial,
    pub journaled: Trial,
}

/// Per-layer values in `PER_LAYER` order for one round.
fn round_layers(r: &Round) -> Vec<f64> {
    let t = &r.traced;
    let slots = &t.trace;
    let workers: Vec<&TraceSlot> = slots.iter().filter(|s| s.is_worker()).collect();
    let elapsed_s = t.run.elapsed.as_secs_f64();
    let elapsed_ns = elapsed_s * 1e9;
    let commits = (t.update_commits + t.ro_commits) as f64;
    let sum = |f: &dyn Fn(&TraceSlot) -> u64| slots.iter().map(f).sum::<u64>() as f64;
    let calls = |c: Call| sum(&|s| s.calls[c as usize]);
    let self_ns = |c: Call| ratio(sum(&|s| s.self_ns[c as usize]), calls(c));
    let store_calls = |c: StoreCall| sum(&|s| s.store_calls[c as usize]);
    let store_ns = |c: StoreCall| sum(&|s| s.store_ns[c as usize]);

    // Worker time and the part of it inside a named layer: scheduler
    // calls (their nested store time included) and the tracer's own
    // recording.
    let worker_ns: f64 = workers
        .iter()
        .map(|s| s.last_ns.saturating_sub(s.first_ns.unwrap_or(s.last_ns)) as f64)
        .sum();
    let worker_calls = [
        Call::Begin,
        Call::Commit,
        Call::ReadB,
        Call::ReadA,
        Call::ReadRo,
        Call::Write,
        Call::Abort,
    ];
    let in_calls: f64 = worker_calls
        .iter()
        .map(|&c| workers.iter().map(|s| s.total_ns[c as usize]).sum::<u64>() as f64)
        .sum();
    let in_trace = workers.iter().map(|s| s.trace_ns).sum::<u64>() as f64;
    let coverage = ratio(in_calls + in_trace, worker_ns);

    // Commit rate in the last tenth of the run over the first tenth.
    let mut at: Vec<u64> = workers
        .iter()
        .flat_map(|s| s.commit_at_ns.iter().copied())
        .collect();
    at.sort_unstable();
    let start = workers.iter().filter_map(|s| s.first_ns).min().unwrap_or(0);
    let end = at.last().copied().unwrap_or(start);
    let tenth = (end - start) / 10;
    let first = at.iter().filter(|&&x| x < start + tenth).count() as f64;
    let last = at.iter().filter(|&&x| x >= end - tenth).count() as f64;

    let s = &t.run.stats;
    let m = &s.metrics;
    let blocks = sum(&|s| s.blocks.iter().sum());
    // The WAL, from the journaled trial: batching, bytes, fsync time, and
    // the gap from a committed update to that worker's next `begin`,
    // which is the wait for the batch's acknowledgement.
    let j = &r.journaled;
    let wal = j.wal.expect("the journaled trial has a WAL");
    let acked = j.update_commits as f64 - j.run.wal_lost as f64;
    let mut ack: Vec<u64> = j
        .trace
        .iter()
        .flat_map(|s| s.ack_wait_ns.iter().copied())
        .collect();
    let fsync_us = |q: u64| q as f64 / 1e3;
    vec![
        1.0 - coverage,
        ratio(s.steps as f64, commits),
        ratio(s.restarts as f64 * 1e3, commits),
        ratio(blocks * 1e3, s.steps as f64),
        ratio(last, first),
        ratio(r.plain.failed() as f64, r.plain.offered as f64),
        self_ns(Call::Begin),
        self_ns(Call::Commit),
        self_ns(Call::ReadB),
        self_ns(Call::ReadA),
        self_ns(Call::ReadRo),
        self_ns(Call::Write),
        self_ns(Call::Abort),
        ratio(worker_calls.iter().map(|&c| calls(c)).sum(), commits),
        ratio(sum(&|s| s.total_ns[Call::Maintenance as usize]), elapsed_ns),
        self_ns(Call::Maintenance) / 1e3,
        ratio(m.timewalls_released as f64, elapsed_s),
        ratio(
            sum(&|s| s.blocks[Call::ReadRo as usize]) * 1e3,
            calls(Call::ReadRo),
        ),
        ratio(store_ns(StoreCall::Chain), store_calls(StoreCall::Chain)),
        ratio(store_calls(StoreCall::Chain), commits),
        ratio(
            store_ns(StoreCall::CommitWrites),
            store_calls(StoreCall::CommitWrites),
        ),
        ratio(store_ns(StoreCall::Prune), store_calls(StoreCall::Prune)) / 1e6,
        ratio(store_ns(StoreCall::Prune), elapsed_ns),
        ratio(m.versions_gced as f64, commits),
        ratio(t.versions_end as f64, t.granules_end as f64),
        t.granules_end as f64,
        j.run.throughput,
        ratio(wal.frames as f64, wal.batches as f64),
        ratio(wal.bytes as f64, acked),
        fsync_us(j.fsync.p50()),
        fsync_us(j.fsync.p99()),
        ratio(j.fsync.sum as f64, j.run.elapsed.as_secs_f64() * 1e9),
        quantile(&mut ack, 0.5) as f64 / 1e3,
        ratio(
            r.logged_prefix.run.throughput,
            r.plain_prefix.run.throughput,
        ),
        r.mvto.run.throughput,
        ratio(r.plain.run.throughput, r.mvto.run.throughput),
        ratio(t.run.throughput, r.plain.run.throughput),
        coverage,
    ]
}

/// Per-layer values in `PER_LAYER` order: medians over `rounds`.
pub fn per_layer(rounds: &[Round]) -> Vec<f64> {
    let each: Vec<Vec<f64>> = rounds.iter().map(round_layers).collect();
    (0..PER_LAYER.len())
        .map(|i| median(&each.iter().map(|v| v[i]).collect::<Vec<_>>()))
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(&str, &str)],
    values: &[f64],
) -> String {
    let mut m = String::new();
    for (i, ((name, unit), v)) in names.iter().zip(values).enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}{}: {{\"value\": {v:?}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}
