//! Protocol C soak on the depth-4 read-mostly tree.
//!
//! Half the transactions are read-only and read under a time wall
//! (Protocol C) across sibling branches of a 15-class tree, while GC
//! prunes the versions those walls select. Each seed runs a 10,000-program
//! prefix at 2 workers with the schedule log captured, then certifies the
//! log with the hierarchy (serializability plus the
//! partition-synchronization rule).
//!
//! Ignored by default (about two minutes in release on 2 cores):
//!
//! ```text
//! cargo test --release -p sim --test protocol_c_soak -- --ignored --nocapture
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::concurrent::{run_concurrent, ConcurrentConfig};
use sim::factory::{build_scheduler, SchedulerKind};
use workloads::synthetic::{Synthetic, SyntheticConfig};
use workloads::Workload;

/// Seeds 200..600: 400 prefixes. Before time walls waited for running
/// transactions below their components, seeds 210, 356 and 377 each
/// failed once (a reader's wall cut a class-9 transaction that a
/// visible class-8 transaction depended on). The failure depends on the
/// interleaving, not only on the seed; its deterministic regression is
/// `hdd::protocol::tests::wall_waits_for_running_transactions_below_its_components`.
const SEEDS: std::ops::Range<u64> = 200..600;
const PREFIX: usize = 10_000;

fn tree() -> Synthetic {
    Synthetic::new(SyntheticConfig {
        depth: 4,
        fanout: 2,
        granules_per_segment: 8_192,
        reads_per_ancestor: 4,
        theta: 0.99,
        read_only_share: 0.5,
        off_chain_share: 0.5,
    })
}

/// Run and certify one seeded prefix; `Err` carries the certifier's
/// report.
fn certify_prefix(seed: u64) -> Result<(), String> {
    let mut generator = tree();
    let mut rng = StdRng::seed_from_u64(seed);
    let programs: Vec<_> = (0..PREFIX).map(|_| generator.generate(&mut rng)).collect();
    let workload = tree();
    let (sched, _store) = build_scheduler(SchedulerKind::Hdd, &workload);
    let cfg = ConcurrentConfig {
        workers: 2,
        capture_log: true,
        ..ConcurrentConfig::default()
    };
    let out = run_concurrent(sched.as_ref(), programs, &cfg);
    assert_eq!(
        out.stats.committed, PREFIX,
        "seed {seed}: every program commits"
    );
    let cert = certify::certify_log("hdd", sched.log(), Some(&workload.hierarchy()));
    if cert.ok() && out.stats.serializable == Some(true) {
        Ok(())
    } else {
        Err(cert.render())
    }
}

#[test]
#[ignore = "soak: ~2 min in release; run with --ignored"]
fn protocol_c_certifies_on_the_depth4_tree() {
    let mut failed = Vec::new();
    for seed in SEEDS {
        if let Err(report) = certify_prefix(seed) {
            eprintln!("seed {seed}: not certified\n{report}");
            failed.push(seed);
        }
    }
    eprintln!(
        "protocol C soak: {} of {} prefixes failed certification {failed:?}",
        failed.len(),
        SEEDS.end - SEEDS.start
    );
    assert!(failed.is_empty(), "uncertified seeds: {failed:?}");
}
