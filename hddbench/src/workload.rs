//! The workloads: what they generate and at which size.
//! `README.md` in this package records why each exists.

use rand::rngs::StdRng;
use rand::SeedableRng;
use txn_model::TxnProgram;
use workloads::inventory::{Inventory, InventoryConfig};
use workloads::synthetic::{Synthetic, SyntheticConfig};
use workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure 2's inventory application.
    Inventory,
    /// A deep read-mostly tree over a store larger than the CPU cache.
    TreeReadMostly,
}

pub const ALL: [Kind; 2] = [Kind::Inventory, Kind::TreeReadMostly];

/// Run sizes. Run length is fixed in programs, not seconds: inventory's
/// store grows with every insert, so its throughput depends on how many
/// programs a run has already executed.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Programs per measured trial.
    pub programs: usize,
    /// Programs in the untimed warm-up trial.
    pub warmup: usize,
    /// Programs in the log-captured run the certifier checks.
    pub certified: usize,
    /// Programs in the traced run journaled through the WAL.
    pub journaled: usize,
    /// Granules per tree segment (tree workload only).
    pub granules_per_segment: u64,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Inventory => "inventory",
            Kind::TreeReadMostly => "tree-readmostly",
        }
    }

    pub fn scale(self, smoke: bool) -> Scale {
        match (self, smoke) {
            (Kind::Inventory, false) => Scale {
                programs: 200_000,
                warmup: 50_000,
                certified: 20_000,
                journaled: 1_500,
                granules_per_segment: 0,
            },
            (Kind::TreeReadMostly, false) => Scale {
                programs: 160_000,
                warmup: 20_000,
                certified: 10_000,
                journaled: 1_500,
                granules_per_segment: 8_192,
            },
            (Kind::Inventory, true) => Scale {
                programs: 2_000,
                warmup: 200,
                certified: 1_000,
                journaled: 100,
                granules_per_segment: 0,
            },
            (Kind::TreeReadMostly, true) => Scale {
                programs: 2_000,
                warmup: 200,
                certified: 1_000,
                journaled: 100,
                granules_per_segment: 1_024,
            },
        }
    }

    /// A fresh generator (its store image and hierarchy never depend on
    /// what it has generated).
    pub fn workload(self, scale: &Scale) -> Box<dyn Workload> {
        match self {
            Kind::Inventory => Box::new(Inventory::new(InventoryConfig::default())),
            Kind::TreeReadMostly => Box::new(Synthetic::new(tree_config(scale))),
        }
    }

    /// The workload's programs for `seed`, all generated before any
    /// timing starts.
    pub fn programs(self, scale: &Scale, seed: u64) -> Vec<TxnProgram> {
        let mut w = self.workload(scale);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..scale.programs).map(|_| w.generate(&mut rng)).collect()
    }
}

/// Depth 4 and fan-out 2 give 15 classes; at 65,536 granules per
/// segment the store holds ~1M granules.
pub fn tree_config(scale: &Scale) -> SyntheticConfig {
    SyntheticConfig {
        depth: 4,
        fanout: 2,
        granules_per_segment: scale.granules_per_segment,
        reads_per_ancestor: 4,
        theta: 0.99,
        read_only_share: 0.5,
        off_chain_share: 0.5,
    }
}
