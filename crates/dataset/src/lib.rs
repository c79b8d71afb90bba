//! # galois-dataset
//!
//! The Spider-substitute corpus for the Galois reproduction
//! (["Querying Large Language Models with SQL"](https://arxiv.org/abs/2304.00472),
//! EDBT 2024, §5).
//!
//! One seeded [`World`] is the single source of truth; it loads into
//!
//! * a ground-truth relational [`galois_relational::Database`]
//!   (`R_D` side of the evaluation), and
//! * the simulated LLM's [`galois_llm::KnowledgeStore`]
//!   (what the model has "memorised"),
//!
//! and [`build_suite`] derives the 46-query evaluation workload — 20
//! selection-only, 18 aggregate, 8 join queries, each with its SQL text
//! and NL paraphrase.
//!
//! ```
//! use galois_dataset::Scenario;
//!
//! let scenario = Scenario::generate(42);
//! assert_eq!(scenario.suite.len(), 46);
//! let r = scenario.database.execute("SELECT COUNT(*) FROM city").unwrap();
//! assert!(!r.is_empty());
//! ```

#![warn(missing_docs, unreachable_pub)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod convert;
mod names;
mod suite;
mod world;

pub use convert::{to_database, to_knowledge};
pub use suite::{
    build_operator_suite, build_suite, AggSpec, JoinSpec, OperatorCheck, OperatorFamily,
    OperatorQuery, QueryCategory, QuerySpec,
};
pub use world::{World, WorldConfig};

use galois_llm::KnowledgeStore;
use galois_relational::Database;
use std::sync::Arc;

/// Everything one experiment run needs, generated from a single seed.
#[derive(Clone)]
pub struct Scenario {
    /// The generated world.
    pub world: World,
    /// Ground-truth relational database.
    pub database: Database,
    /// The simulated LLM's knowledge store.
    pub knowledge: Arc<KnowledgeStore>,
    /// The 46-query evaluation suite.
    pub suite: Vec<QuerySpec>,
}

impl Scenario {
    /// Generates the full scenario for a seed.
    pub fn generate(seed: u64) -> Scenario {
        Self::generate_with(seed, WorldConfig::default())
    }

    /// Generates a scenario over a world `scale`× the default size.
    ///
    /// This is the bench knob for 10×/100× worlds: the suite is still the
    /// same 46 query shapes, but every relation behind them is `scale`
    /// times larger, so prompt volume grows proportionally.
    pub fn generate_scaled(seed: u64, scale: usize) -> Scenario {
        Self::generate_with(seed, WorldConfig::scaled(scale))
    }

    /// Generates with explicit world sizes.
    pub fn generate_with(seed: u64, cfg: WorldConfig) -> Scenario {
        let world = World::generate_with(seed, cfg);
        let database = to_database(&world);
        let knowledge = Arc::new(to_knowledge(&world));
        let suite = build_suite(&world);
        Scenario {
            world,
            database,
            knowledge,
            suite,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_wires_everything() {
        let s = Scenario::generate(7);
        assert_eq!(s.suite.len(), 46);
        assert_eq!(
            s.knowledge.entities_of_type("city").len(),
            s.world.cities.len()
        );
        assert!(s.database.catalog().get("employees").is_ok());
    }
}
