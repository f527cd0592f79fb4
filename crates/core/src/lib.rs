//! # ctms-core — the Continuous Time Media System
//!
//! The top of the reproduction stack: scenario definitions for the §5.3
//! variant space, the calibrated cost model, the testbed that wires hosts
//! to the ring, and the experiment suite that regenerates every figure and
//! quantitative claim of the paper.
//!
//! ## Quick start
//!
//! ```
//! use ctms_core::{Scenario, Testbed};
//! use ctms_sim::SimTime;
//!
//! let scenario = Scenario::test_case_a(42);
//! let mut bed = Testbed::ctms(&scenario);
//! bed.run_until(SimTime::from_secs(2));
//! let set = bed.measurement_set();
//! let h7 = set.samples_us(ctms_measure::HistId::H7);
//! assert!(!h7.is_empty());
//! ```

pub mod calib;
pub mod chain;
pub mod checkpoint;
pub mod experiments;
pub mod graph;
pub mod scenario;
pub mod testbed;
pub mod topology;

pub use calib::Calibration;
pub use chain::{DualRingTestbed, RingChainTestbed};
pub use checkpoint::{
    apply_mutations, fork, ForkSpec, Mutation, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use experiments::{ablation_row, all as run_all_experiments, copy_census, AblationRow, ExpCfg};
pub use graph::{graph_topology, partition_rings, GraphEdge, RingGraph};
pub use scenario::{HostLoad, Network, Scenario};
pub use testbed::{DropRec, Roles, Testbed};
pub use topology::{Bus, CtmsRouter, Measurements, ShardedBus, Topology};
