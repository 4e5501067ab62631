//! Umbrella crate: re-exports the workspace for examples and integration
//! tests. See README.md for the tour.

#![deny(unsafe_code)]

pub use ac_chaos as chaos;
pub use ac_cluster as cluster;
pub use ac_commit as commit;
pub use ac_consensus as consensus;
pub use ac_harness as harness;
pub use ac_net as net;
pub use ac_obs as obs;
pub use ac_runtime as runtime;
pub use ac_sim as sim;
pub use ac_txn as txn;
