//! The world: the cluster plus rank bookkeeping.

use cluster_sim::Cluster;
use std::sync::Arc;

/// An MPI world: the cluster plus rank bookkeeping. Create once per run;
/// run it with [`World::run_event_workers`].
pub struct World {
    pub(crate) cluster: Arc<Cluster>,
}

impl World {
    /// A world sized by the cluster's rank count.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        World { cluster }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.cluster.ranks()
    }
}
