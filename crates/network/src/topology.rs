//! Network topology: which latency class applies to a pair of actors.
//!
//! SharPer assigns nodes to clusters "mainly based on their geographical
//! distance" (§2.2), so links inside a cluster are fast and links across
//! clusters are slow. Clients are homed near one cluster (in the paper's
//! evaluation, the load is spread evenly over the clusters).

use crate::actor::{ActorId, ActorTable};
use sharper_common::{ClientId, ClusterId, LinkKind, NodeId, SystemConfig};

/// Maps actors to locations and pairs of actors to [`LinkKind`]s.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    /// The cluster of each replica and the home cluster of each client.
    /// Classifying a link — done for every message the simulator sends —
    /// reads it twice.
    locations: ActorTable<ClusterId>,
    nodes: usize,
    clients: usize,
}

impl Topology {
    /// Builds the replica side of the topology from a system configuration.
    pub fn from_config(config: &SystemConfig) -> Self {
        let mut topology = Self::default();
        for cluster in config.cluster_ids() {
            for &node in config.members(cluster).expect("cluster exists") {
                topology.add_node(node, cluster);
            }
        }
        topology
    }

    /// Registers a replica as a member of `cluster` (used by deployments that
    /// are not described by a `SystemConfig`, e.g. the baseline systems).
    pub fn add_node(&mut self, node: NodeId, cluster: ClusterId) {
        if self.locations.insert(node.into(), cluster).is_none() {
            self.nodes += 1;
        }
    }

    /// Registers a client as homed next to `cluster`.
    pub fn add_client(&mut self, client: ClientId, cluster: ClusterId) {
        if self.locations.insert(client.into(), cluster).is_none() {
            self.clients += 1;
        }
    }

    /// Registers a client (builder style).
    pub fn with_client(mut self, client: ClientId, cluster: ClusterId) -> Self {
        self.add_client(client, cluster);
        self
    }

    /// The cluster a replica belongs to, if known.
    pub fn cluster_of_node(&self, node: NodeId) -> Option<ClusterId> {
        self.locations.get(node.into())
    }

    /// The home cluster of a client, if known.
    pub fn home_of_client(&self, client: ClientId) -> Option<ClusterId> {
        self.locations.get(client.into())
    }

    /// The location (cluster) of any actor, if known.
    pub fn location(&self, actor: ActorId) -> Option<ClusterId> {
        self.locations.get(actor)
    }

    /// Classifies the link between two actors.
    ///
    /// * a node talking to itself → [`LinkKind::Local`],
    /// * any link with a client endpoint → [`LinkKind::ClientToNode`],
    /// * two replicas of the same cluster → [`LinkKind::IntraCluster`],
    /// * otherwise → [`LinkKind::CrossCluster`].
    pub fn link_kind(&self, from: ActorId, to: ActorId) -> LinkKind {
        if from == to {
            return LinkKind::Local;
        }
        match (from, to) {
            (ActorId::Client(_), _) | (_, ActorId::Client(_)) => LinkKind::ClientToNode,
            (ActorId::Node(a), ActorId::Node(b)) => {
                match (self.cluster_of_node(a), self.cluster_of_node(b)) {
                    (Some(ca), Some(cb)) if ca == cb => LinkKind::IntraCluster,
                    _ => LinkKind::CrossCluster,
                }
            }
        }
    }

    /// Number of registered replicas.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.clients
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharper_common::FailureModel;

    fn topology() -> Topology {
        let cfg = SystemConfig::uniform(FailureModel::Crash, 2, 1).unwrap();
        Topology::from_config(&cfg)
            .with_client(ClientId(0), ClusterId(0))
            .with_client(ClientId(1), ClusterId(1))
    }

    #[test]
    fn nodes_are_mapped_to_their_clusters() {
        let t = topology();
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.client_count(), 2);
        assert_eq!(t.cluster_of_node(NodeId(0)), Some(ClusterId(0)));
        assert_eq!(t.cluster_of_node(NodeId(5)), Some(ClusterId(1)));
        assert_eq!(t.cluster_of_node(NodeId(99)), None);
        assert_eq!(t.home_of_client(ClientId(1)), Some(ClusterId(1)));
        assert_eq!(t.location(ActorId::Node(NodeId(4))), Some(ClusterId(1)));
        assert_eq!(t.location(ActorId::Client(ClientId(0))), Some(ClusterId(0)));
    }

    #[test]
    fn link_classification() {
        let t = topology();
        let n0 = ActorId::Node(NodeId(0));
        let n1 = ActorId::Node(NodeId(1));
        let n3 = ActorId::Node(NodeId(3));
        let c0 = ActorId::Client(ClientId(0));
        assert_eq!(t.link_kind(n0, n0), LinkKind::Local);
        assert_eq!(t.link_kind(n0, n1), LinkKind::IntraCluster);
        assert_eq!(t.link_kind(n0, n3), LinkKind::CrossCluster);
        assert_eq!(t.link_kind(c0, n0), LinkKind::ClientToNode);
        assert_eq!(t.link_kind(n3, c0), LinkKind::ClientToNode);
    }

    #[test]
    fn unknown_nodes_default_to_cross_cluster() {
        let t = topology();
        let known = ActorId::Node(NodeId(0));
        let unknown = ActorId::Node(NodeId(77));
        assert_eq!(t.link_kind(known, unknown), LinkKind::CrossCluster);
    }
}
