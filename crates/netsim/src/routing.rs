//! Shortest-path ECMP routing.
//!
//! Routes are precomputed: for every (node, destination host) pair the
//! table holds every port that lies on a shortest path. Per-flow ECMP picks
//! one port by hashing the flow id with the node id, so a flow is pinned to
//! one path (no reordering from multipathing) while flows spread across
//! paths.
//!
//! **Precondition: every host has exactly one NIC link, and it leads to a
//! switch** (`Sim::new` meets it by building this table first). That makes
//! one representation exact for every topology: a host's route to any other
//! host is its one up-port, and a switch's routes to a host are its routes
//! to the host's attachment (ToR) switch — except at the ToR itself, which
//! takes its port down to the host. So the table keeps one BFS per *ToR*
//! over the switch-only graph: O(switches × ToRs) rows instead of
//! O(nodes × hosts), stored as CSR (compressed sparse rows) — one `start`
//! offset per row into one flat `ports` array — beside one `Attach` record
//! per node. A lookup is three dependent loads: the destination's record,
//! `start[slot]`, then `ports`.
//!
//! The build allocates a fixed few arrays whatever the fabric: it reads the
//! links as a CSR [`Adjacency`] (the one `Sim::new` builds its ports from),
//! turns them into a CSR reverse adjacency over the switches, and runs
//! every ToR's BFS through one queue and one candidate buffer, whose
//! candidates a counting sort scatters straight into the rows.
//!
//! Candidate *order* is load-bearing (golden traces pin ECMP picks): the BFS
//! expands its frontier in (node-ascending, port-order) sequence, the order
//! of the dense per-host BFS this table replaced. `tests` keeps that dense
//! BFS as the reference every topology constructor and a fleet of random
//! fabrics are checked against.

use crate::packet::{FlowId, NodeId};
use crate::topology::Adjacency;

/// Precomputed next-hop table.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    /// One record per node.
    nodes: Vec<Attach>,
    /// Row offsets into `ports`: the candidates of switch `sw` toward the
    /// hosts of the ToR whose rows begin at `row` are
    /// `ports[start[row + sw]..start[row + sw + 1]]`.
    start: Vec<u32>,
    ports: Vec<u16>,
    salt: u64,
}

/// Where a node sits in the table: a switch uses `sw` only, a host the
/// other four fields.
#[derive(Clone, Copy, Debug)]
struct Attach {
    /// Dense switch index; [`HOST`] marks a host.
    sw: u32,
    /// The host's ToR switch.
    tor: NodeId,
    /// First row of the host's ToR: its dense index × the switch count.
    row: u32,
    /// The host's one egress port.
    up: u16,
    /// The ToR's port down to this host.
    down: u16,
}

/// `Attach::sw` of a host.
const HOST: u32 = u32::MAX;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

impl RoutingTable {
    /// Build from a topology's links ([`crate::Topology::csr`]).
    /// `is_host[node]` marks hosts (hosts never forward).
    ///
    /// # Panics
    /// Panics unless every host has exactly one link, to a switch.
    pub fn new(adj: &Adjacency, is_host: &[bool], salt: u64) -> Self {
        let ports = |node: usize| {
            let links = adj.ports(node).iter().enumerate();
            links.map(|(port, l)| (port as u16, l.peer))
        };
        Self::from_ports(adj.num_nodes(), ports, is_host, salt)
    }

    /// Build from an adjacency list: `adj[node]` = `(port, peer)` pairs.
    /// The construction of [`Self::new`] behind a thin adapter, kept
    /// because the frozen `ppbench/src/kernels.rs` calls it (ROADMAP item
    /// 3(a)).
    ///
    /// # Panics
    /// As [`Self::new`].
    pub fn build(adj: &[Vec<(u16, NodeId)>], is_host: &[bool], salt: u64) -> Self {
        Self::from_ports(adj.len(), |node| adj[node].iter().copied(), is_host, salt)
    }

    /// The one construction: `ports(node)` lists `node`'s `(port, peer)`
    /// pairs in port order.
    fn from_ports<I>(n: usize, ports: impl Fn(usize) -> I, is_host: &[bool], salt: u64) -> Self
    where
        I: Iterator<Item = (u16, NodeId)>,
    {
        let mut nodes = vec![
            Attach {
                sw: HOST,
                tor: 0,
                row: 0,
                up: 0,
                down: 0,
            };
            n
        ];
        let mut num_sw = 0u32;
        for (a, _) in nodes.iter_mut().zip(is_host).filter(|(_, h)| !**h) {
            a.sw = num_sw;
            num_sw += 1;
        }
        // ToRs (dense switch indices) in the order their first host comes,
        // and each ToR's first row once it has one.
        let mut tors = Vec::new();
        let mut row_of = vec![HOST; num_sw as usize];
        for node in (0..n).filter(|&node| is_host[node]) {
            let mut links = ports(node);
            let (Some((up, tor)), None) = (links.next(), links.next()) else {
                panic!(
                    "host {node} has {} links; every host needs exactly one NIC link",
                    ports(node).count()
                );
            };
            assert!(!is_host[tor as usize], "host {node} attaches to host {tor}");
            // The ToR's port back down to this host.
            let down = ports(tor as usize)
                .find(|&(_, peer)| peer as usize == node)
                .map(|(port, _)| port)
                .expect("host link must be bidirectional");
            let sw = nodes[tor as usize].sw as usize;
            if row_of[sw] == HOST {
                row_of[sw] = tors.len() as u32 * num_sw;
                tors.push(sw);
            }
            nodes[node] = Attach {
                sw: HOST,
                tor,
                row: row_of[sw],
                up,
                down,
            };
        }
        let num_sw = num_sw as usize;

        // Reverse adjacency over the switches, CSR: `radj[rstart[w]..
        // rstart[w + 1]]` are the `(switch, port)` pairs whose port leads to
        // switch `w`, in (switch-ascending, port-order) order — the
        // expansion order the candidate lists (and golden traces) depend
        // on. Hosts never forward, so their links stay out.
        let switches = || (0..n).filter(move |&node| !is_host[node]);
        let switch_links =
            |node: usize| ports(node).filter(move |&(_, peer)| !is_host[peer as usize]);
        let mut rstart = vec![0u32; num_sw + 1];
        for node in switches() {
            for (_, peer) in switch_links(node) {
                rstart[nodes[peer as usize].sw as usize + 1] += 1;
            }
        }
        let mut total = 0;
        for s in &mut rstart {
            total += *s;
            *s = total;
        }
        // `next[w]`: where the next pair into switch `w` goes; in the BFS
        // below, where the next candidate of switch `w`'s row goes.
        let mut next = rstart[..num_sw].to_vec();
        let mut radj = vec![(0u32, 0u16); total as usize];
        for node in switches() {
            for (port, peer) in switch_links(node) {
                let w = nodes[peer as usize].sw as usize;
                radj[next[w] as usize] = (nodes[node].sw, port);
                next[w] += 1;
            }
        }

        // One BFS per ToR over the switches, its rows appended in switch
        // order. A BFS reaches a switch from one level only, so that level's
        // edges into it are its whole candidate list, in expansion order:
        // the BFS gathers every candidate `(switch, port)` in that order,
        // and a stable counting sort by switch scatters them into the rows.
        let mut start = Vec::with_capacity(tors.len() * num_sw + 1);
        start.push(0u32);
        let mut table: Vec<u16> = Vec::new();
        let mut dist = vec![u32::MAX; num_sw];
        let mut queue: Vec<u32> = Vec::with_capacity(num_sw);
        let mut cands: Vec<(u32, u16)> = Vec::new();
        for &tor in &tors {
            dist.fill(u32::MAX);
            dist[tor] = 0;
            queue.clear();
            queue.push(tor as u32);
            cands.clear();
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                let d = dist[u] + 1;
                for &(w, port) in &radj[rstart[u] as usize..rstart[u + 1] as usize] {
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = d;
                        queue.push(w);
                    }
                    if dist[w as usize] == d {
                        cands.push((w, port));
                    }
                }
            }
            next.fill(0);
            for &(w, _) in &cands {
                next[w as usize] += 1;
            }
            let mut end = table.len();
            for slot in &mut next {
                let len = *slot as usize;
                *slot = end as u32;
                end += len;
                start.push(u32::try_from(end).expect("routing table outgrew u32 offsets"));
            }
            table.resize(end, 0);
            for &(w, port) in &cands {
                let at = &mut next[w as usize];
                table[*at as usize] = port;
                *at += 1;
            }
        }
        table.shrink_to_fit();
        RoutingTable {
            nodes,
            start,
            ports: table,
            salt,
        }
    }

    /// All ECMP candidate ports at `node` toward host `dst`.
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[u16] {
        let at = &self.nodes[node as usize];
        let to = &self.nodes[dst as usize];
        if node == dst || to.sw != HOST {
            return &[];
        }
        if at.sw == HOST {
            // A host's only port is its route to everything else.
            return std::slice::from_ref(&at.up);
        }
        if node == to.tor {
            return std::slice::from_ref(&to.down);
        }
        let slot = (to.row + at.sw) as usize;
        &self.ports[self.start[slot] as usize..self.start[slot + 1] as usize]
    }

    /// The ECMP-selected port for `flow` at `node` toward `dst`.
    ///
    /// # Panics
    /// Panics when `dst` is unreachable from `node`.
    pub fn port_for(&self, node: NodeId, dst: NodeId, flow: FlowId) -> u16 {
        let cands = self.candidates(node, dst);
        assert!(!cands.is_empty(), "no route from node {node} to host {dst}");
        if cands.len() == 1 {
            return cands[0];
        }
        let h = mix(self.salt ^ (flow as u64) << 20 ^ node as u64);
        cands[(h % cands.len() as u64) as usize]
    }

    /// Heap bytes the table holds: capacity × element size of its arrays.
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<Attach>()
            + self.start.capacity() * size_of::<u32>()
            + self.ports.capacity() * size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeKind, ThreeTierWanSpec, Topology};
    use proptest::prelude::*;
    use simcore::{Rate, SimRng, Time};

    /// `RoutingTable::build`'s inputs: the adjacency list and the host mask.
    type Inputs = (Vec<Vec<(u16, NodeId)>>, Vec<bool>);

    fn inputs(t: &Topology) -> Inputs {
        let is_host = t.kinds.iter().map(|k| *k == NodeKind::Host).collect();
        (t.adjacency(), is_host)
    }

    fn gbps(g: u64) -> Rate {
        Rate::from_gbps(g)
    }

    fn us1() -> Time {
        Time::from_us(1)
    }

    /// Reverse adjacency: `radj[peer]` = `(node, port)` pairs such that
    /// `adj[node]` contains `(port, peer)`, in (node-ascending, port-order)
    /// order.
    fn reverse_adj(adj: &[Vec<(u16, NodeId)>]) -> Vec<Vec<(NodeId, u16)>> {
        let mut radj = vec![Vec::new(); adj.len()];
        for (node, ports) in adj.iter().enumerate() {
            for &(port, peer) in ports {
                radj[peer as usize].push((node as NodeId, port));
            }
        }
        radj
    }

    /// The reference: the dense `next[node][dst]` table the simulator used
    /// below 512 nodes until the CSR table replaced it — one reverse BFS per
    /// destination host, rooted at the host itself. It needs no single-NIC
    /// precondition, so on a disconnected fabric it also leaves a host's
    /// entry toward an unreachable host empty, where the table answers the
    /// host's up-port and the switch behind it has no route.
    fn reference(adj: &[Vec<(u16, NodeId)>], is_host: &[bool]) -> Vec<Vec<Vec<u16>>> {
        let n = adj.len();
        let radj = reverse_adj(adj);
        let mut next = vec![vec![Vec::new(); n]; n];
        for (dst, _) in is_host.iter().enumerate().filter(|(_, h)| **h) {
            let mut dist = vec![u32::MAX; n];
            dist[dst] = 0;
            let mut frontier = vec![dst];
            while !frontier.is_empty() {
                let mut nf = Vec::new();
                for &u in &frontier {
                    // Hosts never forward traffic: only the destination host
                    // itself may be an intermediate BFS root.
                    if u != dst && is_host[u] {
                        continue;
                    }
                    for &(node, port) in &radj[u] {
                        let node = node as usize;
                        let cand = dist[u] + 1;
                        if dist[node] > cand {
                            if dist[node] == u32::MAX {
                                nf.push(node);
                            }
                            dist[node] = cand;
                            next[node][dst].clear();
                            next[node][dst].push(port);
                        } else if dist[node] == cand && !next[node][dst].contains(&port) {
                            next[node][dst].push(port);
                        }
                    }
                }
                frontier = nf;
            }
        }
        next
    }

    /// Every (node, dst) pair's ordered candidate list equals the
    /// reference's, and so does the ECMP pick of 64 flows on every routed
    /// pair.
    fn check_against_reference(
        adj: &[Vec<(u16, NodeId)>],
        is_host: &[bool],
        salt: u64,
    ) -> Result<(), TestCaseError> {
        let rt = RoutingTable::build(adj, is_host, salt);
        let want = reference(adj, is_host);
        for (node, row) in want.iter().enumerate() {
            for (dst, cands) in row.iter().enumerate() {
                let (node, dst) = (node as NodeId, dst as NodeId);
                prop_assert_eq!(
                    rt.candidates(node, dst),
                    cands.as_slice(),
                    "candidate order diverged at node {} -> dst {}",
                    node,
                    dst
                );
                if cands.is_empty() {
                    continue;
                }
                for flow in 0..64u32 {
                    let h = mix(salt ^ (flow as u64) << 20 ^ node as u64);
                    prop_assert_eq!(
                        rt.port_for(node, dst, flow),
                        cands[(h % cands.len() as u64) as usize],
                        "flow {} at node {} -> dst {}",
                        flow,
                        node,
                        dst
                    );
                }
            }
        }
        Ok(())
    }

    /// `t`'s table matches the reference, and `new` over the topology's CSR
    /// adjacency builds exactly the table `build` builds from the list.
    fn check_topology(t: &Topology, salt: u64) -> Result<(), TestCaseError> {
        let (adj, is_host) = inputs(t);
        let from_csr = RoutingTable::new(&t.csr(), &is_host, salt);
        let from_list = RoutingTable::build(&adj, &is_host, salt);
        prop_assert_eq!(
            format!("{from_csr:?}"),
            format!("{from_list:?}"),
            "new and build disagree"
        );
        check_against_reference(&adj, &is_host, salt)
    }

    fn assert_matches_reference(t: &Topology, salt: u64) {
        if let Err(e) = check_topology(t, salt) {
            panic!("{e}");
        }
    }

    /// A 4-node line: h0 - s1 - s2 - h3 (hosts at the ends).
    fn line() -> Inputs {
        let adj = vec![
            vec![(0, 1)],         // h0 -> s1
            vec![(0, 0), (1, 2)], // s1 -> h0, s2
            vec![(0, 1), (1, 3)], // s2 -> s1, h3
            vec![(0, 2)],         // h3 -> s2
        ];
        let is_host = vec![true, false, false, true];
        (adj, is_host)
    }

    #[test]
    fn line_routes_forward() {
        let (adj, is_host) = line();
        let rt = RoutingTable::build(&adj, &is_host, 0);
        assert_eq!(rt.port_for(0, 3, 7), 0);
        assert_eq!(rt.port_for(1, 3, 7), 1);
        assert_eq!(rt.port_for(2, 3, 7), 1);
        assert_eq!(rt.port_for(2, 0, 7), 0);
        assert_eq!(rt.port_for(1, 0, 7), 0);
    }

    /// A wide ECMP fan: host `src` - ingress switch - `n` parallel middle
    /// switches - egress switch - host `dst`. The ingress's ports `0..n`
    /// lead into the fan. Returns the table inputs, the ingress and `dst`.
    fn fan(n: usize) -> (Inputs, NodeId, NodeId) {
        let mut t = Topology::new();
        let src = t.add_host();
        let dst = t.add_host();
        let ingress = t.add_switch();
        let egress = t.add_switch();
        for _ in 0..n {
            let mid = t.add_switch();
            t.connect(ingress, mid, gbps(100), us1());
            t.connect(mid, egress, gbps(100), us1());
        }
        t.connect(src, ingress, gbps(100), us1());
        t.connect(egress, dst, gbps(100), us1());
        (inputs(&t), ingress, dst)
    }

    #[test]
    fn ecmp_uses_both_paths_and_is_per_flow_stable() {
        let ((adj, is_host), ingress, dst) = fan(2);
        let rt = RoutingTable::build(&adj, &is_host, 42);
        assert_eq!(rt.candidates(ingress, dst).len(), 2);
        let mut used = std::collections::BTreeSet::new();
        for f in 0..64u32 {
            let p = rt.port_for(ingress, dst, f);
            assert_eq!(p, rt.port_for(ingress, dst, f), "per-flow stability");
            used.insert(p);
        }
        assert_eq!(used.len(), 2, "both ECMP paths used across flows");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_panics() {
        // Two islands: h0 - s2 and h1 - s3, with no link between them.
        let adj = vec![vec![(0, 2)], vec![(0, 3)], vec![(0, 0)], vec![(0, 1)]];
        let is_host = vec![true, true, false, false];
        let rt = RoutingTable::build(&adj, &is_host, 0);
        rt.port_for(2, 1, 0);
    }

    #[test]
    fn hash_is_stable_across_table_rebuilds() {
        // The selection must be a pure function of (salt, node, flow), not
        // of construction order or table identity: rebuilding the same
        // topology reproduces every flow's path exactly.
        let ((adj, is_host), ingress, dst) = fan(8);
        let a = RoutingTable::build(&adj, &is_host, 1234);
        let b = RoutingTable::build(&adj, &is_host, 1234);
        for f in 0..256u32 {
            assert_eq!(
                a.port_for(ingress, dst, f),
                b.port_for(ingress, dst, f),
                "flow {f}"
            );
        }
    }

    #[test]
    fn wide_fan_coverage_is_roughly_balanced() {
        let ((adj, is_host), ingress, dst) = fan(8);
        let rt = RoutingTable::build(&adj, &is_host, 7);
        assert_eq!(rt.candidates(ingress, dst).len(), 8);
        let mut count = [0usize; 8];
        const FLOWS: usize = 1024;
        for f in 0..FLOWS as u32 {
            count[rt.port_for(ingress, dst, f) as usize] += 1;
        }
        // Every path is used, and no path gets less than a quarter or more
        // than double its fair share (a loose bound; the hash is not
        // cryptographic but must not collapse onto a few ports).
        let fair = FLOWS / 8;
        for (p, &c) in count.iter().enumerate() {
            assert!(c >= fair / 4, "port {p} starved: {c}/{FLOWS}");
            assert!(c <= fair * 2, "port {p} overloaded: {c}/{FLOWS}");
        }
    }

    #[test]
    fn salt_remaps_flow_placement() {
        let ((adj, is_host), ingress, dst) = fan(8);
        let a = RoutingTable::build(&adj, &is_host, 1);
        let b = RoutingTable::build(&adj, &is_host, 2);
        let moved = (0..256u32)
            .filter(|&f| a.port_for(ingress, dst, f) != b.port_for(ingress, dst, f))
            .count();
        assert!(moved > 64, "changing the salt moved only {moved}/256 flows");
    }

    #[test]
    fn fat_tree_shortest_path_candidate_counts() {
        // k=4 fat-tree: hosts 0..16, edges/aggs/cores after. From an edge
        // switch, a remote-pod host is reachable through every aggregation
        // switch of the pod (k/2 ways); a directly attached host has exactly
        // one port; an aggregation switch fans out over k/2 cores.
        let (adj, is_host) = inputs(&Topology::fat_tree(4, gbps(100), us1()));
        let rt = RoutingTable::build(&adj, &is_host, 0);
        // Layout: 16 hosts, then per pod edges followed by aggs:
        // pod 0 edges 16,17 aggs 18,19; pod 1 edges 20,21 aggs 22,23; ...
        let pod0_edge = 16 as NodeId;
        let pod0_agg = 18 as NodeId;
        let local_host = 0 as NodeId; // host 0 hangs off pod 0 edge 0
        let remote_host = 15 as NodeId; // last host, pod 3
        assert_eq!(rt.candidates(pod0_edge, local_host).len(), 1);
        assert_eq!(
            rt.candidates(pod0_edge, remote_host).len(),
            2,
            "k/2 aggs up from an edge"
        );
        assert_eq!(
            rt.candidates(pod0_agg, remote_host).len(),
            2,
            "k/2 cores up from an agg"
        );
        // Flows spread over both uplinks at the edge.
        let used: std::collections::BTreeSet<u16> = (0..64u32)
            .map(|f| rt.port_for(pod0_edge, remote_host, f))
            .collect();
        assert_eq!(used.len(), 2, "both edge uplinks carry traffic");
    }

    #[test]
    fn compressed_matches_exact_single_switch_chain_and_ring() {
        assert_matches_reference(&Topology::single_switch(8, gbps(100), us1()), 3);
        assert_matches_reference(&Topology::chain(1, gbps(100), us1()), 4);
        assert_matches_reference(&Topology::chain(10, gbps(100), us1()), 5);
        assert_matches_reference(&Topology::ring(5, gbps(100), us1()), 6);
        assert_matches_reference(&Topology::ring(6, gbps(100), us1()), 7);
    }

    #[test]
    fn compressed_matches_exact_fat_tree() {
        assert_matches_reference(&Topology::fat_tree(4, gbps(100), us1()), 0x5EED);
        assert_matches_reference(&Topology::fat_tree(8, gbps(100), us1()), 0xF8);
    }

    #[test]
    fn compressed_matches_exact_leaf_spine() {
        let t = Topology::leaf_spine(4, 3, 4, gbps(100), gbps(400), us1());
        assert_matches_reference(&t, 0xB0B);
        let t = Topology::leaf_spine(2, 5, 3, gbps(25), gbps(100), us1());
        assert_matches_reference(&t, 0xB0C);
    }

    #[test]
    fn compressed_matches_exact_testbed_tree() {
        assert_matches_reference(&Topology::testbed_tree(), 7);
    }

    #[test]
    fn compressed_matches_exact_three_tier_wan_tiny() {
        assert_matches_reference(&Topology::three_tier_wan(&ThreeTierWanSpec::tiny()), 0xDC);
    }

    /// A random connected switch fabric with single-NIC hosts: a random
    /// spanning tree over the switches plus extra links (parallel ones
    /// included), each host on a random switch, node ids shuffled between
    /// hosts and switches, links added in random order (which numbers the
    /// ports).
    fn random_fabric(seed: u64, switches: usize, hosts: usize) -> Topology {
        let mut rng = SimRng::new(seed);
        let mut kinds = vec![NodeKind::Host; hosts];
        kinds.resize(hosts + switches, NodeKind::Switch);
        rng.shuffle(&mut kinds);
        let mut t = Topology::new();
        let (mut sws, mut hs) = (Vec::new(), Vec::new());
        for kind in kinds {
            match kind {
                NodeKind::Host => hs.push(t.add_host()),
                NodeKind::Switch => sws.push(t.add_switch()),
            }
        }
        let mut links = Vec::new();
        for i in 1..switches {
            links.push((sws[i], sws[rng.choose_index(i)]));
        }
        let pick = |rng: &mut SimRng| sws[rng.choose_index(switches)];
        for _ in 0..rng.choose_index(2 * switches) {
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            if a != b {
                links.push((a, b));
            }
        }
        links.extend(hs.iter().map(|&h| (h, pick(&mut rng))));
        rng.shuffle(&mut links);
        for (a, b) in links {
            t.connect(a, b, gbps(100), us1());
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        #[test]
        fn compressed_matches_exact_on_random_fabrics(
            seed in 0u64..u64::MAX,
            switches in 1usize..13,
            hosts in 1usize..17,
        ) {
            check_topology(&random_fabric(seed, switches, hosts), seed)?;
        }
    }

    /// The table stays small on every fabric the simulator runs. Measured
    /// heap bytes (capacity × element size) of this CSR table, against the
    /// tables it replaced (dense `next[node][dst]` up to 512 nodes, a `Vec`
    /// per ToR row above):
    /// - `fat_tree(8)`: 29,956 (dense 1,255,296);
    /// - `fat_tree(16)`: 709,636 (per-row 1,585,472);
    /// - `single_switch(64)`: 1,064 (dense 139,928);
    /// - `three_tier_wan(tiny)`: 1,956 (dense 40,304).
    ///
    /// Bounds are 2× the CSR figures.
    #[test]
    fn routing_table_stays_compact() {
        let (r, p) = (gbps(100), us1());
        for (name, t, measured) in [
            ("fat_tree(8)", Topology::fat_tree(8, r, p), 29_956),
            ("fat_tree(16)", Topology::fat_tree(16, r, p), 709_636),
            (
                "single_switch(64)",
                Topology::single_switch(64, r, p),
                1_064,
            ),
            (
                "three_tier_wan(tiny)",
                Topology::three_tier_wan(&ThreeTierWanSpec::tiny()),
                1_956,
            ),
        ] {
            let (adj, is_host) = inputs(&t);
            let b = RoutingTable::build(&adj, &is_host, 0).resident_bytes();
            assert!(
                b <= 2 * measured,
                "{name}: routing table grew to {b} B (measured {measured} B)"
            );
        }
    }
}
