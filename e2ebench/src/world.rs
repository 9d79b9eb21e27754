//! One simulated deployment built from a [`Plan`] and driven from
//! outside: every control-plane call is timed (and, when tracing,
//! wrapped in a span); every counter is read through public API.

use crate::plan::{Plan, ACCESS_QUEUE_BYTES, ACCESS_RATE_BPS};
use crate::trace::{Kind, Spans};
use scallop_client::{ClientConfig, ClientNode};
use scallop_core::capacity::AdmissionDecision;
use scallop_core::controller::{GlobalMeetingId, GlobalParticipantId};
use scallop_core::fabric::Fabric;
use scallop_core::shard::ShardedControlPlane;
use scallop_dataplane::seqrewrite::SeqRewriteMode;
use scallop_netsim::link::LinkConfig;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::sim::{NodeId, Simulator};
use scallop_netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

/// A control-plane call kind (timed and counted separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `create_fabric_meeting`.
    Create,
    /// `join_fabric` / `try_join_fabric`.
    Join,
    /// `leave_fabric`.
    Leave,
    /// `rebalance_fabric`.
    Rebalance,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Create => "ctrl.create",
            Op::Join => "ctrl.join",
            Op::Leave => "ctrl.leave",
            Op::Rebalance => "ctrl.rebalance",
        }
    }
}

/// Wall time of every control-plane call, in nanoseconds, by kind.
#[derive(Debug, Default, Clone)]
pub struct CtrlTimes {
    /// Meeting creations.
    pub create: Vec<f64>,
    /// Joins.
    pub join: Vec<f64>,
    /// Leaves.
    pub leave: Vec<f64>,
    /// Rebalance passes (one per meeting visited).
    pub rebalance: Vec<f64>,
}

impl CtrlTimes {
    fn push(&mut self, op: Op, ns: f64) {
        match op {
            Op::Create => self.create.push(ns),
            Op::Join => self.join.push(ns),
            Op::Leave => self.leave.push(ns),
            Op::Rebalance => self.rebalance.push(ns),
        }
    }

    /// Calls made, all kinds.
    pub fn calls(&self) -> usize {
        self.create.len() + self.join.len() + self.leave.len() + self.rebalance.len()
    }

    /// Wall nanoseconds spent in calls, all kinds.
    pub fn total_ns(&self) -> f64 {
        [&self.create, &self.join, &self.leave, &self.rebalance]
            .iter()
            .flat_map(|v| v.iter())
            .sum()
    }
}

/// One participant as the benchmark tracks it.
#[derive(Debug, Clone)]
pub struct Member {
    /// Meeting index (into [`World::gmids`]).
    pub meeting: usize,
    /// Edge switch it attaches to.
    pub edge: usize,
    /// Camera on.
    pub sends: bool,
    /// Its address.
    pub ip: Ipv4Addr,
    /// One-way propagation of each access link.
    pub prop: SimDuration,
    /// Fabric-wide participant id.
    pub global: GlobalParticipantId,
    /// Where it sends video and audio.
    pub uplinks: (HostAddr, HostAddr),
    /// What admission answered (plain joins count as `Admitted`).
    pub decision: AdmissionDecision,
    /// Its client node, once created.
    pub node: Option<NodeId>,
    /// Simulated time its client node started.
    pub started: SimTime,
    /// Still in its meeting.
    pub live: bool,
}

/// Switch-resource occupancy of one edge (compared before the first
/// join and after teardown).
pub type Occupancy = [usize; 7];

/// The deployment.
pub struct World {
    /// The simulator.
    pub sim: Simulator,
    /// The fabric's switches.
    pub fabric: Fabric,
    /// The sharded control plane.
    pub plane: ShardedControlPlane,
    /// Fabric meeting ids, by meeting index.
    pub gmids: Vec<GlobalMeetingId>,
    /// Home edge each meeting was created on, by meeting index.
    pub homes: Vec<usize>,
    /// Every participant ever joined, in join order.
    pub members: Vec<Member>,
    /// Control-plane call timings.
    pub ctrl: CtrlTimes,
    /// Spans (recording only in traced rounds).
    pub spans: Spans,
}

/// Client address plan: 10.64.0.1 upwards, clear of the switch plan.
fn client_ip(idx: usize) -> Ipv4Addr {
    Ipv4Addr::new(
        10,
        64 + (idx / 62_500) as u8,
        ((idx / 250) % 250) as u8,
        (idx % 250 + 1) as u8,
    )
}

fn access_link(prop: SimDuration) -> LinkConfig {
    LinkConfig::infinite(prop)
        .with_rate(ACCESS_RATE_BPS)
        .with_queue_bytes(ACCESS_QUEUE_BYTES)
}

impl World {
    /// Simulator, fabric and control plane (the `setup.fabric` phase).
    pub fn build(plan: &Plan, spans: Spans) -> World {
        let mut sim = Simulator::new(plan.sim_seed);
        sim.set_workers(1);
        let fabric = Fabric::build(
            &mut sim,
            plan.topology.clone(),
            LinkConfig::infinite(SimDuration::from_micros(50)),
            SeqRewriteMode::LowRetransmission,
        );
        let mut plane = ShardedControlPlane::new(plan.shards);
        if let Some(budgets) = plan.admission {
            plane.set_capacity_budgets(budgets, &fabric.topology);
        }
        World {
            sim,
            fabric,
            plane,
            gmids: Vec::new(),
            homes: Vec::new(),
            members: Vec::new(),
            ctrl: CtrlTimes::default(),
            spans,
        }
    }

    /// Time one control-plane call (and record its span when tracing).
    fn timed<R>(&mut self, op: Op, f: impl FnOnce(&mut World) -> R) -> R {
        let span = self.spans.open(op.span_name());
        let t = Instant::now();
        let r = f(self);
        let ns = t.elapsed().as_nanos() as f64;
        self.spans.close(span);
        self.ctrl.push(op, ns);
        r
    }

    /// Create a fabric meeting homed on `home`; returns its index.
    pub fn create_meeting(&mut self, home: usize) -> usize {
        let gmid = self.timed(Op::Create, |w| {
            w.plane.create_fabric_meeting(&mut w.sim, &w.fabric, home)
        });
        self.gmids.push(gmid);
        self.homes.push(home);
        self.gmids.len() - 1
    }

    /// Join a participant (admission-checked when `checked`); returns
    /// its member index. The client node is created separately by
    /// [`World::attach`].
    pub fn join(
        &mut self,
        meeting: usize,
        edge: usize,
        sends: bool,
        prop: SimDuration,
        checked: bool,
    ) -> usize {
        let idx = self.members.len();
        let ip = client_ip(idx);
        let addr = HostAddr::new(ip, 5000);
        let gmid = self.gmids[meeting];
        let (decision, grant) = self.timed(Op::Join, |w| {
            if checked {
                w.plane
                    .try_join_fabric(&mut w.sim, &w.fabric, gmid, edge, addr, sends)
            } else {
                let g = w
                    .plane
                    .join_fabric(&mut w.sim, &w.fabric, gmid, edge, addr, sends);
                (AdmissionDecision::Admitted, Some(g))
            }
        });
        let grant = grant.expect("the webinar crowd is sized inside the admission budgets");
        self.members.push(Member {
            meeting,
            edge,
            sends,
            ip,
            prop,
            global: grant.global,
            uplinks: (grant.local.video_uplink, grant.local.audio_uplink),
            decision,
            node: None,
            started: SimTime::ZERO,
            live: true,
        });
        idx
    }

    /// Create member `idx`'s client node.
    pub fn attach(&mut self, idx: usize) {
        let m = &self.members[idx];
        let ssrc = 0x1_0000u32 * (idx as u32 + 1);
        let cfg = if m.sends {
            ClientConfig::sender(m.ip, 5000, ssrc).sending_to(m.uplinks.0, m.uplinks.1)
        } else {
            ClientConfig::receiver_only(m.ip, 5000, ssrc)
        };
        let link = access_link(m.prop);
        let node = self
            .sim
            .add_node(Box::new(ClientNode::new(cfg)), &[m.ip], link, link);
        let started = self.sim.now();
        let m = &mut self.members[idx];
        m.node = Some(node);
        m.started = started;
    }

    /// Member `idx` leaves its meeting; its client goes quiet.
    pub fn leave(&mut self, idx: usize) {
        let gmid = self.gmids[self.members[idx].meeting];
        let global = self.members[idx].global;
        self.timed(Op::Leave, |w| {
            w.plane.leave_fabric(&mut w.sim, &w.fabric, gmid, global)
        });
        if let Some(node) = self.members[idx].node {
            self.client(node).hangup();
        }
        self.members[idx].live = false;
    }

    /// Run the re-homing pass over meeting `meeting`.
    pub fn rebalance(&mut self, meeting: usize) {
        let gmid = self.gmids[meeting];
        self.timed(Op::Rebalance, |w| {
            w.plane.rebalance_fabric(&mut w.sim, &w.fabric, gmid)
        });
    }

    /// A client node.
    pub fn client(&mut self, node: NodeId) -> &mut ClientNode {
        self.sim.node_mut(node).expect("client node")
    }

    /// Occupancy of edge `e` (ports, participants, segments, PRE groups,
    /// L2 XIDs, port rules, egress entries).
    pub fn occupancy(&mut self, e: usize) -> Occupancy {
        let sw = self.fabric.edge_mut(&mut self.sim, e);
        [
            sw.agent.ports_in_use(),
            sw.agent.participants_tracked(),
            sw.agent.meetings_tracked(),
            sw.dp.pre.groups_used(),
            sw.dp.pre.l2_xids_used(),
            sw.dp.port_rules.len(),
            sw.dp.egress.len(),
        ]
    }

    /// Every node id: edges, cores, clients.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        let mut v = self.fabric.edge_ids.clone();
        v.extend(self.fabric.core_ids.iter().copied());
        v.extend(self.members.iter().filter_map(|m| m.node));
        v
    }

    /// Switch kind by address, for attributing trace records (every
    /// other node is a client, including ones that join mid-run).
    pub fn switch_kinds(&self) -> HashMap<Ipv4Addr, Kind> {
        let edges = self
            .fabric
            .topology
            .edges()
            .into_iter()
            .map(|e| (e.ip, Kind::Edge));
        let cores = self
            .fabric
            .topology
            .cores()
            .into_iter()
            .map(|c| (c.ip, Kind::Relay));
        edges.chain(cores).collect()
    }

    /// Where receiver `r` gets sender `s`'s video from (the per-pair SFU
    /// port on the receiver's edge).
    pub fn video_src(&mut self, s: usize, r: usize) -> Option<HostAddr> {
        let gmid = self.gmids[self.members[r].meeting];
        let (edge, s_pid, r_pid) = self.plane.pair_on_receiver_edge(
            gmid,
            self.members[s].global,
            self.members[r].global,
        )?;
        self.fabric
            .edge_mut(&mut self.sim, edge)
            .agent
            .video_pair_addr(s_pid, r_pid)
    }
}
