//! One round of a workload: set up, run the measured phase, check the
//! outputs, tear down. Rounds of one seed are identical, so a run repeats
//! whole rounds and every round attempts the same operations.

use crate::plan::{self, Plan, Workload, ENCODER_FPS, MIN_FPS, WINDOW};
use crate::stats;
use crate::trace::{self, Kind, Span, Spans, StepAcc};
use crate::world::{CtrlTimes, Occupancy, World};
use scallop_client::receiver::StreamRxStats;
use scallop_core::capacity::AdmissionDecision;
use scallop_netsim::packet::HostAddr;
use scallop_netsim::time::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Wall seconds of each set-up phase: population, fabric, joins, clients.
pub type Phases = [f64; 4];

/// What one round measured.
#[derive(Debug)]
pub struct RoundOut {
    /// Wall seconds from input generation to the first simulated instant.
    pub setup_s: f64,
    /// The same, per phase.
    pub phases: Phases,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
    /// Simulated seconds of the measured phase.
    pub sim_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Deterministic counts (identical across rounds of one seed).
    pub counts: BTreeMap<&'static str, u64>,
    /// Every STUN round-trip sample of every client, ms, ascending.
    pub rtt_ms: Vec<f64>,
    /// Control-plane call timings.
    pub ctrl: CtrlTimes,
    /// Data-plane replicas per input packet.
    pub replicas_per_input: f64,
    /// SFU ports in use per member right after set-up (all edges).
    pub ports_per_member: f64,
    /// Rule installs per join during set-up.
    pub installs_per_join: f64,
    /// Per-kind step attribution (traced rounds only).
    pub acc: Option<StepAcc>,
    /// Spans (traced rounds only).
    pub spans: Vec<Span>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

/// Set up `w` at `seed` and stop before the first simulated instant;
/// returns the set-up wall seconds and their phases.
pub fn setup_only(w: Workload, seed: u64) -> (f64, Phases, CtrlTimes) {
    let (world, _plan, setup_s, phases, _occ) = setup(w, seed, Spans::new(false, Instant::now()));
    (setup_s, phases, world.ctrl)
}

/// The set-up of a round, timed by phase.
fn setup(
    w: Workload,
    seed: u64,
    mut spans: Spans,
) -> (World, Plan, f64, Phases, Option<Vec<Occupancy>>) {
    let t0 = Instant::now();
    let root = spans.open("setup");
    let s = spans.open("setup.population");
    let plan = plan::generate(w, seed);
    spans.close(s);
    let t1 = Instant::now();

    let s = spans.open("setup.fabric");
    let mut world = World::build(&plan, spans);
    world.spans.close(s);
    let t2 = Instant::now();

    let s = world.spans.open("setup.joins");
    let checked = plan.admission.is_some();
    let mut before_first_join = None;
    let mut gap = Duration::ZERO;
    for m in &plan.meetings {
        if plan.meetings.len() == 1 {
            // Occupancy before the meeting exists (read outside the timing).
            let g = Instant::now();
            before_first_join = Some(
                (0..world.fabric.edges())
                    .map(|e| world.occupancy(e))
                    .collect(),
            );
            gap += g.elapsed();
        }
        let mi = world.create_meeting(m.home);
        for p in &m.members {
            world.join(mi, p.edge, p.sends, p.prop, checked);
        }
    }
    world.spans.close(s);
    let t3 = Instant::now();

    let s = world.spans.open("setup.clients");
    for idx in 0..world.members.len() {
        world.attach(idx);
    }
    world.spans.close(s);
    world.spans.close(root);
    let t4 = Instant::now();

    let phases = [
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        (t3 - t2 - gap).as_secs_f64(),
        (t4 - t3).as_secs_f64(),
    ];
    let setup_s = (t4 - t0 - gap).as_secs_f64();
    (world, plan, setup_s, phases, before_first_join)
}

/// Per-stream receive stats of `(sender, receiver)` pairs (`None` when
/// the receiver has no such stream).
fn stream_stats(world: &mut World, pairs: &[(usize, usize)]) -> Vec<Option<StreamRxStats>> {
    let mut by_receiver: HashMap<usize, Vec<(HostAddr, StreamRxStats)>> = HashMap::new();
    pairs
        .iter()
        .map(|&(s, r)| {
            let src = world.video_src(s, r)?;
            let node = world.members[r].node?;
            let streams = by_receiver
                .entry(r)
                .or_insert_with(|| world.client(node).stats().streams);
            streams.iter().find(|(a, _)| *a == src).map(|(_, st)| *st)
        })
        .collect()
}

/// Every live (video sender → receiver) pair, meeting by meeting.
fn live_pairs(world: &World) -> Vec<(usize, usize)> {
    let mut by_meeting: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, m) in world.members.iter().enumerate() {
        if m.live {
            by_meeting.entry(m.meeting).or_default().push(i);
        }
    }
    let mut pairs = Vec::new();
    for members in by_meeting.values() {
        for &s in members.iter().filter(|&&s| world.members[s].sends) {
            for &r in members.iter().filter(|&&r| r != s) {
                pairs.push((s, r));
            }
        }
    }
    pairs
}

/// Whether a stream held [`MIN_FPS`] with no freeze between two snapshots.
fn held(a: &Option<StreamRxStats>, b: &Option<StreamRxStats>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            let fps = (b.frames_decoded - a.frames_decoded) as f64 / WINDOW.as_secs_f64();
            fps >= MIN_FPS && b.freezes == a.freezes
        }
        _ => false,
    }
}

/// The measured phase's clock: untraced rounds run the simulator's own
/// loop; traced rounds step it and attribute every step.
struct Clock {
    traced: bool,
    kinds: HashMap<std::net::Ipv4Addr, Kind>,
    acc: StepAcc,
    wall: Duration,
}

impl Clock {
    fn advance(&mut self, world: &mut World, to: SimTime) {
        let t = Instant::now();
        if self.traced {
            trace::step_until(&mut world.sim, to, &self.kinds, &mut self.acc);
        } else {
            world.sim.run_until(to);
        }
        self.wall += t.elapsed();
    }
}

/// Run one round of `w` at `seed`.
pub fn run(w: Workload, seed: u64, traced: bool, epoch: Instant) -> RoundOut {
    let (mut world, plan, setup_s, phases, before_first_join) =
        setup(w, seed, Spans::new(traced, epoch));
    let mut failures = Vec::new();

    // Right after set-up: ports, bookings and installs at their peak.
    let setup_joins = world.ctrl.join.len() as f64;
    let members_at_setup = world.members.len() as f64;
    let mut ports_peak = 0usize;
    let mut booked_peak = 0u64;
    let mut sample_peaks = |world: &mut World| {
        let mut total = 0usize;
        for e in 0..world.fabric.edges() {
            let p = world
                .fabric
                .edge_mut(&mut world.sim, e)
                .agent
                .ports_in_use();
            total += p;
            ports_peak = ports_peak.max(p);
            booked_peak = booked_peak.max(world.plane.ledger_handle().borrow().ports_used(e));
        }
        total
    };
    let ports_at_setup = sample_peaks(&mut world);
    let installs_at_setup = world.fabric.total_counters(&mut world.sim).rule_installs as f64;

    let mut clock = Clock {
        traced,
        kinds: HashMap::new(),
        acc: StepAcc::default(),
        wall: Duration::ZERO,
    };
    if traced {
        trace::arm(&mut world.sim);
        clock.kinds = world.switch_kinds();
    }
    let measure = world.spans.open("measured");

    // Webinar: the pre-wave window of the viewers about to leave, then
    // the wave itself (leave, re-join, one rebalance pass).
    let mut leaver_ok: BTreeMap<usize, bool> = BTreeMap::new();
    if let Some(wave) = plan.wave.clone() {
        clock.advance(&mut world, wave.at - WINDOW);
        let pairs: Vec<(usize, usize)> = wave.leavers.iter().map(|&r| (0, r)).collect();
        let a = stream_stats(&mut world, &pairs);
        clock.advance(&mut world, wave.at);
        let b = stream_stats(&mut world, &pairs);
        for (i, &r) in wave.leavers.iter().enumerate() {
            leaver_ok.insert(r, held(&a[i], &b[i]));
        }
        let t = Instant::now();
        let span = world.spans.open("wave");
        for &r in &wave.leavers {
            world.leave(r);
        }
        for &r in &wave.leavers {
            let (edge, prop) = (world.members[r].edge, world.members[r].prop);
            let idx = world.join(0, edge, false, prop, plan.admission.is_some());
            world.attach(idx);
        }
        world.rebalance(0);
        world.spans.close(span);
        let dt = t.elapsed();
        clock.wall += dt;
        if traced {
            clock.acc.add(Kind::Ctrl, dt.as_nanos() as f64);
        }
        sample_peaks(&mut world);
    }

    // The final window: every live stream must hold its rate.
    clock.advance(&mut world, plan.end - WINDOW);
    let pairs = live_pairs(&world);
    let a = stream_stats(&mut world, &pairs);
    clock.advance(&mut world, plan.end);
    let b = stream_stats(&mut world, &pairs);
    world.spans.close(measure);
    let now = world.sim.now();
    let sim_s = now.as_secs_f64();
    let stream_ok: Vec<bool> = a.iter().zip(&b).map(|(a, b)| held(a, b)).collect();

    // Check: no stream decodes faster than its sender encodes.
    for (&(s, r), st) in pairs.iter().zip(&b) {
        if let Some(st) = st {
            let since = now.saturating_since(world.members[s].started).as_secs_f64();
            let cap = (ENCODER_FPS * since).floor() as u64 + 1;
            if st.frames_decoded > cap {
                failures.push(format!(
                    "stream {s}->{r} decoded {} frames, more than {cap} encoded",
                    st.frames_decoded
                ));
            }
        }
    }

    // Operations.
    let (attempted, failed) = if plan.workload == Workload::WebinarStorm {
        let final_ok: HashMap<usize, bool> = pairs
            .iter()
            .map(|&(_, r)| r)
            .zip(stream_ok.iter().copied())
            .collect();
        let mut attempted = 0u64;
        let mut failed = 0u64;
        for (i, m) in world.members.iter().enumerate() {
            let admitted = m.decision == AdmissionDecision::Admitted;
            if !admitted {
                failures.push(format!(
                    "join {i} was not admitted in full: {:?}",
                    m.decision
                ));
            }
            let stream = if m.sends {
                true
            } else if let Some(&ok) = leaver_ok.get(&i) {
                ok
            } else {
                final_ok.get(&i).copied().unwrap_or(false)
            };
            attempted += 1;
            failed += u64::from(!(admitted && stream));
        }
        attempted += pairs.len() as u64;
        failed += stream_ok.iter().filter(|&&ok| !ok).count() as u64;
        (attempted, failed)
    } else {
        let failed = stream_ok.iter().filter(|&&ok| !ok).count() as u64;
        (pairs.len() as u64, failed)
    };

    // RTT samples, and the check that none beats the access links'
    // propagation round trip.
    let mut rtt_ms = Vec::new();
    for i in 0..world.members.len() {
        let Some(node) = world.members[i].node else {
            continue;
        };
        let floor_ms = 2.0 * world.members[i].prop.as_millis_f64();
        let c = world.client(node);
        let n = c.rtt_samples.count();
        for k in 0..n {
            let x = c
                .rtt_samples
                .quantile((k as f64 + 0.5) / n as f64)
                .expect("non-empty");
            rtt_ms.push(x);
        }
        if let Some(min) = c.rtt_samples.quantile(0.0) {
            if min < floor_ms {
                failures.push(format!(
                    "client {i}: rtt {min} ms below its {floor_ms} ms propagation round trip"
                ));
            }
        }
    }
    let rtt_ms = stats::sorted(rtt_ms);

    // Counts read at the end of the measured phase.
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let dp = world.fabric.total_counters(&mut world.sim);
    counts.insert("netsim.events", world.sim.stats.events);
    counts.insert("netsim.deliveries", world.sim.stats.packets_delivered);
    let mut queue_drops = 0;
    for id in world.all_nodes() {
        queue_drops += world.sim.uplink_mut(id).stats.queue_drops;
        queue_drops += world.sim.downlink_mut(id).stats.queue_drops;
    }
    counts.insert("netsim.queue_drops", queue_drops);
    let (mut frames, mut freezes, mut nacks, mut plis, mut rtx) = (0, 0, 0, 0, 0);
    for i in 0..world.members.len() {
        let Some(node) = world.members[i].node else {
            continue;
        };
        let st = world.client(node).stats();
        for (_, s) in &st.streams {
            frames += s.frames_decoded;
            freezes += s.freezes;
        }
        nacks += st.nacks_sent;
        plis += st.plis_sent;
        rtx += st.sender.retransmissions;
    }
    counts.insert("client.frames_decoded", frames);
    counts.insert("client.freezes", freezes);
    counts.insert("client.nacks_sent", nacks);
    counts.insert("client.plis_sent", plis);
    counts.insert("client.retransmissions", rtx);
    counts.insert("dataplane.rtp_in_pkts", dp.rtp_in_pkts);
    counts.insert("dataplane.forwarded_pkts", dp.forwarded_pkts);
    counts.insert("dataplane.cpu_pkts", dp.cpu_pkts);
    counts.insert("dataplane.rate_adapt_drops", dp.rate_adapt_drops);
    counts.insert("dataplane.trunk_out_pkts", dp.trunk_out_pkts);
    let relayed = (0..world.fabric.core_ids.len())
        .map(|j| world.fabric.core_stats(&mut world.sim, j).relayed_pkts)
        .sum();
    counts.insert("relay.relayed_pkts", relayed);
    counts.insert("rtt.samples", rtt_ms.len() as u64);
    counts.insert("ops.attempted", attempted);
    counts.insert("ops.failed", failed);
    let replicas_per_input = if dp.rtp_in_pkts == 0 {
        0.0
    } else {
        dp.forwarded_pkts as f64 / dp.rtp_in_pkts as f64
    };

    match plan.workload {
        Workload::CampusPeak => check_trunks(&mut world, now, &mut failures),
        Workload::Group12 => check_downlinks(&mut world, &mut failures),
        Workload::WebinarStorm => {}
    }

    // Teardown: a rebalance pass where the script had none, then every
    // member leaves.
    let span = world.spans.open("teardown");
    if plan.wave.is_none() {
        for mi in 0..world.gmids.len() {
            world.rebalance(mi);
        }
    }
    for i in 0..world.members.len() {
        if world.members[i].live {
            world.leave(i);
        }
    }
    world.spans.close(span);

    if let Some(before) = before_first_join.filter(|_| plan.workload == Workload::WebinarStorm) {
        for (e, occ) in before.iter().enumerate() {
            let after = world.occupancy(e);
            if after != *occ {
                failures.push(format!(
                    "edge {e}: occupancy {after:?} after teardown, {occ:?} before the first join"
                ));
            }
        }
        if !world.plane.ledger_handle().borrow().reconciled() {
            failures.push("capacity ledger not reconciled after teardown".into());
        }
    }

    let dp = world.fabric.total_counters(&mut world.sim);
    counts.insert("ctrl.rule_installs", dp.rule_installs);
    counts.insert("ctrl.rule_removals", dp.rule_removals);
    counts.insert("ctrl.join_forwards", world.plane.forward_total());
    counts.insert("ctrl.ports_booked_peak", booked_peak);
    counts.insert("agent.ports_in_use_peak", ports_peak as u64);
    let mut agent = [0u64; 4];
    for e in 0..world.fabric.edges() {
        let c = world.fabric.edge_mut(&mut world.sim, e).agent.counters;
        agent[0] += c.rembs_analyzed;
        agent[1] += c.dt_changes;
        agent[2] += c.graft_joins;
        agent[3] += c.prune_leaves;
    }
    counts.insert("agent.rembs_analyzed", agent[0]);
    counts.insert("agent.dt_changes", agent[1]);
    counts.insert("agent.graft_joins", agent[2]);
    counts.insert("agent.prune_leaves", agent[3]);

    RoundOut {
        setup_s,
        phases,
        measured_s: clock.wall.as_secs_f64(),
        sim_s,
        attempted,
        failed,
        counts,
        rtt_ms,
        replicas_per_input,
        ports_per_member: ports_at_setup as f64 / members_at_setup,
        installs_per_join: installs_at_setup / setup_joins,
        ctrl: std::mem::take(&mut world.ctrl),
        acc: traced.then_some(clock.acc),
        spans: world.spans.take(),
        failures,
    }
}

/// `group_12` observes one fixed meeting for a seeded length, so its
/// failed share is the same on every seed only if every stream fails at
/// every length. Runs the meeting once to the longest length and returns
/// the number of lengths and those at which some stream held its rate.
pub fn group_12_lengths_holding() -> (usize, Vec<SimTime>) {
    let ends: Vec<SimTime> = plan::group_12_ends().collect();
    let (mut world, ..) = setup(Workload::Group12, 0, Spans::new(false, Instant::now()));
    let pairs = live_pairs(&world);
    let times: BTreeSet<SimTime> = ends.iter().flat_map(|&e| [e - WINDOW, e]).collect();
    let mut snaps = BTreeMap::new();
    for t in times {
        world.sim.run_until(t);
        snaps.insert(t, stream_stats(&mut world, &pairs));
    }
    let holding = ends
        .iter()
        .copied()
        .filter(|&e| {
            let (a, b) = (&snaps[&(e - WINDOW)], &snaps[&e]);
            a.iter().zip(b).any(|(a, b)| held(a, b))
        })
        .collect();
    (ends.len(), holding)
}

/// Packets a sender puts on its uplink that the home edge replicates:
/// media, retransmissions and sender reports.
fn sent_by(world: &mut World, s: usize, now: SimTime) -> u64 {
    let node = world.members[s].node.expect("sender node");
    let started = world.members[s].started;
    let st = world.client(node).stats().sender;
    // One sender report per 348 ms interval since the client started
    // (the client's `sr_interval`).
    let srs = now.saturating_since(started).as_micros_f64() as u64 / 348_000;
    st.video_packets + st.audio_packets + st.retransmissions + srs
}

/// `campus_peak`: each edge's trunk output equals, over its local
/// senders, packets sent × remote edges holding members of the meeting
/// (counted from the benchmark's own roster), within what is still in
/// flight at cut-off. One more copy per sender is tolerated toward the
/// meeting's home edge when no member attaches there: the controller
/// keeps the home segment for the meeting's life and plumbs every sender
/// to it, so those copies cross a trunk to an edge with no receiver.
fn check_trunks(world: &mut World, now: SimTime, failures: &mut Vec<String>) {
    let mut edges_of: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for m in world.members.iter().filter(|m| m.live) {
        edges_of.entry(m.meeting).or_default().insert(m.edge);
    }
    let edges = world.fabric.edges();
    let mut expected = vec![0u64; edges];
    let mut to_empty_home = vec![0u64; edges];
    let mut branches = vec![0u64; edges];
    for s in 0..world.members.len() {
        let m = &world.members[s];
        if !(m.live && m.sends) {
            continue;
        }
        let (edge, meeting) = (m.edge, m.meeting);
        let home = world.homes[meeting];
        let remote = edges_of[&meeting].iter().filter(|&&e| e != edge).count() as u64;
        let sent = sent_by(world, s, now);
        expected[edge] += sent * remote;
        branches[edge] += remote;
        if home != edge && !edges_of[&meeting].contains(&home) {
            to_empty_home[edge] += sent;
            branches[edge] += 1;
        }
    }
    for e in 0..edges {
        let got = world.fabric.edge_counters(&mut world.sim, e).trunk_out_pkts;
        // In flight at cut-off: at most one access-link propagation
        // (≤ 12 ms) of a 30 fps video + 50 pps audio stream per trunk
        // branch — one frame's packets and an audio packet, rounded up.
        let slack = 16 * branches[e];
        let (lo, hi) = (
            expected[e].saturating_sub(slack),
            expected[e] + to_empty_home[e],
        );
        if !(lo..=hi).contains(&got) {
            failures.push(format!(
                "edge {e}: trunk_out_pkts {got}, roster expects {lo}..={hi}"
            ));
        }
    }
}

/// `group_12`: per client downlink, offered = delivered + queue drops
/// (+ fault drops, none configured); summed over clients, packets
/// scheduled on downlinks but not yet arrived (in flight) lie between 0
/// and what the links can hold.
fn check_downlinks(world: &mut World, failures: &mut Vec<String>) {
    let mut scheduled = 0u64;
    let mut capacity = 0u64;
    for i in 0..world.members.len() {
        let Some(node) = world.members[i].node else {
            continue;
        };
        let prop = world.members[i].prop;
        let d = world.sim.downlink_mut(node).stats;
        if d.offered_packets != d.delivered_packets + d.queue_drops + d.fault_drops {
            failures.push(format!(
                "client {i}: downlink offered {} != delivered {} + drops {} + {}",
                d.offered_packets, d.delivered_packets, d.queue_drops, d.fault_drops
            ));
        }
        scheduled += d.delivered_packets;
        // Queue plus propagation, in minimum-size (42-byte) packets.
        let bytes = plan::ACCESS_QUEUE_BYTES as f64
            + plan::ACCESS_RATE_BPS as f64 / 8.0 * prop.as_secs_f64();
        capacity += (bytes / 42.0) as u64 + 1;
    }
    // Arrivals at clients = all arrivals minus those at the switch, which
    // classifies every packet it receives exactly once.
    let c = world.fabric.total_counters(&mut world.sim);
    let at_switches =
        c.rtp_in_pkts + c.rtcp_sr_pkts + c.rtcp_fb_pkts + c.stun_pkts + c.unknown_drops;
    let arrived = world.sim.stats.packets_delivered - at_switches;
    if arrived > scheduled || scheduled - arrived > capacity {
        failures.push(format!(
            "client downlinks: {scheduled} scheduled, {arrived} arrived, in flight bound {capacity}"
        ));
    }
}
