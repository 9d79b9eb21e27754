//! The three workloads as inputs generated from a seed: which fabric,
//! which meetings, who attaches where, who sends, and the script of the
//! measured phase. The program under test receives only these inputs.

use scallop_core::capacity::FabricBudgets;
use scallop_netsim::rng::DetRng;
use scallop_netsim::time::{SimDuration, SimTime};
use scallop_netsim::topology::Topology;
use scallop_workload::campus::{CampusModel, CampusParams};
use scallop_workload::flashcrowd;
use std::net::Ipv4Addr;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every ≤ 10-party meeting live at the weekday 10:00 campus peak.
    CampusPeak,
    /// A one-presenter webinar with a flash crowd of viewers.
    WebinarStorm,
    /// Twelve participants, every camera on, one edge switch.
    Group12,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::CampusPeak,
        Workload::WebinarStorm,
        Workload::Group12,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampusPeak => "campus_peak",
            Workload::WebinarStorm => "webinar_storm",
            Workload::Group12 => "group_12",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Edge switches of the campus fabric (both multi-edge workloads).
pub const CAMPUS_EDGES: usize = 4;
/// Controller shards of the multi-edge workloads.
pub const CAMPUS_SHARDS: usize = 2;
/// Largest campus meeting `campus_peak` replays.
pub const CAMPUS_MAX_SIZE: u32 = 10;
/// Hour of the weekday peak the campus slice is taken at.
pub const CAMPUS_PEAK_HOUR: u64 = 10;
/// Seed of the campus meeting population (the one the Figs. 20/21
/// binary replays). The population is fixed so every seed replays the
/// same roster; `--seed` draws the simulator seed and access links.
pub const CAMPUS_POPULATION_SEED: u64 = 0x7AB20;
/// Viewers in the webinar crowd, drawn from this range per seed — below
/// the 2·n² port-exhaustion point (the 321st viewer on a 4-edge campus
/// exhausts edge 0's ports).
pub const WEBINAR_AUDIENCE: std::ops::RangeInclusive<usize> = 290..=300;
/// Viewers that leave and re-join mid-run.
pub const WEBINAR_WAVE: usize = 30;
/// Participants of the all-camera group call.
pub const GROUP_SIZE: usize = 12;
/// Simulator seed of the group call (the harness default).
const GROUP_SIM_SEED: u64 = 0x5CA1_10B5;
/// Access propagation of every group-call client (the harness default).
const GROUP_PROP: SimDuration = SimDuration::from_millis(10);
/// The group call is observed for 4.00 s plus a seeded number (0–59)
/// of 10 ms steps; [`group_12_ends`] lists every length. Memory and
/// frames per second drift as the collapse deepens, so the range is
/// kept short.
const GROUP_END_MIN_MS: u64 = 4_000;
const GROUP_END_STEP_MS: u64 = 10;
const GROUP_END_STEPS: u64 = 60;

/// Every length the group call can be observed for, whatever the seed.
pub fn group_12_ends() -> impl Iterator<Item = SimTime> {
    (0..GROUP_END_STEPS).map(|k| SimTime::from_millis(GROUP_END_MIN_MS + k * GROUP_END_STEP_MS))
}

/// Window over which a stream must hold its frame rate.
pub const WINDOW: SimDuration = SimDuration::from_secs(2);
/// Decoded frame rate a stream must hold over [`WINDOW`].
pub const MIN_FPS: f64 = 25.0;
/// Encoder frame rate (the default `EncoderConfig`).
pub const ENCODER_FPS: f64 = 30.0;
/// Access-link rate of every client, both directions.
pub const ACCESS_RATE_BPS: u64 = 50_000_000;
/// Access-link drop-tail queue of every client, both directions.
pub const ACCESS_QUEUE_BYTES: usize = 128 * 1024;

/// One participant's attachment.
#[derive(Debug, Clone, Copy)]
pub struct MemberPlan {
    /// Edge switch it attaches to.
    pub edge: usize,
    /// Whether its camera is on.
    pub sends: bool,
    /// One-way propagation delay of each of its access links.
    pub prop: SimDuration,
}

/// One meeting.
#[derive(Debug, Clone)]
pub struct MeetingPlan {
    /// Home edge switch.
    pub home: usize,
    /// Members in join order.
    pub members: Vec<MemberPlan>,
}

/// The mid-run churn wave of the webinar.
#[derive(Debug, Clone)]
pub struct Wave {
    /// When the wave leaves and re-joins.
    pub at: SimTime,
    /// Indices (into meeting 0's members) of the viewers that leave and
    /// come back as new participants on the same edge.
    pub leavers: Vec<usize>,
}

/// Everything one round of a workload runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Fabric topology.
    pub topology: Topology,
    /// Controller shards.
    pub shards: usize,
    /// Simulator seed.
    pub sim_seed: u64,
    /// Capacity budgets armed before the first join (`Some` makes every
    /// join admission-checked).
    pub admission: Option<FabricBudgets>,
    /// Meetings, created in order.
    pub meetings: Vec<MeetingPlan>,
    /// End of the measured phase (it starts at the first simulated
    /// instant).
    pub end: SimTime,
    /// Mid-run churn, if any.
    pub wave: Option<Wave>,
}

impl Plan {
    /// One line on the inputs: meetings, participants, camera senders,
    /// video streams, edges, meeting-size histogram, measured length.
    pub fn describe(&self) -> String {
        let mut sizes = std::collections::BTreeMap::new();
        let (mut members, mut senders, mut streams) = (0, 0, 0);
        let mut per_edge = vec![0usize; self.topology.edge_count()];
        for m in &self.meetings {
            *sizes.entry(m.members.len()).or_insert(0usize) += 1;
            let s = m.members.iter().filter(|p| p.sends).count();
            members += m.members.len();
            senders += s;
            streams += s * (m.members.len() - 1);
            for p in &m.members {
                per_edge[p.edge] += 1;
            }
        }
        let hist: Vec<String> = sizes.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        format!(
            "inputs: {} meetings, {members} participants, {senders} camera senders, \
             {streams} video streams, participants per edge {per_edge:?}, \
             meeting sizes {{{}}}, {} s simulated{}",
            self.meetings.len(),
            hist.join(" "),
            self.end.as_secs_f64(),
            self.wave.as_ref().map_or(String::new(), |w| format!(
                ", {} viewers leave and re-join at {} s",
                w.leavers.len(),
                w.at.as_secs_f64()
            )),
        )
    }
}

/// Per-workload salt, so one `--seed` gives unrelated streams per workload.
fn salt(w: Workload) -> u64 {
    match w {
        Workload::CampusPeak => 0xC4A9_0000_0000_0001,
        Workload::WebinarStorm => 0x3EB1_0000_0000_0002,
        Workload::Group12 => 0x6120_0000_0000_0003,
    }
}

/// Access propagation: 8–12 ms one way, drawn to the microsecond.
fn draw_prop(rng: &mut DetRng) -> SimDuration {
    SimDuration::from_micros(rng.range_u64(8_000, 12_001))
}

/// Generate workload `w`'s inputs from `seed`.
pub fn generate(w: Workload, seed: u64) -> Plan {
    let mut rng = DetRng::new(seed ^ salt(w));
    let sim_seed = rng.next_u64();
    match w {
        Workload::CampusPeak => campus_peak(&mut rng, sim_seed),
        Workload::WebinarStorm => webinar_storm(&mut rng, sim_seed),
        Workload::Group12 => group_12(&mut rng),
    }
}

fn campus_peak(rng: &mut DetRng, sim_seed: u64) -> Plan {
    let params = CampusParams::default();
    let population = CampusModel::new(params, CAMPUS_POPULATION_SEED).generate();
    let live_at = |t: SimTime| {
        population
            .iter()
            .filter(|m| m.start <= t && t < m.end())
            .count()
    };
    // The busiest 10:00 of the first week's weekdays (the earliest wins ties).
    let peak = (0..5u64)
        .map(|day| SimTime::from_secs(day * 86_400 + CAMPUS_PEAK_HOUR * 3600))
        .rev()
        .max_by_key(|&t| live_at(t))
        .expect("five weekdays");
    let meetings = population
        .iter()
        .filter(|m| m.start <= peak && peak < m.end() && m.size <= CAMPUS_MAX_SIZE)
        .map(|m| MeetingPlan {
            home: m.edge_switch(CAMPUS_EDGES),
            members: (0..m.size)
                .map(|i| MemberPlan {
                    edge: m.participant_edge(i, params.buildings, CAMPUS_EDGES),
                    sends: i < m.video_senders.max(1),
                    prop: draw_prop(rng),
                })
                .collect(),
        })
        .collect();
    Plan {
        workload: Workload::CampusPeak,
        topology: Topology::campus(CAMPUS_EDGES, 1),
        shards: CAMPUS_SHARDS,
        sim_seed,
        admission: None,
        meetings,
        end: SimTime::from_secs(3),
        wave: None,
    }
}

fn webinar_storm(rng: &mut DetRng, sim_seed: u64) -> Plan {
    let audience = rng.range_u64(
        *WEBINAR_AUDIENCE.start() as u64,
        *WEBINAR_AUDIENCE.end() as u64 + 1,
    ) as usize;
    let members: Vec<MemberPlan> = flashcrowd::webinar(CAMPUS_EDGES, audience)
        .into_iter()
        .map(|j| MemberPlan {
            edge: j.edge,
            sends: j.sends,
            prop: draw_prop(rng),
        })
        .collect();
    // A seeded sample of viewers (index 0 is the presenter).
    let mut viewers: Vec<usize> = (1..members.len()).collect();
    for i in 0..WEBINAR_WAVE {
        let j = rng.range_u64(i as u64, viewers.len() as u64) as usize;
        viewers.swap(i, j);
    }
    let mut leavers = viewers[..WEBINAR_WAVE].to_vec();
    leavers.sort_unstable();
    Plan {
        workload: Workload::WebinarStorm,
        topology: Topology::campus(CAMPUS_EDGES, 1),
        shards: CAMPUS_SHARDS,
        sim_seed,
        admission: Some(FabricBudgets::from_model()),
        meetings: vec![MeetingPlan { home: 0, members }],
        end: SimTime::from_secs(6),
        wave: Some(Wave {
            at: SimTime::from_secs(3),
            leavers,
        }),
    }
}

fn group_12(rng: &mut DetRng) -> Plan {
    // The meeting itself is fixed: the collapse's onset hinges on how the
    // twelve senders' frame bursts align, which any change to the
    // simulator seed or the access links can shift. The seed sets only
    // how long the call is observed.
    let steps = rng.range_u64(0, GROUP_END_STEPS);
    let members = (0..GROUP_SIZE)
        .map(|_| MemberPlan {
            edge: 0,
            sends: true,
            prop: GROUP_PROP,
        })
        .collect();
    Plan {
        workload: Workload::Group12,
        topology: Topology::single(Ipv4Addr::new(10, 0, 0, 100)),
        shards: 1,
        sim_seed: GROUP_SIM_SEED,
        admission: None,
        meetings: vec![MeetingPlan { home: 0, members }],
        end: SimTime::from_millis(GROUP_END_MIN_MS + steps * GROUP_END_STEP_MS),
        wave: None,
    }
}
