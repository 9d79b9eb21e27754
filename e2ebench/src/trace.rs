//! The traced run: per-step wall-time attribution by the destination of
//! the delivery the step recorded, and spans around set-up phases and
//! control-plane calls. Tracing lives entirely in the benchmark: it
//! steps the simulator itself through `Simulator::step` with the public
//! `Simulator::trace` sink on.

use scallop_netsim::sim::Simulator;
use scallop_netsim::time::SimTime;
use scallop_netsim::trace::TraceSink;
use std::collections::HashMap;
use std::io::Write;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::Instant;

/// What a step's wall time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A delivery into a client node (`client` + `media`).
    Client,
    /// A delivery into an edge switch (`dataplane` + `core::agent`).
    Edge,
    /// A delivery into a core relay (`netsim::relay`).
    Relay,
    /// A step that delivered nothing: a timer or a link admission.
    Other,
    /// A control-plane call made during the measured phase.
    Ctrl,
}

impl Kind {
    fn index(self) -> usize {
        self as usize
    }
}

/// Step counts and wall nanoseconds per kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepAcc {
    /// Steps (or calls) per kind.
    pub count: [u64; 5],
    /// Wall nanoseconds per kind.
    pub ns: [f64; 5],
}

impl StepAcc {
    /// Add one step of `kind` taking `ns`.
    pub fn add(&mut self, kind: Kind, ns: f64) {
        self.count[kind.index()] += 1;
        self.ns[kind.index()] += ns;
    }

    /// Fold another accumulator in.
    pub fn merge(&mut self, o: &StepAcc) {
        for i in 0..5 {
            self.count[i] += o.count[i];
            self.ns[i] += o.ns[i];
        }
    }

    /// Total attributed wall nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.ns.iter().sum()
    }

    /// Share of attributed wall time spent in `kind`, percent.
    pub fn share(&self, kind: Kind) -> f64 {
        let t = self.total_ns();
        if t == 0.0 {
            0.0
        } else {
            100.0 * self.ns[kind.index()] / t
        }
    }

    /// Mean wall nanoseconds per step of `kind` (0 when none).
    pub fn ns_per(&self, kind: Kind) -> f64 {
        let c = self.count[kind.index()];
        if c == 0 {
            0.0
        } else {
            self.ns[kind.index()] / c as f64
        }
    }
}

/// Records per step the sink can hold (a wave delivers several packets
/// in one step; the sink is cleared after every step).
const SINK_CAPACITY: usize = 4096;

/// Arm the simulator's trace sink for attribution.
pub fn arm(sim: &mut Simulator) {
    sim.trace = TraceSink::bounded(SINK_CAPACITY);
}

/// Step `sim` one event at a time until its clock reaches `deadline`,
/// attributing each step's wall time (including this bookkeeping) by the
/// destination of the first delivery it recorded: a switch in
/// `switches`, otherwise a client.
pub fn step_until(
    sim: &mut Simulator,
    deadline: SimTime,
    switches: &HashMap<Ipv4Addr, Kind>,
    acc: &mut StepAcc,
) {
    let mut last = Instant::now();
    while sim.now() < deadline && sim.step() {
        let kind = sim
            .trace
            .records()
            .first()
            .map(|r| switches.get(&r.dst.ip).copied().unwrap_or(Kind::Client))
            .unwrap_or(Kind::Other);
        sim.trace.clear();
        let now = Instant::now();
        acc.add(kind, (now - last).as_nanos() as f64);
        last = now;
    }
}

/// One span: a named interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder; a disabled recorder does nothing.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    list: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Spans {
        Spans {
            on,
            epoch,
            list: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.list.len();
        self.list.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close span `id` (a no-op for `None`).
    pub fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        self.list[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Take the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        self.stack.clear();
        std::mem::take(&mut self.list)
    }
}

/// Write spans as JSON lines: `{"round":..,"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..}`.
pub fn write_spans(path: &Path, rounds: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (round, spans) in rounds.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"round\":{round},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
