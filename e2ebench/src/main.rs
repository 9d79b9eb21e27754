//! End-to-end benchmark of the Scallop reproduction, with per-layer
//! attribution. See README.md in this directory.
//!
//! ```text
//! e2ebench --workload <campus_peak|webinar_storm|group_12> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --check
//! ```
//!
//! A run repeats whole rounds of the workload (set up, simulate, check,
//! tear down) until `--seconds` of wall time are spent, and prints its
//! metrics; the last line of standard output is one JSON object. With
//! `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones (untraced and traced rounds alternate). Any failed
//! output check makes it exit with code 1.

mod plan;
mod round;
mod stats;
mod trace;
mod world;

use plan::Workload;
use round::RoundOut;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Set-ups run before the measured rounds — at least this many, and for
/// at least [`SETUP_BUDGET_S`] — so `setup_s` is a median of many
/// samples even when a round is long.
const SETUP_MIN_REPS: usize = 10;
const SETUP_BUDGET_S: f64 = 1.0;
/// The seed the determinism check runs twice.
const CHECK_SEED: u64 = 1;
/// The second, unseen seed the check runs once.
const SECOND_SEED: u64 = 0x5EED_2026;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    counts: bool,
}

enum Mode {
    Run(Args),
    Check,
}

fn usage() -> String {
    "usage: e2ebench --workload <campus_peak|webinar_storm|group_12> --seed <n> \
     --seconds <s> --trace <0|1> [--counts]\n       e2ebench --check"
        .to_string()
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--check") {
        return Ok(Mode::Check);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut counts = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--counts" {
            counts = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        counts,
    }))
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median, and the ladder tail with its percentile, in microseconds.
fn us_stats(ns: &[f64]) -> (f64, Option<(f64, f64)>, usize) {
    let sorted = stats::sorted(ns.iter().map(|x| x / 1000.0).collect());
    let p50 = if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(&sorted, 50.0)
    };
    (p50, stats::tail(&sorted), sorted.len())
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn run(a: &Args) -> ExitCode {
    let epoch = Instant::now();
    let mut setup_samples = Vec::new();
    let mut phase_samples: [Vec<f64>; 4] = Default::default();
    let mut join_ns = Vec::new();
    while setup_samples.len() < SETUP_MIN_REPS || epoch.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let (s, phases, ctrl) = round::setup_only(a.workload, a.seed);
        setup_samples.push(s);
        for (v, p) in phase_samples.iter_mut().zip(phases) {
            v.push(p);
        }
        join_ns.extend(ctrl.join);
    }

    let start = Instant::now();
    let mut untraced: Vec<RoundOut> = Vec::new();
    let mut traced: Vec<RoundOut> = Vec::new();
    loop {
        let want_traced = a.trace && traced.len() < untraced.len();
        let r = round::run(a.workload, a.seed, want_traced, epoch);
        if want_traced {
            traced.push(r);
        } else {
            untraced.push(r);
        }
        let done = start.elapsed().as_secs_f64() >= a.seconds;
        if done && (!a.trace || !traced.is_empty()) {
            break;
        }
    }

    let mut failures: Vec<String> = Vec::new();
    for r in untraced.iter().chain(&traced) {
        failures.extend(r.failures.iter().cloned());
    }
    let first = &untraced[0];
    for (i, r) in untraced.iter().enumerate().skip(1) {
        for (k, v) in &first.counts {
            if r.counts.get(k) != Some(v) {
                failures.push(format!(
                    "round {i}: {k} = {:?}, round 0 had {v} (same seed must repeat)",
                    r.counts.get(k)
                ));
            }
        }
    }
    failures.sort();
    failures.dedup();

    for r in &untraced {
        setup_samples.push(r.setup_s);
        for (v, p) in phase_samples.iter_mut().zip(r.phases) {
            v.push(p);
        }
        join_ns.extend(r.ctrl.join.iter().copied());
    }
    let attempted: u64 = untraced.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 = untraced.iter().chain(&traced).map(|r| r.failed).sum();
    let rates: Vec<f64> = untraced.iter().map(|r| r.sim_s / r.measured_s).collect();

    println!(
        "workload {} seed {} rounds {} untraced + {} traced, {} set-ups",
        a.workload.name(),
        a.seed,
        untraced.len(),
        traced.len(),
        setup_samples.len()
    );
    println!("{}", plan::generate(a.workload, a.seed).describe());
    let shown: Vec<String> = rates.iter().map(|x| format!("{x:.4}")).collect();
    println!("sim s per wall s by untraced round: {}", shown.join(" "));
    let mut metrics = Vec::new();
    if !a.trace {
        let rtt = &first.rtt_ms;
        let p50 = if rtt.is_empty() {
            0.0
        } else {
            stats::percentile(rtt, 50.0)
        };
        let (tail_pct, tail_ms) = stats::tail(rtt).unwrap_or((50.0, p50));
        println!(
            "rtt_tail_ms is p{tail_pct} of {} samples ({} beyond its rank)",
            rtt.len(),
            stats::beyond(rtt.len(), tail_pct)
        );
        metrics.push(m("sim_s_per_wall_s", stats::median(&rates), "s/s"));
        metrics.push(m("setup_s", stats::median(&setup_samples), "s"));
        metrics.push(m("peak_rss_mb", peak_rss_mb(), "MB"));
        metrics.push(m(
            "frames_per_sim_s",
            first.counts["client.frames_decoded"] as f64 / first.sim_s,
            "1/s",
        ));
        metrics.push(m("rtt_p50_ms", p50, "ms"));
        metrics.push(m("rtt_tail_ms", tail_ms, "ms"));
    } else {
        per_layer(
            a,
            &untraced,
            &traced,
            &join_ns,
            &phase_samples,
            &mut metrics,
        );
    }
    if a.counts {
        let line: Vec<String> = first
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("counts {}", line.join(" "));
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    for x in &metrics {
        println!("{:<32} {:>16} {}", x.name, json_number(x.value), x.unit);
    }
    println!("attempted {attempted} failed {failed}");
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        body.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn per_layer(
    a: &Args,
    untraced: &[RoundOut],
    traced: &[RoundOut],
    join_ns: &[f64],
    phase_samples: &[Vec<f64>; 4],
    out: &mut Vec<Metric>,
) {
    use trace::{Kind, StepAcc};
    let first = &untraced[0];
    let c = |k: &str| first.counts[k] as f64;
    let mut acc = StepAcc::default();
    for r in traced {
        acc.merge(r.acc.as_ref().expect("traced round"));
    }
    let mean = |rs: &[RoundOut]| rs.iter().map(|r| r.measured_s).sum::<f64>() / rs.len() as f64;
    let mut leave_ns = Vec::new();
    let mut rebalance_ns = Vec::new();
    let (mut calls, mut ctrl_ns) = (0usize, 0.0f64);
    for r in untraced {
        leave_ns.extend(r.ctrl.leave.iter().copied());
        rebalance_ns.extend(r.ctrl.rebalance.iter().copied());
        calls += r.ctrl.calls();
        ctrl_ns += r.ctrl.total_ns();
    }
    let (join_p50, join_tail, joins) = us_stats(join_ns);
    let (leave_p50, leave_tail, leaves) = us_stats(&leave_ns);
    let (rebalance_p50, _, _) = us_stats(&rebalance_ns);
    let tail_note = |name: &str, t: Option<(f64, f64)>, n: usize, p50: f64| match t {
        Some((p, v)) => {
            println!("{name} is p{p} of {n} samples");
            v
        }
        None => {
            println!("{name} is the median: {n} samples are too few for a tail");
            p50
        }
    };
    let join_tail = tail_note("ctrl.join_tail_us", join_tail, joins, join_p50);
    let leave_tail = tail_note("ctrl.leave_tail_us", leave_tail, leaves, leave_p50);
    let untraced_s: f64 = untraced.iter().map(|r| r.measured_s).sum();
    let events: f64 = untraced
        .iter()
        .map(|r| r.counts["netsim.events"] as f64)
        .sum();

    out.extend([
        m("netsim.events", c("netsim.events"), "count"),
        m("netsim.ns_per_event", untraced_s * 1e9 / events, "ns"),
        m("netsim.queue_drops", c("netsim.queue_drops"), "count"),
        m("trace.other_share", acc.share(Kind::Other), "%"),
        m("trace.other_ns_per_step", acc.ns_per(Kind::Other), "ns"),
        m("client.frames_decoded", c("client.frames_decoded"), "count"),
        m("client.freezes", c("client.freezes"), "count"),
        m("client.nacks_sent", c("client.nacks_sent"), "count"),
        m(
            "client.retransmissions",
            c("client.retransmissions"),
            "count",
        ),
        m("client.plis_sent", c("client.plis_sent"), "count"),
        m("trace.client_share", acc.share(Kind::Client), "%"),
        m(
            "trace.client_ns_per_delivery",
            acc.ns_per(Kind::Client),
            "ns",
        ),
        m("dataplane.rtp_in_pkts", c("dataplane.rtp_in_pkts"), "count"),
        m(
            "dataplane.forwarded_pkts",
            c("dataplane.forwarded_pkts"),
            "count",
        ),
        m(
            "dataplane.replicas_per_input",
            first.replicas_per_input,
            "ratio",
        ),
        m("dataplane.cpu_pkts", c("dataplane.cpu_pkts"), "count"),
        m(
            "dataplane.rate_adapt_drops",
            c("dataplane.rate_adapt_drops"),
            "count",
        ),
        m(
            "dataplane.trunk_out_pkts",
            c("dataplane.trunk_out_pkts"),
            "count",
        ),
        m("trace.edge_share", acc.share(Kind::Edge), "%"),
        m("trace.edge_ns_per_step", acc.ns_per(Kind::Edge), "ns"),
        m("relay.relayed_pkts", c("relay.relayed_pkts"), "count"),
        m("trace.relay_share", acc.share(Kind::Relay), "%"),
        m("trace.ctrl_share", acc.share(Kind::Ctrl), "%"),
        m("agent.rembs_analyzed", c("agent.rembs_analyzed"), "count"),
        m("agent.dt_changes", c("agent.dt_changes"), "count"),
        m("agent.graft_joins", c("agent.graft_joins"), "count"),
        m("agent.prune_leaves", c("agent.prune_leaves"), "count"),
        m(
            "agent.ports_in_use_peak",
            c("agent.ports_in_use_peak"),
            "count",
        ),
        m("agent.ports_per_member", first.ports_per_member, "ratio"),
        m("ctrl.join_p50_us", join_p50, "us"),
        m("ctrl.join_tail_us", join_tail, "us"),
        m("ctrl.leave_p50_us", leave_p50, "us"),
        m("ctrl.leave_tail_us", leave_tail, "us"),
        m("ctrl.rebalance_us", rebalance_p50, "us"),
        m("ctrl.ops_per_s", calls as f64 * 1e9 / ctrl_ns, "1/s"),
        m("ctrl.rule_installs", c("ctrl.rule_installs"), "count"),
        m("ctrl.rule_removals", c("ctrl.rule_removals"), "count"),
        m("ctrl.installs_per_join", first.installs_per_join, "ratio"),
        m("ctrl.join_forwards", c("ctrl.join_forwards"), "count"),
        m(
            "ctrl.ports_booked_peak",
            c("ctrl.ports_booked_peak"),
            "count",
        ),
        m("setup.population_s", stats::median(&phase_samples[0]), "s"),
        m("setup.fabric_s", stats::median(&phase_samples[1]), "s"),
        m("setup.joins_s", stats::median(&phase_samples[2]), "s"),
        m("setup.clients_s", stats::median(&phase_samples[3]), "s"),
        m("trace.overhead", mean(traced) / mean(untraced), "ratio"),
    ]);

    let spans: Vec<Vec<trace::Span>> = traced.iter().map(|r| r.spans.clone()).collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", a.workload.name()));
    match trace::write_spans(&path, &spans) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
}

/// Run every workload twice at [`CHECK_SEED`] and once at
/// [`SECOND_SEED`], each in its own process; fail unless every
/// deterministic count repeats exactly and every run passes its checks.
fn check() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    let child = |w: Workload, seed: u64| -> Result<BTreeMap<String, String>, String> {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", "1", "--trace", "0", "--counts"])
            .output()
            .map_err(|e| format!("cannot start: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!("exit {:?}:\n{stdout}", out.status.code()));
        }
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("counts "))
            .ok_or("no counts line")?;
        Ok(line
            .split(' ')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect())
    };
    let (lengths, holding) = round::group_12_lengths_holding();
    if holding.is_empty() {
        println!("group_12: every stream fails at all {lengths} observation lengths");
    } else {
        println!("group_12: some stream holds its rate at lengths {holding:?}");
        ok = false;
    }
    for w in Workload::ALL {
        let runs = [
            child(w, CHECK_SEED),
            child(w, CHECK_SEED),
            child(w, SECOND_SEED),
        ];
        for (i, r) in runs.iter().enumerate() {
            if let Err(e) = r {
                println!("{} run {i}: FAILED {e}", w.name());
                ok = false;
            }
        }
        if let (Ok(a), Ok(b)) = (&runs[0], &runs[1]) {
            let differ: Vec<&String> = a.keys().filter(|k| a.get(*k) != b.get(*k)).collect();
            if differ.is_empty() && a.len() == b.len() {
                println!(
                    "{}: {} counts repeat exactly at seed {CHECK_SEED}",
                    w.name(),
                    a.len()
                );
            } else {
                println!(
                    "{}: counts differ at seed {CHECK_SEED}: {differ:?}",
                    w.name()
                );
                ok = false;
            }
        }
        if let Ok(c) = &runs[2] {
            println!(
                "{}: checks pass at seed {SECOND_SEED} (attempted {}, failed {})",
                w.name(),
                c["ops.attempted"],
                c["ops.failed"]
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

extern "C" {
    /// glibc's `mallopt(3)`.
    fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// `mallopt` parameter: allocations at least this large are mmapped.
const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;

/// Pin glibc's mmap threshold at its documented default (128 KiB).
/// Left dynamic, glibc raises it after the first large free, and whether
/// later set-ups then reuse warm heap pages or fault fresh ones differs
/// from process to process: `group_12`'s `Fabric::build` took 0.3 ms in
/// some processes and 2 ms in others. Pinned, every large allocation is
/// mmapped fresh, as in a process's first set-up.
fn pin_malloc() {
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called
    // before any other thread exists and with a documented parameter.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) refused");
}

fn main() -> ExitCode {
    pin_malloc();
    match parse_args() {
        Ok(Mode::Check) => check(),
        Ok(Mode::Run(a)) => run(&a),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
