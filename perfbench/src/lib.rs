//! Drivers for the repository's benchmark: Figure 8's in-memory OLTP stack at
//! concurrency 512 on Linux and on dIPC, and `prodbench`'s open-loop service
//! graph at 650k req/s offered.
//!
//! A driver runs one [`Pass`]: set-up (build plus warm-up), then the measured
//! window in fixed simulated slices, each slice timed on the host.
//!
//! On a shared host, speed drifts by up to 2x in episodes of seconds to
//! minutes, so raw host times of identical passes spread by 10-25%. A [`Meter`]
//! therefore runs a fixed calibration kernel, which shares no code with the
//! program, every 50 ms of host time, and scales each timed span by the
//! nominal kernel time over the one measured just before it. The host times
//! this crate reports are such *nominal* seconds; the raw ones are reported
//! beside them.
//!
//! With a [`Profile`] the window is stepped by this crate's own loop, which
//! times every [`System::step`] and classifies it by the deltas visible from
//! outside the kernel: instructions retired and the Figure 2 time categories.
//! Profiling reads state only, so a profiled pass must produce exactly the
//! simulated outputs of an unprofiled one; [`Report::new`] checks that.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aring::layout;
use dipc::{SysStep, System};
use oltp::async_stack::{percentile, LAT_SLOTS, LAT_STRIDE};
use oltp::service_graph::{self, ProdParams, ProdStack, RunOpts};
use oltp::workload::{OpenLoop, TokenBucket, WorkloadCfg};
use oltp::{dipc_stack, linux_stack, OltpParams, StorageKind};
use simkernel::{Kernel, TimeCat};

/// `prodbench`'s workload seed, the default for `prod-650k`.
pub const PROD_SEED: u64 = 0xD1FC_0800;
/// `prodbench`'s token bucket: rate, req/s.
pub const BUCKET_RATE: u64 = 750_000;
/// `prodbench`'s token bucket: burst.
pub const BUCKET_BURST: u64 = 2_000;
/// Latency sampling period of the closed-loop OLTP window.
const OLTP_SAMPLE_NS: f64 = 1e6;
/// A percentile is reported only when at least this many samples lie
/// beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// Environment knobs that change what the program simulates or how it runs.
/// The benchmark refuses to run while any is set.
const KNOB_PREFIXES: [&str; 7] =
    ["CDVM_NO_", "SMP_", "DIPC_FAULTS", "DIPC_TRACE", "PROD_", "OLTP_", "ARING_"];

/// The knobs from [`KNOB_PREFIXES`] that are set, as `NAME=value`.
pub fn set_knobs() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars()
        .filter(|(k, _)| KNOB_PREFIXES.iter().any(|p| k.starts_with(p)))
        .map(|(k, val)| format!("{k}={val}"))
        .collect();
    v.sort();
    v
}

/// Figure 8's in-memory row at one concurrency.
#[derive(Clone, Copy, Debug)]
pub struct OltpShape {
    /// Server concurrency (closed-loop clients, one counter slot each).
    pub conc: u64,
    /// Simulated warm-up, ms.
    pub warm_ms: u64,
    /// Simulated measurement window, ms.
    pub measure_ms: u64,
}

impl OltpShape {
    /// `fig8`'s windows, which scale with the thread count.
    pub fn fig8(conc: u64) -> OltpShape {
        OltpShape { conc, warm_ms: 100 + 2 * conc, measure_ms: 300 + 8 * conc }
    }
}

/// One `prodbench` load point, preceded in set-up by a warm-up window on a
/// throwaway graph.
#[derive(Clone, Copy, Debug)]
pub struct ProdShape {
    /// Client sessions.
    pub sessions: u64,
    /// Offered load, req/s.
    pub rate: u64,
    /// Measured window, simulated ns.
    pub window_ns: u64,
    /// Workload seed of the measured window.
    pub seed: u64,
    /// Warm-up window, simulated ns.
    pub warm_window_ns: u64,
    /// Workload seed of the warm-up window.
    pub warm_seed: u64,
}

impl ProdShape {
    /// `prodbench`'s 650k req/s point: 100k sessions, 300 ms window.
    pub fn prod_650k(seed: u64, warm_seed: u64) -> ProdShape {
        ProdShape {
            sessions: 100_000,
            rate: 650_000,
            window_ns: 300_000_000,
            seed,
            warm_window_ns: 30_000_000,
            warm_seed,
        }
    }

    fn open_loop(&self, seed: u64, window_ns: u64) -> OpenLoop {
        let mut cfg = WorkloadCfg::production(seed, self.rate as f64, window_ns);
        cfg.sessions = self.sessions;
        OpenLoop::new(cfg)
    }
}

/// What a pass runs.
#[derive(Clone, Copy, Debug)]
pub enum Spec {
    /// The three-process Linux stack over UNIX sockets.
    OltpLinux(OltpShape),
    /// The same application work over dIPC proxies.
    OltpDipc(OltpShape),
    /// The open-loop production service graph.
    Prod(ProdShape),
}

impl Spec {
    /// The named workload; `prod_seed` is the measured window's workload
    /// seed and `seed` derives the prod warm-up seed. The closed-loop OLTP
    /// workloads have no random inputs.
    pub fn named(name: &str, seed: u64, prod_seed: u64) -> Option<Spec> {
        match name {
            "oltp-linux-c512" => Some(Spec::OltpLinux(OltpShape::fig8(512))),
            "oltp-dipc-c512" => Some(Spec::OltpDipc(OltpShape::fig8(512))),
            "prod-650k" => Some(Spec::Prod(ProdShape::prod_650k(
                prod_seed,
                oltp::workload::mix64(seed ^ 0x5EED_0000_0000_0000),
            ))),
            _ => None,
        }
    }

    /// Runs one pass, profiled when `prof` is given.
    pub fn pass(&self, prof: Option<&mut Profile>) -> Pass {
        match self {
            Spec::OltpLinux(s) => oltp_pass(false, s, prof),
            Spec::OltpDipc(s) => oltp_pass(true, s, prof),
            Spec::Prod(s) => prod_pass(s, prof),
        }
    }
}

/// Step classes of the per-step profile: their steps, host ns per step and
/// share of the window, in class order.
const CLASS_METRICS: [[&str; 3]; 4] = [
    ["simkernel.slice_steps", "simkernel.slice_ns", "simkernel.host_share.slice"],
    ["simkernel.syscall_steps", "simkernel.syscall_ns", "simkernel.host_share.syscall"],
    ["simkernel.sched_steps", "simkernel.sched_ns", "simkernel.host_share.sched"],
    ["simkernel.event_steps", "simkernel.event_ns", "simkernel.host_share.event"],
];
const SLICE: usize = 0;
const SYSCALL: usize = 1;
const SCHED: usize = 2;
const EVENT: usize = 3;

/// Host time of the window by step class, from this crate's own step loop.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Steps per class.
    pub steps: [u64; 4],
    /// Host ns inside `System::step`, per class.
    pub ns: [u64; 4],
    /// Instructions retired, per class.
    pub instr: [u64; 4],
    /// Total run-queue length summed over steps (sampled before each).
    pub runq_sum: u64,
    /// Host ns of the window loop spent outside `System::step`: the open
    /// loop's injection, doorbell wakes and latency drain.
    pub inject_ns: u64,
}

/// What the profiler sees of the kernel before and after a step, summed
/// over CPUs: instructions retired, syscall-entry plus dispatch cycles,
/// scheduling plus page-table-switch cycles, and run-queue length.
#[derive(Clone, Copy, Default)]
struct Snap {
    instr: u64,
    syscall: u64,
    sched: u64,
    runq: u64,
}

fn snap(k: &Kernel) -> Snap {
    let mut s = Snap::default();
    for c in &k.cpus {
        let b = &c.breakdown;
        s.instr += c.cpu.retired;
        s.syscall += b.get(TimeCat::SyscallEntry) + b.get(TimeCat::Dispatch);
        s.sched += b.get(TimeCat::Sched) + b.get(TimeCat::PtSwitch);
        s.runq += c.runq.len() as u64;
    }
    s
}

/// Classifies a step: any syscall entry or dispatch makes it a syscall step,
/// else any scheduling or page-table switch a sched step, else any retired
/// instruction a slice step; what remains (events, idle advance, refills
/// with no instruction) is an event step.
fn classify(b: &Snap, a: &Snap) -> usize {
    if a.syscall > b.syscall {
        SYSCALL
    } else if a.sched > b.sched {
        SCHED
    } else if a.instr > b.instr {
        SLICE
    } else {
        EVENT
    }
}

/// Calibration kernel time on a host of nominal speed, ns.
const NOMINAL_CAL_NS: f64 = 450_000.0;
/// Host time between calibrations.
const CAL_PERIOD: Duration = Duration::from_millis(50);

thread_local! {
    static CAL_TABLE: RefCell<Vec<u64>> = RefCell::new(vec![1; 1 << 19]);
}

/// Host ns of a fixed piece of work that shares no code with the program:
/// 100k pseudo-random read-modify-writes over a 4 MiB table (the per-core
/// L2 size of the 2-vCPU Xeon VM the benchmark was tuned on). Of the kernels
/// tried there, this one tracked the simulator's drift best. The loop runs once untimed first, so the timed
/// run finds the table, TLB and branch state warm whatever ran before.
fn calibrate() -> u64 {
    CAL_TABLE.with(|t| {
        let table = &mut *t.borrow_mut();
        cal_loop(table);
        let start = Instant::now();
        cal_loop(table);
        elapsed_ns(start)
    })
}

fn cal_loop(table: &mut [u64]) {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_add(x);
    }
    std::hint::black_box(table);
}

/// Accumulates timed host spans, raw and scaled to nominal host speed by
/// the most recent calibration.
#[derive(Clone, Debug)]
pub struct Meter {
    cal_ns: u64,
    cal_at: Instant,
    /// Calibration times measured, ns.
    pub cals: Vec<u64>,
    /// Raw host ns of the spans.
    pub raw_ns: u64,
    /// The same spans in nominal host ns.
    pub nominal_ns: f64,
}

impl Meter {
    /// A meter calibrated now.
    pub fn new() -> Meter {
        let cal_ns = calibrate();
        Meter { cal_ns, cal_at: Instant::now(), cals: vec![cal_ns], raw_ns: 0, nominal_ns: 0.0 }
    }

    /// Times `f` as one span; recalibrates first once `CAL_PERIOD` has passed.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.cal_at.elapsed() >= CAL_PERIOD {
            self.cal_ns = calibrate();
            self.cal_at = Instant::now();
            self.cals.push(self.cal_ns);
        }
        let t = Instant::now();
        let r = f();
        let ns = elapsed_ns(t);
        self.raw_ns += ns;
        self.nominal_ns += ns as f64 * NOMINAL_CAL_NS / self.cal_ns as f64;
        r
    }
}

impl Default for Meter {
    fn default() -> Meter {
        Meter::new()
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Steps until the latest CPU clock reaches `target`, exactly as
/// `System::run_until` does. Returns false if the simulation finished first.
fn run_to(sys: &mut System, target: u64, prof: Option<&mut Profile>) -> bool {
    let Some(p) = prof else {
        sys.run_until(|s| s.k.now_max() >= target);
        return sys.k.now_max() >= target;
    };
    while sys.k.now_max() < target {
        let before = snap(&sys.k);
        p.runq_sum += before.runq;
        let t = Instant::now();
        let r = sys.step();
        let dt = elapsed_ns(t);
        let after = snap(&sys.k);
        let c = classify(&before, &after);
        p.steps[c] += 1;
        p.ns[c] += dt;
        p.instr[c] += after.instr - before.instr;
        match r {
            SysStep::Progress => {}
            SysStep::Finished => return false,
            SysStep::Deadlock => panic!("simulation deadlock"),
            SysStep::External { class, .. } => panic!("unhandled external event class {class}"),
        }
    }
    true
}

/// Layer counters summed over CPUs, plus the dIPC runtime's own.
fn counters(sys: &System) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    let mut add = |k: &'static str, v: u64| *m.entry(k).or_insert(0) += v;
    for c in &sys.k.cpus {
        let cpu = &c.cpu;
        let (it, dt, hc) = (cpu.itlb.stats(), cpu.dtlb.stats(), &cpu.exec_stats.caches);
        let (apl_hits, apl_misses) = cpu.apl_cache.stats();
        add("instr", cpu.retired);
        add("crossings", cpu.domain_crossings);
        add("itlb_hits", it.hits);
        add("itlb_misses", it.misses);
        add("dtlb_hits", dt.hits);
        add("dtlb_misses", dt.misses);
        add("tlb_flushes", it.flushes + dt.flushes);
        add("apl_hits", apl_hits);
        add("apl_misses", apl_misses);
        add("block_hits", hc.block_hits);
        add("block_misses", hc.block_misses);
        add("block_evict_conflicts", hc.block_evict_conflicts);
        add("block_bails", hc.block_bails);
        add("icache_hits", hc.icache_hits);
        add("icache_misses", hc.icache_misses);
        add("dcache_hits", hc.dcache_hits);
        add("dcache_misses", hc.dcache_misses);
        add("cross_hits", hc.cross_hits);
        add("cross_misses", hc.cross_misses);
    }
    add("cold_resolves", sys.cold_resolves);
    add("splits", sys.splits);
    add("unwinds", sys.unwinds);
    m
}

/// Window deltas of [`counters`].
struct Deltas(BTreeMap<&'static str, u64>);

impl Deltas {
    fn new(before: &BTreeMap<&'static str, u64>, after: &BTreeMap<&'static str, u64>) -> Deltas {
        Deltas(after.iter().map(|(k, a)| (*k, a - before[k])).collect())
    }

    fn get(&self, name: &str) -> u64 {
        self.0[name]
    }

    /// `hits / (hits + misses)`, 0 with no lookups.
    fn rate(&self, hits: &str, misses: &str) -> f64 {
        let (h, m) = (self.get(hits), self.get(misses));
        h as f64 / (h + m).max(1) as f64
    }

    /// `misses / (hits + misses)`, 0 with no lookups.
    fn miss_rate(&self, hits: &str, misses: &str) -> f64 {
        self.rate(misses, hits)
    }
}

/// One pass: set-up, then the measured window.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host time of set-up (build, warm-up, settle).
    pub setup: Meter,
    /// Host time of the measured window.
    pub window: Meter,
    /// Simulated outputs: a deterministic function of the inputs that a
    /// host-only change must leave identical.
    pub sim: BTreeMap<&'static str, f64>,
    /// Execution-engine cache counters. Host-side: they vary slightly
    /// between identical passes, and a host-only change may move them.
    pub engine: BTreeMap<&'static str, f64>,
    /// Requests attempted in the window.
    pub attempted: u64,
    /// Requests that failed (errors, not admission-control sheds).
    pub failed: u64,
}

/// Fills the outputs every workload shares: the window's Figure 2
/// breakdown and the layer counters.
fn common_outputs(pass: &mut Pass, sys: &System, b0: &simkernel::TimeBreakdown, d: &Deltas) {
    let b = sys.k.breakdown().since(b0);
    let sim_frac = [
        "simkernel.sim_frac.user",
        "simkernel.sim_frac.syscall",
        "simkernel.sim_frac.dispatch",
        "simkernel.sim_frac.kernel",
        "simkernel.sim_frac.sched",
        "simkernel.sim_frac.ptswitch",
        "simkernel.sim_frac.idle",
    ];
    for (key, cat) in sim_frac.iter().zip(TimeCat::ALL) {
        pass.sim.insert(key, b.fraction(cat));
    }
    let s = &mut pass.sim;
    s.insert("cdvm.instr", d.get("instr") as f64);
    s.insert("codoms.domain_crossings", d.get("crossings") as f64);
    s.insert("codoms.apl_miss_rate", d.miss_rate("apl_hits", "apl_misses"));
    s.insert("simmem.itlb_miss_rate", d.miss_rate("itlb_hits", "itlb_misses"));
    s.insert("simmem.dtlb_miss_rate", d.miss_rate("dtlb_hits", "dtlb_misses"));
    s.insert("simmem.tlb_flushes", d.get("tlb_flushes") as f64);
    s.insert("dipc.cold_resolves", d.get("cold_resolves") as f64);
    s.insert("dipc.splits", d.get("splits") as f64);
    s.insert("dipc.unwinds", d.get("unwinds") as f64);
    let e = &mut pass.engine;
    e.insert("cdvm.block_hit_rate", d.rate("block_hits", "block_misses"));
    e.insert("cdvm.block_misses", d.get("block_misses") as f64);
    e.insert("cdvm.block_evict_conflicts", d.get("block_evict_conflicts") as f64);
    e.insert("cdvm.block_bails", d.get("block_bails") as f64);
    e.insert("cdvm.icache_hit_rate", d.rate("icache_hits", "icache_misses"));
    e.insert("cdvm.dcache_hit_rate", d.rate("dcache_hits", "dcache_misses"));
    e.insert("cdvm.cross_hit_rate", d.rate("cross_hits", "cross_misses"));
}

/// Latency percentiles of `sorted` (converted to µs by `to_us`): the median,
/// p99, and p99.9 only where at least ten samples lie beyond it. `sim_tail_us`
/// is the highest of those that is reported.
fn latency(sim: &mut BTreeMap<&'static str, f64>, sorted: &[u64], to_us: impl Fn(u64) -> f64) {
    let n = sorted.len();
    let beyond = |q: f64| n.saturating_sub(1 + ((n.saturating_sub(1)) as f64 * q).round() as usize);
    sim.insert("sim.samples", n as f64);
    sim.insert("sim_p50_us", to_us(percentile(sorted, 0.50)));
    let mut tail_q = 0.5;
    for (q, key) in [(0.99, "sim_p99_us"), (0.999, "sim_p999_us")] {
        if beyond(q) >= TAIL_MIN_BEYOND {
            sim.insert(key, to_us(percentile(sorted, q)));
            tail_q = q;
        }
    }
    sim.insert("sim.tail_quantile", tail_q);
    sim.insert("sim.tail_beyond", beyond(tail_q) as f64);
    sim.insert("sim_tail_us", to_us(percentile(sorted, tail_q)));
}

/// Figure 8's measured window (`oltp::Stack::run`), driven in 1 ms simulated
/// slices. Latency samples are inter-completion intervals of each client
/// slot (closed loop, zero think time), timestamped at slice ends; a slot's
/// first completion in the window has no interval and gives no sample.
fn oltp_pass(dipc: bool, shape: &OltpShape, mut prof: Option<&mut Profile>) -> Pass {
    let mut setup = Meter::new();
    let p = OltpParams::with(shape.conc, StorageKind::InMemory);
    let mut st = setup.time(|| if dipc { dipc_stack::build(&p) } else { linux_stack::build(&p) });
    let cost = st.sys.k.cost.clone();
    let slice = cost.cycles_from_ns(OLTP_SAMPLE_NS);
    // The warm-up in slices, so the meter can recalibrate between them.
    let warm_end = cost.cycles_from_ns(shape.warm_ms as f64 * 1e6);
    let mut target = 0;
    while target < warm_end {
        target = (target + slice).min(warm_end);
        setup.time(|| st.sys.run_until(|s| s.k.now_max() >= target));
    }

    let (pt, base) = st.counters;
    let read_slots = |sys: &System| -> Vec<u64> {
        (0..st.slots).map(|i| sys.k.mem.kread_u64(pt, base + i * 8).unwrap_or(0)).collect()
    };
    let mut last = read_slots(&st.sys);
    let ops0: u64 = last.iter().sum();
    let mut last_ts: Vec<Option<u64>> = vec![None; last.len()];
    let mut samples: Vec<u64> = Vec::new();
    let mut unsampled = 0u64;
    let b0 = st.sys.k.breakdown();
    let k0 = counters(&st.sys);
    let c0 = st.sys.k.now_max();
    let end = c0 + cost.cycles_from_ns(shape.measure_ms as f64 * 1e6);
    let mut window = Meter::new();
    let mut target = c0;
    while target < end {
        target = (target + slice).min(end);
        let live = window.time(|| run_to(&mut st.sys, target, prof.as_deref_mut()));
        assert!(live, "the OLTP stacks never finish");
        let now = st.sys.k.now_max();
        for (i, v) in read_slots(&st.sys).into_iter().enumerate() {
            if v != last[i] {
                let done = v - last[i];
                match last_ts[i] {
                    Some(ts) => {
                        samples.extend(std::iter::repeat_n((now - ts) / done, done as usize))
                    }
                    None => unsampled += done,
                }
                last[i] = v;
                last_ts[i] = Some(now);
            }
        }
    }
    let ops = last.iter().sum::<u64>() - ops0;
    let dt_ns = cost.ns(st.sys.k.now_max() - c0);
    let mut pass = Pass {
        setup,
        window,
        sim: BTreeMap::new(),
        engine: BTreeMap::new(),
        attempted: ops,
        failed: 0,
    };
    common_outputs(&mut pass, &st.sys, &b0, &Deltas::new(&k0, &counters(&st.sys)));
    samples.sort_unstable();
    latency(&mut pass.sim, &samples, |c| cost.ns(c) / 1e3);
    let s = &mut pass.sim;
    s.insert("ops", ops as f64);
    s.insert("ops_per_min", ops as f64 / (dt_ns / 1e9) * 60.0);
    s.insert("sim_throughput_per_s", ops as f64 / (dt_ns / 1e9));
    s.insert("sim.unsampled", unsampled as f64);
    s.insert("done_frac", 1.0);
    s.insert("window_cycles", (st.sys.k.now_max() - c0) as f64);
    // The closed loop has no admission control: every attempt completes or
    // is still in flight, and one is always in flight per slot.
    for key in ["oltp.shed_bucket", "oltp.shed_ring", "oltp.shed_queue", "oltp.shed_app"] {
        s.insert(key, 0.0);
    }
    s.insert("oltp.failed", 0.0);
    s.insert("oltp.offered", ops as f64);
    s.insert("oltp.in_flight", 0.0);
    s.insert("oltp.cache_hit_frac", 0.0);
    pass
}

/// Per-thread latency-buffer cursors (`ProdStack::lat_counts`).
fn lat_counts(s: &ProdStack) -> Vec<u64> {
    let m = &s.sys.k.mem;
    (0..s.lat.threads)
        .map(|i| m.kread_u64(s.lat.pt, s.lat.base + i * LAT_STRIDE).unwrap_or(0))
        .collect()
}

/// Drains new latency samples (`ProdStack::drain_lat`).
fn drain_lat(s: &ProdStack, last: &mut [u64], out: &mut Vec<u64>) {
    let m = &s.sys.k.mem;
    for (i, cursor) in last.iter_mut().enumerate().take(s.lat.threads as usize) {
        let base = s.lat.base + i as u64 * LAT_STRIDE;
        let c1 = m.kread_u64(s.lat.pt, base).unwrap_or(0);
        let lo = (*cursor).max(c1.saturating_sub(LAT_SLOTS));
        for c in lo..c1 {
            let off = 8 + (c & (LAT_SLOTS - 1)) * 8;
            out.push(m.kread_u64(s.lat.pt, base + off).unwrap_or(0));
        }
        *cursor = c1;
    }
}

/// Clears an armed lane doorbell and wakes its consumer at `at`
/// (`ProdStack::wake_lane`).
fn wake_lane(s: &mut ProdStack, i: usize, at: u64) {
    let db = s.lanes[i].base + layout::CTRL_DOORBELL;
    if s.sys.k.mem.kread_u64(s.pt, db).unwrap_or(0) != 0 {
        s.sys.k.mem.kwrite_u64(s.pt, db, 0).expect("ring is mapped");
        s.sys.k.host_futex_wake_at(s.pt, db, 1, at);
    }
}

/// `prodbench`'s load point. Set-up builds a throwaway graph and runs a
/// short open-loop window on it from the warm-up seed, then builds the
/// measured graph and lets it settle. The measured window re-drives
/// `ProdStack::run_open_loop` from the public API, so its outputs equal that
/// function's for the same build and generator.
fn prod_pass(shape: &ProdShape, mut prof: Option<&mut Profile>) -> Pass {
    let mut setup = Meter::new();
    let pp = ProdParams::production();
    let opts = RunOpts::default();
    let mut warm = setup.time(|| service_graph::build(&pp));
    let mut gen = shape.open_loop(shape.warm_seed, shape.warm_window_ns);
    let mut tb = TokenBucket::new(BUCKET_RATE, BUCKET_BURST);
    setup.time(|| warm.run_open_loop(&mut gen, &mut tb, &opts));
    drop(warm);
    let mut s = setup.time(|| service_graph::build(&pp));
    let mut gen = shape.open_loop(shape.seed, shape.window_ns);
    let mut bucket = TokenBucket::new(BUCKET_RATE, BUCKET_BURST);
    assert_eq!(gen.cfg().lanes, s.threads, "workload lanes must match the graph's edge threads");
    let cost = s.sys.k.cost.clone();
    let settle_end = s.sys.k.now_max() + cost.cycles_from_ns(opts.settle_ns as f64);
    setup.time(|| s.sys.run_until(|x| x.k.now_max() >= settle_end));

    let b0 = s.sys.k.breakdown();
    let k0 = counters(&s.sys);
    let t0c = s.sys.k.now_max();
    let t0_ns = cost.ns(t0c) as u64;
    let end = t0c + cost.cycles_from_ns(shape.window_ns as f64);
    let slice = cost.cycles_from_ns(opts.slice_ns as f64).max(1);
    let g0 = s.guest_counts();
    let mut lat_last = lat_counts(&s);
    let mut samples: Vec<u64> = Vec::new();
    let (mut offered, mut admitted, mut shed_bucket, mut shed_ring) = (0u64, 0u64, 0u64, 0u64);
    let mut touched = vec![false; s.lanes.len()];
    let mut next = gen.next();
    let mut now = t0c;
    let alive = |s: &ProdStack| s.sys.k.procs[&s.edge_pid].alive;
    let mut window = Meter::new();
    while now < end && alive(&s) {
        window.time(|| {
            run_to(&mut s.sys, (now + slice).min(end), prof.as_deref_mut());
            let t_inject = Instant::now();
            now = s.sys.k.now_max();
            drain_lat(&s, &mut lat_last, &mut samples);
            let due_ns = (cost.ns(now) as u64).saturating_sub(t0_ns);
            while let Some(a) = next {
                if a.t_ns > due_ns {
                    break;
                }
                offered += 1;
                if !bucket.admit(a.t_ns) {
                    shed_bucket += 1;
                } else if !alive(&s) {
                    shed_ring += 1;
                } else {
                    let lane = a.lane as usize;
                    let rec = [a.key, a.tenant, t0_ns + a.t_ns, a.session];
                    let ring = s.lanes[lane].ring;
                    let mut g = s.sys.channel_mem(s.lanes[lane].id);
                    match ring.try_enqueue(&mut g, &rec) {
                        Ok(_) => {
                            admitted += 1;
                            touched[lane] = true;
                        }
                        Err(_) => shed_ring += 1,
                    }
                }
                next = gen.next();
            }
            for (i, hit) in touched.iter_mut().enumerate() {
                if std::mem::take(hit) {
                    wake_lane(&mut s, i, now);
                }
            }
            if let Some(p) = prof.as_deref_mut() {
                p.inject_ns += elapsed_ns(t_inject);
            }
        });
    }
    let drain_end = now + cost.cycles_from_ns(opts.drain_ns as f64);
    while now < drain_end && alive(&s) {
        window.time(|| {
            run_to(&mut s.sys, (now + slice).min(drain_end), prof.as_deref_mut());
            let t_inject = Instant::now();
            now = s.sys.k.now_max();
            drain_lat(&s, &mut lat_last, &mut samples);
            if let Some(p) = prof.as_deref_mut() {
                p.inject_ns += elapsed_ns(t_inject);
            }
        });
    }

    let g1 = s.guest_counts();
    let completed = g1.ops - g0.ops;
    let failed = g1.failed - g0.failed;
    let (shed_queue, shed_app) = (g1.shed_queue - g0.shed_queue, g1.shed_app - g0.shed_app);
    let (hits, misses) = (g1.cache_hits - g0.cache_hits, g1.cache_misses - g0.cache_misses);
    let mut pass = Pass {
        setup,
        window,
        sim: BTreeMap::new(),
        engine: BTreeMap::new(),
        attempted: offered,
        failed,
    };
    common_outputs(&mut pass, &s.sys, &b0, &Deltas::new(&k0, &counters(&s.sys)));
    samples.sort_unstable();
    latency(&mut pass.sim, &samples, |ns| ns as f64 / 1e3);
    let m = &mut pass.sim;
    m.insert("ops", completed as f64);
    m.insert("oltp.offered", offered as f64);
    m.insert("oltp.admitted", admitted as f64);
    m.insert("oltp.shed_bucket", shed_bucket as f64);
    m.insert("oltp.shed_ring", shed_ring as f64);
    m.insert("oltp.shed_queue", shed_queue as f64);
    m.insert("oltp.shed_app", shed_app as f64);
    m.insert("oltp.failed", failed as f64);
    let finished = completed + shed_queue + shed_app + failed;
    m.insert("oltp.in_flight", admitted as f64 - finished as f64);
    m.insert("oltp.cache_hit_frac", hits as f64 / (hits + misses).max(1) as f64);
    m.insert("oltp.tenant_touches", s.tenant_touches() as f64);
    m.insert("sim_throughput_per_s", completed as f64 / (shape.window_ns as f64 / 1e9));
    m.insert("done_frac", completed as f64 / offered.max(1) as f64);
    m.insert("window_cycles", (s.sys.k.now_max() - t0c) as f64);
    pass
}

/// Median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nominal host ns of the fastest window among `passes`.
fn fastest_window_ns<'a>(passes: impl Iterator<Item = &'a Pass>) -> f64 {
    passes.map(|p| p.window.nominal_ns).min_by(f64::total_cmp).expect("a pass")
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of a run: its passes, checked against each other.
pub struct Report {
    /// Unprofiled passes.
    pub plain: Vec<Pass>,
    /// Profiled passes, each with its profile.
    pub traced: Vec<(Pass, Profile)>,
    /// Disagreements between passes, by name (empty when all agree).
    pub mismatches: Vec<String>,
}

impl Report {
    /// Checks that every pass produced the same simulated outputs as the
    /// first unprofiled pass. Engine counters are left out: they vary by
    /// about 1% between identical passes.
    pub fn new(plain: Vec<Pass>, traced: Vec<(Pass, Profile)>) -> Report {
        let mut mismatches = Vec::new();
        let first = &plain[0];
        let others = plain[1..]
            .iter()
            .map(|p| ("untraced", p))
            .chain(traced.iter().map(|(p, _)| ("traced", p)));
        for (i, (kind, p)) in others.enumerate() {
            if first.sim.keys().ne(p.sim.keys()) {
                mismatches
                    .push(format!("pass {} ({kind}): simulated outputs differ in keys", i + 1));
            }
            for (k, v) in &first.sim {
                match p.sim.get(k) {
                    Some(w) if w.to_bits() == v.to_bits() => {}
                    w => mismatches
                        .push(format!("pass {} ({kind}): {k} = {w:?}, first pass {v}", i + 1)),
                }
            }
        }
        Report { plain, traced, mismatches }
    }

    /// End-to-end metrics, from the unprofiled passes.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let sim = &self.plain[0].sim;
        let run_s = fastest_window_ns(self.plain.iter()) / 1e9;
        let setups: Vec<f64> = self.plain.iter().map(|p| p.setup.nominal_ns / 1e9).collect();
        vec![
            ("setup_s", median(&setups), "s"),
            ("run_s", run_s, "s"),
            ("sim_mips", sim["cdvm.instr"] / run_s / 1e6, "MIPS"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("sim_throughput_per_s", sim["sim_throughput_per_s"], "1/sim_s"),
            ("sim_p50_us", sim["sim_p50_us"], "sim_us"),
            ("sim_tail_us", sim["sim_tail_us"], "sim_us"),
            ("done_frac", sim["done_frac"], "fraction"),
        ]
    }

    /// Per-layer metrics, from the profiled pass with the fastest window.
    pub fn per_layer(&self) -> Vec<Metric> {
        let (pass, prof) = self
            .traced
            .iter()
            .min_by(|a, b| a.0.window.nominal_ns.total_cmp(&b.0.window.nominal_ns))
            .expect("a profiled pass");
        // Step times are raw host ns, so their shares are of the raw window.
        let window = pass.window.raw_ns as f64;
        let steps: u64 = prof.steps.iter().sum();
        let step_ns: u64 = prof.ns.iter().sum();
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        let mut m: Vec<Metric> = vec![
            ("simkernel.steps", steps as f64, "count"),
            ("simkernel.step_ns", per(step_ns, steps), "ns/step"),
            ("simkernel.runq_len", per(prof.runq_sum, steps), "threads"),
        ];
        for (c, [steps, ns, share]) in CLASS_METRICS.into_iter().enumerate() {
            m.push((steps, prof.steps[c] as f64, "count"));
            m.push((ns, per(prof.ns[c], prof.steps[c]), "ns/step"));
            m.push((share, prof.ns[c] as f64 / window, "fraction"));
        }
        let sim = &pass.sim;
        for (k, v) in sim.iter().filter(|(k, _)| k.starts_with("simkernel.sim_frac.")) {
            m.push((k, *v, "fraction"));
        }
        let slice_instr = prof.instr[SLICE];
        m.push(("cdvm.instr", sim["cdvm.instr"], "count"));
        m.push(("cdvm.instr_per_slice", per(slice_instr, prof.steps[SLICE]), "instr/step"));
        m.push(("cdvm.slice_mips", per(slice_instr * 1000, prof.ns[SLICE]), "MIPS"));
        for (k, v) in &pass.engine {
            let unit = if k.ends_with("_rate") { "fraction" } else { "count" };
            m.push((k, *v, unit));
        }
        for k in [
            "codoms.apl_miss_rate",
            "codoms.domain_crossings",
            "simmem.itlb_miss_rate",
            "simmem.dtlb_miss_rate",
            "simmem.tlb_flushes",
            "dipc.cold_resolves",
            "dipc.splits",
            "dipc.unwinds",
            "oltp.offered",
            "oltp.shed_bucket",
            "oltp.shed_ring",
            "oltp.shed_queue",
            "oltp.shed_app",
            "oltp.failed",
            "oltp.in_flight",
            "oltp.cache_hit_frac",
            "sim.samples",
            "sim.tail_quantile",
        ] {
            let unit = if k.ends_with("_rate") || k.ends_with("_frac") || k.ends_with("quantile") {
                "fraction"
            } else {
                "count"
            };
            m.push((k, sim[k], unit));
        }
        m.push(("oltp.inject_ns", prof.inject_ns as f64, "ns"));
        let u = fastest_window_ns(self.plain.iter());
        let t = fastest_window_ns(self.traced.iter().map(|(p, _)| p));
        m.push(("bench.trace_overhead_frac", (t - u) / u, "fraction"));
        m.push(("bench.window_raw_ns", window, "ns"));
        let cals: Vec<f64> =
            self.plain.iter().flat_map(|p| p.window.cals.iter().map(|c| *c as f64)).collect();
        m.push(("bench.cal_ns", median(&cals), "ns"));
        m
    }
}
