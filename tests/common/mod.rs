//! Helpers shared by the workspace integration tests. Each `[[test]]`
//! binary is its own crate root, so everything here is `pub` and marked
//! `dead_code`-tolerant: every binary uses a subset.
#![allow(dead_code)]

use oltp::async_stack::{AsyncOltp, AsyncParams};
use oltp::service_graph::{build, ProdParams, ProdRun, RunOpts};
use oltp::workload::{OpenLoop, TokenBucket, WorkloadCfg};
use simkernel::Pid;

/// A quick variant of the asyncbench workload (short query bursts).
pub fn small_async() -> AsyncParams {
    let mut ap = AsyncParams::for_bench();
    ap.p.queries_per_op = 8;
    ap.batch = 4;
    ap
}

/// Total operations completed across the async stack's per-thread
/// counters.
pub fn ops_done(s: &AsyncOltp) -> u64 {
    let (pt, base) = s.stack.counters;
    (0..s.stack.slots).map(|i| s.stack.sys.k.mem.kread_u64(pt, base + i * 8).unwrap_or(0)).sum()
}

/// Looks a process up by name in the async stack's kernel.
pub fn pid_of(s: &AsyncOltp, name: &str) -> Pid {
    *s.stack
        .sys
        .k
        .procs
        .iter()
        .find(|(_, p)| p.name == name)
        .map(|(pid, _)| pid)
        .expect("process exists")
}

/// The production open-loop generator at `rate` req/s for `window_ns`,
/// sized to `pp`'s tenant/lane layout.
pub fn prod_gen(seed: u64, rate: f64, window_ns: u64, pp: &ProdParams) -> OpenLoop {
    let mut cfg = WorkloadCfg::production(seed, rate, window_ns);
    cfg.sessions = 3_000;
    cfg.tenants = pp.tenants;
    cfg.lanes = pp.edge_threads;
    OpenLoop::new(cfg)
}

/// Builds the production graph and runs one open-loop window; returns the
/// run report and the final simulated cycle count.
pub fn prod_run(pp: &ProdParams, seed: u64, rate: f64, window_ns: u64) -> (ProdRun, u64) {
    let mut s = build(pp);
    let mut g = prod_gen(seed, rate, window_ns, pp);
    let mut tb = TokenBucket::new(500_000, 128);
    let r = s.run_open_loop(&mut g, &mut tb, &RunOpts::default());
    (r, s.sys.k.now_max())
}

/// Drops what legitimately differs between the interpreter oracle and the
/// engine from a simtrace metrics summary: the `host.*` cache-telemetry
/// counter lines, and the `(none)` placeholder a section prints when it is
/// empty (the oracle's counter section is empty where the engine's holds
/// only `host.*` lines). Every simulated line remains.
pub fn strip_host_counters(summary: &str) -> String {
    summary
        .lines()
        .filter(|l| !l.trim_start().starts_with("host.") && l.trim() != "(none)")
        .map(|l| format!("{l}\n"))
        .collect()
}
