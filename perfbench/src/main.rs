//! Runs one benchmark workload and prints one JSON report line on stdout.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--prod-seed <n>]
//! ```
//!
//! Passes repeat until `--seconds` of host time is spent (at least two
//! unprofiled passes, or one unprofiled and one profiled with `--trace 1`).
//! `perfbench/run.py` builds this binary, checks the report against the
//! recorded reference and prints the benchmark's result line.

use std::time::Instant;

use perfbench::{Metric, Pass, Profile, Report, Spec, PROD_SEED};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <oltp-linux-c512|oltp-dipc-c512|prod-650k> --seed <n> \
         --seconds <s> --trace <0|1> [--prod-seed <n>]"
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "a reported value must be finite, got {v}");
    format!("{v:?}")
}

fn json_map<'a>(entries: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = entries.map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_json(m: &[Metric]) -> String {
    json_map(m.iter().map(|(k, v, unit)| {
        (*k, format!("{{\"value\": {}, \"unit\": {}}}", json_num(*v), json_str(unit)))
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut prod_seed) =
        (None, None, None, None, PROD_SEED);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(parse_u64(val).unwrap_or_else(|| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .unwrap_or_else(|| usage("--seconds must be in (0, 600]")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            "--prod-seed" => prod_seed = parse_u64(val).unwrap_or_else(|| usage("bad --prod-seed")),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let trace = trace.unwrap_or_else(|| usage("--trace is required"));
    let knobs = perfbench::set_knobs();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with configuration knobs set: {}", knobs.join(" "));
        std::process::exit(2);
    }
    let spec = Spec::named(&workload, seed, prod_seed)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));

    // Alternate unprofiled and profiled passes (profiled only with --trace 1)
    // until another pass would overrun the time budget.
    let start = Instant::now();
    let min_passes = 2;
    let (mut plain, mut traced): (Vec<Pass>, Vec<(Pass, Profile)>) = (Vec::new(), Vec::new());
    let mut longest = 0.0f64;
    loop {
        let n = plain.len() + traced.len();
        let spent = start.elapsed().as_secs_f64();
        if n >= min_passes && spent + longest > seconds {
            break;
        }
        let t = Instant::now();
        if trace && n % 2 == 1 {
            let mut prof = Profile::default();
            let pass = spec.pass(Some(&mut prof));
            traced.push((pass, prof));
        } else {
            plain.push(spec.pass(None));
        }
        longest = longest.max(t.elapsed().as_secs_f64());
    }

    let report = Report::new(plain, traced);
    let first = &report.plain[0];
    let metrics = if trace { report.per_layer() } else { report.end_to_end() };
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let provenance = json_map(
        [
            ("workload", json_str(&workload)),
            ("seed", seed.to_string()),
            ("prod_seed", format!("\"{prod_seed:#x}\"")),
            ("spec", json_str(&format!("{spec:?}"))),
            ("host_cpus", host_cpus.to_string()),
            ("seconds", json_num(seconds)),
            ("passes_untraced", report.plain.len().to_string()),
            ("passes_traced", report.traced.len().to_string()),
            ("measured_s", json_num(start.elapsed().as_secs_f64())),
        ]
        .into_iter(),
    );
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> String {
        let v: Vec<String> = report.plain.iter().map(|p| json_num(f(p))).collect();
        format!("[{}]", v.join(", "))
    };
    let mismatches: Vec<String> = report.mismatches.iter().map(|m| json_str(m)).collect();
    println!(
        "{}",
        json_map(
            [
                ("provenance", provenance),
                ("attempted", first.attempted.to_string()),
                ("failed", first.failed.to_string()),
                ("mismatches", format!("[{}]", mismatches.join(", "))),
                ("window_s", per_pass(&|p| p.window.nominal_ns / 1e9)),
                ("window_raw_s", per_pass(&|p| p.window.raw_ns as f64 / 1e9)),
                ("setup_s", per_pass(&|p| p.setup.nominal_ns / 1e9)),
                ("setup_raw_s", per_pass(&|p| p.setup.raw_ns as f64 / 1e9)),
                (
                    "cal_ns",
                    per_pass(&|p| perfbench::median(
                        &p.window.cals.iter().map(|c| *c as f64).collect::<Vec<_>>()
                    ))
                ),
                ("sim", json_map(first.sim.iter().map(|(k, v)| (*k, json_num(*v))))),
                ("engine", json_map(first.engine.iter().map(|(k, v)| (*k, json_num(*v))))),
                ("metrics", metrics_json(&metrics)),
            ]
            .into_iter()
        )
    );
}
