//! The repository's benchmark: four workloads over the standard T-Drive
//! set, each printing its end-to-end metrics by name with their units and
//! ending with one JSON line. `run.py` builds this binary and `shardd`
//! from source and then runs it:
//!
//! ```text
//! perfbench --workload simplify|serve|live|cluster --seed N --seconds S
//!           --trace 0|1 --shardd path/to/shardd
//! ```
//!
//! With `--trace 0` the workload runs untraced and reports the end-to-end
//! metrics. With `--trace 1` every workload's traced pass runs in turn
//! and the per-layer metrics are reported; spans are written to
//! `.perfbench/spans-<pass>.jsonl` when the run ends.

mod cluster;
mod common;
mod live;
mod serve;
mod simplify;
mod trace;

use std::path::PathBuf;

/// The end-to-end metrics every untraced run reports, with units. The
/// list must match `end_to_end` in BENCHMARK.json.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("read_qps", "1/s"),
    ("read_p50_ms", "ms"),
    ("range_f1", "ratio"),
    ("knn_f1", "ratio"),
];

/// The per-layer metrics every traced run reports. The list must match
/// `per_layer` in BENCHMARK.json; `perfbench/README.md` names the
/// end-to-end metric and workload each one is expected to move.
const PER_LAYER: [(&str, &str); 49] = [
    ("traj_query.batch_ms", "ms"),
    ("traj_query.inproc_qps", "1/s"),
    ("traj_query.range_us", "us"),
    ("traj_query.knn_us", "us"),
    ("traj_query.similarity_us", "us"),
    ("traj_query.knn_share", "ratio"),
    ("traj_query.result_ids", "count"),
    ("traj_index.build_ms", "ms"),
    ("traj_index.assign_ms", "ms"),
    ("wire.encode_request_us", "us"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_response_us", "us"),
    ("wire.decode_response_us", "us"),
    ("wire.response_bytes", "bytes"),
    ("server.outside_engine_share", "ratio"),
    ("server.mean_coalesced_batch", "queries"),
    ("coordinator.route_us", "us"),
    ("coordinator.shard0_rtt_ms", "ms"),
    ("coordinator.shard1_rtt_ms", "ms"),
    ("coordinator.merge_us", "us"),
    ("coordinator.frames_sent", "count"),
    ("coordinator.frames_pruned", "count"),
    ("coordinator.overhead_share", "ratio"),
    ("trajectory.delta_append_us_per_point", "us"),
    ("trajectory.delta_fsync_ms", "ms"),
    ("traj_simp.onepass_ns_per_point", "ns"),
    ("generational.ingest_ms", "ms"),
    ("generational.merged_batch_ms", "ms"),
    ("generational.compact_ms", "ms"),
    ("generational.compactions", "count"),
    ("generational.bytes_rewritten_per_ingested_byte", "ratio"),
    ("generational.trajs_acked", "count"),
    ("traj_simp.topdown_s", "s"),
    ("traj_simp.bottomup_s", "s"),
    ("traj_simp.rlts_s", "s"),
    ("traj_simp.spansearch_s", "s"),
    ("traj_simp.baseline_simplify_s", "s"),
    ("core.train_s", "s"),
    ("core.train_episodes", "count"),
    ("core.train_insertions", "count"),
    ("core.train_transitions", "count"),
    ("core.simplify_s", "s"),
    ("core.kept_points", "count"),
    ("core.insertions_per_s", "1/s"),
    ("core.point_state_us", "us"),
    ("core.cube_state_us", "us"),
    ("tiny_rl.train_step_us", "us"),
    ("tiny_rl.q_values_us", "us"),
    ("trace.overhead_share", "ratio"),
];

/// What one run of a workload (or one traced pass) found.
#[derive(Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted and failed (requests, ingest frames,
    /// simplifications).
    pub attempted: u64,
    pub failed: u64,
    /// Gated metrics: name and value; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload-specific figures printed by name with their unit but not
    /// part of the JSON line (`train_s`, `ingest_p99_ms`, ...).
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic work counts: identical on every run of the same
    /// code with the same seed.
    pub counts: Vec<(String, u64)>,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.push((name, value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.counts.push((name.into(), value));
    }

    /// Records a failed check; the run then exits non-zero.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what.into()));
        }
    }

    fn absorb(&mut self, other: Report) {
        self.correct &= other.correct;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.extra.extend(other.extra);
        self.counts.extend(other.counts);
        self.notes.extend(other.notes);
    }
}

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub shardd: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload simplify|serve|live|cluster --seed <n> \
         --seconds <s> --trace 0|1 --shardd <path>"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> String {
    match args
        .iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
    {
        Some(v) => v.clone(),
        None => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload");
    let seed: u64 = flag(&args, "--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = flag(&args, "--seconds").parse().unwrap_or_else(|_| usage());
    let traced = match flag(&args, "--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    let shardd = PathBuf::from(flag(&args, "--shardd"));
    if !shardd.is_file() || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    if !["simplify", "serve", "live", "cluster"].contains(&workload.as_str()) {
        usage();
    }
    let ctx = Ctx {
        seed,
        seconds,
        shardd,
    };

    println!(
        "context: nproc {} | cpu {} | simd {} | dataset tdrive(Small).with_trajectories({}) seed {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model(),
        trajectory::simd::active_backend(),
        common::dataset_spec().num_trajectories,
        common::DATA_SEED,
    );

    let (report, table): (Report, &[(&str, &str)]) = if traced {
        let mut all = Report::new();
        for pass in ["simplify", "serve", "live", "cluster"] {
            println!("== traced pass: {pass}");
            let r = match pass {
                "simplify" => simplify::trace(&ctx),
                "serve" => serve::trace(&ctx),
                "live" => live::trace(&ctx),
                _ => cluster::trace(&ctx),
            };
            all.absorb(r);
        }
        // Every pass printed its tracing overhead; the metric is the one
        // of the workload this run was asked for.
        let key = format!("trace.overhead.{workload}");
        let overhead = all
            .extra
            .iter()
            .find(|e| e.0 == key)
            .map_or(f64::NAN, |e| e.1);
        all.metric("trace.overhead_share", overhead);
        (all, &PER_LAYER)
    } else {
        let r = match workload.as_str() {
            "simplify" => simplify::run(&ctx),
            "serve" => serve::run(&ctx),
            "live" => live::run(&ctx),
            _ => cluster::run(&ctx),
        };
        (r, &END_TO_END)
    };
    finish(report, table);
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or_else(
            || "unknown".to_string(),
            |v| v.trim_start_matches([' ', '\t', ':']).to_string(),
        )
}

/// Prints the human-readable lines, then the JSON line last; exits
/// non-zero when a check failed or a metric is missing.
fn finish(mut report: Report, table: &[(&str, &str)]) {
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.extra {
        println!("{name} = {value:.6} {unit}");
    }
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    println!("counts {{{}}}", counts.join(", "));

    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = report.metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        let value = match value {
            Some(v) if v.is_finite() => v,
            _ => {
                report.correct = false;
                println!("CHECK FAILED: metric {name} was not measured");
                f64::NAN
            }
        };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if !report.correct || report.failed > 0 {
        std::process::exit(1);
    }
}
