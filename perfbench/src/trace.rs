//! In-memory spans recorded around calls into the repository's public
//! functions. Nothing inside the program is instrumented: a span covers
//! one call made from the benchmark's own code.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::Report;

/// One timed call. `parent` is 0 for a root span; every span of one
/// replayed request carries the same `request` id.
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when on; when off, [`Tracer::time`] only calls through,
/// so the same replay run both ways gives the tracing overhead.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its id (1-based) is what children name as parent.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u64
    }

    pub fn end(&mut self, id: u64) {
        if id > 0 {
            let now = self.now_ns();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Mean duration of spans called `name`, in seconds.
    pub fn mean(&self, name: &str) -> f64 {
        let d = self.durations(name);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Per span name: count, total seconds, and self seconds (duration
    /// minus the part of it that child spans cover), in first-seen order.
    pub fn breakdown(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    /// Adds the self-time breakdown to the report's notes and writes the
    /// spans to `.perfbench/spans-<pass>.jsonl`.
    pub fn finish(&self, r: &mut Report, pass: &str) {
        for (name, n, total, own) in self.breakdown() {
            r.notes.push(format!(
                "span {pass:<8} {name:<34} n={n:<6} total={:>10.3} ms self={:>10.3} ms",
                total * 1e3,
                own * 1e3
            ));
        }
        let _ = std::fs::create_dir_all(".perfbench");
        let path = Path::new(".perfbench").join(format!("spans-{pass}.jsonl"));
        if let Err(e) = self.write(&path) {
            r.notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    }
}

/// Untraced and traced runs of each replay behind the overhead figure.
pub const ROUNDS: usize = 3;

/// Runs `pass` (which returns its wall time in seconds) once untraced to
/// warm up, then `rounds` times untraced and traced in turn, so neither
/// side always runs first; the last traced run records into `tr`. Adds
/// the overhead — median traced over median untraced wall time, minus
/// one — to the report as `key`, and returns the last traced run's output.
pub fn with_overhead<T>(
    r: &mut Report,
    tr: &mut Tracer,
    key: &'static str,
    rounds: usize,
    mut pass: impl FnMut(&mut Tracer) -> (f64, T),
) -> T {
    pass(&mut Tracer::new(false));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for round in 0..rounds {
        plain.push(pass(&mut Tracer::new(false)).0);
        let (wall, out) = if round + 1 == rounds {
            pass(tr)
        } else {
            pass(&mut Tracer::new(true))
        };
        traced.push(wall);
        last = Some(out);
    }
    let (plain, traced) = (
        crate::common::median(&plain),
        crate::common::median(&traced),
    );
    let overhead = traced / plain - 1.0;
    r.extra(key, overhead, "ratio");
    r.notes.push(format!(
        "tracing overhead ({key}): {:+.2}% (median {traced:.3} s traced vs {plain:.3} s untraced, {rounds} rounds each)",
        overhead * 100.0
    ));
    last.expect("at least one round")
}
