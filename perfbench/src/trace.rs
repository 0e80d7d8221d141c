//! In-memory spans recorded around the benchmark's own calls into each
//! layer, aggregated into per-layer self times and written out at exit.
//!
//! A span's self time is its duration minus the time its child spans
//! cover; because every span of a traced operation hangs off one root,
//! the self times of all layers sum exactly to the traced operation time.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Operation (loop, request or task) the span belongs to.
    pub op: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Free-form tag (for example how a request was served).
    pub tag: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span shards per collector. Each thread records into its own shard, so
/// dispatcher threads tracing kernels do not contend on one lock.
const SHARDS: usize = 16;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// A span collector shared by every thread of one run. Span indices (and
/// parent links) are local to the recording thread's shard; open, close
/// and children of one span must be recorded on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

fn lock(shard: &Mutex<Vec<Span>>) -> std::sync::MutexGuard<'_, Vec<Span>> {
    shard
        .lock()
        .expect("no thread panics while holding a span lock")
}

impl Tracer {
    /// An empty collector.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn shard(&self) -> &Mutex<Vec<Span>> {
        &self.shards[SHARD.with(|s| *s)]
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        tag: &'static str,
        t0: Instant,
        t1: Instant,
    ) -> usize {
        let span = Span {
            name,
            op,
            parent,
            tag,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
        };
        let mut spans = lock(self.shard());
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, "", now, now)
    }

    /// Closes an open span now, setting its tag.
    pub fn close(&self, idx: usize, tag: &'static str) {
        let end = self.ns(Instant::now());
        let mut spans = lock(self.shard());
        spans[idx].end_ns = end;
        spans[idx].tag = tag;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn scope<T>(&self, name: &'static str, op: u64, parent: usize, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, op, Some(parent));
        let out = f();
        self.close(idx, "");
        out
    }

    /// Takes every span recorded so far, leaving the collector empty;
    /// parent links are rebased onto the returned vector.
    pub fn take(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let base = all.len();
            all.extend(std::mem::take(&mut *lock(shard)).into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        all
    }

    /// Self time (ns) and span count per layer name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for shard in &self.shards {
            let spans = lock(shard);
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans.iter() {
                if let Some(p) = s.parent {
                    child_ns[p] += s.dur_ns();
                }
            }
            for (s, covered) in spans.iter().zip(child_ns) {
                let e = out.entry(s.name).or_default();
                e.0 += s.dur_ns().saturating_sub(covered);
                e.1 += 1;
            }
        }
        out
    }

    /// Writes (and takes) every span recorded so far; see [`write_jsonl`].
    pub fn write_jsonl(&self, path: &std::path::Path) {
        write_jsonl(&self.take(), path);
    }

    /// Summed duration (ns) and count of the spans named `name` tagged
    /// `tag`.
    pub fn tagged(&self, name: &str, tag: &str) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |acc, shard| {
            lock(shard)
                .iter()
                .filter(|s| s.name == name && s.tag == tag)
                .fold(acc, |(ns, n), s| (ns + s.dur_ns(), n + 1))
        })
    }
}

/// Writes `spans` as JSON lines to `path` (best effort: a failed write is
/// reported on stderr and does not fail the run).
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) {
    let result = (|| -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                    w,
                    "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                    s.name, s.op, s.tag, s.start_ns, s.end_ns
                )?;
        }
        w.flush()
    })();
    if let Err(e) = result {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}

/// Where a traced run writes its spans: one file per workload, replaced
/// by every traced run, under the benchmark's ignored output directory.
pub fn spans_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new("perfbench")
        .join("out")
        .join(format!("{workload}.spans.jsonl"))
}
