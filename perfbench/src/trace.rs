//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span holds its layer name, start, end, parent and request id. Spans
//! stay in a fixed-capacity buffer for the whole run, are reduced to self
//! time per layer, and are written out as TSV when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers a span can be attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One whole `execute_into`-equivalent query (the driver's own work is
    /// its self time).
    Query,
    /// `PvIndex::step1_into`: octree descent and leaf-record scan.
    Octree,
    /// `ProbNnEngine::fetch_dists_sq`: extendible-hash fetch plus the
    /// uncertain-object payload decode.
    Exthash,
    /// `prob::qualification_sweep_into`.
    Prob,
    /// `PvIndex::build`.
    Build,
    /// `DurableDb::create`.
    Create,
    /// `WritableEngine::fork` done out of band before a commit.
    Fork,
    /// The benchmark's pre-flight apply on that fork (the growth guard).
    Guard,
    /// `DurableDb::commit`.
    Commit,
    /// `DurableDb::open` after the simulated crash.
    Recover,
    /// `PersistentEngine::from_snapshot_bytes` on a snapshot generation.
    Decode,
}

impl Layer {
    const ALL: [Layer; 11] = [
        Layer::Query,
        Layer::Octree,
        Layer::Exthash,
        Layer::Prob,
        Layer::Build,
        Layer::Create,
        Layer::Fork,
        Layer::Guard,
        Layer::Commit,
        Layer::Recover,
        Layer::Decode,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Query => "query",
            Layer::Octree => "octree",
            Layer::Exthash => "exthash",
            Layer::Prob => "prob",
            Layer::Build => "build",
            Layer::Create => "create",
            Layer::Fork => "fork",
            Layer::Guard => "guard",
            Layer::Commit => "commit",
            Layer::Recover => "recover",
            Layer::Decode => "decode",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in ALL")
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    parent: u32,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// The span buffer. Recording never allocates: the buffer is sized once.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Spans that still fit in the buffer.
    pub fn room(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; the caller must close it with [`Tracer::end`] before
    /// opening a sibling. Callers check [`Tracer::room`] first.
    pub fn begin(&mut self, layer: Layer, parent: Option<SpanId>, request: u32) -> SpanId {
        assert!(self.room() > 0, "span buffer full; check room() first");
        let id = u32::try_from(self.spans.len()).expect("span buffer fits in u32");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            request,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(id)
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// durations of its direct children, summed by layer.
    pub fn self_time_s(&self) -> SelfTimes {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                self_ns[s.parent as usize] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut by_layer = [0.0f64; Layer::ALL.len()];
        let mut count = [0u64; Layer::ALL.len()];
        for (s, &ns) in self.spans.iter().zip(&self_ns) {
            by_layer[s.layer.index()] += ns as f64 * 1e-9;
            count[s.layer.index()] += 1;
        }
        SelfTimes { by_layer, count }
    }

    /// Writes every span as one TSV line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\trequest\tlayer\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-layer self time and span count of a trace.
#[derive(Debug)]
pub struct SelfTimes {
    by_layer: [f64; Layer::ALL.len()],
    count: [u64; Layer::ALL.len()],
}

impl SelfTimes {
    /// Total self time of a layer, in seconds.
    pub fn total_s(&self, layer: Layer) -> f64 {
        self.by_layer[layer.index()]
    }

    /// Number of spans of a layer.
    pub fn spans(&self, layer: Layer) -> u64 {
        self.count[layer.index()]
    }
}
