//! The `pnnq_*` workloads, and the query checks that `churn_durable`
//! reuses on its post-churn index.

use crate::trace::{Layer, SpanId, Tracer};
use crate::{
    churn, dataset, median, params, percentile, sub_seed, Args, Outcome, CHECK_QUERIES, MIB, SETUPS,
};
use pv_core::db::WritableEngine;
use pv_core::durable::{DurableDb, DurableOptions};
use pv_core::index::PvIndex;
use pv_core::prob::{qualification_sweep_into, ProbScratch};
use pv_core::query::{
    FetchScratch, ProbNnEngine, QueryOutcome, QueryScratch, QuerySpec, Step1Engine,
};
use pv_core::verify::LinearScan;
use pv_geom::{min_dist_sq, Point};
use pv_storage::Pager;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Distinct query points per run; the closed loop cycles through them.
const QUERY_POOL: usize = 65_536;
/// Spans the traced run keeps in memory.
const SPAN_CAPACITY: usize = 1 << 18;
/// Spans reserved per traced query (3 plus one per fetched payload).
const SPANS_PER_QUERY_MAX: usize = 4_096;
/// Probability-sum tolerance of a full PNNQ answer.
const SUM_TOLERANCE: f64 = 1e-6;
/// Per-answer probability tolerance against `LinearScan`.
const PROB_TOLERANCE: f64 = 1e-9;

/// Runs `pnnq_s500` or `pnnq_s16`.
pub fn run(args: &Args, samples: u32) -> Result<Outcome, String> {
    let db = dataset(args.seed, samples);
    let pool = pv_workload::queries::uniform(&db.domain, QUERY_POOL, sub_seed(args.seed, 1));
    let checks = pv_workload::queries::uniform(&db.domain, CHECK_QUERIES, sub_seed(args.seed, 2));
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // Set-up is repeated SETUPS times; in the end-to-end run each index
    // serves one equal share of the closed loop right after its build, so
    // the measured queries are spread over the whole run instead of one
    // stretch of it.
    let mut setup = Vec::with_capacity(SETUPS);
    let mut lat = Latencies::default();
    let mut built = None;
    for k in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let index = PvIndex::build(&db, params());
        setup.push(t.elapsed().as_secs_f64());
        if k == 0 {
            check_queries(&index, &LinearScan::new(&db), &checks, &mut out);
        }
        if !args.trace {
            let share = args.seconds / SETUPS as u32;
            closed_loop(&index, &pool, share, &mut lat, &mut out);
        }
        built = Some(index);
    }
    let index = built.expect("SETUPS is at least 1");
    out.metrics.insert("setup_s", median(&setup));
    build_metrics(&index, &mut out.metrics);

    if args.trace {
        trace_queries(&index, &pool, args.seconds, &trace_path(args), &mut out)?;
        let root = churn::scratch_dir(args);
        let result = write_path(args, &db, &index, &root, &mut out);
        let cleanup = std::fs::remove_dir_all(&root);
        result?;
        cleanup.map_err(|e| format!("removing {}: {e}", root.display()))?;
    } else {
        lat.report(&mut out);
        out.metrics
            .insert("index_mib", index.pager().disk_bytes() as f64 / MIB);
    }
    Ok(out)
}

/// The write-path layers of a traced run: the `churn_durable` stream over a
/// durable copy of the freshly built index, then the crash and recovery.
fn write_path(
    args: &Args,
    db: &pv_uncertain::UncertainDb,
    index: &PvIndex,
    root: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = root.join("db");
    let mut tr = Some(Tracer::with_capacity(churn::SPAN_CAPACITY));
    let t = Instant::now();
    let ddb = DurableDb::create(&dir, index.fork(), DurableOptions::default())
        .map_err(|e| e.to_string())?;
    out.metrics
        .insert("durable.create_s", t.elapsed().as_secs_f64());
    churn::stream(args, db, ddb, &dir, &mut tr, out)?;
    let path = trace_path(args).with_extension("writes.tsv");
    tr.expect("tracer was created above")
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    Path::new(".perfbench-out").join(format!("trace-{}-seed{}.tsv", args.workload, args.seed))
}

/// Build-phase metrics of the index's own `BuildStats`.
pub fn build_metrics(index: &PvIndex, m: &mut BTreeMap<&'static str, f64>) {
    let b = index.build_stats();
    m.insert(
        "build.phase1_s",
        (b.total_time.saturating_sub(b.insert_time)).as_secs_f64(),
    );
    m.insert("se.cset_s", b.se.cset_time.as_secs_f64());
    m.insert("se.refine_s", b.se.refine_time.as_secs_f64());
    m.insert("se.avg_cset_size", b.avg_cset_size());
    m.insert("build.phase2_s", b.insert_time.as_secs_f64());
}

fn prob_sum(answers: &[(u64, f64)]) -> f64 {
    answers.iter().map(|&(_, p)| p).sum()
}

/// Checks each point against `LinearScan` (same ids, probabilities within
/// 1e-9, Σp ≈ 1) and the benchmark's replay against `execute_into`
/// (bitwise). Returns the index's answers, in point order.
pub fn check_queries(
    index: &PvIndex,
    scan: &LinearScan,
    points: &[Point],
    out: &mut Outcome,
) -> Vec<Vec<(u64, f64)>> {
    let spec = QuerySpec::new();
    let mut scratch = QueryScratch::default();
    let mut got = QueryOutcome::default();
    let mut replay = Replay::default();
    let mut answers = Vec::with_capacity(points.len());
    for q in points {
        out.attempted += 1;
        if let Err(e) = index.execute_into(q, &spec, &mut scratch, &mut got) {
            out.fail(&format!("query error: {e}"));
            answers.push(Vec::new());
            continue;
        }
        let truth = match scan.execute(q, &spec) {
            Ok(t) => t,
            Err(e) => {
                out.fail(&format!("LinearScan error: {e}"));
                answers.push(got.answers.clone());
                continue;
            }
        };
        let mut a = got.answers.clone();
        let mut b = truth.answers.clone();
        a.sort_by_key(|&(id, _)| id);
        b.sort_by_key(|&(id, _)| id);
        let same = a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|(x, y)| x.0 == y.0 && (x.1 - y.1).abs() <= PROB_TOLERANCE);
        if !same {
            out.fail("answer differs from LinearScan");
        } else if (prob_sum(&a) - 1.0).abs() > SUM_TOLERANCE {
            out.fail("probabilities do not sum to 1");
        }
        replay.run(index, q, None);
        if !bitwise_equal(&replay.answers, &got.answers) {
            out.fail("replay differs from execute_into");
        }
        answers.push(got.answers.clone());
    }
    answers
}

/// Answers equal id for id and bit for bit.
pub fn bitwise_equal(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Query latencies of the end-to-end run, pooled over its loop shares.
#[derive(Debug, Default)]
struct Latencies {
    us: Vec<f64>,
    loop_s: f64,
}

impl Latencies {
    fn report(&mut self, out: &mut Outcome) {
        self.us.sort_by(f64::total_cmp);
        out.metrics
            .insert("query_p50_us", percentile(&self.us, 0.50));
        out.metrics
            .insert("query_p99_us", percentile(&self.us, 0.99));
        out.metrics.insert(
            "query_qps",
            self.us.len() as f64 / self.loop_s.max(f64::MIN_POSITIVE),
        );
        eprintln!(
            "closed loop: {} queries in {:.3} s",
            self.us.len(),
            self.loop_s
        );
    }
}

/// The untraced end-to-end loop: one client, closed loop, full PNNQ, for
/// `run`, cycling through the pool.
fn closed_loop(
    index: &PvIndex,
    pool: &[Point],
    run: Duration,
    lat: &mut Latencies,
    out: &mut Outcome,
) {
    let spec = QuerySpec::new();
    let mut scratch = QueryScratch::default();
    let mut got = QueryOutcome::default();
    let start = Instant::now();
    let deadline = start + run;
    let mut end = start;
    for q in pool.iter().cycle() {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let r = index.execute_into(q, &spec, &mut scratch, &mut got);
        end = Instant::now();
        lat.us.push((end - t0).as_secs_f64() * 1e6);
        out.attempted += 1;
        match r {
            Err(e) => out.fail(&format!("query error: {e}")),
            Ok(()) if (prob_sum(&got.answers) - 1.0).abs() > SUM_TOLERANCE => {
                out.fail("probabilities do not sum to 1");
            }
            Ok(()) => {}
        }
    }
    lat.loop_s += (end - start).as_secs_f64();
}

/// Counts gathered by the replay, summed over queries.
#[derive(Debug, Default)]
struct Counts {
    records: u64,
    step1_pages: u64,
    survivors: u64,
    fetched: u64,
    hash_pages: u64,
    instances: u64,
    useful: u64,
}

/// The Step-2 driver of `ProbNnEngine::execute_into` for a full PNNQ
/// (`QuerySpec::new()`: no threshold, top-k or I/O budget), rebuilt from the
/// engine's public hooks so the benchmark can put a span around each layer.
/// Its answers must equal `execute_into`'s bit for bit.
#[derive(Debug, Default)]
struct Replay {
    ids: Vec<u64>,
    order: Vec<(u64, f64)>,
    spans: Vec<(u64, u32, u32)>,
    dists: Vec<f64>,
    prob: ProbScratch,
    fetch: FetchScratch,
    answers: Vec<(u64, f64)>,
    counts: Counts,
}

impl Replay {
    fn run(&mut self, index: &PvIndex, q: &Point, mut tr: Option<(&mut Tracer, u32)>) {
        let reads = &index.pager().stats().reads;
        let root = open(&mut tr, Layer::Query, None);
        let s = open(&mut tr, Layer::Octree, root);
        let step1 = index.step1_into(q, &mut self.ids, &mut self.fetch);
        close(&mut tr, s);

        self.order.clear();
        for &id in &self.ids {
            self.order
                .push((id, min_dist_sq(index.candidate_region(id), q)));
        }
        self.order
            .sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        self.spans.clear();
        self.dists.clear();
        let mut hash_pages = 0;
        for &(id, _) in &self.order {
            let start = self.dists.len();
            let s = open(&mut tr, Layer::Exthash, root);
            let before = reads.load(Ordering::Relaxed);
            let _pages = index.fetch_dists_sq(id, q, &mut self.dists, &mut self.fetch);
            hash_pages += reads.load(Ordering::Relaxed) - before;
            close(&mut tr, s);
            let new = &mut self.dists[start..];
            new.sort_unstable_by(f64::total_cmp);
            self.spans.push((
                id,
                u32::try_from(start).expect("instance count fits in u32"),
                u32::try_from(new.len()).expect("instance count fits in u32"),
            ));
        }
        let s = open(&mut tr, Layer::Prob, root);
        qualification_sweep_into(&self.spans, &self.dists, &mut self.prob, &mut self.answers);
        close(&mut tr, s);
        self.answers
            .sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        close(&mut tr, root);

        let c = &mut self.counts;
        c.records += step1.candidates as u64;
        c.step1_pages += step1.io_reads;
        c.survivors += self.ids.len() as u64;
        c.fetched += self.order.len() as u64;
        c.hash_pages += hash_pages;
        c.instances += self.dists.len() as u64;
        c.useful += self.answers.iter().filter(|&&(_, p)| p > 0.0).count() as u64;
    }
}

fn open(
    tr: &mut Option<(&mut Tracer, u32)>,
    layer: Layer,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    tr.as_mut().map(|(t, req)| t.begin(layer, parent, *req))
}

fn close(tr: &mut Option<(&mut Tracer, u32)>, span: Option<SpanId>) {
    if let (Some((t, _)), Some(s)) = (tr.as_mut(), span) {
        t.end(s);
    }
}

/// The traced run over the query path. Each point of the pool runs once
/// through the traced replay and once untraced through `execute_into`,
/// alternating which goes first, until the run ends or the span buffer is
/// full. The untraced runs give the tracing overhead under the same machine
/// conditions and check the traced answers bit for bit.
pub fn trace_queries(
    index: &PvIndex,
    pool: &[Point],
    run: Duration,
    path: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let mut replay = Replay::default();
    let spec = QuerySpec::new();
    let mut scratch = QueryScratch::default();
    let mut got = QueryOutcome::default();
    let mut untraced_s = 0.0;
    let mut skipped = 0u64;
    let deadline = Instant::now() + run;
    let mut n = 0usize;
    for q in pool.iter().cycle() {
        if tracer.room() < SPANS_PER_QUERY_MAX || Instant::now() >= deadline {
            break;
        }
        let req = u32::try_from(n).expect("traced requests fit in u32");
        let traced_first = n % 2 == 1;
        if traced_first {
            replay.run(index, q, Some((&mut tracer, req)));
        }
        let t0 = Instant::now();
        let r = index.execute_into(q, &spec, &mut scratch, &mut got);
        untraced_s += t0.elapsed().as_secs_f64();
        if !traced_first {
            replay.run(index, q, Some((&mut tracer, req)));
        }
        n += 1;
        out.attempted += 1;
        skipped += got.skipped_payloads as u64;
        match r {
            Err(e) => out.fail(&format!("query error: {e}")),
            Ok(()) if !bitwise_equal(&replay.answers, &got.answers) => {
                out.fail("traced replay differs from execute_into");
            }
            Ok(()) => {}
        }
    }
    let self_times = tracer.self_time_s();
    // Self times of a query's spans add up to its root span.
    let traced_s = self_times.total_s(Layer::Query)
        + self_times.total_s(Layer::Octree)
        + self_times.total_s(Layer::Exthash)
        + self_times.total_s(Layer::Prob);
    tracer
        .write_tsv(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let c = &replay.counts;
    let per_q = |x: f64| x / n.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let m = &mut out.metrics;
    m.insert(
        "octree.step1_us",
        per_q(self_times.total_s(Layer::Octree)) * 1e6,
    );
    m.insert("octree.records_per_query", per_q(c.records as f64));
    m.insert("octree.pages_per_query", per_q(c.step1_pages as f64));
    m.insert("query.step1_survivor_ratio", ratio(c.survivors, c.records));
    m.insert(
        "exthash.fetch_us",
        per_q(self_times.total_s(Layer::Exthash)) * 1e6,
    );
    m.insert("exthash.pages_per_query", per_q(c.hash_pages as f64));
    m.insert("query.payloads_fetched", per_q(c.fetched as f64));
    m.insert("query.payloads_skipped", per_q(skipped as f64));
    m.insert("query.payload_useful_ratio", ratio(c.useful, c.fetched));
    m.insert(
        "prob.sweep_us",
        per_q(self_times.total_s(Layer::Prob)) * 1e6,
    );
    m.insert("prob.instances_per_query", per_q(c.instances as f64));
    m.insert(
        "query.driver_self_us",
        per_q(self_times.total_s(Layer::Query)) * 1e6,
    );
    let layers = self_times.total_s(Layer::Octree)
        + self_times.total_s(Layer::Exthash)
        + self_times.total_s(Layer::Prob);
    m.insert(
        "trace.overhead_ratio",
        traced_s / untraced_s.max(f64::MIN_POSITIVE),
    );
    m.insert(
        "trace.layer_share",
        layers / untraced_s.max(f64::MIN_POSITIVE),
    );
    eprintln!(
        "traced {n} queries ({} spans) into {}",
        self_times.spans(Layer::Query)
            + self_times.spans(Layer::Octree)
            + self_times.spans(Layer::Exthash)
            + self_times.spans(Layer::Prob),
        path.display()
    );
    Ok(())
}
