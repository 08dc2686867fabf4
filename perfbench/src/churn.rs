//! `churn_durable`: moving-object updates through a `DurableDb`, then a
//! crash and a timed recovery.
//!
//! Each planned step moves one uniformly chosen object by a small
//! displacement in one atomic commit, `[Remove(id), Insert(moved)]`, with
//! default `DurableOptions` (fsync every commit). The query path stays
//! idle: answers are only checked after the stream.
//!
//! Growth guard: before each commit the benchmark applies the same two
//! operations to an out-of-band `WritableEngine::fork` of the published
//! snapshot and reads `octree_stats()`. If the successor would hold more
//! than `GUARD_GROWTH` times the build-time leaf records, the commit and
//! every later planned commit are left unissued and count as failed. The
//! durable state therefore never holds the blown-up octree, so the
//! recovery replay and the stored size stay bounded; the refused growth is
//! reported as `octree.records_growth`.

use crate::read::{bitwise_equal, build_metrics, check_queries, trace_path};
use crate::trace::{Layer, SpanId, Tracer};
use crate::{
    dataset, median, params, percentile, sub_seed, Args, Outcome, CHECK_QUERIES, MIB, SETUPS,
};
use pv_core::db::{PersistentEngine, WritableEngine};
use pv_core::durable::{DbOp, DurableDb, DurableOptions};
use pv_core::index::PvIndex;
use pv_core::query::{ProbNnEngine, QueryOutcome, QueryScratch, QuerySpec};
use pv_core::stats::UpdateStats;
use pv_core::verify::LinearScan;
use pv_geom::HyperRect;
use pv_uncertain::{UncertainDb, UncertainObject};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Planned commits per run; the run issues them until `--seconds` pass.
const STREAM_COMMITS: usize = 1_200;
/// The guard trips when leaf records exceed this multiple of the
/// build-time count. The remove blowup jumps past it in one commit.
const GUARD_GROWTH: usize = 10;
/// Largest per-axis displacement of one move.
const MAX_MOVE: f64 = crate::MAX_SIDE / 4.0;
/// Spans kept for the churn-level trace (a few per commit).
pub const SPAN_CAPACITY: usize = 1 << 14;

/// SplitMix64: the move stream's generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One planned move: which object (index into the sorted id list) and its
/// per-axis displacement.
struct Move {
    object: usize,
    delta: [f64; crate::DIM],
}

fn plan(seed: u64) -> Vec<Move> {
    let mut state = sub_seed(seed, 3);
    (0..STREAM_COMMITS)
        .map(|_| Move {
            object: (splitmix(&mut state) % crate::OBJECTS as u64) as usize,
            delta: std::array::from_fn(|_| (unit(&mut state) * 2.0 - 1.0) * MAX_MOVE),
        })
        .collect()
}

/// The object moved by `delta`, kept inside the domain with its size.
fn moved(o: &UncertainObject, delta: &[f64], domain: &HyperRect) -> UncertainObject {
    let (lo, hi): (Vec<f64>, Vec<f64>) = (0..o.region.dim())
        .map(|j| {
            let side = o.region.extent(j);
            let l = (o.region.lo()[j] + delta[j]).clamp(domain.lo()[j], domain.hi()[j] - side);
            (l, l + side)
        })
        .unzip();
    UncertainObject {
        id: o.id,
        region: HyperRect::new(lo, hi),
        pdf: o.pdf.clone(),
    }
}

fn open(tr: &mut Option<Tracer>, layer: Layer, parent: Option<SpanId>, req: u32) -> Option<SpanId> {
    tr.as_mut()
        .filter(|t| t.room() > 0)
        .map(|t| t.begin(layer, parent, req))
}

fn close(tr: &mut Option<Tracer>, span: Option<SpanId>) {
    if let (Some(t), Some(s)) = (tr.as_mut(), span) {
        t.end(s);
    }
}

/// Per-commit accounting from `DurableCommit::stats` and the benchmark's
/// own timers.
#[derive(Debug, Default)]
struct Commits {
    latency_ms: Vec<f64>,
    remove_ms: f64,
    insert_ms: f64,
    se_ms: f64,
    apply_ms: f64,
    fork_ms: Vec<f64>,
    log_ms: Vec<f64>,
    rotation_log_ms: Vec<f64>,
    affected: u64,
    scanned: u64,
    cow_copies: u64,
    wal_bytes: u64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn se_ms(s: &UpdateStats) -> f64 {
    ms(s.se.cset_time + s.se.refine_time)
}

/// Runs `churn_durable` on its own: set-up, the stream, the crash and the
/// recovery, with the commit-level end-to-end metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let db = dataset(args.seed, 500);
    let root = scratch_dir(args);
    let result = standalone(args, &db, &root);
    let cleanup = std::fs::remove_dir_all(&root);
    let out = result?;
    cleanup.map_err(|e| format!("removing {}: {e}", root.display()))?;
    Ok(out)
}

/// A directory of this process for the durable databases, removed by the
/// caller when the run ends.
pub fn scratch_dir(args: &Args) -> PathBuf {
    Path::new(".perfbench-out").join(format!(
        "db-{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

fn standalone(args: &Args, db: &UncertainDb, root: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut tr = args.trace.then(|| Tracer::with_capacity(SPAN_CAPACITY));

    // Set-up: build, then create the durable directory; repeated, median.
    let mut setup = Vec::with_capacity(SETUPS);
    let mut create_s = Vec::with_capacity(SETUPS);
    let mut live: Option<(DurableDb<PvIndex>, PathBuf)> = None;
    for k in 0..SETUPS {
        if let Some((old, old_dir)) = live.take() {
            drop(old);
            std::fs::remove_dir_all(&old_dir).map_err(|e| e.to_string())?;
        }
        let dir = root.join(format!("db{k}"));
        let t = Instant::now();
        let s = open(&mut tr, Layer::Build, None, 0);
        let index = PvIndex::build(db, params());
        close(&mut tr, s);
        let tc = Instant::now();
        let s = open(&mut tr, Layer::Create, None, 0);
        let ddb =
            DurableDb::create(&dir, index, DurableOptions::default()).map_err(|e| e.to_string())?;
        close(&mut tr, s);
        create_s.push(tc.elapsed().as_secs_f64());
        setup.push(t.elapsed().as_secs_f64());
        live = Some((ddb, dir));
    }
    let (ddb, dir) = live.expect("SETUPS is at least 1");
    out.metrics.insert("setup_s", median(&setup));
    out.metrics.insert("durable.create_s", median(&create_s));
    build_metrics(ddb.db().reader().engine(), &mut out.metrics);

    let lat = stream(args, db, ddb, &dir, &mut tr, &mut out)?;
    let stream_s: f64 = lat.iter().sum::<f64>() / 1e3;
    out.metrics.insert("commit_p50_ms", percentile(&lat, 0.50));
    out.metrics.insert("commit_p99_ms", percentile(&lat, 0.99));
    out.metrics.insert(
        "commit_qps",
        lat.len() as f64 / stream_s.max(f64::MIN_POSITIVE),
    );

    if let Some(t) = &tr {
        let path = trace_path(args);
        t.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Drives the moving-object stream through `ddb` (whose snapshot holds
/// `db`'s objects), checks the live answers against `LinearScan`, drops
/// the database without a clean shutdown and times its recovery. Fills the
/// write-path, storage and recovery metrics plus `index_mib` and
/// `recovery_s`; returns the acknowledged commit latencies in ms, sorted.
pub fn stream(
    args: &Args,
    db: &UncertainDb,
    ddb: DurableDb<PvIndex>,
    dir: &Path,
    tr: &mut Option<Tracer>,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let mut shadow: BTreeMap<u64, UncertainObject> =
        db.objects.iter().map(|o| (o.id, o.clone())).collect();
    let ids: Vec<u64> = shadow.keys().copied().collect();
    let moves = plan(args.seed);
    let checks = pv_workload::queries::uniform(&db.domain, CHECK_QUERIES, sub_seed(args.seed, 2));

    let base_records = ddb.db().reader().engine().octree_stats().leaf_records;
    let empty_wal = ddb.wal_bytes();
    let mut peak_records = base_records;
    let mut c = Commits::default();
    let mut guard_s = 0.0;
    let mut tripped = false;
    let mut compactions = 0u64;
    let deadline = Instant::now() + args.seconds;

    for (step, mv) in moves.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let req = u32::try_from(step).expect("planned commits fit in u32");
        let id = ids[mv.object];
        let next = moved(&shadow[&id], &mv.delta, &db.domain);
        let ops = [DbOp::Remove(id), DbOp::Insert(next.clone())];

        // Pre-flight on an out-of-band fork of the published snapshot.
        let reader = ddb.db().reader();
        let t = Instant::now();
        let s = open(tr, Layer::Fork, None, req);
        let mut fork = reader.engine().fork();
        close(tr, s);
        let fork_ms = ms(t.elapsed());
        let tg = Instant::now();
        let s = open(tr, Layer::Guard, None, req);
        let applied = fork
            .apply_remove(id)
            .and_then(|_| fork.apply_insert(next.clone()));
        let records = fork.octree_stats().leaf_records;
        drop(fork);
        close(tr, s);
        guard_s += tg.elapsed().as_secs_f64();
        drop(reader);
        peak_records = peak_records.max(records);
        if records > GUARD_GROWTH * base_records {
            let unissued = (moves.len() - step) as u64;
            eprintln!(
                "growth guard: step {step} would take leaf records {base_records} -> {records}; \
                 {unissued} planned commits left unissued"
            );
            out.attempted += unissued;
            out.failed += unissued;
            tripped = true;
            break;
        }
        if let Err(e) = applied {
            out.attempted += 1;
            out.fail(&format!("pre-flight apply failed: {e}"));
            continue;
        }

        let snap_before = ddb.snapshot_version();
        let wal_before = ddb.wal_bytes();
        let t = Instant::now();
        let s = open(tr, Layer::Commit, None, req);
        let result = ddb.commit(&ops);
        close(tr, s);
        let latency = ms(t.elapsed());
        out.attempted += 1;
        let commit = match result {
            Ok(commit) => commit,
            Err(e) => {
                out.fail(&format!("commit error: {e}"));
                continue;
            }
        };
        if let Some(e) = &commit.compaction_error {
            out.fail(&format!("compaction error: {e}"));
        }
        if !commit.synced {
            out.fail("commit acknowledged without fsync under SyncPolicy::EveryCommit");
        }
        shadow.insert(id, next);
        let [remove, insert] = commit.stats.as_slice() else {
            out.fail("commit returned the wrong number of UpdateStats");
            continue;
        };
        let apply = ms(remove.time + insert.time);
        c.latency_ms.push(latency);
        c.remove_ms += ms(remove.time);
        c.insert_ms += ms(insert.time);
        c.se_ms += se_ms(remove) + se_ms(insert);
        c.apply_ms += apply;
        c.fork_ms.push(fork_ms);
        c.affected += (remove.affected + insert.affected) as u64;
        c.scanned += (remove.scanned + insert.scanned) as u64;
        c.cow_copies += ddb.db().reader().engine().pager().cow_copies();
        let wal_after = ddb.wal_bytes();
        if ddb.snapshot_version() != snap_before {
            compactions += 1;
            c.wal_bytes += wal_after.saturating_sub(empty_wal);
            c.rotation_log_ms.push(latency - apply - fork_ms);
        } else {
            c.wal_bytes += wal_after.saturating_sub(wal_before);
            c.log_ms.push(latency - apply - fork_ms);
        }
    }

    let acked = c.latency_ms.len();
    let last_version = ddb.db().version();
    {
        let reader = ddb.db().reader();
        let engine = reader.engine();
        out.metrics
            .insert("index_mib", engine.pager().disk_bytes() as f64 / MIB);
        out.metrics
            .insert("storage.live_pages", engine.pager().live_pages() as f64);
        out.metrics
            .insert("index.stale_backlog", engine.maintenance_backlog() as f64);
        let shape = engine.octree_stats();
        out.metrics.insert("octree.leaves", shape.leaf_nodes as f64);
        out.metrics.insert("octree.depth", shape.depth as f64);
    }
    out.metrics.insert(
        "octree.records_growth",
        peak_records as f64 / base_records.max(1) as f64,
    );
    out.metrics
        .insert("guard.tripped", f64::from(u8::from(tripped)));
    out.metrics.insert("guard.preflight_s", guard_s);
    eprintln!(
        "churn: {acked} commits acknowledged, guard {}, peak leaf records {peak_records} (build {base_records})",
        if tripped { "tripped" } else { "not tripped" }
    );

    let per_commit = |x: f64| x / acked.max(1) as f64;
    let m = &mut out.metrics;
    m.insert("index.remove_ms", per_commit(c.remove_ms));
    m.insert("index.insert_ms", per_commit(c.insert_ms));
    m.insert("se.ms_per_commit", per_commit(c.se_ms));
    m.insert(
        "index.nonse_ms_per_commit",
        per_commit(c.apply_ms - c.se_ms),
    );
    m.insert("index.affected_per_commit", per_commit(c.affected as f64));
    m.insert("index.scanned_per_commit", per_commit(c.scanned as f64));
    m.insert(
        "storage.cow_copies_per_commit",
        per_commit(c.cow_copies as f64),
    );
    m.insert("wal.bytes_per_commit", per_commit(c.wal_bytes as f64));
    m.insert("db.fork_ms", median(&c.fork_ms));
    let log_ms = median(&c.log_ms);
    m.insert("durable.log_ms", log_ms);
    m.insert("durable.compactions", compactions as f64);
    let rotation: Vec<f64> = c.rotation_log_ms.iter().map(|r| r - log_ms).collect();
    m.insert(
        "durable.compaction_ms",
        if rotation.is_empty() {
            0.0
        } else {
            median(&rotation)
        },
    );

    // Live answers against LinearScan over the shadow object set.
    let live_answers = {
        let reader = ddb.db().reader();
        let shadow_db = UncertainDb::new(db.domain.clone(), shadow.into_values().collect());
        check_queries(reader.engine(), &LinearScan::new(&shadow_db), &checks, out)
    };

    // Crash: drop the database without a clean shutdown, then recover.
    drop(ddb);
    let t = Instant::now();
    let s = open(tr, Layer::Recover, None, 0);
    let (recovered, report) =
        DurableDb::<PvIndex>::open(dir, DurableOptions::default()).map_err(|e| e.to_string())?;
    close(tr, s);
    let recovery_s = t.elapsed().as_secs_f64();
    out.metrics.insert("recovery_s", recovery_s);
    out.attempted += 1;
    if report.recovered_version != last_version {
        out.fail(&format!(
            "recovered version {} != last acknowledged {last_version}",
            report.recovered_version
        ));
    }
    {
        let reader = recovered.db().reader();
        let spec = QuerySpec::new();
        let mut scratch = QueryScratch::default();
        let mut got = QueryOutcome::default();
        for (q, want) in checks.iter().zip(&live_answers) {
            out.attempted += 1;
            match reader
                .engine()
                .execute_into(q, &spec, &mut scratch, &mut got)
            {
                Err(e) => out.fail(&format!("recovered query error: {e}")),
                Ok(()) if !bitwise_equal(&got.answers, want) => {
                    out.fail("recovered answers differ from the live database");
                }
                Ok(()) => {}
            }
        }
    }
    drop(recovered);

    // Recovery split: decode of the generation recovery loaded; the rest
    // is replay.
    let snap = dir.join(format!("snap.{}.pvix", report.snapshot_version));
    let bytes = std::fs::read(&snap).map_err(|e| format!("reading {}: {e}", snap.display()))?;
    let mut decode = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = open(tr, Layer::Decode, None, 0);
        let index = PvIndex::from_snapshot_bytes(&bytes).map_err(|e| e.to_string())?;
        close(tr, s);
        decode.push(t.elapsed().as_secs_f64());
        drop(index);
    }
    let decode_s = median(&decode);
    out.metrics.insert("snapshot.decode_s", decode_s);
    out.metrics
        .insert("recovery.replay_s", (recovery_s - decode_s).max(0.0));
    out.metrics
        .insert("recovery.replayed_commits", report.replayed_commits as f64);

    let mut lat = c.latency_ms;
    lat.sort_by(f64::total_cmp);
    Ok(lat)
}
