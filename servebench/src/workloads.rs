//! The three workloads: set-up, the timed closed loop of one client, and
//! the crash-reopen check at the end.

use crate::corpus::{self, Model, Shape, LARGE, SMALL, STORE_SEED};
use crate::faults;
use crate::served::{self, Served};
use dna_block_store::workload::{OpKind, WorkloadSpec};
use dna_block_store::{
    open_or_recover_store, BlockStore, PartitionConfig, PartitionId, ServerConfig, StoreError,
    StoreServer,
};
use dna_seq::rng::DetRng;
use dna_serve::client::{CallError, JobPoll};
use dna_serve::Client;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; the run reports their median and keeps the last.
pub const SETUP_REPS: usize = 9;

/// Seed of the `hot-zipf` operation stream. The stream is the same in
/// every run: on a 32-block working set, which reads follow which updates
/// changes the miss rate and the patch chains by a third from one stream
/// to the next, far more than the machine's noise. The workload seed
/// picks the update images.
pub const HOT_STREAM_SEED: u64 = 0x5EB1;

/// Blocks per `range-scan` span.
pub const SPAN: u64 = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform reads of distinct blocks over an archive larger than the
    /// cache: every read goes to the wetlab.
    ColdRead,
    /// The serving mix over a working set that fits the cache.
    HotZipf,
    /// `StoreServer::read_range` over consecutive spans, in-process.
    RangeScan,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ColdRead, Workload::HotZipf, Workload::RangeScan];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRead => "cold-read",
            Workload::HotZipf => "hot-zipf",
            Workload::RangeScan => "range-scan",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The archive the workload runs on.
    pub fn shape(self) -> Shape {
        match self {
            Workload::ColdRead | Workload::RangeScan => LARGE,
            Workload::HotZipf => SMALL,
        }
    }

    /// Operations per round: one read (or span) of every partition for
    /// `cold-read` and `range-scan`, a fixed slice of the op stream for
    /// `hot-zipf`.
    pub fn round_ops(self) -> u64 {
        match self {
            Workload::ColdRead | Workload::RangeScan => LARGE.partitions,
            Workload::HotZipf => 25,
        }
    }

    /// Whole rounds a run of `seconds` attempts. A run does a fixed amount
    /// of work rather than stopping at a deadline, so the operations it
    /// attempts, and so which of them fail, are the same in every run; the
    /// amount is sized from the rate the workload reaches on a 2-vCPU
    /// machine (see `README.md`), so the loop takes about `seconds` there.
    pub fn rounds(self, seconds: u64) -> u64 {
        let (ops_per_10s, most) = match self {
            Workload::ColdRead => (60, LARGE.blocks),
            Workload::HotZipf => (1750, u64::MAX),
            Workload::RangeScan => (16, LARGE.blocks / SPAN),
        };
        (seconds * ops_per_10s / (10 * self.round_ops())).clamp(1, most)
    }
}

/// One wetlab retrieval the workload caused: `lo..=hi` of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retrieval {
    /// Partition index.
    pub partition: u64,
    /// First block.
    pub lo: u64,
    /// Last block.
    pub hi: u64,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct RunRecord {
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every operation of the timed loop, in ms.
    pub op_ms: Vec<f64>,
    /// Latency per block of every operation served from the wetlab, in ms.
    pub wetlab_ms_per_block: Vec<f64>,
    /// Latency of cache hits, in ms.
    pub hit_ms: Vec<f64>,
    /// Latency of updates (submit and wait), in ms.
    pub update_ms: Vec<f64>,
    /// Latency of maintenance jobs, in ms.
    pub maintenance_ms: Vec<f64>,
    /// Wall time of the timed loop, in seconds.
    pub elapsed_s: f64,
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations that failed with `DecodeFailed` on an intact block.
    pub failed: u64,
    /// Updates that hit exhausted slots and were retried after an inline
    /// maintenance pass.
    pub update_retries: u64,
    /// `ServerStats` counters accumulated over the timed loop.
    pub stats: BTreeMap<String, u64>,
    /// Peak RSS of the process holding the store, in MB.
    pub rss_mb: f64,
    /// Encoding units synthesized per block written: the load's units per
    /// block in `cold-read` and `range-scan` (counted from the recovered
    /// tubes), the timed loop's units (updates plus compaction rewrites)
    /// per acknowledged update in `hot-zipf`.
    pub units_per_write: f64,
    /// Wetlab retrievals in the order the loop made them.
    pub retrievals: Vec<Retrieval>,
    /// Correctness problems; any one fails the run.
    pub problems: Vec<String>,
}

impl RunRecord {
    /// One counter of the timed loop (0 when absent).
    pub fn stat(&self, name: &str) -> u64 {
        self.stats.get(name).copied().unwrap_or(0)
    }
}

/// The store after the crash-reopen check, for the traced replay.
pub struct Recovered {
    /// The store reopened with `open_or_recover_store`.
    pub store: BlockStore,
    /// Store pid of each partition index.
    pub pids: Vec<u64>,
    /// The model after the run's acknowledged updates.
    pub model: Model,
}

/// Runs the [`Workload::rounds`] of `workload` for `seconds`, with ops
/// drawn from `seed`, in `work` (a fresh directory that the caller removes
/// afterwards).
///
/// # Errors
///
/// Failures that leave nothing to report: a set-up or transport error.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    served_exe: Option<&Path>,
    work: &Path,
) -> Result<(RunRecord, Recovered), String> {
    let mut record = RunRecord::default();
    let mut model = Model::new(workload.shape());
    let rounds = workload.rounds(seconds);
    let dir = match workload {
        Workload::RangeScan => run_in_process(seed, rounds, work, &mut record, &model)?,
        Workload::ColdRead | Workload::HotZipf => {
            let exe = served_exe.ok_or("served was not built")?;
            run_served(workload, seed, rounds, exe, work, &mut record, &mut model)?
        }
    };
    let (store, pids, units) = reopen(&dir, &model, &mut record)?;
    record.units_per_write = match workload {
        // Per update, from the loop's counters: the tube's strand count
        // saw-tooths between compactions, the synthesis it cost does not.
        Workload::HotZipf => {
            let updates = record.stat("updates_applied");
            (updates + record.stat("rewrites_synthesized")) as f64 / updates as f64
        }
        Workload::ColdRead | Workload::RangeScan => units / workload.shape().total_blocks() as f64,
    };
    Ok((record, Recovered { store, pids, model }))
}

// ----- set-up ----------------------------------------------------------------

fn fresh_dir(work: &Path, rep: usize) -> Result<PathBuf, String> {
    let dir = work.join(format!("store-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Boots `served` on a fresh directory, creates and loads the archive,
/// and (for `hot-zipf`) reads every block once so the cache is warm.
fn setup_served(
    exe: &Path,
    dir: &Path,
    workload: Workload,
    model: &Model,
    problems: &mut Vec<String>,
) -> Result<(Served, Client, Vec<u64>), String> {
    let served = Served::launch(exe, dir, STORE_SEED)?;
    let mut client = Client::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Duration::from_secs(120))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let shape = workload.shape();
    let mut pids = Vec::new();
    for t in 0..shape.partitions {
        let pid = client
            .create_partition(corpus::partition_seed(t))
            .map_err(|e| format!("create partition {t}: {e}"))?;
        let written = client
            .write_file(pid, &corpus::partition_file(t, shape.blocks))
            .map_err(|e| format!("write partition {t}: {e}"))?;
        if written != shape.blocks {
            return Err(format!("partition {t}: {written} blocks written"));
        }
        pids.push(pid);
    }
    if workload == Workload::HotZipf {
        for t in 0..shape.partitions {
            for b in 0..shape.blocks {
                let (bytes, _) = client
                    .read_block(pids[idx(t)], b)
                    .map_err(|e| format!("warm-up read {t}/{b}: {e}"))?;
                if let Err(m) = model.check(t, b, &bytes) {
                    problems.push(format!("warm-up: {m}"));
                }
            }
        }
    }
    Ok((served, client, pids))
}

fn setup_in_process(dir: &Path, model: &Model) -> Result<(StoreServer, Vec<u64>), String> {
    let server = StoreServer::open_or_recover(dir, STORE_SEED, ServerConfig::paper_default())
        .map_err(|e| format!("open_or_recover: {e}"))?;
    let shape = model.shape();
    let mut pids = Vec::new();
    for t in 0..shape.partitions {
        let pid = server
            .create_partition(PartitionConfig::paper_default(corpus::partition_seed(t)))
            .map_err(|e| format!("create partition {t}: {e}"))?;
        server
            .write_file(pid, &corpus::partition_file(t, shape.blocks))
            .map_err(|e| format!("write partition {t}: {e}"))?;
        pids.push(pid.0 as u64);
    }
    Ok((server, pids))
}

// ----- the served workloads ----------------------------------------------------

fn run_served(
    workload: Workload,
    seed: u64,
    rounds: u64,
    exe: &Path,
    work: &Path,
    record: &mut RunRecord,
    model: &mut Model,
) -> Result<PathBuf, String> {
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        // The previous instance goes first, so instances never overlap.
        drop(kept.take());
        let dir = fresh_dir(work, rep)?;
        let start = Instant::now();
        let booted = setup_served(exe, &dir, workload, model, &mut record.problems)?;
        record.setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((booted, dir));
    }
    let ((served, mut client, pids), dir) = kept.expect("at least one set-up");
    let before = stats(&mut client)?;
    let start = Instant::now();
    match workload {
        Workload::ColdRead => cold_loop(seed, rounds, &mut client, &pids, model, record),
        Workload::HotZipf => {
            let ops = rounds * workload.round_ops();
            hot_loop(seed, ops, &mut client, &pids, model, record)
        }
        Workload::RangeScan => unreachable!("range-scan runs in-process"),
    }?;
    record.elapsed_s = start.elapsed().as_secs_f64();
    let after = stats(&mut client)?;
    record.stats = delta(&before, &after);
    if after.get("stale_serves").copied().unwrap_or(0) != 0 {
        record.problems.push(format!(
            "stale_serves = {} in /v1/stats",
            after["stale_serves"]
        ));
    }
    record.rss_mb = served.peak_rss_mb().unwrap_or(f64::NAN);
    drop(client);
    served.kill();
    Ok(dir)
}

fn stats(client: &mut Client) -> Result<BTreeMap<String, u64>, String> {
    client.stats().map_err(|e| format!("/v1/stats: {e}"))
}

fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, &v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Whether a wire error is the typed `DecodeFailed` of a read.
fn is_decode_failed(err: &CallError) -> bool {
    matches!(err, CallError::Server { status: 409, message } if message.starts_with("decoding block"))
}

fn cold_loop(
    seed: u64,
    rounds: u64,
    client: &mut Client,
    pids: &[u64],
    model: &Model,
    record: &mut RunRecord,
) -> Result<(), String> {
    for (t, b) in cold_order(seed, rounds) {
        record.attempted += 1;
        let t0 = Instant::now();
        let result = client.read_block(pids[idx(t)], b);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok((bytes, from_cache)) => {
                if let Err(m) = model.check(t, b, &bytes) {
                    record.problems.push(m.to_string());
                }
                if from_cache {
                    record
                        .problems
                        .push(format!("cold read {t}/{b} served from the cache"));
                }
                record.op_ms.push(ms);
                record.wetlab_ms_per_block.push(ms);
                record.retrievals.push(Retrieval {
                    partition: t,
                    lo: b,
                    hi: b,
                });
            }
            Err(e) if is_decode_failed(&e) => {
                eprintln!("cold-read: {t}/{b}: {e}");
                record.failed += 1;
            }
            Err(e) => return Err(format!("read {t}/{b}: {e}")),
        }
    }
    Ok(())
}

/// The `cold-read` order for `rounds` rounds: round `k` reads the `k`-th
/// block of each partition's fixed [`faults::point_order`], partitions in
/// a seeded order. No block is read twice.
pub fn cold_order(seed: u64, rounds: u64) -> Vec<(u64, u64)> {
    in_rounds(
        seed ^ 0xC01D,
        rounds,
        (0..LARGE.partitions).map(faults::point_order).collect(),
    )
}

/// The `range-scan` order for `rounds` rounds: round `k` reads the `k`-th
/// span of each partition's fixed [`faults::span_order`] (first blocks),
/// partitions in a seeded order.
pub fn span_order(seed: u64, rounds: u64) -> Vec<(u64, u64)> {
    in_rounds(
        seed ^ 0x5CA9,
        rounds,
        (0..LARGE.partitions).map(faults::span_order).collect(),
    )
}

/// Merges per-partition queues into `rounds` rounds of one item per
/// queue, shuffling the queues' order within each round with a seeded
/// RNG. After `k` rounds every shard has seen the first `k` items of its
/// queue, in order, whatever the seed.
fn in_rounds(seed: u64, rounds: u64, queues: Vec<Vec<u64>>) -> Vec<(u64, u64)> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for k in 0..idx(rounds) {
        let mut order: Vec<usize> = (0..queues.len()).collect();
        rng.shuffle(&mut order);
        out.extend(order.into_iter().map(|t| (t as u64, queues[t][k])));
    }
    out
}

fn hot_loop(
    seed: u64,
    ops: u64,
    client: &mut Client,
    pids: &[u64],
    model: &mut Model,
    record: &mut RunRecord,
) -> Result<(), String> {
    let base = Model::new(SMALL);
    let stream = WorkloadSpec::serving_default(HOT_STREAM_SEED).client_stream(0);
    for (n, op) in (0..ops).zip(stream) {
        let (t, b) = (op.tenant, op.block);
        let pid = pids[idx(t)];
        client.set_tenant(&format!("tenant-{t}"));
        record.attempted += 1;
        let t0 = Instant::now();
        match op.kind {
            OpKind::Read => match client.read_block(pid, b) {
                Ok((bytes, from_cache)) => {
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    if let Err(m) = model.check(t, b, &bytes) {
                        record.problems.push(m.to_string());
                    }
                    if from_cache {
                        record.hit_ms.push(ms);
                    } else {
                        record.wetlab_ms_per_block.push(ms);
                        record.retrievals.push(Retrieval {
                            partition: t,
                            lo: b,
                            hi: b,
                        });
                    }
                    record.op_ms.push(ms);
                }
                Err(e) if is_decode_failed(&e) => {
                    eprintln!("hot-zipf: {t}/{b}: {e}");
                    record.failed += 1;
                }
                Err(e) => return Err(format!("read {t}/{b}: {e}")),
            },
            OpKind::Update => {
                let image = corpus::stamped(base.block(t, b), b, seed, n);
                let mut outcome = update(client, pid, b, &image);
                if matches!(&outcome, Err(msg) if msg.contains("update slots exhausted")) {
                    // Read-modify-write client: fold the chain, retry once.
                    record.update_retries += 1;
                    client
                        .maintenance()
                        .map_err(|e| format!("maintenance before retry: {e}"))?;
                    outcome = update(client, pid, b, &image);
                }
                outcome.map_err(|msg| format!("update {t}/{b}: {msg}"))?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                model.set(t, b, image);
                record.update_ms.push(ms);
                record.op_ms.push(ms);
            }
            OpKind::Maintenance => {
                let job = client
                    .submit_maintenance()
                    .map_err(|e| format!("submit maintenance: {e}"))?;
                match client.wait(job) {
                    Ok(JobPoll::Maintained { .. }) => {}
                    other => return Err(format!("maintenance: {other:?}")),
                }
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                record.maintenance_ms.push(ms);
                record.op_ms.push(ms);
            }
        }
    }
    Ok(())
}

/// Submits an update job and waits for it; `Err` carries the server's
/// message.
fn update(client: &mut Client, pid: u64, block: u64, image: &[u8]) -> Result<(), String> {
    let job = client
        .submit_update(pid, block, image)
        .map_err(|e| e.to_string())?;
    match client.wait(job) {
        Ok(JobPoll::Updated) => Ok(()),
        Ok(JobPoll::Failed(msg)) => Err(msg),
        Ok(other) => Err(format!("unexpected job result {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

// ----- the in-process workload -------------------------------------------------

fn run_in_process(
    seed: u64,
    rounds: u64,
    work: &Path,
    record: &mut RunRecord,
    model: &Model,
) -> Result<PathBuf, String> {
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let dir = fresh_dir(work, rep)?;
        let start = Instant::now();
        let booted = setup_in_process(&dir, model)?;
        record.setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((booted, dir));
    }
    let ((server, pids), dir) = kept.expect("at least one set-up");
    let before = server_stats(&server);
    let start = Instant::now();
    for (t, lo) in span_order(seed, rounds) {
        let hi = lo + SPAN - 1;
        record.attempted += 1;
        let t0 = Instant::now();
        let result = server.read_range(PartitionId(idx(pids[idx(t)])), lo, hi);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(reads) => {
                for (b, read) in (lo..=hi).zip(&reads) {
                    if let Err(m) = model.check(t, b, &read.block.data) {
                        record.problems.push(m.to_string());
                    }
                    if read.from_cache {
                        record
                            .problems
                            .push(format!("range block {t}/{b} served from the cache"));
                    }
                }
                record.op_ms.push(ms);
                record.wetlab_ms_per_block.push(ms / SPAN as f64);
                record.retrievals.push(Retrieval {
                    partition: t,
                    lo,
                    hi,
                });
            }
            Err(e @ StoreError::DecodeFailed { .. }) => {
                eprintln!("range-scan: {t}/{lo}..={hi}: {e}");
                record.failed += 1;
            }
            Err(e) => return Err(format!("range {t}/{lo}..={hi}: {e}")),
        }
    }
    record.elapsed_s = start.elapsed().as_secs_f64();
    let after = server_stats(&server);
    record.stats = delta(&before, &after);
    if after["stale_serves"] != 0 {
        record
            .problems
            .push(format!("stale_serves = {}", after["stale_serves"]));
    }
    record.rss_mb = served::peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN);
    Ok(dir)
}

fn server_stats(server: &StoreServer) -> BTreeMap<String, u64> {
    server
        .stats()
        .fields()
        .iter()
        .map(|&(name, value)| (name.to_string(), value))
        .collect()
}

// ----- crash-reopen check ------------------------------------------------------

/// Reopens the killed store's directory, checks every block (so every
/// acknowledged update) against the model, and counts the encoding units
/// in the recovered tubes (distinct strands over strands per unit).
fn reopen(
    dir: &Path,
    model: &Model,
    record: &mut RunRecord,
) -> Result<(BlockStore, Vec<u64>, f64), String> {
    let store = open_or_recover_store(dir, STORE_SEED).map_err(|e| format!("reopen: {e}"))?;
    let shape = model.shape();
    let pids = store.partition_ids();
    if pids.len() as u64 != shape.partitions {
        return Err(format!("reopened store holds {} partitions", pids.len()));
    }
    let mut units = 0.0;
    for (t, &pid) in (0..shape.partitions).zip(&pids) {
        for b in 0..shape.blocks {
            match store.logical_block(pid, b) {
                Some(block) => {
                    if let Err(m) = model.check(t, b, &block.data) {
                        record.problems.push(format!("after reopen: {m}"));
                    }
                }
                None => record
                    .problems
                    .push(format!("after reopen: block {t}/{b} missing")),
            }
        }
        let strands = store.tube(pid).map_err(|e| e.to_string())?.distinct();
        let per_unit = store
            .partition(pid)
            .map_err(|e| e.to_string())?
            .strands_per_unit();
        units += strands as f64 / per_unit as f64;
    }
    let pids = pids.iter().map(|p| p.0 as u64).collect();
    Ok((store, pids, units))
}

fn idx(i: u64) -> usize {
    usize::try_from(i).expect("index fits usize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn per_partition(order: &[(u64, u64)]) -> Vec<Vec<u64>> {
        let mut queues = vec![Vec::new(); idx(LARGE.partitions)];
        for &(t, b) in order {
            queues[idx(t)].push(b);
        }
        queues
    }

    #[test]
    fn every_seed_meets_each_shard_with_the_same_reads() {
        for order in [cold_order, span_order] {
            let (a, b) = (order(1, 5), order(2, 5));
            assert_eq!(a.len(), 5 * idx(LARGE.partitions));
            assert_ne!(a, b, "the seed orders the partitions within a round");
            assert_eq!(per_partition(&a), per_partition(&b));
        }
    }
}
