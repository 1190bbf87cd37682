//! The traced run: after the workload, replay a sample of its wetlab
//! retrievals layer by layer through each layer's public functions, on
//! the store state the crash-reopen check recovered, and time each call.
//!
//! A replayed round rebuilds what the store's batch executor does for a
//! single-partition round: plan, prefix cover, one multiplex PCR over the
//! partition's tube, one sequencing pass, then a decode job per leaf
//! (fanned out over the cores) and the Interleaved patch assembly. The
//! replay must do the program's work: it sequences with the RNG stream the
//! store's batch read then draws from the same shard, its read count must
//! equal the count `BlockStore::read_blocks_batch` reports for the same
//! round, its decode must return the model's bytes, and it must decode
//! exactly the rounds the program decodes. A round both fail with the
//! flood's `DecodeFailed` is left out of the layer figures and counted.

use crate::corpus::{self, Model};
use crate::report::Metrics;
use crate::stats::median;
use crate::workloads::{Recovered, Retrieval, RunRecord, Workload};
use dna_block_store::{
    unit_checksum_ok, Block, BlockStore, Partition, PartitionId, ServerConfig, StoreError,
    StoreServer, UpdateLayout, UpdatePatch, VersionSlot,
};
use dna_pipeline::{
    cluster_reads_with_scratch, decode_block_validated, decode_jobs_parallel,
    double_sided_bma_with, thread_share, BlockDecodeOutcome, BmaScratch, ClusterScratch, DecodeJob,
    ReadFilter,
};
use dna_seq::rng::DetRng;
use dna_seq::DnaSeq;
use dna_serve::client::JobPoll;
use dna_serve::{Client, ServeConfig, WireServer};
use dna_sim::stats::thread_totals;
use dna_sim::{
    IdsChannel, MultiplexPcrReaction, PcrPrimer, PcrProtocol, Pool, PrimerChannel, Read, Sequencer,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Retrievals replayed per traced run (point reads / spans).
const POINT_SAMPLE: usize = 6;
const SPAN_SAMPLE: usize = 3;
/// Cache hits timed on each side of the wire comparison.
const HITS: usize = 400;
/// Updates timed on each update path.
const UPDATES: usize = 6;
/// Repetitions of each decode stage; the minimum is kept.
const STAGE_REPS: usize = 3;
/// Alternated server-miss / batch-read pairs per round for the window.
const WINDOW_REPS: usize = 3;

/// Per-round layer times in ms (per block decoded where noted by the
/// caller) and counts, one entry per replayed round.
#[derive(Default)]
struct Samples {
    plan: Vec<f64>,
    cover: Vec<f64>,
    primers: Vec<f64>,
    pcr: Vec<f64>,
    sequence: Vec<f64>,
    decode_wall: Vec<f64>,
    filter: Vec<f64>,
    cluster: Vec<f64>,
    bma: Vec<f64>,
    rest: Vec<f64>,
    fanout: Vec<f64>,
    read_batch: Vec<f64>,
    window: Vec<f64>,
    scanned: u64,
    skipped: u64,
    anneal_calls: u64,
    binding_hits: u64,
    reads_scanned: u64,
    reads_matched: u64,
    clusters: u64,
    corrected: u64,
    alternates: u64,
    blocks: u64,
    /// Rounds that both the program and the replay failed to decode.
    flood_rounds: usize,
}

/// Replays a sample of `record`'s retrievals and measures every layer;
/// returns the per-layer metrics. Correctness problems of the replay land
/// in `record.problems`.
///
/// # Errors
///
/// Transport or store errors outside the replayed reads.
pub fn replay(
    workload: Workload,
    seed: u64,
    record: &mut RunRecord,
    recovered: Recovered,
) -> Result<Metrics, String> {
    let Recovered {
        store,
        pids,
        mut model,
    } = recovered;
    let image = store.capture_image();
    let coverage = image.coverage;
    let memory_copy = BlockStore::from_image(&image).map_err(|e| e.to_string())?;
    // A cache-less serving layer over another copy: its misses can be
    // repeated on one round, so the batching window is timed on several.
    let uncached = StoreServer::new(
        BlockStore::from_image(&image).map_err(|e| e.to_string())?,
        ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::paper_default()
        },
    );
    let wire = WireServer::start(
        StoreServer::new(store, ServerConfig::paper_default()),
        ServeConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("binding the traced wire server: {e}"))?;
    let server = wire.store_server();
    let store = server.store();
    let sample = sample_of(workload, &record.retrievals);
    let mut s = Samples::default();
    for r in &sample {
        let pid = PartitionId(idx(pids[idx(r.partition)]));
        // `hot-zipf` misses re-read blocks the workload read before, so
        // they meet warm per-thread simulator caches; warm them the same
        // way. Distinct reads (`cold-read`, `range-scan`) meet them cold.
        if workload == Workload::HotZipf {
            store
                .read_blocks_batch(&round_requests(pid, r))
                .map_err(|e| format!("warming read: {e}"))?;
        }
        replay_round(store, &uncached, pid, r, &model, coverage, &mut s, record)?;
    }
    eprintln!(
        "{}: traced replay: {} of {} sampled rounds feed the layer figures, {} failed in both the program and the replay",
        workload.name(),
        s.pcr.len(),
        sample.len(),
        s.flood_rounds
    );
    if s.pcr.is_empty() {
        record
            .problems
            .push("no sampled round could be replayed".to_string());
    }

    // The serving stack on cache hits: the wire call against the
    // in-process StoreServer call, on a block one miss has cached.
    let mut client = Client::connect(wire.local_addr()).map_err(|e| e.to_string())?;
    let hit = sample
        .first()
        .ok_or("the workload made no wetlab retrieval")?;
    let hit_pid = pids[idx(hit.partition)];
    let cached = server
        .read_block(PartitionId(idx(hit_pid)), hit.lo)
        .map_err(|e| format!("caching the traced hit: {e}"))?;
    if let Err(m) = model.check(hit.partition, hit.lo, &cached.block.data) {
        push(record, format!("traced miss: {m}"));
    }
    let mut wire_hits = Vec::with_capacity(HITS);
    let mut local_hits = Vec::with_capacity(HITS);
    for _ in 0..HITS {
        let t0 = Instant::now();
        let (_, from_cache) = client
            .read_block(hit_pid, hit.lo)
            .map_err(|e| format!("wire hit: {e}"))?;
        wire_hits.push(ms(t0));
        let t0 = Instant::now();
        let local = server
            .read_block(PartitionId(idx(hit_pid)), hit.lo)
            .map_err(|e| format!("in-process hit: {e}"))?;
        local_hits.push(ms(t0));
        if !(from_cache && local.from_cache) {
            record
                .problems
                .push("traced hit was not served from the cache".to_string());
            break;
        }
    }

    // Updates: over the wire as a job, as a commit on the journaled store,
    // and the same commit on an in-memory copy without a journal.
    let mut update_jobs = Vec::new();
    let mut commits = Vec::new();
    let mut memory_commits = Vec::new();
    let journal_before = store.journal_bytes().unwrap_or(0);
    for n in 0..UPDATES as u64 {
        let r = sample[idx(n) % sample.len()];
        let (t, b) = (r.partition, r.lo + n % (r.hi - r.lo + 1));
        let pid = PartitionId(idx(pids[idx(t)]));
        let image = corpus::stamped(model.block(t, b), b, seed ^ 0x7EAC, 2 * n);
        let t0 = Instant::now();
        let job = client
            .submit_update(pid.0 as u64, b, &image)
            .map_err(|e| format!("traced update: {e}"))?;
        match client.wait(job) {
            Ok(JobPoll::Updated) => {}
            other => return Err(format!("traced update {t}/{b}: {other:?}")),
        }
        update_jobs.push(ms(t0));
        memory_copy
            .update_block_committed(pid, b, &image)
            .map_err(|e| format!("in-memory update {t}/{b}: {e}"))?;
        model.set(t, b, image);
        let image = corpus::stamped(model.block(t, b), b, seed ^ 0x7EAC, 2 * n + 1);
        let t0 = Instant::now();
        store
            .update_block_committed(pid, b, &image)
            .map_err(|e| format!("journaled commit {t}/{b}: {e}"))?;
        commits.push(ms(t0));
        let t0 = Instant::now();
        memory_copy
            .update_block_committed(pid, b, &image)
            .map_err(|e| format!("in-memory commit {t}/{b}: {e}"))?;
        memory_commits.push(ms(t0));
        model.set(t, b, image);
    }
    let journal_bytes = store.journal_bytes().unwrap_or(0) - journal_before;

    let t0 = Instant::now();
    let pass = server.run_maintenance().map_err(|e| e.to_string())?;
    let maintenance_ms = ms(t0);
    let passes = record.maintenance_ms.len() as u64;
    let units_per_pass = if passes > 0 {
        record.stat("units_reclaimed") as f64 / passes as f64
    } else {
        pass.units_reclaimed as f64
    };
    drop(client);
    drop(wire);

    let blocks = s.blocks.max(1) as f64;
    let wire_ms = median(&wire_hits) - median(&local_hits);
    let layer_sum = median(&s.plan)
        + median(&s.cover)
        + median(&s.pcr)
        + median(&s.sequence)
        + median(&s.decode_wall)
        + median(&s.window)
        + wire_ms;
    let e2e = median(&record.wetlab_ms_per_block);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Ok(vec![
        ("serve.wire_ms", wire_ms),
        ("serve.update_job_ms", median(&update_jobs)),
        ("service.window_wait_ms", median(&s.window)),
        (
            "service.cache_hit_ratio",
            ratio(record.stat("cache_hits"), record.stat("reads_served")),
        ),
        ("store.plan_ms", median(&s.plan)),
        ("store.read_batch_ms", median(&s.read_batch)),
        ("store.update_commit_ms", median(&commits)),
        (
            "persist.journal_ms",
            median(&commits) - median(&memory_commits),
        ),
        (
            "persist.journal_bytes_per_update",
            // Both the wire update and the direct commit journal a record.
            journal_bytes as f64 / (2 * UPDATES) as f64,
        ),
        ("compaction.maintenance_ms", maintenance_ms),
        ("compaction.units_reclaimed_per_pass", units_per_pass),
        ("index.prefix_cover_ms", median(&s.cover)),
        ("index.primers_per_range", median(&s.primers)),
        ("sim.pcr_ms", median(&s.pcr)),
        (
            "sim.species_skip_ratio",
            ratio(s.skipped, s.scanned + s.skipped),
        ),
        ("sim.anneal_calls_per_block", s.anneal_calls as f64 / blocks),
        (
            "sim.binding_cache_hits_per_block",
            s.binding_hits as f64 / blocks,
        ),
        ("sim.sequence_ms", median(&s.sequence)),
        ("pipeline.filter_ms", median(&s.filter)),
        (
            "pipeline.filter_match_ratio",
            ratio(s.reads_matched, s.reads_scanned),
        ),
        ("pipeline.cluster_ms", median(&s.cluster)),
        ("pipeline.clusters_per_block", s.clusters as f64 / blocks),
        ("pipeline.bma_ms", median(&s.bma)),
        ("pipeline.decode_rest_ms", median(&s.rest)),
        ("pipeline.fanout_efficiency", median(&s.fanout)),
        (
            "ecc.corrected_symbols_per_block",
            s.corrected as f64 / blocks,
        ),
        ("ecc.alternate_searches", s.alternates as f64 / blocks),
        ("trace.coverage", layer_sum / e2e),
    ])
}

/// The first retrievals of the run, without repeats.
fn sample_of(workload: Workload, retrievals: &[Retrieval]) -> Vec<Retrieval> {
    let want = match workload {
        Workload::RangeScan => SPAN_SAMPLE,
        Workload::ColdRead | Workload::HotZipf => POINT_SAMPLE,
    };
    let mut sample: Vec<Retrieval> = Vec::new();
    for r in retrievals {
        if sample.len() < want && !sample.contains(r) {
            sample.push(*r);
        }
    }
    sample
}

/// Replays one round and records its layers in `s`: first the round
/// rebuilt from public calls, then the program's own paths on the same
/// round (the store's batch read, then the serving layer's misses against
/// batch reads), which meet the per-thread simulator caches the replay
/// warmed.
#[allow(clippy::too_many_arguments)]
fn replay_round(
    store: &BlockStore,
    uncached: &StoreServer,
    pid: PartitionId,
    r: &Retrieval,
    model: &Model,
    coverage: u64,
    s: &mut Samples,
    record: &mut RunRecord,
) -> Result<(), String> {
    // The stream the program's batch read below will draw its reads from:
    // the batch splits one seed off the shard's RNG for the round.
    let shard_rng = store.capture_image().shards[pid.0].rng_state;
    let mut rng = DetRng::seed_from_u64(DetRng::from_state(shard_rng).next_u64());
    let blocks: Vec<u64> = (r.lo..=r.hi).collect();
    let n = blocks.len() as f64;
    let requests = round_requests(pid, r);

    // The replay, from public calls only.
    let t0 = Instant::now();
    let plan = store
        .plan_batch(&requests, &dna_block_store::BatchPlanner::paper_default())
        .map_err(|e| e.to_string())?;
    let plan_ms = ms(t0);
    if plan.num_rounds() != 1 {
        return Err(format!(
            "a single-partition round planned as {}",
            plan.num_rounds()
        ));
    }
    let partition = store.partition(pid).map_err(|e| e.to_string())?;
    let tube = store.tube(pid).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut scope = partition.range_prefixes_weighted(r.lo, r.hi);
    let cover_ms = ms(t0);
    let primers = scope.len();
    let mut leaves = blocks.clone();
    let mut units = 0usize;
    for &b in &blocks {
        units += (partition.writes_of(b) as usize + partition.chain_of(b).len()).max(2);
    }
    let mut chain: Vec<u64> = blocks
        .iter()
        .flat_map(|&b| partition.chain_of(b).iter().copied())
        .collect();
    chain.sort_unstable();
    chain.dedup();
    for &leaf in &chain {
        scope.push((partition.elongated_primer(leaf), 1.0));
        leaves.push(leaf);
    }

    let mut reaction = Pool::new();
    reaction.mix_in(&tube, 1.0, 1.0);
    let budget = reaction.total_copies() * 20.0;
    let total_weight: f64 = scope.iter().map(|(_, w)| w.max(1e-9)).sum();
    let rxn = MultiplexPcrReaction {
        channels: vec![PrimerChannel {
            forward_primers: scope
                .iter()
                .map(|(p, w)| {
                    PcrPrimer::with_budget(p.clone(), budget * w.max(1e-9) / total_weight)
                })
                .collect(),
            reverse_primer: PcrPrimer::with_budget(partition.primers().reverse().clone(), budget),
        }],
        protocol: PcrProtocol::paper_block_access(),
    };
    let before = thread_totals();
    let t0 = Instant::now();
    let amplified = rxn.run(&reaction);
    let pcr_ms = ms(t0);
    let counters = thread_totals().delta_since(&before);

    let n_reads = units * 15 * idx(coverage);
    let t0 = Instant::now();
    let reads = Sequencer::new(IdsChannel::illumina()).sequence(&amplified.pool, n_reads, &mut rng);
    let sequence_ms = ms(t0);
    let jobs: Vec<DecodeJob> = leaves
        .iter()
        .map(|&leaf| DecodeJob {
            prefix: partition.elongated_primer(leaf),
            reverse: partition.primers().reverse().clone(),
            config: partition.decode_config_versions(leaf, &partition.live_version_slots(leaf)),
        })
        .collect();
    let threads = thread_share(1);
    let t0 = Instant::now();
    let outcomes = decode_jobs_parallel(&reads, &jobs, unit_checksum_ok, threads);
    let decode_ms = ms(t0);
    let stages = decode_stages(&reads, &jobs);

    // The program on the same round: the store's batch read, whose read
    // count the replay must match and whose bytes must be the model's.
    let t0 = Instant::now();
    let batch = store
        .read_blocks_batch(&requests)
        .map_err(|e| format!("read_blocks_batch: {e}"))?;
    let batch_ms = ms(t0);
    let mut program_ok = true;
    for (b, outcome) in (r.lo..).zip(&batch.outcomes) {
        match outcome {
            Ok(read) => {
                if let Err(m) = model.check(r.partition, b, &read.block.data) {
                    push(record, format!("program read: {m}"));
                }
            }
            Err(StoreError::DecodeFailed { .. }) => program_ok = false,
            Err(e) => return Err(format!("program read {}/{b}: {e}", r.partition)),
        }
    }
    if program_ok {
        s.read_batch.push(batch_ms / n);
    }
    // The serving layer's own cost: cache-less StoreServer misses against
    // batch reads of its store, alternated, the fastest of each. Both meet
    // the caches the reads before them warmed.
    let (mut server_best, mut batch_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..WINDOW_REPS {
        let t0 = Instant::now();
        let served = uncached.read_range(pid, r.lo, r.hi);
        let server_ms = ms(t0);
        if served.is_ok() {
            server_best = server_best.min(server_ms);
        }
        let t0 = Instant::now();
        let direct = uncached
            .store()
            .read_blocks_batch(&requests)
            .map_err(|e| format!("read_blocks_batch: {e}"))?;
        let direct_ms = ms(t0);
        if direct.outcomes.iter().all(Result::is_ok) {
            batch_best = batch_best.min(direct_ms);
        }
    }
    if server_best.is_finite() && batch_best.is_finite() {
        s.window.push((server_best - batch_best) / n);
    }

    if reads.len() != batch.stats.reads_sequenced {
        push(
            record,
            format!(
                "replay sequenced {} reads, the program {}",
                reads.len(),
                batch.stats.reads_sequenced
            ),
        );
    }

    // Assemble and check every block of the round.
    let by_leaf: BTreeMap<u64, &BlockDecodeOutcome> =
        leaves.iter().copied().zip(&outcomes).collect();
    let mut decoded_all = true;
    for &b in &blocks {
        match assemble(&partition, b, &by_leaf) {
            Ok(block) => {
                if let Err(m) = model.check(r.partition, b, &block.data) {
                    push(record, format!("replayed decode: {m}"));
                }
            }
            Err(e) => {
                eprintln!("replay of {}/{b}: {e}", r.partition);
                decoded_all = false;
            }
        }
    }
    match (program_ok, decoded_all) {
        (true, true) => {}
        (false, false) => {
            s.flood_rounds += 1;
            return Ok(());
        }
        (true, false) => {
            push(
                record,
                format!(
                    "replay failed to decode {}/{}..={}, which the program decoded",
                    r.partition, r.lo, r.hi
                ),
            );
            return Ok(());
        }
        (false, true) => {
            push(
                record,
                format!(
                    "replay decoded {}/{}..={}, which the program failed to decode",
                    r.partition, r.lo, r.hi
                ),
            );
            return Ok(());
        }
    }
    s.plan.push(plan_ms / n);
    s.cover.push(cover_ms / n);
    s.primers.push(primers as f64);
    s.pcr.push(pcr_ms / n);
    s.sequence.push(sequence_ms / n);
    s.decode_wall.push(decode_ms / n);
    s.filter.push(stages.filter / n);
    s.cluster.push(stages.cluster / n);
    s.bma.push(stages.bma / n);
    s.rest
        .push((stages.total - stages.filter - stages.cluster - stages.bma) / n);
    s.fanout
        .push(stages.total / (decode_ms * threads.min(jobs.len()) as f64));
    s.scanned += counters.species_scanned;
    s.skipped += counters.species_skipped;
    s.anneal_calls += counters.anneal_calls;
    s.binding_hits += counters.binding_cache_hits;
    s.reads_scanned += (reads.len() * jobs.len()) as u64;
    for outcome in &outcomes {
        s.reads_matched += outcome.reads_matched as u64;
        s.clusters += outcome.clusters_total as u64;
        for v in outcome.versions.values() {
            s.corrected += v.corrected_symbols as u64;
            s.alternates += u64::from(v.used_alternates);
        }
    }
    s.blocks += blocks.len() as u64;
    Ok(())
}

/// Serial times (ms) of the decode stages over every job of a round, each
/// the minimum of [`STAGE_REPS`] runs.
struct Stages {
    filter: f64,
    cluster: f64,
    bma: f64,
    total: f64,
}

fn decode_stages(reads: &[Read], jobs: &[DecodeJob]) -> Stages {
    let mut cluster_scratch = ClusterScratch::new();
    let mut bma_scratch = BmaScratch::new();
    let mut best = Stages {
        filter: f64::INFINITY,
        cluster: f64::INFINITY,
        bma: f64::INFINITY,
        total: f64::INFINITY,
    };
    for _ in 0..STAGE_REPS {
        let mut rep = Stages {
            filter: 0.0,
            cluster: 0.0,
            bma: 0.0,
            total: 0.0,
        };
        for job in jobs {
            let config = &job.config;
            let t0 = Instant::now();
            let filter = match config.index_tail_tolerance {
                Some(tol) => ReadFilter::with_tail_check(
                    job.prefix.clone(),
                    &job.reverse,
                    config.filter_max_edit,
                    config.geometry.unit_index_len.min(job.prefix.len()),
                    tol,
                ),
                None => ReadFilter::new(job.prefix.clone(), &job.reverse, config.filter_max_edit),
            };
            let interiors: Vec<DnaSeq> = reads
                .iter()
                .filter_map(|r| filter.extract(&r.seq))
                .collect();
            rep.filter += ms(t0);
            let t0 = Instant::now();
            let clusters =
                cluster_reads_with_scratch(&interiors, &config.cluster, &mut cluster_scratch);
            rep.cluster += ms(t0);
            let cap = if config.max_clusters == 0 {
                clusters.len()
            } else {
                config.max_clusters.min(clusters.len())
            };
            let t0 = Instant::now();
            for cluster in clusters.iter().take(cap) {
                let members = cluster.sequences(&interiors);
                std::hint::black_box(double_sided_bma_with(
                    &members,
                    config.interior_len(),
                    &mut bma_scratch,
                ));
            }
            rep.bma += ms(t0);
            let t0 = Instant::now();
            std::hint::black_box(decode_block_validated(
                reads,
                &job.prefix,
                &job.reverse,
                config,
                unit_checksum_ok,
            ));
            rep.total += ms(t0);
        }
        best.filter = best.filter.min(rep.filter);
        best.cluster = best.cluster.min(rep.cluster);
        best.bma = best.bma.min(rep.bma);
        best.total = best.total.min(rep.total);
    }
    best
}

/// The Interleaved assembly of one block from the round's decodes: the
/// original at slot 0 of the block's own leaf, then every patch of the
/// leaf and of its overflow chain in allocation order.
fn assemble(
    partition: &Partition,
    block: u64,
    by_leaf: &BTreeMap<u64, &BlockDecodeOutcome>,
) -> Result<Block, StoreError> {
    let UpdateLayout::Interleaved { update_slots } = partition.config().layout else {
        return Err(StoreError::InvalidPatch(
            "replay covers the Interleaved layout".into(),
        ));
    };
    let failed = |reason: String| StoreError::DecodeFailed { block, reason };
    let mut original = None;
    let mut patches = Vec::new();
    let mut leaves = vec![block];
    leaves.extend_from_slice(partition.chain_of(block));
    for (hop, &leaf) in leaves.iter().enumerate() {
        let outcome = by_leaf[&leaf];
        for slot in partition.live_version_slots(leaf) {
            if !outcome.versions.contains_key(&slot.base()) {
                return Err(failed(format!(
                    "version slot {} at leaf {leaf} unrecovered",
                    slot.0
                )));
            }
        }
        for (base, v) in &outcome.versions {
            let slot = VersionSlot::from_base(*base);
            let content = Block::from_unit_bytes(&v.unit_bytes)
                .map_err(|_| failed(format!("unit checksum at leaf {leaf} slot {}", slot.0)))?;
            if hop == 0 && slot.0 == 0 {
                original = Some(content);
            } else if slot.0 != update_slots {
                patches.push(UpdatePatch::from_block(&content)?);
            }
        }
    }
    let mut current = original.ok_or_else(|| failed("original version missing".into()))?;
    for patch in patches {
        current = patch.apply(&current)?;
    }
    Ok(current)
}

fn round_requests(pid: PartitionId, r: &Retrieval) -> Vec<(PartitionId, u64)> {
    (r.lo..=r.hi).map(|b| (pid, b)).collect()
}

fn push(record: &mut RunRecord, problem: String) -> bool {
    record.problems.push(problem);
    false
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn idx(i: u64) -> usize {
    usize::try_from(i).expect("index fits usize")
}
