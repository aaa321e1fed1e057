//! Long-horizon MTS campaign driver: sharded, checkpointed, resumable.
//!
//! The paper's headline guarantee is probabilistic — a stall once per
//! ~10¹³ accesses — so demonstrating it by simulation means horizons of
//! 10¹⁰⁺ interface cycles, far beyond a single `cargo test` run. This
//! module splits such a horizon into fixed-size **shards**, each an
//! independent controller instance whose seeds derive only from the
//! campaign seed and the shard index. Shards run across all cores via
//! [`par_map`], driving the dense
//! [`PipelinedMemory::issue_batch`] front door, and every
//! completed shard is appended as one JSON line to a checkpoint file —
//! kill the process at any point and a rerun resumes from the last
//! completed shard instead of restarting the campaign.
//!
//! Determinism is the load-bearing property: shard `i` produces the same
//! [`ShardResult`] regardless of core count, scheduling, or how many
//! times the campaign was interrupted, so the merged report (counters
//! summed, occupancy histograms combined via [`Histogram::merge`]) is
//! identical to an uninterrupted single-threaded run.
//!
//! The JSON is hand-rolled and hand-parsed (the workspace carries no
//! serde); the checkpoint grammar is one header line plus one flat object
//! per shard, with histograms serialized *exactly* (bucket counts plus
//! the integer sum/min/max sidecar) so reloaded shards are bit-identical
//! to freshly computed ones. Every line ends with a checksum of the text
//! before it, so a corrupted shard line is rerun rather than merged.

use std::collections::btree_map::{BTreeMap, Entry};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use vpnm_core::{
    ChannelSelect, FabricConfig, LineAddr, PipelinedMemory, Request, VpnmConfig, VpnmController,
    VpnmFabric,
};
use vpnm_hash::fast::splitmix64;
use vpnm_sim::parallel::par_map;
use vpnm_sim::Histogram;
use vpnm_workloads::generators::AddressGenerator;
use vpnm_workloads::UniformAddresses;

/// Bumped when the checkpoint grammar changes; resuming across versions
/// is refused.
///
/// Version history: 1 — initial grammar; 2 — header gained `channels`
/// (multi-channel fabric campaigns); 3 — fabric shards switched from the
/// per-tick loop to the epoch-batched path, which changes the
/// recorded `cycles_skipped` (per-channel idle spans are now skipped), so
/// v2 fabric shard lines no longer match fresh ones; 4 — every line ends
/// with a `"ck"` checksum of the text before it.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Interface cycles simulated per `issue_batch` call inside a shard — large
/// enough to amortize batch setup, small enough to keep buffers in cache.
const BATCH_CYCLES: usize = 8192;

/// Everything that determines a campaign's results. Two campaigns with
/// equal parameters produce bit-identical shard results and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignParams {
    /// Configuration preset name (see [`preset_config`]).
    pub preset: String,
    /// Total horizon in interface cycles (across all shards).
    pub cycles: u64,
    /// Interface cycles per shard (the final shard takes the remainder).
    pub shard_cycles: u64,
    /// Campaign master seed; per-shard seeds derive from it and the shard
    /// index only.
    pub seed: u64,
    /// Memory channels per shard: 1 drives a bare controller through the
    /// batched front door; more stripes each shard's stream over a
    /// universal-hash-selected [`VpnmFabric`].
    pub channels: u32,
}

impl CampaignParams {
    /// Number of shards the horizon splits into.
    pub fn shards(&self) -> u64 {
        self.cycles.div_ceil(self.shard_cycles)
    }

    /// Interface cycles assigned to `shard` (the last shard may be short).
    pub fn cycles_of_shard(&self, shard: u64) -> u64 {
        let start = shard * self.shard_cycles;
        self.shard_cycles.min(self.cycles - start)
    }

    /// Validates the parameters, resolving the preset.
    ///
    /// # Errors
    ///
    /// Returns a message for a zero horizon/shard size, an unknown
    /// preset, or a channel count the fabric refuses (0, not a power of
    /// two).
    pub fn validate(&self) -> Result<VpnmConfig, String> {
        if self.cycles == 0 {
            return Err("campaign horizon must be non-zero".into());
        }
        if self.shard_cycles == 0 {
            return Err("shard size must be non-zero".into());
        }
        let config = preset_config(&self.preset)
            .ok_or_else(|| format!("unknown config preset '{}'", self.preset))?;
        self.fabric_config(config.clone()).validate()?;
        Ok(config)
    }

    /// The fabric geometry a multi-channel campaign stripes over.
    pub fn fabric_config(&self, base: VpnmConfig) -> FabricConfig {
        FabricConfig {
            channels: self.channels,
            select: ChannelSelect::UniversalHash,
            base,
            qos: None,
        }
    }
}

/// Resolves a preset name to its [`VpnmConfig`].
pub fn preset_config(name: &str) -> Option<VpnmConfig> {
    match name {
        "paper_optimal" => Some(VpnmConfig::paper_optimal()),
        "paper_compact" => Some(VpnmConfig::paper_compact()),
        "small_test" => Some(VpnmConfig::small_test()),
        "test_roomy" => Some(VpnmConfig::test_roomy()),
        _ => None,
    }
}

/// The measured outcome of one shard — everything the merged report
/// needs, in exactly reconstructible form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardResult {
    /// Shard index within the campaign.
    pub shard: u64,
    /// Interface cycles this shard's controller actually ran (assigned
    /// cycles plus the trailing drain).
    pub cycles: u64,
    /// Interface cycles covered by event-horizon skips.
    pub cycles_skipped: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Retryable stalls — the campaign's numerator-of-interest.
    pub stalled: u64,
    /// Responses returned (equals `accepted` after the drain).
    pub responses: u64,
    /// Shard-local interface cycle of the first stall, if any.
    pub first_stall_at: Option<u64>,
    /// Per-cycle max bank-queue-depth distribution.
    pub queue_depth: Histogram,
    /// Per-cycle total storage-occupancy distribution.
    pub storage_occupancy: Histogram,
}

/// Runs one shard to completion: a fresh controller (or fabric, for
/// `channels > 1`) and a fresh uniform read stream, both seeded
/// deterministically from `(params.seed, shard)`, driven through the
/// dense [`PipelinedMemory::issue_batch`] door in `BATCH_CYCLES`-sized
/// batches and drained at the end. On a fabric each channel advances
/// through a whole batch at a time (per-channel batched hashing and
/// idle-span skipping apply, since every channel sees only `~1/C` of the
/// stream), and histograms carry one sample per channel per cycle, merged
/// across channels.
///
/// A shard runs on the calling thread, fabric channels included: the
/// campaign's parallelism is across shards (see [`run_campaign`]).
pub fn run_shard(params: &CampaignParams, shard: u64) -> ShardResult {
    let config = params.validate().expect("validated before sharding");
    let ctrl_seed = splitmix64(params.seed.wrapping_add(shard));
    let wl_seed = splitmix64(ctrl_seed ^ 0x9E37_79B9_7F4A_7C15);
    let gen = UniformAddresses::new(1u64 << config.addr_bits, wl_seed);
    let cycles = params.cycles_of_shard(shard);
    if params.channels > 1 {
        let mem =
            VpnmFabric::new(params.fabric_config(config), ctrl_seed).expect("params validate");
        drive_shard(mem, gen, shard, cycles)
    } else {
        let mem = VpnmController::new(config, ctrl_seed).expect("preset validates");
        drive_shard(mem, gen, shard, cycles)
    }
}

/// The shard body, generic over the engine: `cycles` full-rate uniform
/// reads through `issue_batch`, then a drain.
fn drive_shard<M: PipelinedMemory>(
    mut mem: M,
    mut gen: UniformAddresses,
    shard: u64,
    cycles: u64,
) -> ShardResult {
    let mut addrs = vec![0u64; BATCH_CYCLES];
    let mut batch: Vec<Request> = Vec::with_capacity(BATCH_CYCLES);
    let mut remaining = cycles;
    let mut accepted = 0u64;
    let mut stalled = 0u64;
    let mut responses = 0u64;
    while remaining > 0 {
        let n = remaining.min(BATCH_CYCLES as u64) as usize;
        gen.fill_addrs(&mut addrs[..n]);
        batch.clear();
        batch.extend(addrs[..n].iter().map(|&a| Request::read(LineAddr(a))));
        let report = mem.issue_batch(&batch);
        accepted += report.accepted;
        stalled += report.stalled;
        responses += report.responses.len() as u64;
        remaining -= n as u64;
    }
    responses += mem.drain().len() as u64;

    let snap = mem.snapshot().expect("controllers keep metrics");
    ShardResult {
        shard,
        cycles: mem.now().as_u64(),
        cycles_skipped: snap.cycles_skipped,
        accepted,
        stalled,
        responses,
        first_stall_at: snap.metrics.first_stall_at.map(|c| c.as_u64()),
        queue_depth: snap.metrics.queue_depth_hist,
        storage_occupancy: snap.metrics.storage_occupancy_hist,
    }
}

/// The merged outcome of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The parameters the campaign ran under.
    pub params: CampaignParams,
    /// Shards completed (always all of them on a successful return).
    pub completed: u64,
    /// Shards loaded from the checkpoint instead of recomputed.
    pub resumed: u64,
    /// Total interface cycles simulated across shards (incl. drains).
    pub cycles: u64,
    /// Total interface cycles covered by event-horizon skips.
    pub cycles_skipped: u64,
    /// Total requests accepted.
    pub accepted: u64,
    /// Total retryable stalls.
    pub stalled: u64,
    /// Total responses returned.
    pub responses: u64,
    /// Merged per-cycle queue-depth distribution.
    pub queue_depth: Histogram,
    /// Merged per-cycle storage-occupancy distribution.
    pub storage_occupancy: Histogram,
}

impl CampaignReport {
    /// Mean interface cycles between stalls — `None` when the campaign
    /// observed no stall at all (the horizon is then a lower bound on the
    /// MTS, which is the expected outcome for paper-scale configs).
    pub fn mts_estimate(&self) -> Option<f64> {
        (self.stalled > 0).then(|| self.cycles as f64 / self.stalled as f64)
    }

    /// Renders the human-readable summary.
    pub fn render(&self) -> String {
        let mut t = crate::Table::new(vec!["metric", "value"]);
        t.row(vec!["preset".into(), self.params.preset.clone()]);
        t.row(vec!["channels".into(), self.params.channels.to_string()]);
        t.row(vec!["shards".into(), format!("{} ({} resumed)", self.completed, self.resumed)]);
        t.row(vec!["cycles".into(), self.cycles.to_string()]);
        t.row(vec!["cycles skipped".into(), self.cycles_skipped.to_string()]);
        t.row(vec!["accepted".into(), self.accepted.to_string()]);
        t.row(vec!["responses".into(), self.responses.to_string()]);
        t.row(vec!["stalls".into(), self.stalled.to_string()]);
        t.row(vec![
            "MTS".into(),
            match self.mts_estimate() {
                Some(mts) => crate::fmt_mts(mts),
                None => format!("no stall observed; MTS >= {:.2e} cycles", self.cycles as f64),
            },
        ]);
        t.row(vec!["mean queue depth".into(), format!("{:.4}", self.queue_depth.mean())]);
        t.row(vec![
            "peak storage occupancy".into(),
            self.storage_occupancy.max().unwrap_or(0).to_string(),
        ]);
        t.render()
    }
}

/// Runs (or resumes) a campaign, appending one checkpoint line per
/// completed shard to `checkpoint`. `progress(done, pending)` fires after
/// each freshly computed shard is appended (resumed shards are not
/// re-reported).
///
/// # Errors
///
/// Returns a one-line message when the checkpoint belongs to different
/// parameters or another version, records two different results for one
/// shard, cannot be read/written, or the parameters fail validation.
pub fn run_campaign<P>(
    params: &CampaignParams,
    checkpoint: &Path,
    progress: P,
) -> Result<CampaignReport, String>
where
    P: Fn(usize, usize) + Sync,
{
    params.validate()?;
    let shown = checkpoint.display();
    let text = match std::fs::read(checkpoint) {
        Ok(bytes) => Some(String::from_utf8_lossy(&bytes).into_owned()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(format!("cannot read checkpoint {shown}: {e}")),
    };
    let mut done = match &text {
        Some(text) => {
            parse_checkpoint(text, params).map_err(|e| format!("checkpoint {shown}: {e}"))?
        }
        None => BTreeMap::new(),
    };
    let resumed = done.len() as u64;
    let pending: Vec<u64> = (0..params.shards()).filter(|s| !done.contains_key(s)).collect();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(checkpoint)
        .map_err(|e| format!("cannot append to checkpoint {shown}: {e}"))?;
    let opening = match &text {
        None => header_line(params),
        // A kill mid-append leaves a partial last line: end it, so the
        // next shard starts a line of its own.
        Some(text) if !text.ends_with('\n') => "\n".into(),
        Some(_) => String::new(),
    };
    file.write_all(opening.as_bytes())
        .map_err(|e| format!("cannot write checkpoint {shown}: {e}"))?;
    let log = Mutex::new((file, 0usize));
    let fresh = par_map(pending.len(), |k| {
        let result = run_shard(params, pending[k]);
        let mut log = log.lock().expect("checkpoint file lock");
        let (file, appended) = &mut *log;
        // An append failure must not silently drop the shard from the
        // checkpoint — better to die loudly and resume later.
        file.write_all(shard_line(&result).as_bytes()).expect("checkpoint append");
        file.flush().expect("checkpoint flush");
        *appended += 1;
        progress(*appended, pending.len());
        result
    });
    for r in fresh {
        done.insert(r.shard, r);
    }

    let mut report = CampaignReport {
        params: params.clone(),
        completed: done.len() as u64,
        resumed,
        cycles: 0,
        cycles_skipped: 0,
        accepted: 0,
        stalled: 0,
        responses: 0,
        queue_depth: Histogram::new(),
        storage_occupancy: Histogram::new(),
    };
    // Checksums catch corruption, not a hand-made line: counters that
    // would overflow the merged totals are refused, not wrapped.
    let add = |total: u64, part: u64| {
        total
            .checked_add(part)
            .ok_or_else(|| format!("checkpoint {shown}: shard totals overflow u64"))
    };
    // BTreeMap iteration gives ascending shard order, so the merge order
    // is fixed regardless of which shards were resumed vs recomputed.
    for r in done.values() {
        report.cycles = add(report.cycles, r.cycles)?;
        report.cycles_skipped = add(report.cycles_skipped, r.cycles_skipped)?;
        report.accepted = add(report.accepted, r.accepted)?;
        report.stalled = add(report.stalled, r.stalled)?;
        report.responses = add(report.responses, r.responses)?;
        add(report.queue_depth.total(), r.queue_depth.total())?;
        add(report.storage_occupancy.total(), r.storage_occupancy.total())?;
        report.queue_depth.merge(&r.queue_depth);
        report.storage_occupancy.merge(&r.storage_occupancy);
    }
    Ok(report)
}

// --- checkpoint serialization -------------------------------------------

/// The per-line checksum: a SplitMix64 chain over the line's bytes. Each
/// step is a bijection of the running value, so two lines of equal length
/// that differ in one byte never share a checksum.
fn checksum(body: &str) -> u64 {
    body.bytes().fold(0, |h, b| splitmix64(h ^ u64::from(b)))
}

/// Ends `body` (a JSON object without its closing brace) with its
/// checksum field, the brace and the newline.
fn seal(body: String) -> String {
    let ck = checksum(&body);
    format!("{body},\"ck\":{ck}}}\n")
}

/// The body of a sealed line whose checksum holds; `None` for a line that
/// was cut short, corrupted, or never sealed.
fn unseal(line: &str) -> Option<&str> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    let (body, tail) = line.rsplit_once(",\"ck\":")?;
    let digits = tail.strip_suffix('}')?;
    let ck: u64 = digits.parse().ok()?;
    // `parse` also takes a leading `+`; the grammar has digits only.
    (digits.bytes().all(|b| b.is_ascii_digit()) && ck == checksum(body)).then_some(body)
}

fn header_line(params: &CampaignParams) -> String {
    seal(format!(
        "{{\"campaign\":\"mts_uniform_reads\",\"version\":{CHECKPOINT_VERSION},\
         \"preset\":\"{}\",\"cycles\":{},\"shard_cycles\":{},\"seed\":{},\"channels\":{}",
        params.preset, params.cycles, params.shard_cycles, params.seed, params.channels
    ))
}

fn hist_fields(prefix: &str, h: &Histogram) -> String {
    let buckets: Vec<String> = (0..64)
        .filter(|&i| h.bucket_count(i) > 0)
        .map(|i| format!("[{},{}]", i, h.bucket_count(i)))
        .collect();
    format!(
        "\"{prefix}_b\":[{}],\"{prefix}_sum\":{},\"{prefix}_min\":{},\"{prefix}_max\":{}",
        buckets.join(","),
        h.sum(),
        h.min().map_or("null".into(), |v| v.to_string()),
        h.max().map_or("null".into(), |v| v.to_string()),
    )
}

/// One shard as a single sealed JSON checkpoint line (newline-terminated).
pub fn shard_line(r: &ShardResult) -> String {
    seal(format!(
        "{{\"shard\":{},\"cycles\":{},\"skipped\":{},\"accepted\":{},\"stalled\":{},\
         \"responses\":{},\"first_stall\":{},{},{}",
        r.shard,
        r.cycles,
        r.cycles_skipped,
        r.accepted,
        r.stalled,
        r.responses,
        r.first_stall_at.map_or("null".into(), |v| v.to_string()),
        hist_fields("qh", &r.queue_depth),
        hist_fields("oh", &r.storage_occupancy),
    ))
}

/// Locates the raw value following `"key":` in a flat JSON line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    Some(line[start..].trim_start())
}

fn parse_u64_field(line: &str, key: &str) -> Option<u64> {
    let rest = field(line, key)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn parse_opt_u64_field(line: &str, key: &str) -> Option<Option<u64>> {
    let rest = field(line, key)?;
    if rest.starts_with("null") {
        Some(None)
    } else {
        parse_u64_field(line, key).map(Some)
    }
}

fn parse_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field(line, key)?.strip_prefix('"')?;
    rest.split('"').next()
}

/// Parses `[[i,c],[i,c],…]` (possibly `[]`) following `"key":`.
fn parse_pairs_field(line: &str, key: &str) -> Option<Vec<(usize, u64)>> {
    let rest = field(line, key)?.strip_prefix('[')?;
    // Matching close bracket of the outer array, by depth scan.
    let mut end = None;
    let mut depth = 1usize;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &rest[..end?];
    let mut out = Vec::new();
    for pair in body.split("],") {
        let pair = pair.trim_start_matches('[').trim_end_matches(']');
        if pair.is_empty() {
            continue;
        }
        let (i, c) = pair.split_once(',')?;
        out.push((i.trim().parse().ok()?, c.trim().parse().ok()?));
    }
    Some(out)
}

fn parse_hist(line: &str, prefix: &str) -> Option<Histogram> {
    let pairs = parse_pairs_field(line, &format!("{prefix}_b"))?;
    let sum = parse_u64_field(line, &format!("{prefix}_sum"))?;
    let min = parse_opt_u64_field(line, &format!("{prefix}_min"))?;
    let max = parse_opt_u64_field(line, &format!("{prefix}_max"))?;
    Histogram::from_parts(&pairs, sum, min, max)
}

/// Parses one sealed shard checkpoint line; `None` for a malformed,
/// truncated or corrupted line (its shard is then treated as not
/// completed).
pub fn parse_shard_line(line: &str) -> Option<ShardResult> {
    let line = unseal(line)?;
    Some(ShardResult {
        shard: parse_u64_field(line, "shard")?,
        cycles: parse_u64_field(line, "cycles")?,
        cycles_skipped: parse_u64_field(line, "skipped")?,
        accepted: parse_u64_field(line, "accepted")?,
        stalled: parse_u64_field(line, "stalled")?,
        responses: parse_u64_field(line, "responses")?,
        first_stall_at: parse_opt_u64_field(line, "first_stall")?,
        queue_depth: parse_hist(line, "qh")?,
        storage_occupancy: parse_hist(line, "oh")?,
    })
}

/// Parses a checkpoint's text into its completed shards. The header must
/// carry this [`CHECKPOINT_VERSION`], a valid checksum and exactly
/// `params`. Shard lines that are cut short or fail their checksum are
/// skipped — their shards simply rerun — and so are exact duplicates.
///
/// # Errors
///
/// Returns a one-line message for a missing, corrupted or foreign header,
/// and for two different results recorded for one shard.
fn parse_checkpoint(
    text: &str,
    params: &CampaignParams,
) -> Result<BTreeMap<u64, ShardResult>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("file is empty")?;
    let version = parse_u64_field(header, "version").ok_or("header is unparseable")?;
    if version != u64::from(CHECKPOINT_VERSION) {
        return Err(format!("version {version} != {CHECKPOINT_VERSION}"));
    }
    let header = unseal(header).ok_or("header fails its checksum")?;
    let channels = parse_u64_field(header, "channels").ok_or("header missing channels")?;
    let recorded = CampaignParams {
        preset: parse_str_field(header, "preset").ok_or("header missing preset")?.to_string(),
        cycles: parse_u64_field(header, "cycles").ok_or("header missing cycles")?,
        shard_cycles: parse_u64_field(header, "shard_cycles")
            .ok_or("header missing shard_cycles")?,
        seed: parse_u64_field(header, "seed").ok_or("header missing seed")?,
        channels: u32::try_from(channels)
            .map_err(|_| format!("header channels {channels} exceed u32"))?,
    };
    if &recorded != params {
        return Err(format!(
            "belongs to a different campaign ({recorded:?} != {params:?}); \
             delete it or match its parameters"
        ));
    }
    let shards = params.shards();
    let mut done = BTreeMap::new();
    for r in lines.filter_map(parse_shard_line).filter(|r| r.shard < shards) {
        match done.entry(r.shard) {
            Entry::Vacant(slot) => {
                slot.insert(r);
            }
            Entry::Occupied(slot) if *slot.get() == r => {}
            Entry::Occupied(slot) => {
                return Err(format!("records two different results for shard {}", slot.key()));
            }
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_checkpoint(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("vpnm_campaign_{tag}_{}_{n}.jsonl", std::process::id()))
    }

    fn small_params() -> CampaignParams {
        CampaignParams {
            preset: "small_test".into(),
            cycles: 20_000,
            shard_cycles: 4_000,
            seed: 42,
            channels: 1,
        }
    }

    #[test]
    fn shards_are_deterministic() {
        let p = small_params();
        assert_eq!(run_shard(&p, 2), run_shard(&p, 2));
        assert_ne!(run_shard(&p, 2), run_shard(&p, 3), "shards must differ");
    }

    #[test]
    fn fabric_shards_are_deterministic_and_answer_everything() {
        let p = CampaignParams { channels: 4, cycles: 8_000, ..small_params() };
        let a = run_shard(&p, 1);
        assert_eq!(a, run_shard(&p, 1));
        assert_eq!(a.accepted, a.responses, "drained shards answer everything");
        assert_eq!(a.accepted + a.stalled, p.cycles_of_shard(1));
        assert_ne!(a, run_shard(&small_params(), 1), "channel count changes the run");

        // Bad channel geometry is caught at validation.
        let bad = CampaignParams { channels: 3, ..small_params() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn shard_line_round_trips_exactly() {
        let p = small_params();
        for shard in [0u64, 4] {
            let r = run_shard(&p, shard);
            let parsed = parse_shard_line(&shard_line(&r)).expect("own lines parse");
            assert_eq!(parsed, r, "bit-exact round trip incl. histograms");
        }
        // Empty-histogram sentinels survive the trip too.
        let empty = ShardResult {
            shard: 9,
            cycles: 0,
            cycles_skipped: 0,
            accepted: 0,
            stalled: 0,
            responses: 0,
            first_stall_at: None,
            queue_depth: Histogram::new(),
            storage_occupancy: Histogram::new(),
        };
        assert_eq!(parse_shard_line(&shard_line(&empty)), Some(empty));
    }

    #[test]
    fn campaign_merge_equals_single_threaded_run() {
        let p = small_params();
        let path = temp_checkpoint("merge");
        let report = run_campaign(&p, &path, |_, _| {}).expect("campaign runs");
        assert_eq!(report.completed, p.shards());
        assert_eq!(report.resumed, 0);

        // Sequential reference: same shard decomposition, one thread, no
        // checkpoint involved.
        let mut cycles = 0u64;
        let mut stalled = 0u64;
        let mut accepted = 0u64;
        let mut qd = Histogram::new();
        let mut occ = Histogram::new();
        for s in 0..p.shards() {
            let r = run_shard(&p, s);
            cycles += r.cycles;
            stalled += r.stalled;
            accepted += r.accepted;
            qd.merge(&r.queue_depth);
            occ.merge(&r.storage_occupancy);
        }
        assert_eq!(report.cycles, cycles);
        assert_eq!(report.stalled, stalled);
        assert_eq!(report.accepted, accepted);
        assert_eq!(report.queue_depth, qd, "merged histograms must be identical");
        assert_eq!(report.storage_occupancy, occ);
        assert_eq!(report.responses, report.accepted, "drained shards answer everything");
        // small_test under full-rate uniform load does stall, so the MTS
        // estimate is finite here.
        assert!(report.mts_estimate().is_some());
        assert!(!report.render().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn killed_campaign_resumes_from_checkpoint() {
        let p = small_params();
        let path = temp_checkpoint("resume");
        let full = run_campaign(&p, &path, |_, _| {}).expect("first run");

        // Simulate a mid-run kill: drop the last two completed shard
        // lines and leave a truncated partial line behind.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.truncate(lines.len() - 2);
        let mut truncated = lines.join("\n");
        truncated.push_str("\n{\"shard\":4,\"cycles\":123,\"acce");
        std::fs::write(&path, truncated).unwrap();

        let recomputed = Mutex::new(0usize);
        let resumed = run_campaign(&p, &path, |_, _| {
            *recomputed.lock().unwrap() += 1;
        })
        .expect("resume run");
        assert_eq!(
            resumed.resumed,
            p.shards() - 2,
            "three lines were lost/truncated… minus header"
        );
        assert_eq!(*recomputed.lock().unwrap(), 2, "only the missing shards rerun");
        // The resumed report is identical to the uninterrupted one.
        let mut full_cmp = full.clone();
        full_cmp.resumed = resumed.resumed;
        assert_eq!(resumed, full_cmp);
        // The rerun shards' lines were not glued to the truncated one.
        let again = run_campaign(&p, &path, |_, _| {}).expect("second resume");
        assert_eq!(again.resumed, p.shards(), "every shard line parses now");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatched_checkpoint_is_refused() {
        let p = small_params();
        let path = temp_checkpoint("mismatch");
        run_campaign(&p, &path, |_, _| {}).expect("first run");
        let mut other = p.clone();
        other.seed = 43;
        let err = run_campaign(&other, &path, |_, _| {}).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_checkpoints_resume_exactly_or_fail_in_one_line() {
        // Every single-bit flip, adjacent-line swap, line duplication and
        // truncation of a 3-shard checkpoint: the resumed report equals
        // the uninterrupted one, or the run returns a one-line error.
        let p = CampaignParams { cycles: 150, shard_cycles: 50, ..small_params() };
        let path = temp_checkpoint("sweep");
        let full = run_campaign(&p, &path, |_, _| {}).expect("uninterrupted run");
        let clean = std::fs::read(&path).unwrap();
        let lines: Vec<&[u8]> = clean.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), 4, "header plus three shards");

        let flips = (0..clean.len() * 8).map(|bit| {
            let mut c = clean.clone();
            c[bit / 8] ^= 1 << (bit % 8);
            c
        });
        let swaps = (1..lines.len()).map(|i| {
            let mut l = lines.clone();
            l.swap(i - 1, i);
            l.concat()
        });
        let dups = (0..lines.len()).map(|i| {
            let mut l = lines.clone();
            l.insert(i, lines[i]);
            l.concat()
        });
        let cuts = (0..clean.len()).map(|len| clean[..len].to_vec());
        let (mut resumed, mut refused) = (0, 0);
        for (n, case) in flips.chain(swaps).chain(dups).chain(cuts).enumerate() {
            std::fs::write(&path, &case).unwrap();
            match run_campaign(&p, &path, |_, _| {}) {
                Ok(report) => {
                    assert_eq!(
                        CampaignReport { resumed: full.resumed, ..report },
                        full,
                        "case {n}"
                    );
                    resumed += 1;
                }
                Err(e) => {
                    assert!(!e.is_empty() && !e.contains('\n'), "case {n}: {e:?}");
                    refused += 1;
                }
            }
        }
        assert!(resumed > 0 && refused > 0, "{resumed} resumed, {refused} refused");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conflicting_shard_lines_are_refused() {
        let p = small_params();
        let path = temp_checkpoint("conflict");
        run_campaign(&p, &path, |_, _| {}).expect("first run");
        let mut other = run_shard(&p, 1);
        other.stalled += 1;
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&shard_line(&other));
        std::fs::write(&path, text).unwrap();
        let err = run_campaign(&p, &path, |_, _| {}).unwrap_err();
        assert!(err.contains("two different results for shard 1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hostile_sealed_lines_are_rerun_or_refused() {
        // Lines with valid checksums but impossible contents.
        let p = CampaignParams { cycles: 1_500, shard_cycles: 500, ..small_params() };
        let path = temp_checkpoint("hostile");
        let full = run_campaign(&p, &path, |_, _| {}).expect("first run");
        let header = header_line(&p);
        let mut huge = run_shard(&p, 0);
        let overflowing_line =
            shard_line(&huge).replace("\"qh_b\":[", "\"qh_b\":[[0,18446744073709551615],");
        let resealed = seal(overflowing_line.rsplit_once(",\"ck\":").unwrap().0.to_string());

        // A bucket count that overflows the histogram rejects the line.
        std::fs::write(&path, format!("{header}{resealed}")).unwrap();
        let report = run_campaign(&p, &path, |_, _| {}).expect("line rejected, shard rerun");
        assert_eq!(CampaignReport { resumed: full.resumed, ..report }, full);

        // Counters that only overflow once merged are refused.
        huge.cycles = u64::MAX;
        let mut twin = huge.clone();
        twin.shard = 1;
        std::fs::write(&path, format!("{header}{}{}", shard_line(&huge), shard_line(&twin)))
            .unwrap();
        let err = run_campaign(&p, &path, |_, _| {}).unwrap_err();
        assert!(err.contains("overflow"), "{err}");

        // A channel count beyond u32 is refused, not truncated to 1.
        let wide = header.replace("\"channels\":1", &format!("\"channels\":{}", (1u64 << 32) + 1));
        let wide = seal(wide.rsplit_once(",\"ck\":").unwrap().0.to_string());
        std::fs::write(&path, wide).unwrap();
        let err = run_campaign(&p, &path, |_, _| {}).unwrap_err();
        assert!(err.contains("exceed u32"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn older_checkpoint_versions_are_refused() {
        let p = small_params();
        let path = temp_checkpoint("v3");
        let v3 = "{\"campaign\":\"mts_uniform_reads\",\"version\":3,\"preset\":\"small_test\",\
                  \"cycles\":20000,\"shard_cycles\":4000,\"seed\":42,\"channels\":1}\n";
        std::fs::write(&path, v3).unwrap();
        let err = run_campaign(&p, &path, |_, _| {}).unwrap_err();
        assert!(err.ends_with("version 3 != 4"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = small_params();
        p.preset = "nope".into();
        assert!(p.validate().is_err());
        p = small_params();
        p.cycles = 0;
        assert!(p.validate().is_err());
        p = small_params();
        p.shard_cycles = 0;
        assert!(p.validate().is_err());
        p = small_params();
        p.channels = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn shard_cycle_split_covers_horizon() {
        let p = CampaignParams {
            preset: "small_test".into(),
            cycles: 10_500,
            shard_cycles: 4_000,
            seed: 1,
            channels: 1,
        };
        assert_eq!(p.shards(), 3);
        assert_eq!(p.cycles_of_shard(0), 4_000);
        assert_eq!(p.cycles_of_shard(2), 2_500);
    }
}
