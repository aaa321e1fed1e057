//! Dev aid: where does the fabric spend its time, per drive path?
//!
//! Runs the full-rate 8-channel `paper_optimal` uniform-read workload
//! (the `fabric/uniform_reads/*` bench scenario) through the lockstep
//! `tick` loop and the epoch-batched `issue_batch` door at 1 and 8
//! workers, reporting ns per fabric cycle and the fraction of
//! channel-cycles the channels' idle skip covered (small at full rate:
//! a channel is rarely without a queued bank). The execute phase only
//! divides by worker count when there are physical cores to divide
//! across (see docs/PERFORMANCE.md, "Measured scaling").
use std::time::Instant;
use vpnm_core::{
    ChannelSelect, FabricConfig, LineAddr, PipelinedMemory, Request, VpnmConfig, VpnmFabric,
};
use vpnm_workloads::generators::AddressGenerator;
use vpnm_workloads::UniformAddresses;

fn main() {
    const CYCLES: u64 = 10_000;
    const ITERS: u64 = 60;
    let fc = FabricConfig {
        channels: 8,
        select: ChannelSelect::UniversalHash,
        base: VpnmConfig::paper_optimal(),
        qos: None,
    };
    let space = 1u64 << fc.base.addr_bits;

    let mut fab = VpnmFabric::new(fc.clone(), 7).unwrap();
    let mut gen = UniformAddresses::new(space, 3);
    let mut addrs = vec![0u64; CYCLES as usize];
    let t = Instant::now();
    for _ in 0..ITERS {
        gen.fill_addrs(&mut addrs);
        let mut served = 0u64;
        for &a in &addrs {
            let out = fab.tick(Some(Request::read(LineAddr(a))));
            served += out.response.map_or(0, |r| r.completed_at.as_u64());
        }
        std::hint::black_box(served);
    }
    let ns = t.elapsed().as_nanos() as f64 / (CYCLES * ITERS) as f64;
    println!("lockstep:  {ns:>8.1} ns/cycle");

    for workers in [1usize, 8] {
        let mut fab = VpnmFabric::new(fc.clone(), 7).unwrap();
        fab.set_workers(workers);
        let mut gen = UniformAddresses::new(space, 3);
        let mut batch: Vec<Request> = Vec::with_capacity(CYCLES as usize);
        let t = Instant::now();
        for _ in 0..ITERS {
            gen.fill_addrs(&mut addrs);
            batch.clear();
            batch.extend(addrs.iter().map(|&a| Request::read(LineAddr(a))));
            std::hint::black_box(fab.issue_batch(&batch));
        }
        let ns = t.elapsed().as_nanos() as f64 / (CYCLES * ITERS) as f64;
        let skipped = fab.merged_snapshot().map_or(0, |s| s.cycles_skipped);
        let pct = 100.0 * skipped as f64 / (8 * CYCLES * ITERS) as f64;
        println!("epoch w={workers}: {ns:>8.1} ns/cycle ({pct:.1}% of channel-cycles skipped)");
    }
}
