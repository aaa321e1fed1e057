//! Ad-hoc stage timing for the batched front door (dev aid, not a bench).
use std::time::Instant;
use vpnm_core::delay_storage::DelayStorageBuffer;
use vpnm_core::request::LineAddr;
use vpnm_core::{PipelinedMemory, Request, VpnmConfig, VpnmController};
use vpnm_dram::{DramConfig, DramDevice};
use vpnm_sim::{Cycle, Histogram};
use vpnm_workloads::generators::AddressGenerator;
use vpnm_workloads::UniformAddresses;

const CYCLES: u64 = 10_000;
const REPS: u32 = 200;

fn main() {
    let config = VpnmConfig::paper_optimal();
    let space = 1u64 << config.addr_bits;

    let time = |label: &str, mut f: Box<dyn FnMut()>| {
        for _ in 0..20 {
            f();
        }
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..REPS / 5 {
                f();
            }
            let per = t.elapsed().as_nanos() as f64 / f64::from(REPS / 5);
            best = best.min(per);
        }
        println!("{label:<32} {best:>12.0} ns/iter  ({:.1} ns/cycle)", best / CYCLES as f64);
    };

    let c1 = config.clone();
    time(
        "tick loop",
        Box::new(move || {
            let mut mem = VpnmController::new(c1.clone(), 7).expect("valid");
            let mut gen = UniformAddresses::new(space, 3);
            for _ in 0..CYCLES {
                std::hint::black_box(mem.tick(Some(Request::read(LineAddr(gen.next_addr())))));
            }
        }),
    );

    let c2 = config.clone();
    let mut gen = UniformAddresses::new(space, 3);
    let mut addrs = vec![0u64; CYCLES as usize];
    gen.fill_addrs(&mut addrs);
    let trace: Vec<Request> = addrs.iter().map(|&a| Request::read(LineAddr(a))).collect();
    time(
        "issue_batch only (pre-built)",
        Box::new(move || {
            let mut mem = VpnmController::new(c2.clone(), 7).expect("valid");
            std::hint::black_box(mem.issue_batch(&trace));
        }),
    );

    // --- components ---
    time(
        "rng fill (per 10k)",
        Box::new(move || {
            let mut gen = UniformAddresses::new(space, 3);
            let mut addrs = vec![0u64; CYCLES as usize];
            gen.fill_addrs(&mut addrs);
            std::hint::black_box(&addrs);
        }),
    );

    // K = 128 is the paper-optimal bank. At K = 2048 only the low word is
    // ever live here, so the tag compare costs the same; what the row adds
    // is the walk over 32 `valid` words and the larger construction.
    for (label, k) in
        [("dsb alloc+play K=128 (per 10k)", 128), ("dsb alloc+play K=2048 (per 10k)", 2048)]
    {
        time(
            label,
            Box::new(move || {
                let mut dsb = DelayStorageBuffer::new(k);
                let mut gen = UniformAddresses::new(space, 3);
                for _ in 0..CYCLES {
                    let a = LineAddr(gen.next_addr());
                    if dsb.lookup(a).is_none() {
                        if let Some(r) = dsb.allocate(a) {
                            dsb.fill(r, bytes::Bytes::new());
                            std::hint::black_box(dsb.playback(r));
                        }
                    }
                }
            }),
        );
    }

    time(
        "dram issue_read (per 10k)",
        Box::new(move || {
            let mut d = DramDevice::new(DramConfig::paper_rdram());
            let banks = d.config().num_banks;
            let cells = d.config().cells_per_bank();
            let mut gen = UniformAddresses::new(space, 3);
            let mut now = 0u64;
            for _ in 0..CYCLES {
                let a = gen.next_addr();
                let bank = (a % u64::from(banks)) as u32;
                let off = a % cells;
                let _ = std::hint::black_box(d.issue_read(bank, off, Cycle::new(now)));
                now += 100; // always past busy window
            }
        }),
    );

    time(
        "2x histogram record (per 10k)",
        Box::new(move || {
            let mut h1 = Histogram::default();
            let mut h2 = Histogram::default();
            for i in 0..CYCLES {
                h1.record(i & 15);
                h2.record(1000 + (i & 255));
            }
            std::hint::black_box((&h1, &h2));
        }),
    );

    time(
        "clock 1.3 ticks/cycle (per 10k)",
        Box::new(move || {
            let mut clk = vpnm_sim::DualClock::new(1.3);
            for _ in 0..CYCLES {
                loop {
                    let mt = clk.tick_memory();
                    if mt.interface_tick {
                        break;
                    }
                }
            }
            std::hint::black_box(clk.interface_now());
        }),
    );
}
