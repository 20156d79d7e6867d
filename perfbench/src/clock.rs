//! Host time for the timed phases.
//!
//! On a shared VM the host's speed drifts by tens of percent over minutes:
//! the hypervisor runs other guests on this guest's vCPUs ("steal", the
//! eighth column of `/proc/stat`, which swings from under 1% to over 15%)
//! and neighbours contend for the cores and caches it leaves us. Every
//! host-time metric therefore counts *reference seconds*: wall seconds less
//! the stolen share, rescaled by a fixed [`Reference`] workload timed just
//! before, to a host on which that workload takes [`REFERENCE_S`].

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::stats;

/// A reading of the host clocks.
#[derive(Debug, Clone, Copy)]
struct Reading {
    wall: Instant,
    steal: Option<(u64, u64)>,
}

impl Reading {
    fn now() -> Self {
        Reading {
            wall: Instant::now(),
            steal: stats::host_steal(),
        }
    }
}

/// What the host clocks saw over one measured call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub wall_s: f64,
    /// Share of all host CPU time the hypervisor stole (0 when unknown).
    pub steal_share: f64,
}

impl Span {
    /// Host seconds this VM actually ran: wall time less the stolen share.
    pub fn host_s(&self) -> f64 {
        self.wall_s * (1.0 - self.steal_share)
    }
}

/// Run `f`, returning its result and the host clocks over it.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Span) {
    let start = Reading::now();
    let result = f();
    let end = Reading::now();
    let steal_share = match (start.steal, end.steal) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let span = Span {
        wall_s: end.wall.duration_since(start.wall).as_secs_f64(),
        steal_share,
    };
    (result, span)
}

/// Host seconds one [`Reference`] round takes on the reference host.
pub const REFERENCE_S: f64 = 0.025;

/// A fixed, program-independent workload on two threads (the pool width)
/// doing what the simulator spends its time on: string-keyed hashing,
/// ordered-map churn, small allocations, sorting and a cache-missing
/// pointer chase.
pub struct Reference {
    chase: [Vec<u32>; 2],
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            chase: [
                random_cycle(0x9E37_79B9_7F4A_7C15),
                random_cycle(0xD1B5_4A32_D192_ED03),
            ],
        }
    }

    /// Host seconds of one round.
    pub fn round(&self) -> f64 {
        let ((), span) = measure(|| {
            std::thread::scope(|s| {
                for chase in &self.chase {
                    s.spawn(move || std::hint::black_box(reference_work(chase)));
                }
            })
        });
        span.host_s()
    }

    /// Run `f` after one reference round; returns its result and its
    /// reference seconds.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, Timing) {
        let reference_s = self.round();
        let (result, span) = measure(f);
        (result, Timing { span, reference_s })
    }
}

/// A measured call and the reference round timed just before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub span: Span,
    pub reference_s: f64,
}

impl Timing {
    /// Host seconds rescaled to the reference host.
    pub fn scaled_s(&self) -> f64 {
        self.span.host_s() * REFERENCE_S / self.reference_s
    }
}

/// One random cycle through 2 Mi slots (8 MiB), so every step of the chase
/// misses the caches.
fn random_cycle(seed: u64) -> Vec<u32> {
    let n = 1usize << 21;
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut next = vec![0u32; n];
    for w in 0..n {
        next[order[w] as usize] = order[(w + 1) % n];
    }
    next
}

fn reference_work(chase: &[u32]) -> f64 {
    let mut at = 0u32;
    for _ in 0..60_000 {
        at = chase[at as usize];
    }
    let mut map: HashMap<String, f64> = HashMap::new();
    let mut tree = BTreeMap::new();
    for i in 0..20_000u64 {
        *map.entry(format!("kv seq{} GPTN-S", i % 997))
            .or_insert(0.0) += (i as f64).sqrt();
        tree.insert(
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            vec![i; 1 + (i % 7) as usize],
        );
        if i % 3 == 0 {
            tree.pop_first();
        }
    }
    let mut pairs: Vec<(f64, u64)> = (0..50_000u64)
        .map(|i| (((i * 7919) % 10_007) as f64 * 0.5, i))
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    f64::from(at) + pairs[25_000].0 + map.len() as f64 + tree.len() as f64
}
