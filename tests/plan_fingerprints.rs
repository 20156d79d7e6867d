//! Golden plan fingerprints: the overlap plan `FlashMem::compile` produces
//! for every evaluated model × device × preset must hash to the constant
//! recorded for it below.
//!
//! A plan is a pure function of (graph, device, config): LC-OPG stops its
//! searches on node counts, never on a clock. The constants were recorded
//! with the earlier planner, whose window solves stopped on a 40 ms wall
//! clock; matching them shows that the node budgets and the proven window
//! bound changed no plan. A deliberate planner change updates them.
//!
//! Those compiles never leave LC-OPG's first tier: every window is decided
//! in closed form, without building a CP model, and their only fallbacks are
//! windows with no load capacity at all. A second, smaller set of golden
//! fingerprints pins the plans and planner counters of inputs that do reach
//! the soft-threshold retry, the greedy backup and the node-capped search,
//! and how many windows each searches.

use flashmem::core::cache::Fnv1a;
use flashmem::core::LcOpgReport;
use flashmem::prelude::*;

/// FNV-1a over every weight schedule, then every chunk assignment in kernel
/// order.
fn plan_fingerprint(plan: &OverlapPlan) -> u64 {
    let mut h = Fnv1a::new()
        .write_u64(plan.num_kernels() as u64)
        .write_u64(plan.chunk_bytes());
    for w in plan.weights() {
        h = h
            .write_u64(w.weight.0 as u64)
            .write_u64(w.consumer_kernel as u64)
            .write_u64(w.disk_load_kernel as u64)
            .write_u64(u64::from(w.preloaded))
            .write_u64(w.bytes);
    }
    for k in 0..plan.num_kernels() {
        for a in plan.assignments_at(k) {
            h = h
                .write_u64(k as u64)
                .write_u64(a.weight.0 as u64)
                .write_u64(a.chunks)
                .write_u64(a.bytes);
        }
    }
    h.finish()
}

/// (model abbreviation, device, preset, plan fingerprint), in
/// `ModelZoo::all_evaluated()` × `DeviceSpec::all_evaluated()` × preset order.
const GOLDEN: &[(&str, &str, &str, u64)] = &[
    ("GPTN-S", "OnePlus 12", "memory", 0x25ebc7e2f7868f65),
    ("GPTN-S", "OnePlus 12", "balanced", 0x25ebc7e2f7868f65),
    ("GPTN-S", "OnePlus 12", "latency", 0x25ebc7e2f7868f65),
    ("GPTN-S", "OnePlus 11", "memory", 0x3daefc3ad65d0bfb),
    ("GPTN-S", "OnePlus 11", "balanced", 0x3daefc3ad65d0bfb),
    ("GPTN-S", "OnePlus 11", "latency", 0x3daefc3ad65d0bfb),
    ("GPTN-S", "Google Pixel 8", "memory", 0xf55fe67ae7699502),
    ("GPTN-S", "Google Pixel 8", "balanced", 0xf55fe67ae7699502),
    ("GPTN-S", "Google Pixel 8", "latency", 0xf55fe67ae7699502),
    ("GPTN-S", "Xiaomi Mi 6", "memory", 0x30517f0435a6e430),
    ("GPTN-S", "Xiaomi Mi 6", "balanced", 0x30517f0435a6e430),
    ("GPTN-S", "Xiaomi Mi 6", "latency", 0x30517f0435a6e430),
    ("GPTN-S", "Samsung Galaxy A54", "memory", 0xd443e7b7c3a48b0a),
    (
        "GPTN-S",
        "Samsung Galaxy A54",
        "balanced",
        0xd443e7b7c3a48b0a,
    ),
    (
        "GPTN-S",
        "Samsung Galaxy A54",
        "latency",
        0xd443e7b7c3a48b0a,
    ),
    (
        "GPTN-S",
        "Samsung Galaxy Tab S9",
        "memory",
        0xd0c6e4954c29fdc5,
    ),
    (
        "GPTN-S",
        "Samsung Galaxy Tab S9",
        "balanced",
        0xd0c6e4954c29fdc5,
    ),
    (
        "GPTN-S",
        "Samsung Galaxy Tab S9",
        "latency",
        0xd0c6e4954c29fdc5,
    ),
    ("GPTN-S", "Ryzen 7840U Laptop", "memory", 0xf1a8a9e5edb6ad93),
    (
        "GPTN-S",
        "Ryzen 7840U Laptop",
        "balanced",
        0xf1a8a9e5edb6ad93,
    ),
    (
        "GPTN-S",
        "Ryzen 7840U Laptop",
        "latency",
        0xf1a8a9e5edb6ad93,
    ),
    ("GPTN-1.3B", "OnePlus 12", "memory", 0x47c8c51b429bc457),
    ("GPTN-1.3B", "OnePlus 12", "balanced", 0x47c8c51b429bc457),
    ("GPTN-1.3B", "OnePlus 12", "latency", 0x47c8c51b429bc457),
    ("GPTN-1.3B", "OnePlus 11", "memory", 0x7c75ffa3883dcd6d),
    ("GPTN-1.3B", "OnePlus 11", "balanced", 0x7c75ffa3883dcd6d),
    ("GPTN-1.3B", "OnePlus 11", "latency", 0x7c75ffa3883dcd6d),
    ("GPTN-1.3B", "Google Pixel 8", "memory", 0x508658cc9146f74b),
    (
        "GPTN-1.3B",
        "Google Pixel 8",
        "balanced",
        0x508658cc9146f74b,
    ),
    ("GPTN-1.3B", "Google Pixel 8", "latency", 0x508658cc9146f74b),
    ("GPTN-1.3B", "Xiaomi Mi 6", "memory", 0xbce55f8fcdfccd47),
    ("GPTN-1.3B", "Xiaomi Mi 6", "balanced", 0xbce55f8fcdfccd47),
    ("GPTN-1.3B", "Xiaomi Mi 6", "latency", 0xbce55f8fcdfccd47),
    (
        "GPTN-1.3B",
        "Samsung Galaxy A54",
        "memory",
        0x105c113ff82d7b05,
    ),
    (
        "GPTN-1.3B",
        "Samsung Galaxy A54",
        "balanced",
        0x105c113ff82d7b05,
    ),
    (
        "GPTN-1.3B",
        "Samsung Galaxy A54",
        "latency",
        0x105c113ff82d7b05,
    ),
    (
        "GPTN-1.3B",
        "Samsung Galaxy Tab S9",
        "memory",
        0x47c8c51b429bc457,
    ),
    (
        "GPTN-1.3B",
        "Samsung Galaxy Tab S9",
        "balanced",
        0x47c8c51b429bc457,
    ),
    (
        "GPTN-1.3B",
        "Samsung Galaxy Tab S9",
        "latency",
        0x47c8c51b429bc457,
    ),
    (
        "GPTN-1.3B",
        "Ryzen 7840U Laptop",
        "memory",
        0x2eb9c36d1c0bb00d,
    ),
    (
        "GPTN-1.3B",
        "Ryzen 7840U Laptop",
        "balanced",
        0x2eb9c36d1c0bb00d,
    ),
    (
        "GPTN-1.3B",
        "Ryzen 7840U Laptop",
        "latency",
        0x2eb9c36d1c0bb00d,
    ),
    ("GPTN-2.7B", "OnePlus 12", "memory", 0x411de7a25fbdedd8),
    ("GPTN-2.7B", "OnePlus 12", "balanced", 0x411de7a25fbdedd8),
    ("GPTN-2.7B", "OnePlus 12", "latency", 0x411de7a25fbdedd8),
    ("GPTN-2.7B", "OnePlus 11", "memory", 0x2c110eb4834bc966),
    ("GPTN-2.7B", "OnePlus 11", "balanced", 0x2c110eb4834bc966),
    ("GPTN-2.7B", "OnePlus 11", "latency", 0x2c110eb4834bc966),
    ("GPTN-2.7B", "Google Pixel 8", "memory", 0x437cb25a6b063bb0),
    (
        "GPTN-2.7B",
        "Google Pixel 8",
        "balanced",
        0x437cb25a6b063bb0,
    ),
    ("GPTN-2.7B", "Google Pixel 8", "latency", 0x437cb25a6b063bb0),
    ("GPTN-2.7B", "Xiaomi Mi 6", "memory", 0x95ec95ebba1ea7a2),
    ("GPTN-2.7B", "Xiaomi Mi 6", "balanced", 0x95ec95ebba1ea7a2),
    ("GPTN-2.7B", "Xiaomi Mi 6", "latency", 0x95ec95ebba1ea7a2),
    (
        "GPTN-2.7B",
        "Samsung Galaxy A54",
        "memory",
        0x95ec95ebba1ea7a2,
    ),
    (
        "GPTN-2.7B",
        "Samsung Galaxy A54",
        "balanced",
        0x95ec95ebba1ea7a2,
    ),
    (
        "GPTN-2.7B",
        "Samsung Galaxy A54",
        "latency",
        0x95ec95ebba1ea7a2,
    ),
    (
        "GPTN-2.7B",
        "Samsung Galaxy Tab S9",
        "memory",
        0x2c110eb4834bc966,
    ),
    (
        "GPTN-2.7B",
        "Samsung Galaxy Tab S9",
        "balanced",
        0x2c110eb4834bc966,
    ),
    (
        "GPTN-2.7B",
        "Samsung Galaxy Tab S9",
        "latency",
        0x2c110eb4834bc966,
    ),
    (
        "GPTN-2.7B",
        "Ryzen 7840U Laptop",
        "memory",
        0xb128d1e45eba2388,
    ),
    (
        "GPTN-2.7B",
        "Ryzen 7840U Laptop",
        "balanced",
        0xb128d1e45eba2388,
    ),
    (
        "GPTN-2.7B",
        "Ryzen 7840U Laptop",
        "latency",
        0xb128d1e45eba2388,
    ),
    ("ResNet", "OnePlus 12", "memory", 0x78fae0e464a7b5d5),
    ("ResNet", "OnePlus 12", "balanced", 0x78fae0e464a7b5d5),
    ("ResNet", "OnePlus 12", "latency", 0x78fae0e464a7b5d5),
    ("ResNet", "OnePlus 11", "memory", 0x78fae0e464a7b5d5),
    ("ResNet", "OnePlus 11", "balanced", 0x78fae0e464a7b5d5),
    ("ResNet", "OnePlus 11", "latency", 0x78fae0e464a7b5d5),
    ("ResNet", "Google Pixel 8", "memory", 0x78fae0e464a7b5d5),
    ("ResNet", "Google Pixel 8", "balanced", 0x78fae0e464a7b5d5),
    ("ResNet", "Google Pixel 8", "latency", 0x78fae0e464a7b5d5),
    ("ResNet", "Xiaomi Mi 6", "memory", 0x78fae0e464a7b5d5),
    ("ResNet", "Xiaomi Mi 6", "balanced", 0x78fae0e464a7b5d5),
    ("ResNet", "Xiaomi Mi 6", "latency", 0x78fae0e464a7b5d5),
    ("ResNet", "Samsung Galaxy A54", "memory", 0x78fae0e464a7b5d5),
    (
        "ResNet",
        "Samsung Galaxy A54",
        "balanced",
        0x78fae0e464a7b5d5,
    ),
    (
        "ResNet",
        "Samsung Galaxy A54",
        "latency",
        0x78fae0e464a7b5d5,
    ),
    (
        "ResNet",
        "Samsung Galaxy Tab S9",
        "memory",
        0x78fae0e464a7b5d5,
    ),
    (
        "ResNet",
        "Samsung Galaxy Tab S9",
        "balanced",
        0x78fae0e464a7b5d5,
    ),
    (
        "ResNet",
        "Samsung Galaxy Tab S9",
        "latency",
        0x78fae0e464a7b5d5,
    ),
    ("ResNet", "Ryzen 7840U Laptop", "memory", 0x78fae0e464a7b5d5),
    (
        "ResNet",
        "Ryzen 7840U Laptop",
        "balanced",
        0x78fae0e464a7b5d5,
    ),
    (
        "ResNet",
        "Ryzen 7840U Laptop",
        "latency",
        0x78fae0e464a7b5d5,
    ),
    ("SAM-2", "OnePlus 12", "memory", 0x4778f8fd1b03e02f),
    ("SAM-2", "OnePlus 12", "balanced", 0x4778f8fd1b03e02f),
    ("SAM-2", "OnePlus 12", "latency", 0x4778f8fd1b03e02f),
    ("SAM-2", "OnePlus 11", "memory", 0x4778f8fd1b03e02f),
    ("SAM-2", "OnePlus 11", "balanced", 0x4778f8fd1b03e02f),
    ("SAM-2", "OnePlus 11", "latency", 0x4778f8fd1b03e02f),
    ("SAM-2", "Google Pixel 8", "memory", 0x4778f8fd1b03e02f),
    ("SAM-2", "Google Pixel 8", "balanced", 0x4778f8fd1b03e02f),
    ("SAM-2", "Google Pixel 8", "latency", 0x4778f8fd1b03e02f),
    ("SAM-2", "Xiaomi Mi 6", "memory", 0x4778f8fd1b03e02f),
    ("SAM-2", "Xiaomi Mi 6", "balanced", 0x4778f8fd1b03e02f),
    ("SAM-2", "Xiaomi Mi 6", "latency", 0x4778f8fd1b03e02f),
    ("SAM-2", "Samsung Galaxy A54", "memory", 0x4778f8fd1b03e02f),
    (
        "SAM-2",
        "Samsung Galaxy A54",
        "balanced",
        0x4778f8fd1b03e02f,
    ),
    ("SAM-2", "Samsung Galaxy A54", "latency", 0x4778f8fd1b03e02f),
    (
        "SAM-2",
        "Samsung Galaxy Tab S9",
        "memory",
        0x4778f8fd1b03e02f,
    ),
    (
        "SAM-2",
        "Samsung Galaxy Tab S9",
        "balanced",
        0x4778f8fd1b03e02f,
    ),
    (
        "SAM-2",
        "Samsung Galaxy Tab S9",
        "latency",
        0x4778f8fd1b03e02f,
    ),
    ("SAM-2", "Ryzen 7840U Laptop", "memory", 0x4778f8fd1b03e02f),
    (
        "SAM-2",
        "Ryzen 7840U Laptop",
        "balanced",
        0x4778f8fd1b03e02f,
    ),
    ("SAM-2", "Ryzen 7840U Laptop", "latency", 0x4778f8fd1b03e02f),
    ("ViT", "OnePlus 12", "memory", 0xeff0baf56ab57b88),
    ("ViT", "OnePlus 12", "balanced", 0xeff0baf56ab57b88),
    ("ViT", "OnePlus 12", "latency", 0xeff0baf56ab57b88),
    ("ViT", "OnePlus 11", "memory", 0xeff0baf56ab57b88),
    ("ViT", "OnePlus 11", "balanced", 0xeff0baf56ab57b88),
    ("ViT", "OnePlus 11", "latency", 0xeff0baf56ab57b88),
    ("ViT", "Google Pixel 8", "memory", 0xeff0baf56ab57b88),
    ("ViT", "Google Pixel 8", "balanced", 0xeff0baf56ab57b88),
    ("ViT", "Google Pixel 8", "latency", 0xeff0baf56ab57b88),
    ("ViT", "Xiaomi Mi 6", "memory", 0xeff0baf56ab57b88),
    ("ViT", "Xiaomi Mi 6", "balanced", 0xeff0baf56ab57b88),
    ("ViT", "Xiaomi Mi 6", "latency", 0xeff0baf56ab57b88),
    ("ViT", "Samsung Galaxy A54", "memory", 0xeff0baf56ab57b88),
    ("ViT", "Samsung Galaxy A54", "balanced", 0xeff0baf56ab57b88),
    ("ViT", "Samsung Galaxy A54", "latency", 0xeff0baf56ab57b88),
    ("ViT", "Samsung Galaxy Tab S9", "memory", 0xeff0baf56ab57b88),
    (
        "ViT",
        "Samsung Galaxy Tab S9",
        "balanced",
        0xeff0baf56ab57b88,
    ),
    (
        "ViT",
        "Samsung Galaxy Tab S9",
        "latency",
        0xeff0baf56ab57b88,
    ),
    ("ViT", "Ryzen 7840U Laptop", "memory", 0xeff0baf56ab57b88),
    ("ViT", "Ryzen 7840U Laptop", "balanced", 0xeff0baf56ab57b88),
    ("ViT", "Ryzen 7840U Laptop", "latency", 0xeff0baf56ab57b88),
    ("DeepViT", "OnePlus 12", "memory", 0x34bf8ce102c3cd19),
    ("DeepViT", "OnePlus 12", "balanced", 0x34bf8ce102c3cd19),
    ("DeepViT", "OnePlus 12", "latency", 0x34bf8ce102c3cd19),
    ("DeepViT", "OnePlus 11", "memory", 0x34bf8ce102c3cd19),
    ("DeepViT", "OnePlus 11", "balanced", 0x34bf8ce102c3cd19),
    ("DeepViT", "OnePlus 11", "latency", 0x34bf8ce102c3cd19),
    ("DeepViT", "Google Pixel 8", "memory", 0x34bf8ce102c3cd19),
    ("DeepViT", "Google Pixel 8", "balanced", 0x34bf8ce102c3cd19),
    ("DeepViT", "Google Pixel 8", "latency", 0x34bf8ce102c3cd19),
    ("DeepViT", "Xiaomi Mi 6", "memory", 0x34bf8ce102c3cd19),
    ("DeepViT", "Xiaomi Mi 6", "balanced", 0x34bf8ce102c3cd19),
    ("DeepViT", "Xiaomi Mi 6", "latency", 0x34bf8ce102c3cd19),
    (
        "DeepViT",
        "Samsung Galaxy A54",
        "memory",
        0x34bf8ce102c3cd19,
    ),
    (
        "DeepViT",
        "Samsung Galaxy A54",
        "balanced",
        0x34bf8ce102c3cd19,
    ),
    (
        "DeepViT",
        "Samsung Galaxy A54",
        "latency",
        0x34bf8ce102c3cd19,
    ),
    (
        "DeepViT",
        "Samsung Galaxy Tab S9",
        "memory",
        0x34bf8ce102c3cd19,
    ),
    (
        "DeepViT",
        "Samsung Galaxy Tab S9",
        "balanced",
        0x34bf8ce102c3cd19,
    ),
    (
        "DeepViT",
        "Samsung Galaxy Tab S9",
        "latency",
        0x34bf8ce102c3cd19,
    ),
    (
        "DeepViT",
        "Ryzen 7840U Laptop",
        "memory",
        0x34bf8ce102c3cd19,
    ),
    (
        "DeepViT",
        "Ryzen 7840U Laptop",
        "balanced",
        0x34bf8ce102c3cd19,
    ),
    (
        "DeepViT",
        "Ryzen 7840U Laptop",
        "latency",
        0x34bf8ce102c3cd19,
    ),
    ("SD-UNet", "OnePlus 12", "memory", 0x089863109a4f8226),
    ("SD-UNet", "OnePlus 12", "balanced", 0x089863109a4f8226),
    ("SD-UNet", "OnePlus 12", "latency", 0x089863109a4f8226),
    ("SD-UNet", "OnePlus 11", "memory", 0x0d15de5098cf550c),
    ("SD-UNet", "OnePlus 11", "balanced", 0x0d15de5098cf550c),
    ("SD-UNet", "OnePlus 11", "latency", 0x0d15de5098cf550c),
    ("SD-UNet", "Google Pixel 8", "memory", 0xfc65193f0e0b6745),
    ("SD-UNet", "Google Pixel 8", "balanced", 0xfc65193f0e0b6745),
    ("SD-UNet", "Google Pixel 8", "latency", 0xfc65193f0e0b6745),
    ("SD-UNet", "Xiaomi Mi 6", "memory", 0x8f4a60e9af287a35),
    ("SD-UNet", "Xiaomi Mi 6", "balanced", 0x8f4a60e9af287a35),
    ("SD-UNet", "Xiaomi Mi 6", "latency", 0x8f4a60e9af287a35),
    (
        "SD-UNet",
        "Samsung Galaxy A54",
        "memory",
        0x93619dbe2ce08b9e,
    ),
    (
        "SD-UNet",
        "Samsung Galaxy A54",
        "balanced",
        0x93619dbe2ce08b9e,
    ),
    (
        "SD-UNet",
        "Samsung Galaxy A54",
        "latency",
        0x93619dbe2ce08b9e,
    ),
    (
        "SD-UNet",
        "Samsung Galaxy Tab S9",
        "memory",
        0xd057cf4686c844ba,
    ),
    (
        "SD-UNet",
        "Samsung Galaxy Tab S9",
        "balanced",
        0xd057cf4686c844ba,
    ),
    (
        "SD-UNet",
        "Samsung Galaxy Tab S9",
        "latency",
        0xd057cf4686c844ba,
    ),
    (
        "SD-UNet",
        "Ryzen 7840U Laptop",
        "memory",
        0x3456531b05ef4202,
    ),
    (
        "SD-UNet",
        "Ryzen 7840U Laptop",
        "balanced",
        0x3456531b05ef4202,
    ),
    (
        "SD-UNet",
        "Ryzen 7840U Laptop",
        "latency",
        0x3456531b05ef4202,
    ),
    ("Whisp-M", "OnePlus 12", "memory", 0x91ecf6f9e8b3bca4),
    ("Whisp-M", "OnePlus 12", "balanced", 0x91ecf6f9e8b3bca4),
    ("Whisp-M", "OnePlus 12", "latency", 0x91ecf6f9e8b3bca4),
    ("Whisp-M", "OnePlus 11", "memory", 0xe17f29a0d823d5f1),
    ("Whisp-M", "OnePlus 11", "balanced", 0xe17f29a0d823d5f1),
    ("Whisp-M", "OnePlus 11", "latency", 0xe17f29a0d823d5f1),
    ("Whisp-M", "Google Pixel 8", "memory", 0xbe180898e15ea6e7),
    ("Whisp-M", "Google Pixel 8", "balanced", 0xbe180898e15ea6e7),
    ("Whisp-M", "Google Pixel 8", "latency", 0xbe180898e15ea6e7),
    ("Whisp-M", "Xiaomi Mi 6", "memory", 0xadca0f260326593b),
    ("Whisp-M", "Xiaomi Mi 6", "balanced", 0xadca0f260326593b),
    ("Whisp-M", "Xiaomi Mi 6", "latency", 0xadca0f260326593b),
    (
        "Whisp-M",
        "Samsung Galaxy A54",
        "memory",
        0xadca0f260326593b,
    ),
    (
        "Whisp-M",
        "Samsung Galaxy A54",
        "balanced",
        0xadca0f260326593b,
    ),
    (
        "Whisp-M",
        "Samsung Galaxy A54",
        "latency",
        0xadca0f260326593b,
    ),
    (
        "Whisp-M",
        "Samsung Galaxy Tab S9",
        "memory",
        0xe17f29a0d823d5f1,
    ),
    (
        "Whisp-M",
        "Samsung Galaxy Tab S9",
        "balanced",
        0xe17f29a0d823d5f1,
    ),
    (
        "Whisp-M",
        "Samsung Galaxy Tab S9",
        "latency",
        0xe17f29a0d823d5f1,
    ),
    (
        "Whisp-M",
        "Ryzen 7840U Laptop",
        "memory",
        0x01581e023b1f746e,
    ),
    (
        "Whisp-M",
        "Ryzen 7840U Laptop",
        "balanced",
        0x01581e023b1f746e,
    ),
    (
        "Whisp-M",
        "Ryzen 7840U Laptop",
        "latency",
        0x01581e023b1f746e,
    ),
    ("DepA-S", "OnePlus 12", "memory", 0xb4ecea10751d38cb),
    ("DepA-S", "OnePlus 12", "balanced", 0xb4ecea10751d38cb),
    ("DepA-S", "OnePlus 12", "latency", 0xb4ecea10751d38cb),
    ("DepA-S", "OnePlus 11", "memory", 0xb4ecea10751d38cb),
    ("DepA-S", "OnePlus 11", "balanced", 0xb4ecea10751d38cb),
    ("DepA-S", "OnePlus 11", "latency", 0xb4ecea10751d38cb),
    ("DepA-S", "Google Pixel 8", "memory", 0xb4ecea10751d38cb),
    ("DepA-S", "Google Pixel 8", "balanced", 0xb4ecea10751d38cb),
    ("DepA-S", "Google Pixel 8", "latency", 0xb4ecea10751d38cb),
    ("DepA-S", "Xiaomi Mi 6", "memory", 0xb4ecea10751d38cb),
    ("DepA-S", "Xiaomi Mi 6", "balanced", 0xb4ecea10751d38cb),
    ("DepA-S", "Xiaomi Mi 6", "latency", 0xb4ecea10751d38cb),
    ("DepA-S", "Samsung Galaxy A54", "memory", 0xb4ecea10751d38cb),
    (
        "DepA-S",
        "Samsung Galaxy A54",
        "balanced",
        0xb4ecea10751d38cb,
    ),
    (
        "DepA-S",
        "Samsung Galaxy A54",
        "latency",
        0xb4ecea10751d38cb,
    ),
    (
        "DepA-S",
        "Samsung Galaxy Tab S9",
        "memory",
        0xb4ecea10751d38cb,
    ),
    (
        "DepA-S",
        "Samsung Galaxy Tab S9",
        "balanced",
        0xb4ecea10751d38cb,
    ),
    (
        "DepA-S",
        "Samsung Galaxy Tab S9",
        "latency",
        0xb4ecea10751d38cb,
    ),
    ("DepA-S", "Ryzen 7840U Laptop", "memory", 0xb4ecea10751d38cb),
    (
        "DepA-S",
        "Ryzen 7840U Laptop",
        "balanced",
        0xb4ecea10751d38cb,
    ),
    (
        "DepA-S",
        "Ryzen 7840U Laptop",
        "latency",
        0xb4ecea10751d38cb,
    ),
    ("DepA-L", "OnePlus 12", "memory", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "OnePlus 12", "balanced", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "OnePlus 12", "latency", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "OnePlus 11", "memory", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "OnePlus 11", "balanced", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "OnePlus 11", "latency", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "Google Pixel 8", "memory", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "Google Pixel 8", "balanced", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "Google Pixel 8", "latency", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "Xiaomi Mi 6", "memory", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "Xiaomi Mi 6", "balanced", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "Xiaomi Mi 6", "latency", 0xb1b63a5d73ae2d0e),
    ("DepA-L", "Samsung Galaxy A54", "memory", 0xb1b63a5d73ae2d0e),
    (
        "DepA-L",
        "Samsung Galaxy A54",
        "balanced",
        0xb1b63a5d73ae2d0e,
    ),
    (
        "DepA-L",
        "Samsung Galaxy A54",
        "latency",
        0xb1b63a5d73ae2d0e,
    ),
    (
        "DepA-L",
        "Samsung Galaxy Tab S9",
        "memory",
        0xb1b63a5d73ae2d0e,
    ),
    (
        "DepA-L",
        "Samsung Galaxy Tab S9",
        "balanced",
        0xb1b63a5d73ae2d0e,
    ),
    (
        "DepA-L",
        "Samsung Galaxy Tab S9",
        "latency",
        0xb1b63a5d73ae2d0e,
    ),
    ("DepA-L", "Ryzen 7840U Laptop", "memory", 0xb1b63a5d73ae2d0e),
    (
        "DepA-L",
        "Ryzen 7840U Laptop",
        "balanced",
        0xb1b63a5d73ae2d0e,
    ),
    (
        "DepA-L",
        "Ryzen 7840U Laptop",
        "latency",
        0xb1b63a5d73ae2d0e,
    ),
];

#[test]
fn compiled_plans_match_their_golden_fingerprints() {
    let presets = [
        ("memory", FlashMemConfig::memory_priority()),
        ("balanced", FlashMemConfig::balanced()),
        ("latency", FlashMemConfig::latency_priority()),
    ];
    let mut cells = Vec::new();
    for model in ModelZoo::all_evaluated() {
        for device in DeviceSpec::all_evaluated() {
            for (preset, config) in &presets {
                cells.push((model.clone(), device.clone(), *preset, config.clone()));
            }
        }
    }
    assert_eq!(cells.len(), GOLDEN.len());

    let fingerprints = ThreadPool::new().parallel_map(cells, |(model, device, preset, config)| {
        let compiled = FlashMem::new(device.clone())
            .with_config(config)
            .compile(model.graph());
        (
            (
                model.abbr.clone(),
                device.name.clone(),
                preset,
                plan_fingerprint(&compiled.plan),
            ),
            compiled.planner_report.searched_windows,
        )
    });

    let mismatches: Vec<String> = fingerprints
        .iter()
        .zip(GOLDEN)
        .filter(|(((model, device, preset, got), _), golden)| {
            (model.as_str(), device.as_str(), *preset, *got) != **golden
        })
        .map(|(((model, device, preset, got), _), golden)| {
            format!("{model} / {device} / {preset}: {got:#018x}, golden {golden:?}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} plans changed:\n{}",
        mismatches.len(),
        GOLDEN.len(),
        mismatches.join("\n")
    );
    // Every window of these compiles is decided in closed form.
    let searched: Vec<String> = fingerprints
        .iter()
        .filter(|(_, searched)| *searched > 0)
        .map(|((model, device, preset, _), searched)| {
            format!("{model} / {device} / {preset}: {searched} searched windows")
        })
        .collect();
    assert!(searched.is_empty(), "{}", searched.join("\n"));
}

/// `plan_fingerprint` extended with the LC-OPG counters that say which tier
/// placed each window.
fn planner_fingerprint(plan: &OverlapPlan, report: &LcOpgReport) -> u64 {
    Fnv1a::new()
        .write_u64(plan_fingerprint(plan))
        .write_u64(report.windows as u64)
        .write_u64(report.fallback_soft as u64)
        .write_u64(report.fallback_greedy as u64)
        .write_u64(report.fallback_preload as u64)
        .write_u64(report.nodes_explored)
        .write_str(report.status.name())
        .finish()
}

/// (model abbreviation, configuration, planner fingerprint, searched
/// windows) of plans made by `LcOpgSolver::plan` on the OnePlus 12. The
/// searched-window count is checked beside the fingerprint, not hashed
/// into it.
///
/// - Table 4's six models at memory priority. ViT-8B takes the soft-threshold
///   retry and the greedy backup once, Llama2-70B 161 times; no window of
///   theirs is searched.
/// - GPTN-S and GPTN-1.3B at λ = 0, where preloading can beat the fill, so
///   windows are searched: GPTN-S has a window that stops at its node cap, and
///   GPTN-1.3B has a greedy backup that streams its weight.
const FALLBACK_GOLDEN: &[(&str, &str, u64, usize)] = &[
    ("GPTN-S", "memory", 0x91a743eb47acc444, 0),
    ("GPTN-1.3B", "memory", 0x2e55516cb8bc71a3, 0),
    ("GPTN-2.7B", "memory", 0x088a4e0920c706ce, 0),
    ("ViT-8B", "memory", 0xf9ec8ca280f3774c, 0),
    ("Llama2-13B", "memory", 0xc9d45a51e2c6600a, 0),
    ("Llama2-70B", "memory", 0xb2b3ada9705d0e2a, 0),
    ("GPTN-S", "memory λ=0", 0x31eab3a7d1255abd, 1),
    ("GPTN-1.3B", "memory λ=0", 0x03b4b94b64ac7584, 5),
];

#[test]
fn fallback_tiers_and_searched_windows_match_their_golden_fingerprints() {
    let memory = FlashMemConfig::memory_priority();
    let lambda_zero = memory.clone().with_lambda(0.0);
    let cells = vec![
        (ModelZoo::gptneo_small(), "memory", memory.clone()),
        (ModelZoo::gptneo_1_3b(), "memory", memory.clone()),
        (ModelZoo::gptneo_2_7b(), "memory", memory.clone()),
        (ModelZoo::vit_8b(), "memory", memory.clone()),
        (ModelZoo::llama2_13b(), "memory", memory.clone()),
        (ModelZoo::llama2_70b(), "memory", memory),
        (ModelZoo::gptneo_small(), "memory λ=0", lambda_zero.clone()),
        (ModelZoo::gptneo_1_3b(), "memory λ=0", lambda_zero),
    ];
    assert_eq!(cells.len(), FALLBACK_GOLDEN.len());

    let planned = ThreadPool::new().parallel_map(cells, |(model, label, config)| {
        let (plan, report) = LcOpgSolver::new(DeviceSpec::oneplus_12(), config).plan(model.graph());
        (
            model.abbr.clone(),
            label,
            planner_fingerprint(&plan, &report),
            report,
        )
    });

    let mismatches: Vec<String> = planned
        .iter()
        .zip(FALLBACK_GOLDEN)
        .filter(|((model, label, got, r), golden)| {
            (model.as_str(), *label, *got, r.searched_windows) != **golden
        })
        .map(|((model, label, got, r), golden)| {
            format!(
                "{model} / {label}: {got:#018x}, golden {:#018x}; {} searched windows, \
                 golden {} ({} windows, soft {}, greedy {}, preload {}, {} nodes, {})",
                golden.2,
                r.searched_windows,
                golden.3,
                r.windows,
                r.fallback_soft,
                r.fallback_greedy,
                r.fallback_preload,
                r.nodes_explored,
                r.status.name()
            )
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} planner fingerprints changed:\n{}",
        mismatches.len(),
        FALLBACK_GOLDEN.len(),
        mismatches.join("\n")
    );
}
