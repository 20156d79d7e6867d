//! Golden plan fingerprints: the overlap plan `FlashMem::compile` produces
//! for every evaluated model × device × preset must hash to the constant
//! recorded for it below.
//!
//! A plan is a pure function of (graph, device, config): LC-OPG decides
//! every window in closed form, and no clock enters a decision. The
//! constants were recorded with the earlier planner, whose window solves
//! stopped on a 40 ms wall clock; matching them shows that deciding windows
//! in closed form changed none of these plans. A deliberate planner change
//! updates them.
//!
//! Those compiles never leave LC-OPG's first tier: their only fallbacks are
//! windows with no load capacity at all. A second, smaller set of golden
//! fingerprints pins the plans and planner counters of inputs that do reach
//! the soft-threshold retry and the greedy backup, or where preloading is
//! the optimum of a window that could stream.
//!
//! Each golden compile is also lowered with `lower_artifact`, and the
//! command streams of a model × device's three presets hash to one more
//! constant, so a change to lowering that moves any command shows here.

use flashmem::core::cache::Fnv1a;
use flashmem::core::{lower_artifact, LcOpgReport};
use flashmem::gpu_sim::cache::AccessPattern;
use flashmem::gpu_sim::engine::{CommandKind, CommandStream};
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

/// FNV-1a over a lowered command stream: every command's kind, numbers and
/// dependencies, and the labels of the commands that run on a queue
/// (transfers, transforms and kernels), which are what Chrome traces show.
/// Alloc, free and barrier labels are not hashed.
fn stream_fingerprint(stream: &CommandStream) -> u64 {
    let mut h = Fnv1a::new().write_u64(stream.len() as u64);
    for cmd in stream.commands() {
        h = match &cmd.kind {
            CommandKind::Alloc { tier, bytes } => {
                h.write_u64(0).write_u64(*tier as u64).write_u64(*bytes)
            }
            CommandKind::Free { alloc } => h.write_u64(1).write_u64(*alloc as u64),
            CommandKind::Barrier => h.write_u64(2),
            CommandKind::Transfer { bytes, from, to } => h
                .write_u64(3)
                .write_u64(*bytes)
                .write_u64(*from as u64)
                .write_u64(*to as u64)
                .write_str(&cmd.label),
            CommandKind::Transform {
                bytes,
                traffic_factor,
                queue,
            } => h
                .write_u64(4)
                .write_u64(*bytes)
                .write_f64(*traffic_factor)
                .write_u64(*queue as u64)
                .write_str(&cmd.label),
            CommandKind::Kernel {
                desc,
                extra_load_bytes,
            } => {
                let (pattern, stride) = match desc.access_pattern {
                    AccessPattern::RowStreaming => (0, 0),
                    AccessPattern::Tiled2d => (1, 0),
                    AccessPattern::Strided { stride_texels } => (2, stride_texels),
                    AccessPattern::Random => (3, 0),
                };
                let mut k = h
                    .write_u64(5)
                    .write_str(&desc.name)
                    .write_u64(desc.category as u64)
                    .write_f64(desc.flops)
                    .write_u64(desc.bytes_in)
                    .write_u64(desc.bytes_out);
                for d in desc.launch.gws.iter().chain(&desc.launch.lws) {
                    k = k.write_u64(*d);
                }
                k.write_u64(desc.weight_layout as u64)
                    .write_u64(pattern)
                    .write_u64(stride)
                    .write_u64(u64::from(desc.fp16))
                    .write_u64(u64::from(desc.pipelined))
                    .write_f64(desc.divergence_penalty)
                    .write_u64(*extra_load_bytes)
                    .write_str(&cmd.label)
            }
        };
        h = h.write_u64(cmd.deps.len() as u64);
        for &dep in &cmd.deps {
            h = h.write_u64(dep as u64);
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
            .with_config(config.clone())
            .compile(model.graph());
        let plan = plan_fingerprint(&compiled.plan);
        let stream = lower_artifact(
            &CompiledArtifact::Streaming(compiled),
            &model,
            &device,
            &config,
        );
        (
            (model.abbr.clone(), device.name.clone(), preset, plan),
            stream_fingerprint(&stream),
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
    // The lowered streams of a model × device's presets fold into one hash.
    let streams: Vec<(&str, &str, u64)> = fingerprints
        .chunks(presets.len())
        .map(|cell| {
            let ((model, device, _, _), _) = &cell[0];
            let hash = cell
                .iter()
                .fold(Fnv1a::new(), |h, (_, stream)| h.write_u64(*stream))
                .finish();
            (model.as_str(), device.as_str(), hash)
        })
        .collect();
    assert_eq!(streams.len(), STREAM_GOLDEN.len());
    let moved: Vec<String> = streams
        .iter()
        .zip(STREAM_GOLDEN)
        .filter(|(got, golden)| *got != *golden)
        .map(|((model, device, got), golden)| {
            format!(
                "    (\"{model}\", \"{device}\", {got:#018x}), // golden {:#018x}",
                golden.2
            )
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} lowered streams changed:\n{}",
        moved.len(),
        STREAM_GOLDEN.len(),
        moved.join("\n")
    );
}

/// (model abbreviation, device, stream fingerprint) in `GOLDEN`'s model ×
/// device order: the `stream_fingerprint`s of the memory, balanced and
/// latency compiles, folded in that order.
const STREAM_GOLDEN: &[(&str, &str, u64)] = &[
    ("GPTN-S", "OnePlus 12", 0x0df4f144681521ae),
    ("GPTN-S", "OnePlus 11", 0x9355e19748e581cf),
    ("GPTN-S", "Google Pixel 8", 0x51560f7f273a3aba),
    ("GPTN-S", "Xiaomi Mi 6", 0x66335f061f217e32),
    ("GPTN-S", "Samsung Galaxy A54", 0xd3d34715118b882e),
    ("GPTN-S", "Samsung Galaxy Tab S9", 0x9b6d90a3f4b06fd9),
    ("GPTN-S", "Ryzen 7840U Laptop", 0x0fe4d0fb11c8244e),
    ("GPTN-1.3B", "OnePlus 12", 0xb2c4cd0d9892a1dd),
    ("GPTN-1.3B", "OnePlus 11", 0xadb8a1cd443f3401),
    ("GPTN-1.3B", "Google Pixel 8", 0xaf095edd3d6cbb1c),
    ("GPTN-1.3B", "Xiaomi Mi 6", 0x3cb9846918dcb1c1),
    ("GPTN-1.3B", "Samsung Galaxy A54", 0xd9c8c53fac5914be),
    ("GPTN-1.3B", "Samsung Galaxy Tab S9", 0xba27a5c4c051cad2),
    ("GPTN-1.3B", "Ryzen 7840U Laptop", 0x0b0ba06980a134e8),
    ("GPTN-2.7B", "OnePlus 12", 0xcbc67eaa489ad4bf),
    ("GPTN-2.7B", "OnePlus 11", 0x5c4afed17f4367a0),
    ("GPTN-2.7B", "Google Pixel 8", 0x4c4ec57a25b8531b),
    ("GPTN-2.7B", "Xiaomi Mi 6", 0x90ce37c8563504fa),
    ("GPTN-2.7B", "Samsung Galaxy A54", 0xe09bd9f6d7077cf8),
    ("GPTN-2.7B", "Samsung Galaxy Tab S9", 0x7d8a8a215d78f69a),
    ("GPTN-2.7B", "Ryzen 7840U Laptop", 0xbbf9a68c27827c75),
    ("ResNet", "OnePlus 12", 0xa2cdfe36bd8561ad),
    ("ResNet", "OnePlus 11", 0x56362328ee3df4ad),
    ("ResNet", "Google Pixel 8", 0xd929042867de08b0),
    ("ResNet", "Xiaomi Mi 6", 0x5d32cb9139299277),
    ("ResNet", "Samsung Galaxy A54", 0x8220ecdb6252bdc6),
    ("ResNet", "Samsung Galaxy Tab S9", 0x07b419b4685fd913),
    ("ResNet", "Ryzen 7840U Laptop", 0x569a80a7fc04d63d),
    ("SAM-2", "OnePlus 12", 0x8fc4565378215954),
    ("SAM-2", "OnePlus 11", 0x18c498050eac9f67),
    ("SAM-2", "Google Pixel 8", 0x53e2d1fb78e4463e),
    ("SAM-2", "Xiaomi Mi 6", 0xdc96b2c78560a068),
    ("SAM-2", "Samsung Galaxy A54", 0xf345354e44f2cfc9),
    ("SAM-2", "Samsung Galaxy Tab S9", 0xc1a2450df3185b29),
    ("SAM-2", "Ryzen 7840U Laptop", 0x66d7ea59a2fc47ec),
    ("ViT", "OnePlus 12", 0x56c6062045d71626),
    ("ViT", "OnePlus 11", 0x3c1b05ad29c1087a),
    ("ViT", "Google Pixel 8", 0x30a530f2509ce5d2),
    ("ViT", "Xiaomi Mi 6", 0x3eeb2960d7db7ad0),
    ("ViT", "Samsung Galaxy A54", 0x47195fc304cc6d8a),
    ("ViT", "Samsung Galaxy Tab S9", 0x5caaf7a7baaa239b),
    ("ViT", "Ryzen 7840U Laptop", 0x6ec03c4dc9997860),
    ("DeepViT", "OnePlus 12", 0x6f414cd75d57e136),
    ("DeepViT", "OnePlus 11", 0xf6a622c233f50ffe),
    ("DeepViT", "Google Pixel 8", 0xf83ee2b3ae1e38a6),
    ("DeepViT", "Xiaomi Mi 6", 0x05cb3f22b9a09fcf),
    ("DeepViT", "Samsung Galaxy A54", 0x174b5b0138670513),
    ("DeepViT", "Samsung Galaxy Tab S9", 0x4bac80d535ced7dc),
    ("DeepViT", "Ryzen 7840U Laptop", 0x838d5ae382d4a5a0),
    ("SD-UNet", "OnePlus 12", 0xdbcb2aaafa851946),
    ("SD-UNet", "OnePlus 11", 0xc2e30f955a842352),
    ("SD-UNet", "Google Pixel 8", 0x541f081c27153071),
    ("SD-UNet", "Xiaomi Mi 6", 0x2137f3681a95d8d3),
    ("SD-UNet", "Samsung Galaxy A54", 0xef612f4752dcb291),
    ("SD-UNet", "Samsung Galaxy Tab S9", 0x9ad06c16d2fe60b4),
    ("SD-UNet", "Ryzen 7840U Laptop", 0xb2fcfd759f046868),
    ("Whisp-M", "OnePlus 12", 0x637a8bdba2ad8673),
    ("Whisp-M", "OnePlus 11", 0x5ac6e068e229c5e5),
    ("Whisp-M", "Google Pixel 8", 0x4771907eaee8320d),
    ("Whisp-M", "Xiaomi Mi 6", 0x12c5734eff6944fe),
    ("Whisp-M", "Samsung Galaxy A54", 0xe340558c93931229),
    ("Whisp-M", "Samsung Galaxy Tab S9", 0xed9f2ab7ebb6f52d),
    ("Whisp-M", "Ryzen 7840U Laptop", 0x35f65287f0033d2c),
    ("DepA-S", "OnePlus 12", 0x39d0dfaf732ffe79),
    ("DepA-S", "OnePlus 11", 0x1f0eda597ff36b79),
    ("DepA-S", "Google Pixel 8", 0xc9c1aa65fcb6a492),
    ("DepA-S", "Xiaomi Mi 6", 0x41404f3973abca1e),
    ("DepA-S", "Samsung Galaxy A54", 0xeeab2aad5651b44c),
    ("DepA-S", "Samsung Galaxy Tab S9", 0x9437f087843658ec),
    ("DepA-S", "Ryzen 7840U Laptop", 0x146f3d50b95e231e),
    ("DepA-L", "OnePlus 12", 0x217d5822b20a2394),
    ("DepA-L", "OnePlus 11", 0x3eb0f80d37e57a62),
    ("DepA-L", "Google Pixel 8", 0x2bca920f2727c9fc),
    ("DepA-L", "Xiaomi Mi 6", 0x81b848ff2f744e5d),
    ("DepA-L", "Samsung Galaxy A54", 0x3583b3dee0f15cdf),
    ("DepA-L", "Samsung Galaxy Tab S9", 0x9f479ccb2a158711),
    ("DepA-L", "Ryzen 7840U Laptop", 0xf618deb0bbdca6dd),
];

/// `plan_fingerprint` extended with the LC-OPG counters that say which tier
/// placed each window.
fn planner_fingerprint(plan: &OverlapPlan, report: &LcOpgReport) -> u64 {
    Fnv1a::new()
        .write_u64(plan_fingerprint(plan))
        .write_u64(report.windows as u64)
        .write_u64(report.fallback_soft as u64)
        .write_u64(report.fallback_greedy as u64)
        .write_u64(report.fallback_preload as u64)
        .write_str(report.status.name())
        .finish()
}

/// (model abbreviation, how it was planned, planner fingerprint) of
/// memory-priority plans made on the OnePlus 12 by `LcOpgSolver::plan` or
/// `FlashMem::compile`.
///
/// - Table 4's six models at memory priority. ViT-8B takes the soft-threshold
///   retry and the greedy backup once, Llama2-70B 161 times.
/// - GPTN-S and GPTN-1.3B planned, and GPTN-2.7B compiled with adaptive
///   fusion and the refined capacities, at λ = 0. There preloading is the
///   optimum of some windows whose fill could stream; they preload and the
///   plans stay `OPTIMAL`.
const FALLBACK_GOLDEN: &[(&str, &str, u64)] = &[
    ("GPTN-S", "plan", 0xb51d275717f2da64),
    ("GPTN-1.3B", "plan", 0x81c791671edd09a3),
    ("GPTN-2.7B", "plan", 0x8a16b4a6288b16ae),
    ("ViT-8B", "plan", 0x87db7006c7515c2c),
    ("Llama2-13B", "plan", 0x5d44038282b8cc6a),
    ("Llama2-70B", "plan", 0x6a2827fa0166134a),
    ("GPTN-S", "plan λ=0", 0x9c465419651a02f5),
    ("GPTN-1.3B", "plan λ=0", 0x50ef1428c49672c5),
    ("GPTN-2.7B", "compile λ=0", 0xce6a322eaf4c59e3),
];

#[test]
fn fallback_tiers_match_their_golden_fingerprints() {
    let memory = FlashMemConfig::memory_priority();
    let lambda_zero = memory.clone().with_lambda(0.0);
    let cells = vec![
        (ModelZoo::gptneo_small(), "plan", memory.clone()),
        (ModelZoo::gptneo_1_3b(), "plan", memory.clone()),
        (ModelZoo::gptneo_2_7b(), "plan", memory.clone()),
        (ModelZoo::vit_8b(), "plan", memory.clone()),
        (ModelZoo::llama2_13b(), "plan", memory.clone()),
        (ModelZoo::llama2_70b(), "plan", memory),
        (ModelZoo::gptneo_small(), "plan λ=0", lambda_zero.clone()),
        (ModelZoo::gptneo_1_3b(), "plan λ=0", lambda_zero.clone()),
        (ModelZoo::gptneo_2_7b(), "compile λ=0", lambda_zero),
    ];
    assert_eq!(cells.len(), FALLBACK_GOLDEN.len());

    let planned = ThreadPool::new().parallel_map(cells, |(model, label, config)| {
        let device = DeviceSpec::oneplus_12();
        let (plan, report) = if label.starts_with("compile") {
            let compiled = FlashMem::new(device)
                .with_config(config)
                .compile(model.graph());
            (compiled.plan, compiled.planner_report)
        } else {
            LcOpgSolver::new(device, config).plan(model.graph())
        };
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
        .filter(|((model, label, got, _), golden)| (model.as_str(), *label, *got) != **golden)
        .map(|((model, label, got, r), golden)| {
            format!(
                "    (\"{model}\", \"{label}\", {got:#018x}), // golden {:#018x}; \
                 {} windows, soft {}, greedy {}, preload {}, {}",
                golden.2,
                r.windows,
                r.fallback_soft,
                r.fallback_greedy,
                r.fallback_preload,
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
