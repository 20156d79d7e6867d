//! Property-style tests over randomly generated models: the planner must
//! produce constraint-satisfying overlap plans, with its node budget spent it
//! must plan what its CP tiers plan, the fusion passes must preserve the
//! partition invariant, and the executor's memory accounting must respect
//! the plan, for *any* well-formed graph — not just the zoo.
//!
//! The random instances come from a seeded [`SplitMix64`] sweep instead of
//! proptest (unavailable offline), so every run exercises the same corpus.

use flashmem::prelude::*;
use flashmem_core::lc_opg::{node_to_kernel_map, PlannerMode};
use flashmem_core::{LcOpgSolver, StreamingExecutor};
use flashmem_gpu_sim::rng::SplitMix64;
use flashmem_graph::{FusionPlan, Graph, GraphBuilder, WeightInventory};
use flashmem_profiler::LoweringOptions;

/// A randomly shaped (but structurally valid) transformer-ish model.
#[derive(Debug, Clone)]
struct RandomModel {
    hidden: u64,
    blocks: usize,
    seq: u64,
    with_conv_stem: bool,
}

/// The deterministic corpus the three properties below are checked against.
fn random_models(cases: usize) -> Vec<RandomModel> {
    let mut rng = SplitMix64::seed_from_u64(0x9e3_7f4a);
    let hiddens = [256u64, 384, 512, 768];
    let seqs = [32u64, 64, 128];
    (0..cases)
        .map(|_| RandomModel {
            hidden: hiddens[rng.gen_range_inclusive(0, 3) as usize],
            blocks: rng.gen_range_inclusive(1, 5) as usize,
            seq: seqs[rng.gen_range_inclusive(0, 2) as usize],
            with_conv_stem: rng.gen_range_inclusive(0, 1) == 1,
        })
        .collect()
}

fn build(model: &RandomModel) -> Graph {
    let mut b = GraphBuilder::new("random");
    let mut x = if model.with_conv_stem {
        let img = b.input("image", &[3, 64, 64]);
        let stem = b.conv2d("stem", img, model.hidden, 4, 4);
        b.reshape("tokens", stem, &[model.seq, model.hidden])
    } else {
        b.input("tokens", &[model.seq, model.hidden])
    };
    for block in 0..model.blocks {
        let cfg = flashmem_graph::models::TransformerBlockConfig {
            hidden: model.hidden,
            heads: (model.hidden / 64).max(1),
            ffn: model.hidden * 4,
            seq: model.seq,
            rotary: false,
        };
        x = flashmem_graph::models::transformer_encoder_block(
            &mut b,
            x,
            &cfg,
            &format!("b{block}"),
        );
    }
    b.norm("ln_f", flashmem_graph::OpKind::LayerNorm, x);
    b.build()
}

#[test]
fn random_models_validate_and_plan_correctly() {
    for model in random_models(12) {
        let graph = build(&model);
        assert!(graph.validate().is_ok(), "{model:?}");

        let config = FlashMemConfig::memory_priority();
        let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), config.clone());
        let (plan, report) = solver.plan(&graph);

        // C0/C1 hold and the M_peak ceiling is respected (one chunk of slack
        // for the final short chunk of a weight).
        let inventory = WeightInventory::with_chunk_size(&graph, config.chunk_bytes);
        assert!(
            plan.validate(&inventory, Some(config.m_peak_bytes + config.chunk_bytes))
                .is_ok(),
            "{model:?}"
        );
        assert_eq!(
            report.preloaded_weights + report.streamed_weights,
            inventory.len(),
            "{model:?}"
        );
        assert_eq!(
            plan.total_weight_bytes(),
            inventory.total_bytes(),
            "{model:?}"
        );
    }
}

/// With its node budget spent, LC-OPG places every window with the
/// back-to-front fill alone. When no window needed a search, that is the plan
/// the CP tiers make. GPTN-2.7B at an `M_peak` of 256 MiB streams weights with
/// more chunks than the headroom at their earliest loading kernel: only the
/// chunks placed there count against it.
#[test]
fn exhausted_budget_plans_what_the_cp_tiers_plan() {
    let config = FlashMemConfig::memory_priority().with_m_peak_mib(256);
    let exhausted = FlashMemConfig {
        solver_node_budget: 0,
        ..config.clone()
    };
    let mut graphs: Vec<Graph> = random_models(12).iter().map(build).collect();
    graphs.push(ModelZoo::gptneo_2_7b().build());
    for graph in graphs {
        for device in [DeviceSpec::oneplus_12(), DeviceSpec::xiaomi_mi_6()] {
            let name = format!("{} on {}", graph.name(), device.name);
            let (cp_plan, cp_report) =
                LcOpgSolver::new(device.clone(), config.clone()).plan(&graph);
            let (plan, report) = LcOpgSolver::new(device, exhausted.clone()).plan(&graph);
            assert_eq!(cp_report.nodes_explored, 0, "{name}");
            assert_eq!(report.status, SolveStatus::Feasible, "{name}");
            assert!(plan == cp_plan, "{name}");
        }
    }
}

#[test]
fn fusion_passes_preserve_partitions_on_random_models() {
    for model in random_models(12) {
        let graph = build(&model);
        let base = FusionPlan::default_fusion(&graph);
        assert!(base.is_valid_partition(&graph), "{model:?}");

        let pass = flashmem_core::AdaptiveFusion::new(
            DeviceSpec::oneplus_12(),
            FlashMemConfig::memory_priority(),
        );
        let (refined, fusion_report) = pass.refine(&graph, &base);
        assert!(refined.is_valid_partition(&graph), "{model:?}");
        assert!(
            fusion_report.capacity_after >= fusion_report.capacity_before,
            "{model:?}"
        );

        // Every node is covered exactly once, and group aggregates match.
        let map = node_to_kernel_map(&refined);
        assert_eq!(map.len(), graph.len(), "{model:?}");
        let total_macs: u64 = refined.groups().iter().map(|g| g.macs(&graph)).sum();
        assert_eq!(total_macs, graph.total_macs(), "{model:?}");
    }
}

#[test]
fn executor_streams_are_valid_and_streaming_never_uses_more_memory() {
    for model in random_models(12) {
        let graph = build(&model);
        let config = FlashMemConfig::memory_priority();
        let fusion = FusionPlan::default_fusion(&graph);
        let capacities = flashmem_profiler::CapacityProfiler::new(DeviceSpec::oneplus_12())
            .with_options(LoweringOptions::flashmem())
            .capacities(&graph, &fusion);

        let device = DeviceSpec::oneplus_12();
        let hybrid = LcOpgSolver::new(device.clone(), config.clone());
        let (streaming_plan, _) = hybrid.plan_with(&graph, &fusion, &capacities);
        let preload = LcOpgSolver::new(device.clone(), config).with_mode(PlannerMode::FullPreload);
        let (preload_plan, _) = preload.plan_with(&graph, &fusion, &capacities);

        let executor = StreamingExecutor::new(device, LoweringOptions::flashmem());
        let streamed_stream = executor.compile(&graph, &fusion, &streaming_plan);
        assert!(streamed_stream.validate().is_ok(), "{model:?}");

        let streamed = executor.execute(&graph, &fusion, &streaming_plan).unwrap();
        let preloaded = executor.execute(&graph, &fusion, &preload_plan).unwrap();
        // For models smaller than the rolling window the two strategies hold
        // almost the same working set, so allow a small slack on the peak;
        // the time-weighted average must never be worse, and latency must not
        // regress materially.
        let slack = (8 * 1024 * 1024 + graph.total_weight_bytes() / 10) as f64;
        assert!(
            streamed.peak_memory_bytes as f64 <= preloaded.peak_memory_bytes as f64 + slack,
            "{model:?}: peak {} vs {}",
            streamed.peak_memory_bytes,
            preloaded.peak_memory_bytes
        );
        assert!(
            streamed.average_memory_bytes <= preloaded.average_memory_bytes + slack,
            "{model:?}: avg {} vs {}",
            streamed.average_memory_bytes,
            preloaded.average_memory_bytes
        );
        assert!(
            streamed.total_time_ms <= preloaded.total_time_ms * 1.05,
            "{model:?}"
        );
    }
}
