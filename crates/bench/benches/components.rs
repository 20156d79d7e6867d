//! Micro-benchmarks for the building blocks: the CP solver on an OPG window,
//! the LC-OPG planner, the GPU simulator's command engine, the kernel cost
//! model and the GBRT regressor. These are the hot paths whose cost
//! determines offline planning time (Table 4) and simulation throughput.

use flashmem_bench::timing::{bench, group};
use flashmem_core::opg::greedy_hint;
use flashmem_core::{
    build_weight_window_model, CandidateSlot, FlashMem, FlashMemConfig, LcOpgSolver,
};
use flashmem_gpu_sim::engine::{Command, CommandStream, GpuSimulator, SimConfig};
use flashmem_gpu_sim::kernel::{KernelCategory, KernelCostModel, KernelDesc, LaunchDims};
use flashmem_gpu_sim::{DeviceSpec, MemoryTier};
use flashmem_graph::ModelZoo;
use flashmem_profiler::{GbrtConfig, GbrtModel, KernelSample, KernelSampler, SamplingConfig};
use flashmem_solver::{CpSolver, SolverConfig};

fn bench_solver_window() {
    let config = FlashMemConfig::memory_priority();
    let candidates: Vec<CandidateSlot> = (0..24)
        .map(|k| CandidateSlot {
            kernel: k,
            capacity_chunks: 8,
            memory_headroom_chunks: 64,
        })
        .collect();
    // Exactly the solve the LC-OPG planner issues per weight: a warm-started,
    // node-capped window model.
    let solver = CpSolver::with_config(SolverConfig::with_max_nodes(config.solver_node_limit));
    group("solver");
    bench("opg_window_solve_24_candidates", 10, || {
        let window = build_weight_window_model(25, 40, &candidates, &config);
        let hint = greedy_hint(&window);
        solver.solve_with_hint(&window.model, Some(&hint))
    });
}

fn bench_lc_opg_plan() {
    let graph = ModelZoo::gptneo_small().build();
    let solver = LcOpgSolver::new(DeviceSpec::oneplus_12(), FlashMemConfig::memory_priority());
    group("planner");
    bench("lc_opg_plan_gptneo_small", 5, || solver.plan(&graph));
}

fn bench_end_to_end_run() {
    let model = ModelZoo::vit();
    let runtime =
        FlashMem::new(DeviceSpec::oneplus_12()).with_config(FlashMemConfig::memory_priority());
    let compiled = runtime.compile(model.graph());
    group("runtime");
    bench("flashmem_execute_vit_precompiled", 10, || {
        runtime.run_compiled(model.graph(), &compiled).unwrap()
    });
}

fn bench_simulator_engine() {
    let device = DeviceSpec::oneplus_12();
    let mut stream = CommandStream::new();
    let mut prev = None;
    for i in 0..500 {
        let kernel = KernelDesc::new(
            &format!("k{i}"),
            KernelCategory::Reusable,
            1.0e9,
            4 << 20,
            2 << 20,
        )
        .with_launch(LaunchDims::new([512, 512, 1], [8, 8, 1]));
        let deps: Vec<usize> = prev.into_iter().collect();
        let t = stream.push(Command::transfer(
            format!("t{i}"),
            4 << 20,
            MemoryTier::Disk,
            MemoryTier::UnifiedMemory,
            deps,
        ));
        prev = Some(stream.push(Command::kernel(format!("k{i}"), kernel, 0, [t])));
    }
    group("simulator");
    bench("simulator_500_kernels_500_transfers", 20, || {
        let mut sim = GpuSimulator::new(device.clone(), SimConfig::default());
        sim.execute(stream.clone()).unwrap()
    });
}

fn bench_kernel_cost_model() {
    let cost = KernelCostModel::new(DeviceSpec::oneplus_12());
    let kernel = KernelDesc::new("mm", KernelCategory::Reusable, 4.0e9, 16 << 20, 4 << 20)
        .with_launch(LaunchDims::new([1024, 1024, 1], [8, 8, 1]));
    group("cost_model");
    bench("kernel_capacity_bisection", 100, || {
        cost.max_extra_load_bytes(&kernel, 0.2)
    });
}

fn bench_gbrt_training() {
    let samples = KernelSampler::new(
        DeviceSpec::oneplus_12(),
        SamplingConfig {
            kernels: 30,
            ..Default::default()
        },
    )
    .collect();
    let features: Vec<Vec<f64>> = samples.iter().map(KernelSample::features).collect();
    let targets: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let config = GbrtConfig {
        n_trees: 30,
        ..Default::default()
    };
    group("profiler");
    bench("gbrt_fit_150_samples", 10, || {
        GbrtModel::fit(&features, &targets, &config)
    });
}

fn main() {
    bench_solver_window();
    bench_lc_opg_plan();
    bench_end_to_end_run();
    bench_simulator_engine();
    bench_kernel_cost_model();
    bench_gbrt_training();
}
