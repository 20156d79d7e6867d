//! The model zoo: parametric generators for the 11 models of Table 6.
//!
//! Real checkpoints (GPT-Neo, SD-UNet, Whisper, SAM-2, …) are not available in
//! this environment and are not needed: every quantity in the paper's
//! evaluation depends only on graph structure, operator types and tensor
//! sizes. Each generator therefore reproduces a model's *lowered operator
//! graph* — operator mix, weight shapes, parameter count and MAC count — using
//! the published architecture hyper-parameters, tuned so the aggregate
//! statistics land close to Table 6.
//!
//! Differences in lowering granularity (how many low-level nodes a framework
//! emits per architectural block) mean our "# Layers" is the right order of
//! magnitude but not identical to the paper's column; parameter and MAC counts
//! are matched much more closely and are what the memory/latency models
//! actually consume.

mod blocks;
mod generative;
mod language;
mod vision;

pub use blocks::{transformer_decoder_block, transformer_encoder_block, TransformerBlockConfig};

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::graph::Graph;

/// The application task a model serves (Table 6's "Model Task" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelTask {
    /// Natural-language processing (GPT-Neo family).
    Nlp,
    /// Image classification (ResNet-50, ViT, DeepViT).
    ImageClassification,
    /// Image segmentation (SAM-2).
    ImageSegmentation,
    /// Image generation (Stable-Diffusion UNet).
    ImageGeneration,
    /// Speech recognition (Whisper).
    SpeechRecognition,
    /// Video / depth segmentation (DepthAnything).
    VideoSegmentation,
}

impl ModelTask {
    /// Human readable task name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelTask::Nlp => "NLP",
            ModelTask::ImageClassification => "Image Classification",
            ModelTask::ImageSegmentation => "Image Segmentation",
            ModelTask::ImageGeneration => "Image Generation",
            ModelTask::SpeechRecognition => "Speech Recognition",
            ModelTask::VideoSegmentation => "Video Segmentation",
        }
    }
}

impl std::fmt::Display for ModelTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reference statistics from Table 6 of the paper, kept alongside each
/// generated model so harnesses can print paper-vs-generated comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperStats {
    /// "# Params (M)".
    pub params_m: f64,
    /// "# MACs (G)".
    pub macs_g: f64,
    /// "# Layers" (low-level operator nodes after lowering).
    pub layers: u64,
}

/// Prefill/decode-step split for an autoregressive (generative) model.
///
/// The owning [`ModelSpec`]'s graph is the *prefill* pass over the full
/// prompt (or, for Whisper, the audio encoder plus the prompt-length decoder
/// pass). `step` is the single-token decode graph replayed once per generated
/// token, so per-invocation peak memory is charged per step instead of for
/// one dense fixed-length pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeSpec {
    /// Single-token decode-step graph, compiled once and replayed per token.
    pub step: ModelSpec,
    /// KV-cache bytes appended per context token (K+V across all decoder
    /// layers, fp16).
    pub kv_bytes_per_token: u64,
    /// Maximum context length (prompt plus generated tokens).
    pub max_context: u64,
}

/// A generated evaluation model: metadata plus the lowered graph.
///
/// The graph and the decode split are immutable once built and shared
/// behind `Arc`s, so cloning a spec (one per serving request) copies its
/// name strings and two pointers, never the operator graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Full model name, e.g. `"GPTNeo-1.3B"`.
    pub name: String,
    /// Abbreviation used in the paper's tables, e.g. `"GPTN-1.3B"`.
    pub abbr: String,
    /// Application task.
    pub task: ModelTask,
    /// Table 6 reference statistics.
    pub paper: PaperStats,
    graph: Arc<Graph>,
    decode: Option<Arc<DecodeSpec>>,
}

impl ModelSpec {
    pub(crate) fn new(
        name: &str,
        abbr: &str,
        task: ModelTask,
        paper: PaperStats,
        graph: Graph,
    ) -> Self {
        ModelSpec {
            name: name.to_string(),
            abbr: abbr.to_string(),
            task,
            paper,
            graph: Arc::new(graph),
            decode: None,
        }
    }

    pub(crate) fn with_decode(mut self, decode: DecodeSpec) -> Self {
        self.decode = Some(Arc::new(decode));
        self
    }

    /// Prefill/decode-step split, present for autoregressive models
    /// (GPT-Neo family, Whisper). `None` for one-shot models.
    pub fn decode(&self) -> Option<&DecodeSpec> {
        self.decode.as_deref()
    }

    /// The lowered operator graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consume the spec and return the graph (convenient for examples).
    /// The graph is moved out when this spec is its only holder and cloned
    /// only while other clones of the spec still share it.
    pub fn build(self) -> Graph {
        Arc::unwrap_or_clone(self.graph)
    }

    /// Generated parameter count in millions.
    pub fn params_m(&self) -> f64 {
        self.graph.total_params() as f64 / 1e6
    }

    /// Generated MAC count in billions.
    pub fn macs_g(&self) -> f64 {
        self.graph.total_macs() as f64 / 1e9
    }

    /// Generated lowered-layer count.
    pub fn layers(&self) -> u64 {
        self.graph.len() as u64
    }

    /// Relative deviation of the generated parameter count from Table 6.
    pub fn params_deviation(&self) -> f64 {
        (self.params_m() - self.paper.params_m).abs() / self.paper.params_m
    }

    /// Relative deviation of the generated MAC count from Table 6.
    pub fn macs_deviation(&self) -> f64 {
        (self.macs_g() - self.paper.macs_g).abs() / self.paper.macs_g
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}]: {:.1} M params (paper {:.1}), {:.1} GMACs (paper {:.1}), {} layers (paper {})",
            self.name,
            self.abbr,
            self.params_m(),
            self.paper.params_m,
            self.macs_g(),
            self.paper.macs_g,
            self.layers(),
            self.paper.layers
        )
    }
}

/// Static constructors for the 11 evaluated models plus the solver-scaling
/// models of Table 4 (ViT-8B, Llama2-13B/70B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelZoo;

impl ModelZoo {
    /// GPT-Neo 125M-class ("GPTN-S" in the paper).
    pub fn gptneo_small() -> ModelSpec {
        language::gptneo_small()
    }

    /// GPT-Neo 1.3B ("GPTN-1.3B").
    pub fn gptneo_1_3b() -> ModelSpec {
        language::gptneo_1_3b()
    }

    /// GPT-Neo 2.7B ("GPTN-2.7B") — the model no baseline framework can run.
    pub fn gptneo_2_7b() -> ModelSpec {
        language::gptneo_2_7b()
    }

    /// ResNet-50.
    pub fn resnet50() -> ModelSpec {
        vision::resnet50()
    }

    /// Segment-Anything-2 image encoder + mask decoder ("SAM-2").
    pub fn sam2() -> ModelSpec {
        vision::sam2()
    }

    /// ViT (image classification).
    pub fn vit() -> ModelSpec {
        vision::vit()
    }

    /// DeepViT (deeper ViT variant).
    pub fn deepvit() -> ModelSpec {
        vision::deepvit()
    }

    /// Stable-Diffusion UNet ("SD-UNet").
    pub fn sd_unet() -> ModelSpec {
        generative::sd_unet()
    }

    /// Whisper-Medium ("Whisp-M").
    pub fn whisper_medium() -> ModelSpec {
        language::whisper_medium()
    }

    /// DepthAnything-Small ("DepA-S").
    pub fn depth_anything_small() -> ModelSpec {
        vision::depth_anything_small()
    }

    /// DepthAnything-Large ("DepA-L").
    pub fn depth_anything_large() -> ModelSpec {
        vision::depth_anything_large()
    }

    /// The 11 evaluated models of Table 6, in table order.
    pub fn all_evaluated() -> Vec<ModelSpec> {
        vec![
            Self::gptneo_small(),
            Self::gptneo_1_3b(),
            Self::gptneo_2_7b(),
            Self::resnet50(),
            Self::sam2(),
            Self::vit(),
            Self::deepvit(),
            Self::sd_unet(),
            Self::whisper_medium(),
            Self::depth_anything_small(),
            Self::depth_anything_large(),
        ]
    }

    /// Look up an evaluated model by its paper abbreviation (e.g.
    /// `"GPTN-1.3B"`). Returns `None` for unknown abbreviations.
    pub fn by_abbr(abbr: &str) -> Option<ModelSpec> {
        Self::all_evaluated().into_iter().find(|m| m.abbr == abbr)
    }

    /// ViT-8B — used only to stress the LC-OPG solver (Table 4).
    pub fn vit_8b() -> ModelSpec {
        vision::vit_8b()
    }

    /// Llama-2 13B — solver stress model (Table 4).
    pub fn llama2_13b() -> ModelSpec {
        language::llama2_13b()
    }

    /// Llama-2 70B — solver stress model (Table 4).
    pub fn llama2_70b() -> ModelSpec {
        language::llama2_70b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_evaluated_has_eleven_models_with_unique_abbrs() {
        let all = ModelZoo::all_evaluated();
        assert_eq!(all.len(), 11);
        let mut abbrs: Vec<&str> = all.iter().map(|m| m.abbr.as_str()).collect();
        abbrs.sort_unstable();
        abbrs.dedup();
        assert_eq!(abbrs.len(), 11);
    }

    #[test]
    fn every_model_graph_validates() {
        for m in ModelZoo::all_evaluated() {
            m.graph().validate().unwrap_or_else(|e| {
                panic!("{} failed validation: {e}", m.name);
            });
        }
    }

    #[test]
    fn parameter_counts_close_to_table_6() {
        for m in ModelZoo::all_evaluated() {
            assert!(
                m.params_deviation() < 0.35,
                "{}: generated {:.1} M vs paper {:.1} M",
                m.name,
                m.params_m(),
                m.paper.params_m
            );
        }
    }

    #[test]
    fn mac_counts_close_to_table_6() {
        for m in ModelZoo::all_evaluated() {
            assert!(
                m.macs_deviation() < 0.45,
                "{}: generated {:.1} G vs paper {:.1} G",
                m.name,
                m.macs_g(),
                m.paper.macs_g
            );
        }
    }

    #[test]
    fn layer_counts_same_order_of_magnitude() {
        for m in ModelZoo::all_evaluated() {
            let ratio = m.layers() as f64 / m.paper.layers as f64;
            assert!(
                (0.2..=3.0).contains(&ratio),
                "{}: {} layers vs paper {}",
                m.name,
                m.layers(),
                m.paper.layers
            );
        }
    }

    #[test]
    fn model_size_ordering_preserved() {
        // GPTN-2.7B > GPTN-1.3B > SD-UNet > Whisper > GPTN-S in weight bytes.
        let p = |m: ModelSpec| m.graph().total_weight_bytes();
        assert!(p(ModelZoo::gptneo_2_7b()) > p(ModelZoo::gptneo_1_3b()));
        assert!(p(ModelZoo::gptneo_1_3b()) > p(ModelZoo::sd_unet()));
        assert!(p(ModelZoo::sd_unet()) > p(ModelZoo::whisper_medium()));
        assert!(p(ModelZoo::whisper_medium()) > p(ModelZoo::gptneo_small()));
        assert!(p(ModelZoo::resnet50()) < p(ModelZoo::vit()));
    }

    #[test]
    fn decode_specs_only_on_autoregressive_models() {
        let with_decode: Vec<String> = ModelZoo::all_evaluated()
            .into_iter()
            .filter(|m| m.decode().is_some())
            .map(|m| m.abbr.clone())
            .collect();
        assert_eq!(
            with_decode,
            vec!["GPTN-S", "GPTN-1.3B", "GPTN-2.7B", "Whisp-M"]
        );
    }

    #[test]
    fn cloned_specs_share_their_graphs() {
        let spec = ModelZoo::gptneo_small();
        let clone = spec.clone();
        assert!(std::ptr::eq(spec.graph(), clone.graph()));
        let step = |m: &ModelSpec| m.decode().expect("GPTN-S decodes").step.graph() as *const Graph;
        assert!(std::ptr::eq(step(&spec), step(&clone)));
        // A shared graph is cloned out; the last holder moves it out.
        let built = clone.build();
        assert_eq!(&built, spec.graph());
        assert_eq!(spec.build(), built);
    }

    #[test]
    fn by_abbr_round_trips() {
        for m in ModelZoo::all_evaluated() {
            let found = ModelZoo::by_abbr(&m.abbr).expect("abbr lookup");
            assert_eq!(found.name, m.name);
        }
        assert!(ModelZoo::by_abbr("does-not-exist").is_none());
    }

    #[test]
    fn solver_stress_models_are_larger_than_evaluated_ones() {
        assert!(
            ModelZoo::llama2_70b().graph().total_params()
                > ModelZoo::gptneo_2_7b().graph().total_params()
        );
        assert!(
            ModelZoo::llama2_13b().graph().total_params()
                > ModelZoo::gptneo_2_7b().graph().total_params()
        );
        assert!(
            ModelZoo::vit_8b().graph().total_params()
                > ModelZoo::gptneo_2_7b().graph().total_params()
        );
    }

    #[test]
    fn convolution_models_contain_transform_needing_weights() {
        for m in [
            ModelZoo::resnet50(),
            ModelZoo::sd_unet(),
            ModelZoo::depth_anything_small(),
        ] {
            let has_conv = m
                .graph()
                .nodes()
                .iter()
                .any(|n| n.kind.needs_weight_transform());
            assert!(has_conv, "{} should contain convolutions", m.name);
        }
    }

    #[test]
    fn transformer_models_have_hierarchical_ops() {
        for m in [
            ModelZoo::gptneo_small(),
            ModelZoo::vit(),
            ModelZoo::whisper_medium(),
        ] {
            let hist = m.graph().category_histogram();
            assert!(hist[2].1 > 0, "{} should contain softmax/layernorm", m.name);
        }
    }
}
