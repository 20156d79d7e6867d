//! Language and speech models: the GPT-Neo family, Whisper and the Llama-2
//! solver-stress models.

use crate::builder::GraphBuilder;
use crate::op::OpKind;

use super::blocks::{transformer_decoder_block, transformer_encoder_block, TransformerBlockConfig};
use super::{DecodeSpec, ModelSpec, ModelTask, PaperStats};

/// Hyper-parameters of a decoder-only GPT-style model.
#[derive(Clone, Copy)]
struct GptConfig {
    vocab: u64,
    hidden: u64,
    heads: u64,
    ffn: u64,
    layers: u64,
    seq: u64,
    max_pos: u64,
    rotary: bool,
    tied_lm_head: bool,
}

fn build_gpt(name: &str, cfg: &GptConfig) -> crate::graph::Graph {
    let mut b = GraphBuilder::new(name);
    let tokens = b.input("input_ids", &[cfg.seq, 1]);
    let wte = b.embedding("wte", tokens, cfg.vocab, cfg.hidden);
    let h = if cfg.rotary {
        // Rotary models carry no learned position table.
        wte
    } else {
        let wpe = b.embedding("wpe", tokens, cfg.max_pos, cfg.hidden);
        b.binary("embed_add", OpKind::Add, wte, wpe)
    };

    let block_cfg = TransformerBlockConfig {
        hidden: cfg.hidden,
        heads: cfg.heads,
        ffn: cfg.ffn,
        seq: cfg.seq,
        rotary: cfg.rotary,
    };
    let mut x = h;
    for layer in 0..cfg.layers {
        x = transformer_encoder_block(&mut b, x, &block_cfg, &format!("h.{layer}"));
    }
    let x = b.norm("ln_f", OpKind::LayerNorm, x);
    if cfg.tied_lm_head {
        // The projection reuses the embedding weight; model it as a weight-free
        // activation matmul so parameters are not double counted.
        let wte_view = b.reshape("wte_view", x, &[cfg.hidden, cfg.vocab]);
        b.matmul_act("lm_head", x, wte_view);
    } else {
        b.matmul("lm_head", x, cfg.vocab);
    }
    b.build()
}

/// Prefill/decode-step split for a GPT-style model: the step graph is the
/// same architecture lowered at sequence length 1 (one token through every
/// layer against the resident KV cache), and the KV residency charge is K+V
/// per layer at fp16.
fn gpt_decode_spec(name: &str, abbr: &str, paper: PaperStats, cfg: &GptConfig) -> DecodeSpec {
    let step_cfg = GptConfig { seq: 1, ..*cfg };
    let graph = build_gpt(&format!("{name} (decode step)"), &step_cfg);
    let step = ModelSpec::new(
        &format!("{name} (decode step)"),
        &format!("{abbr}/step"),
        ModelTask::Nlp,
        PaperStats {
            params_m: paper.params_m,
            macs_g: paper.macs_g / cfg.seq as f64,
            layers: paper.layers,
        },
        graph,
    );
    DecodeSpec {
        step,
        kv_bytes_per_token: 2 * cfg.layers * cfg.hidden * 2,
        max_context: cfg.max_pos,
    }
}

/// GPT-Neo 125M-class model ("GPTN-S": 164 M params, 16 GMACs in Table 6).
pub fn gptneo_small() -> ModelSpec {
    let cfg = GptConfig {
        vocab: 50_257,
        hidden: 768,
        heads: 12,
        ffn: 3_072,
        layers: 12,
        seq: 128,
        max_pos: 2_048,
        rotary: false,
        tied_lm_head: false,
    };
    let paper = PaperStats {
        params_m: 164.0,
        macs_g: 16.0,
        layers: 606,
    };
    let graph = build_gpt("GPTNeo-Small", &cfg);
    ModelSpec::new("GPTNeo-Small", "GPTN-S", ModelTask::Nlp, paper, graph)
        .with_decode(gpt_decode_spec("GPTNeo-Small", "GPTN-S", paper, &cfg))
}

/// GPT-Neo 1.3B ("GPTN-1.3B": 1,419 M params, 170 GMACs).
pub fn gptneo_1_3b() -> ModelSpec {
    let cfg = GptConfig {
        vocab: 50_257,
        hidden: 2_048,
        heads: 16,
        ffn: 8_192,
        layers: 24,
        seq: 128,
        max_pos: 2_048,
        rotary: false,
        tied_lm_head: false,
    };
    let paper = PaperStats {
        params_m: 1_419.0,
        macs_g: 170.0,
        layers: 1_110,
    };
    let graph = build_gpt("GPTNeo-1.3B", &cfg);
    ModelSpec::new("GPTNeo-1.3B", "GPTN-1.3B", ModelTask::Nlp, paper, graph)
        .with_decode(gpt_decode_spec("GPTNeo-1.3B", "GPTN-1.3B", paper, &cfg))
}

/// GPT-Neo 2.7B ("GPTN-2.7B": 2,781 M params, 342 GMACs) — too large for any
/// baseline framework in the paper.
pub fn gptneo_2_7b() -> ModelSpec {
    let cfg = GptConfig {
        vocab: 50_257,
        hidden: 2_560,
        heads: 20,
        ffn: 10_240,
        layers: 32,
        seq: 128,
        max_pos: 2_048,
        rotary: false,
        tied_lm_head: false,
    };
    let paper = PaperStats {
        params_m: 2_781.0,
        macs_g: 342.0,
        layers: 1_446,
    };
    let graph = build_gpt("GPTNeo-2.7B", &cfg);
    ModelSpec::new("GPTNeo-2.7B", "GPTN-2.7B", ModelTask::Nlp, paper, graph)
        .with_decode(gpt_decode_spec("GPTNeo-2.7B", "GPTN-2.7B", paper, &cfg))
}

/// Single-token Whisper decode step: one token through the 12 decoder layers
/// against the resident self-attention KV cache, with cross-attention over
/// the encoder output (already computed at prefill and modelled here as a
/// plain input tensor). This replaces the old fixed-64-token dense decoder
/// pass on the decode path, so per-step activation peaks are charged instead
/// of one inflated full-sequence pass.
fn whisper_decode_step(
    hidden: u64,
    heads: u64,
    dec_layers: u64,
    enc_tokens: u64,
    vocab: u64,
) -> ModelSpec {
    let mut b = GraphBuilder::new("Whisper-Medium (decode step)");
    let enc = b.input("encoder_states", &[enc_tokens, hidden]);
    let tokens = b.input("decoder_ids", &[1, 1]);
    let te = b.embedding("decoder.wte", tokens, vocab, hidden);
    let pe = b.embedding("decoder.wpe", tokens, 448, hidden);
    let mut dec = b.binary("decoder.embed_add", OpKind::Add, te, pe);
    let dec_cfg = TransformerBlockConfig {
        hidden,
        heads,
        ffn: hidden * 4,
        seq: 1,
        rotary: false,
    };
    for layer in 0..dec_layers {
        dec = transformer_decoder_block(&mut b, dec, enc, &dec_cfg, &format!("decoder.{layer}"));
    }
    let dec = b.norm("decoder.ln_f", OpKind::LayerNorm, dec);
    let wte_view = b.reshape("decoder.wte_view", dec, &[hidden, vocab]);
    b.matmul_act("decoder.logits", dec, wte_view);

    ModelSpec::new(
        "Whisper-Medium (decode step)",
        "Whisp-M/step",
        ModelTask::SpeechRecognition,
        PaperStats {
            params_m: 356.0,
            macs_g: 55.0 / 64.0,
            layers: 2_026,
        },
        b.build(),
    )
}

/// Whisper-Medium ("Whisp-M": 356 M params, 55 GMACs): convolutional audio
/// stem, transformer encoder over audio frames, transformer decoder with
/// cross-attention over the encoder output.
pub fn whisper_medium() -> ModelSpec {
    let hidden = 1_024;
    let heads = 16;
    let enc_layers = 12;
    let dec_layers = 12;
    let enc_tokens = 250;
    let dec_tokens = 64;
    let vocab = 51_865u64;

    let mut b = GraphBuilder::new("Whisper-Medium");

    // Audio stem: mel spectrogram [80, frames] -> two 1D convs (modelled as
    // 2D with height 1) into the hidden size.
    let mel = b.input("mel", &[80, enc_tokens * 2, 1]);
    let c1 = b.conv2d("encoder.conv1", mel, hidden, 3, 1);
    let g1 = b.unary("encoder.gelu1", OpKind::GeLU, c1);
    let c2 = b.conv2d("encoder.conv2", g1, hidden, 3, 2);
    let g2 = b.unary("encoder.gelu2", OpKind::GeLU, c2);
    let mut enc = b.reshape("encoder.to_tokens", g2, &[enc_tokens, hidden]);

    let enc_cfg = TransformerBlockConfig {
        hidden,
        heads,
        ffn: hidden * 4,
        seq: enc_tokens,
        rotary: false,
    };
    for layer in 0..enc_layers {
        enc = transformer_encoder_block(&mut b, enc, &enc_cfg, &format!("encoder.{layer}"));
    }
    let enc = b.norm("encoder.ln_post", OpKind::LayerNorm, enc);

    // Decoder.
    let tokens = b.input("decoder_ids", &[dec_tokens, 1]);
    let te = b.embedding("decoder.wte", tokens, vocab, hidden);
    let pe = b.embedding("decoder.wpe", tokens, 448, hidden);
    let mut dec = b.binary("decoder.embed_add", OpKind::Add, te, pe);
    let dec_cfg = TransformerBlockConfig {
        hidden,
        heads,
        ffn: hidden * 4,
        seq: dec_tokens,
        rotary: false,
    };
    for layer in 0..dec_layers {
        dec = transformer_decoder_block(&mut b, dec, enc, &dec_cfg, &format!("decoder.{layer}"));
    }
    let dec = b.norm("decoder.ln_f", OpKind::LayerNorm, dec);
    // Tied output projection (weight-free activation matmul).
    let wte_view = b.reshape("decoder.wte_view", dec, &[hidden, vocab]);
    b.matmul_act("decoder.logits", dec, wte_view);

    ModelSpec::new(
        "Whisper-Medium",
        "Whisp-M",
        ModelTask::SpeechRecognition,
        PaperStats {
            params_m: 356.0,
            macs_g: 55.0,
            layers: 2_026,
        },
        b.build(),
    )
    .with_decode(DecodeSpec {
        step: whisper_decode_step(hidden, heads, dec_layers, enc_tokens, vocab),
        // Self-attention K+V per decoder layer at fp16; cross-attention K/V
        // are computed once from the encoder output at prefill and belong to
        // prefill residency, not the per-token charge.
        kv_bytes_per_token: 2 * dec_layers * hidden * 2,
        max_context: 448,
    })
}

/// Llama-2 13B: solver-stress model for Table 4 (not part of the inference
/// evaluation).
pub fn llama2_13b() -> ModelSpec {
    let graph = build_gpt(
        "Llama2-13B",
        &GptConfig {
            vocab: 32_000,
            hidden: 5_120,
            heads: 40,
            ffn: 20_480,
            layers: 40,
            seq: 128,
            max_pos: 4_096,
            rotary: true,
            tied_lm_head: false,
        },
    );
    ModelSpec::new(
        "Llama2-13B",
        "Llama2-13B",
        ModelTask::Nlp,
        PaperStats {
            params_m: 13_000.0,
            macs_g: 1_700.0,
            layers: 2_000,
        },
        graph,
    )
}

/// Llama-2 70B: the largest solver-stress model of Table 4.
pub fn llama2_70b() -> ModelSpec {
    let graph = build_gpt(
        "Llama2-70B",
        &GptConfig {
            vocab: 32_000,
            hidden: 8_192,
            heads: 64,
            ffn: 32_768,
            layers: 80,
            seq: 128,
            max_pos: 4_096,
            rotary: true,
            tied_lm_head: false,
        },
    );
    ModelSpec::new(
        "Llama2-70B",
        "Llama2-70B",
        ModelTask::Nlp,
        PaperStats {
            params_m: 70_000.0,
            macs_g: 9_000.0,
            layers: 4_000,
        },
        graph,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gptneo_small_matches_published_size() {
        let m = gptneo_small();
        assert!(m.params_deviation() < 0.1, "{}", m);
        assert!(m.macs_deviation() < 0.15, "{}", m);
    }

    #[test]
    fn gptneo_family_scales_monotonically() {
        let s = gptneo_small();
        let m = gptneo_1_3b();
        let l = gptneo_2_7b();
        assert!(s.graph().total_params() < m.graph().total_params());
        assert!(m.graph().total_params() < l.graph().total_params());
        assert!(s.graph().total_macs() < m.graph().total_macs());
        assert!(m.graph().total_macs() < l.graph().total_macs());
    }

    #[test]
    fn gptneo_1_3b_close_to_table_6() {
        let m = gptneo_1_3b();
        assert!(m.params_deviation() < 0.05, "{}", m);
        assert!(m.macs_deviation() < 0.05, "{}", m);
    }

    #[test]
    fn whisper_has_encoder_and_decoder_structure() {
        let m = whisper_medium();
        let graph = m.graph();
        graph.validate().unwrap();
        assert!(graph.nodes().iter().any(|n| n.name.starts_with("encoder.")));
        assert!(graph.nodes().iter().any(|n| n.name.contains(".cross.")));
        assert!(m.params_deviation() < 0.2, "{}", m);
    }

    #[test]
    fn autoregressive_models_carry_decode_specs() {
        for m in [
            gptneo_small(),
            gptneo_1_3b(),
            gptneo_2_7b(),
            whisper_medium(),
        ] {
            let d = m
                .decode()
                .unwrap_or_else(|| panic!("{} lacks decode", m.name));
            d.step.graph().validate().unwrap();
            assert!(d.kv_bytes_per_token > 0, "{}", m.name);
            assert!(d.max_context > 0, "{}", m.name);
            assert_ne!(d.step.abbr, m.abbr, "step spec must cache separately");
        }
    }

    #[test]
    fn decode_step_peaks_are_below_dense_pass_peaks() {
        // The old lowering ran Whisper's decoder as one dense 64-token pass
        // (and GPT-Neo as a dense 128-token pass), inflating per-invocation
        // activation peaks; a single decode step must peak well below that.
        for m in [gptneo_small(), gptneo_2_7b(), whisper_medium()] {
            let d = m.decode().unwrap();
            let step_peak = d.step.graph().max_activation_bytes();
            let dense_peak = m.graph().max_activation_bytes();
            assert!(
                step_peak * 2 <= dense_peak,
                "{}: step peak {} vs dense peak {}",
                m.name,
                step_peak,
                dense_peak
            );
            assert!(
                d.step.graph().total_macs() * 8 < m.graph().total_macs(),
                "{}: step should be far cheaper than the dense pass",
                m.name
            );
        }
    }

    #[test]
    fn gpt_kv_charge_matches_architecture() {
        let m = gptneo_small();
        let d = m.decode().unwrap();
        // K+V, 12 layers, hidden 768, fp16.
        assert_eq!(d.kv_bytes_per_token, 2 * 12 * 768 * 2);
        assert_eq!(d.max_context, 2_048);
    }

    #[test]
    fn llama_models_use_rotary_embeddings() {
        let m = llama2_13b();
        assert!(m
            .graph()
            .nodes()
            .iter()
            .any(|n| n.kind == OpKind::RotaryEmbedding));
        // No learned positional table.
        assert!(!m.graph().nodes().iter().any(|n| n.name == "wpe"));
    }

    #[test]
    fn llama2_70b_is_roughly_70b_parameters() {
        let m = llama2_70b();
        let params_b = m.graph().total_params() as f64 / 1e9;
        assert!((55.0..85.0).contains(&params_b), "{params_b} B");
    }
}
