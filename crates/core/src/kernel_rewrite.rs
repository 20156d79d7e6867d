//! Template-based kernel rewriting (Section 4.4).
//!
//! FlashMem rewrites GPU kernels so that weight loading for *future* layers is
//! embedded directly into the computation: each loop iteration prefetches the
//! next tile of the pipelined tensor list `L` and then computes on the current
//! tile, with no per-thread conditionals (branch divergence kills SIMT
//! efficiency on mobile GPUs). The real system instantiates OpenCL sources
//! from Jinja templates; here the same decision is captured by
//! [`KernelTemplate`], which (a) selects the lowering options the simulator
//! prices and (b) renders an illustrative pseudo-kernel source mirroring
//! Figure 5, so the transformation stays inspectable.

use flashmem_profiler::LoweringOptions;
use serde::{Deserialize, Serialize};

/// The kernel template used for a (fused) operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelTemplate {
    /// Figure 5 (a): load inputs, loop over tiles, compute. No streaming.
    Naive,
    /// A naive attempt at interleaving loads with compute using per-thread
    /// `if (tid < ws)` guards — functional but divergent.
    NaiveInterleaved,
    /// Figure 5 (b): the branch-free pipelined template — every iteration
    /// prefetches the next tile of the pipelined tensor list, then computes
    /// the current tile; a tail loop finishes leftover arithmetic.
    PipelinedBranchFree,
}

impl KernelTemplate {
    /// The lowering options the simulator should price for this template.
    pub fn lowering_options(&self) -> LoweringOptions {
        match self {
            KernelTemplate::Naive => LoweringOptions::texture_framework(),
            KernelTemplate::NaiveInterleaved => {
                let mut o = LoweringOptions::texture_framework();
                o.divergence_penalty = 0.25;
                o
            }
            KernelTemplate::PipelinedBranchFree => LoweringOptions::flashmem(),
        }
    }

    /// Human readable template name.
    pub fn name(&self) -> &'static str {
        match self {
            KernelTemplate::Naive => "naive",
            KernelTemplate::NaiveInterleaved => "naive_interleaved",
            KernelTemplate::PipelinedBranchFree => "pipelined_branch_free",
        }
    }
}

impl std::fmt::Display for KernelTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instantiates kernel templates for operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelRewriter {
    template: KernelTemplate,
}

impl KernelRewriter {
    /// A rewriter that emits the branch-free pipelined template (FlashMem's
    /// default when kernel rewriting is enabled).
    pub fn pipelined() -> Self {
        KernelRewriter {
            template: KernelTemplate::PipelinedBranchFree,
        }
    }

    /// A rewriter that leaves kernels in their naive form.
    pub fn naive() -> Self {
        KernelRewriter {
            template: KernelTemplate::Naive,
        }
    }

    /// The rewriter a configuration implies: the pipelined template when
    /// kernel rewriting is enabled, naive kernels when it is not. Every
    /// lowering choice of the planner, the runtime and the serve loop
    /// follows from this.
    pub fn for_kernel_rewriting(enabled: bool) -> Self {
        if enabled {
            KernelRewriter::pipelined()
        } else {
            KernelRewriter::naive()
        }
    }

    /// A rewriter using the divergent interleaving strawman.
    pub fn naive_interleaved() -> Self {
        KernelRewriter {
            template: KernelTemplate::NaiveInterleaved,
        }
    }

    /// The template this rewriter instantiates.
    pub fn template(&self) -> KernelTemplate {
        self.template
    }

    /// The lowering options the executor should use for rewritten kernels.
    pub fn lowering_options(&self) -> LoweringOptions {
        self.template.lowering_options()
    }

    /// Render an illustrative pseudo-OpenCL source for `op_name`, streaming
    /// `pipeline_tensors` weight tensors for future layers. Mirrors the
    /// pseudo-code of Figure 5; used for documentation, debugging and tests —
    /// the simulator prices the template via
    /// [`lowering_options`](Self::lowering_options), not by parsing this text.
    pub fn render(&self, op_name: &str, pipeline_tensors: usize) -> String {
        match self.template {
            KernelTemplate::Naive => format!(
                "// kernel: {op_name} (naive)\n\
                 kernel void {op_name}(global const half* A, global const half* B, global half* C) {{\n\
                 \x20   int tid = get_global_id(0);\n\
                 \x20   load_tile(A, B);\n\
                 \x20   for (int i = 0; i < K_TILES; ++i) {{\n\
                 \x20       compute_tile(C, i);\n\
                 \x20   }}\n\
                 }}\n"
            ),
            KernelTemplate::NaiveInterleaved => format!(
                "// kernel: {op_name} (naive interleaved, divergent)\n\
                 kernel void {op_name}(global const half* A, global const half* B, global half* C,\n\
                 \x20                   global const half* L[{pipeline_tensors}]) {{\n\
                 \x20   int tid = get_global_id(0);\n\
                 \x20   load_tile(A, B);\n\
                 \x20   if (tid < COMP_SIZE) {{\n\
                 \x20       for (int i = 0; i < K_TILES; ++i) compute_tile(C, i);\n\
                 \x20       if (tid < WS) pipeline_load(L);\n\
                 \x20   }} else {{\n\
                 \x20       if (tid < WS) pipeline_load(L);\n\
                 \x20   }}\n\
                 }}\n"
            ),
            KernelTemplate::PipelinedBranchFree => format!(
                "// kernel: {op_name} (branch-free pipelined, {pipeline_tensors} streamed tensors)\n\
                 kernel void {op_name}(global const half* A, global const half* B, global half* C,\n\
                 \x20                   global const half* L[{pipeline_tensors}], read_write image2d_t tex_out) {{\n\
                 \x20   int tid = get_global_id(0);\n\
                 \x20   int ws = tensor_size(L);\n\
                 \x20   int c = ws / get_global_size(0);\n\
                 \x20   load_tile(A, B);\n\
                 \x20   for (int i = 0; i < c; ++i) {{\n\
                 \x20       compute_tile(C, i);\n\
                 \x20       float4 v = vload4(i, L[tid]);\n\
                 \x20       write_imagef(tex_out, tex_coord(tid, i), v);   // pipeline_load\n\
                 \x20   }}\n\
                 \x20   for (int i = c; i < K_TILES; ++i) {{\n\
                 \x20       compute_tile(C, i);                            // tail: leftover arithmetic\n\
                 \x20   }}\n\
                 }}\n"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_template_has_no_thread_branches() {
        let src = KernelRewriter::pipelined().render("matmul_fused", 3);
        assert!(
            !src.contains("if (tid"),
            "branch-free template must not guard on tid:\n{src}"
        );
        assert!(src.contains("pipeline_load"));
        assert!(src.contains("write_imagef"));
        assert!(src.contains("tail"));
    }

    #[test]
    fn naive_interleaved_template_is_divergent() {
        let src = KernelRewriter::naive_interleaved().render("matmul", 1);
        assert!(src.contains("if (tid"));
        let opts = KernelRewriter::naive_interleaved().lowering_options();
        assert!(opts.divergence_penalty > 0.0);
        assert!(!opts.pipelined);
    }

    #[test]
    fn naive_template_does_not_stream() {
        let src = KernelRewriter::naive().render("conv", 0);
        assert!(!src.contains("pipeline_load"));
        let opts = KernelRewriter::naive().lowering_options();
        assert!(!opts.pipelined);
        assert_eq!(opts.divergence_penalty, 0.0);
    }

    #[test]
    fn pipelined_options_enable_pipelining_without_divergence() {
        let opts = KernelRewriter::pipelined().lowering_options();
        assert!(opts.pipelined);
        assert_eq!(opts.divergence_penalty, 0.0);
    }

    #[test]
    fn render_mentions_operator_name_and_tensor_count() {
        let src = KernelRewriter::pipelined().render("attn_qkv", 7);
        assert!(src.contains("attn_qkv"));
        assert!(src.contains('7'));
    }

    #[test]
    fn template_names_are_distinct() {
        let names = [
            KernelTemplate::Naive.name(),
            KernelTemplate::NaiveInterleaved.name(),
            KernelTemplate::PipelinedBranchFree.name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
