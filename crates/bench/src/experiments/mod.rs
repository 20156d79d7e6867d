//! One module per table/figure of the paper's evaluation.
//!
//! | Module | Reproduces | Paper reference |
//! |---|---|---|
//! | [`table1`] | Memory/latency of preloading frameworks (motivation) | Table 1 |
//! | [`fig2`] | Latency increase vs. additional streamed volume per operator | Figure 2 |
//! | [`table4`] | LC-OPG planning time and status | Table 4 |
//! | [`fig4`] | Kernel profiling + GBRT latency prediction | Figure 4 |
//! | [`table6`] | Model characterisation (generated vs published) | Table 6 |
//! | [`table7`] | End-to-end latency comparison | Table 7 |
//! | [`table8`] | Average memory comparison | Table 8 |
//! | [`fig6`] | Multi-model FIFO memory traces | Figure 6 |
//! | [`fig7`] | Speedup / memory-reduction breakdown (ablation) | Figure 7 |
//! | [`fig8`] | Memory–latency trade-off curves | Figure 8 |
//! | [`fig9`] | Comparison with naive overlap strategies | Figure 9 |
//! | [`table9`] | Power and energy consumption | Table 9 |
//! | [`fig10`] | Portability across devices | Figure 10 |
//! | [`serve`] | Multi-tenant serving sweep (beyond the paper) | — |
//! | [`fleet_scale`] | Fleet-size ramp on the parallel serve loop (beyond the paper) | — |
//! | [`overload`] | Overload survival: admission control, bounded queues, steal (beyond the paper) | — |
//! | [`chaos`] | Fault injection & recovery: retry, failover, quarantine (beyond the paper) | — |
//! | [`decode`] | Continuous-batching decode vs one-shot serving (beyond the paper) | — |

pub mod ablations;
pub mod chaos;
pub mod decode;
pub mod fig10;
pub mod fig2;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet_scale;
pub mod overload;
pub mod serve;
pub mod table1;
pub mod table4;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;
