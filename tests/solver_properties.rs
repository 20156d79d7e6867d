//! Property-style tests for the CP solver: solutions must satisfy the model,
//! optimal objective values must match brute force on small instances,
//! propagation must never prune feasible assignments, the proven bound of an
//! OPG weight window must equal the optimum an exhaustive search finds (and
//! LC-OPG's closed-form decision must be the one that search returns), and
//! the back-to-front fill must stream exactly the windows that can stream.
//!
//! The random instances come from a seeded [`SplitMix64`] sweep instead of
//! proptest (unavailable offline), so every run exercises the same corpus.

use flashmem::core::opg::{
    back_to_front_fill, build_weight_window_model, extract_decision, greedy_hint, CandidateSlot,
    WindowObjective,
};
use flashmem::core::FlashMemConfig;
use flashmem::solver::{
    propagate, CpModel, CpSolver, LinearExpr, PropagationResult, SolveStatus, SolverConfig,
};
use flashmem_gpu_sim::rng::SplitMix64;

/// A small random model over `n` variables with random linear constraints.
#[derive(Debug, Clone)]
struct SmallModel {
    domains: Vec<(i64, i64)>,
    les: Vec<(Vec<i64>, i64)>,
    ges: Vec<(Vec<i64>, i64)>,
    objective: Vec<i64>,
}

const N: usize = 3;

fn gen_i64(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + rng.gen_range_inclusive(0, (hi - lo) as u64) as i64
}

/// The deterministic corpus the properties below are checked against.
fn small_models(cases: usize) -> Vec<SmallModel> {
    let mut rng = SplitMix64::seed_from_u64(0x50_1e4);
    (0..cases)
        .map(|_| {
            let domains = (0..N)
                .map(|_| {
                    let lo = gen_i64(&mut rng, 0, 2);
                    let span = gen_i64(&mut rng, 3, 6);
                    (lo, lo + span)
                })
                .collect();
            let les = (0..rng.gen_range_inclusive(0, 2))
                .map(|_| {
                    let coeffs = (0..N).map(|_| gen_i64(&mut rng, -2, 2)).collect();
                    (coeffs, gen_i64(&mut rng, 0, 14))
                })
                .collect();
            let ges = (0..rng.gen_range_inclusive(0, 1))
                .map(|_| {
                    let coeffs = (0..N).map(|_| gen_i64(&mut rng, -1, 2)).collect();
                    (coeffs, gen_i64(&mut rng, 0, 7))
                })
                .collect();
            let objective = (0..N).map(|_| gen_i64(&mut rng, -3, 3)).collect();
            SmallModel {
                domains,
                les,
                ges,
                objective,
            }
        })
        .collect()
}

fn build(model: &SmallModel) -> (CpModel, Vec<flashmem::solver::VarId>) {
    let mut cp = CpModel::new();
    let vars: Vec<_> = model
        .domains
        .iter()
        .enumerate()
        .map(|(i, (lo, hi))| cp.new_int_var(*lo, *hi, &format!("v{i}")))
        .collect();
    for (coeffs, bound) in &model.les {
        let mut expr = LinearExpr::new();
        for (v, c) in vars.iter().zip(coeffs) {
            expr = expr.plus(*v, *c);
        }
        cp.add_le(expr, *bound);
    }
    for (coeffs, bound) in &model.ges {
        let mut expr = LinearExpr::new();
        for (v, c) in vars.iter().zip(coeffs) {
            expr = expr.plus(*v, *c);
        }
        cp.add_ge(expr, *bound);
    }
    let mut obj = LinearExpr::new();
    for (v, c) in vars.iter().zip(&model.objective) {
        obj = obj.plus(*v, *c);
    }
    cp.minimize(obj);
    (cp, vars)
}

/// Brute-force the optimum over the (tiny) cartesian product of domains.
fn brute_force(model: &SmallModel, cp: &CpModel) -> Option<i64> {
    let mut best: Option<i64> = None;
    let d = &model.domains;
    for a in d[0].0..=d[0].1 {
        for b in d[1].0..=d[1].1 {
            for c in d[2].0..=d[2].1 {
                let assignment = [a, b, c];
                if cp.is_feasible(&assignment) {
                    let obj: i64 = assignment
                        .iter()
                        .zip(&model.objective)
                        .map(|(v, c)| v * c)
                        .sum();
                    best = Some(best.map_or(obj, |b: i64| b.min(obj)));
                }
            }
        }
    }
    best
}

#[test]
fn solver_matches_brute_force_on_small_models() {
    for model in small_models(64) {
        let (cp, _) = build(&model);
        let expected = brute_force(&model, &cp);
        let outcome = CpSolver::new().solve(&cp);
        match expected {
            Some(best) => {
                assert_eq!(outcome.status, SolveStatus::Optimal, "{model:?}");
                assert_eq!(outcome.objective, Some(best), "{model:?}");
                let solution = outcome.solution.unwrap();
                assert!(cp.is_feasible(solution.values()), "{model:?}");
            }
            None => {
                assert_eq!(outcome.status, SolveStatus::Infeasible, "{model:?}");
                assert!(outcome.solution.is_none(), "{model:?}");
            }
        }
    }
}

#[test]
fn propagation_is_sound_on_small_models() {
    for model in small_models(64) {
        let (cp, _) = build(&model);
        let mut domains = cp.domains().to_vec();
        let result = propagate(&cp, &mut domains);
        let d = &model.domains;
        let mut any_feasible = false;
        for a in d[0].0..=d[0].1 {
            for b in d[1].0..=d[1].1 {
                for c in d[2].0..=d[2].1 {
                    let assignment = [a, b, c];
                    if cp.is_feasible(&assignment) {
                        any_feasible = true;
                        // No feasible point may be pruned.
                        for (value, dom) in assignment.iter().zip(&domains) {
                            assert!(
                                *value >= dom.lo && *value <= dom.hi,
                                "feasible value {value} pruned from [{}, {}] in {model:?}",
                                dom.lo,
                                dom.hi
                            );
                        }
                    }
                }
            }
        }
        if result == PropagationResult::Conflict {
            assert!(
                !any_feasible,
                "propagation reported a conflict on a feasible model {model:?}"
            );
        }
    }
}

/// One random OPG weight window, shaped like the ones LC-OPG builds: the
/// candidates are the kernels right before the consumer.
#[derive(Debug, Clone)]
struct RandomWindow {
    consumer: usize,
    total_chunks: u64,
    slots: Vec<CandidateSlot>,
    config: FlashMemConfig,
}

/// The corpus cycles through the three presets and λ = 0; half the windows
/// start at kernel 0 (where λ = 0 makes preloading beat the fill), and half
/// draw headrooms below `T(w)` so the back-to-front fill can break C2.
fn random_windows(cases: usize) -> Vec<RandomWindow> {
    let configs = [
        FlashMemConfig::memory_priority(),
        FlashMemConfig::balanced(),
        FlashMemConfig::latency_priority(),
        FlashMemConfig::memory_priority().with_lambda(0.0),
    ];
    let mut rng = SplitMix64::seed_from_u64(0xb00d);
    (0..cases)
        .map(|case| {
            let len = rng.gen_range_inclusive(1, 6) as usize;
            let start = if rng.gen_range_inclusive(0, 1) == 0 {
                0
            } else {
                rng.gen_range_inclusive(1, 20) as usize
            };
            let total_chunks = rng.gen_range_inclusive(1, 16);
            let tight = rng.gen_range_inclusive(0, 1) == 0;
            let slots = (start..start + len)
                .map(|kernel| CandidateSlot {
                    kernel,
                    capacity_chunks: rng.gen_range_inclusive(0, 10),
                    memory_headroom_chunks: if tight {
                        rng.gen_range_inclusive(0, total_chunks)
                    } else {
                        100
                    },
                })
                .collect();
            RandomWindow {
                consumer: start + len,
                total_chunks,
                slots,
                config: configs[case % configs.len()].clone(),
            }
        })
        .collect()
}

/// The windows the OPG properties are checked on: the random corpus plus one
/// window whose first candidate has less headroom (5) than the weight has
/// chunks (12). Only the 2 chunks placed there are in flight at it, so the
/// weight streams; a fill that also charged it with the 10 chunks placed at
/// the later candidate would preload it.
fn windows_under_test() -> Vec<RandomWindow> {
    let mut windows = random_windows(1_000);
    windows.push(RandomWindow {
        consumer: 3,
        total_chunks: 12,
        slots: vec![
            CandidateSlot {
                kernel: 1,
                capacity_chunks: 5,
                memory_headroom_chunks: 5,
            },
            CandidateSlot {
                kernel: 2,
                capacity_chunks: 10,
                memory_headroom_chunks: 100,
            },
        ],
        config: FlashMemConfig::memory_priority(),
    });
    windows
}

#[test]
fn opg_window_bound_is_the_exact_optimum() {
    let (mut short, mut breaks_c2, mut hint_misses) = (0, 0, 0);
    let (mut closed_preloads, mut closed_streams, mut searched) = (0, 0, 0);
    for w in windows_under_test() {
        let window = build_weight_window_model(w.consumer, w.total_chunks, &w.slots, &w.config);
        let bound = window
            .model
            .objective_bound()
            .expect("LC-OPG-shaped windows carry a bound");
        let hint = greedy_hint(&window);
        let (objective, _) = window.model.objective().expect("windows minimise");
        let hint_score = CpModel::eval_expr(objective, &hint);

        // The slot-computed scores are the model objective on the same
        // assignments: the fill's on the hint, preloading's on p = 1.
        let scores = WindowObjective::new(w.consumer, w.total_chunks, &w.config);
        let mut preload = vec![0; window.model.num_vars()];
        preload[window.preload_var.0] = 1;
        assert_eq!(
            scores.score(None),
            CpModel::eval_expr(objective, &preload),
            "{w:?}"
        );
        if let Some(fill) = &window.fill {
            assert_eq!(scores.score(Some(fill)), hint_score, "{w:?}");
        }

        let capacity: u64 = w
            .slots
            .iter()
            .map(|s| s.capacity_chunks.min(s.memory_headroom_chunks))
            .sum();
        let fill_failed = window.fill.is_none();
        short += usize::from(capacity < w.total_chunks);
        breaks_c2 += usize::from(fill_failed && capacity >= w.total_chunks);
        hint_misses += usize::from(hint_score > bound);

        // The planner's solve: hint, bound and the default window node cap.
        let planned =
            CpSolver::with_config(SolverConfig::with_max_nodes(w.config.solver_node_limit))
                .solve_with_hint(&window.model, Some(&hint));
        // The reference: the same hint, no bound, a cap it never reaches.
        let mut unbounded = window.model.clone();
        unbounded.set_objective_bound(None);
        let exhaustive = CpSolver::with_config(SolverConfig::with_max_nodes(u64::MAX))
            .solve_with_hint(&unbounded, Some(&hint));

        assert_eq!(exhaustive.status, SolveStatus::Optimal, "{w:?}");
        assert_eq!(exhaustive.objective, Some(bound), "{w:?}");
        assert_eq!(planned.status, SolveStatus::Optimal, "{w:?}");
        assert_eq!(planned.objective, Some(bound), "{w:?}");
        if hint_score == bound {
            assert_eq!(planned.nodes_explored, 0, "{w:?}");
            assert_eq!(
                extract_decision(&window, planned.solution.as_ref().unwrap()),
                back_to_front_fill(w.total_chunks, &w.slots),
                "{w:?}"
            );
        }
        let exhaustive_decision = extract_decision(&window, exhaustive.solution.as_ref().unwrap());
        assert_eq!(
            extract_decision(&window, planned.solution.as_ref().unwrap()),
            exhaustive_decision,
            "{w:?}"
        );

        // LC-OPG's closed form, from the slots alone: a failed fill preloads,
        // a fill that scores no worse than preloading streams, and only the
        // rest build and search the model.
        let closed_form = match back_to_front_fill(w.total_chunks, &w.slots) {
            None => {
                closed_preloads += 1;
                Some(None)
            }
            Some(fill) if scores.prefers(&fill) => {
                closed_streams += 1;
                Some(Some(fill))
            }
            Some(_) => {
                searched += 1;
                None
            }
        };
        if let Some(decision) = closed_form {
            assert_eq!(decision, exhaustive_decision, "{w:?}");
        }
    }
    // Every case the bound distinguishes occurs in the corpus.
    assert!(short > 0, "no window with T(w) above its capacity");
    assert!(breaks_c2 > 0, "no window whose fill breaks C2");
    assert!(
        hint_misses > 0,
        "no window where the search must beat the hint"
    );
    // So does every path of the closed form.
    assert!(closed_preloads > 0, "no window preloads in closed form");
    assert!(closed_streams > 0, "no window streams in closed form");
    assert!(searched > 0, "no window needs a search");
}

#[test]
fn back_to_front_fill_streams_exactly_the_windows_that_can_stream() {
    let (mut streams, mut preloads) = (0, 0);
    for w in windows_under_test() {
        let fill = back_to_front_fill(w.total_chunks, &w.slots);
        let window = build_weight_window_model(w.consumer, w.total_chunks, &w.slots, &w.config);
        // Every streamed assignment, searched exhaustively: the window model
        // with its preload indicator pinned to 0 and no bound to stop at.
        let mut streamed = window.model.clone();
        streamed.add_eq(LinearExpr::var(window.preload_var), 0);
        streamed.set_objective_bound(None);
        let exhaustive =
            CpSolver::with_config(SolverConfig::with_max_nodes(u64::MAX)).solve(&streamed);

        match &fill {
            Some(_) => {
                assert_eq!(exhaustive.status, SolveStatus::Optimal, "{w:?}");
                assert!(streamed.is_feasible(&greedy_hint(&window)), "{w:?}");
                streams += 1;
            }
            None => {
                assert_eq!(exhaustive.status, SolveStatus::Infeasible, "{w:?}");
                preloads += 1;
            }
        }
    }
    assert!(streams > 0, "no window streams");
    assert!(preloads > 0, "no window preloads");
}
