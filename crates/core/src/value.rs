//! The vertex assignment value function (equations 1–4 of the paper).
//!
//! This module is public because the value function is the part of
//! HyperPRAW that other partitioners reuse: every engine instantiation —
//! the in-memory [`crate::HyperPraw`] driver under any execution strategy
//! and the out-of-core `hyperpraw-lowmem` streaming partitioner — scores
//! candidate placements with [`best_partition_in`] and only differs in
//! *how it obtains* the neighbour-partition counts (precomputed in-memory
//! adjacency vs. exact or sketched net connectivity). [`value_of`] is the
//! per-candidate specification of equation 1; the tests pin the hot
//! scorer against a scorer built from it, bit for bit.

use hyperpraw_topology::CostMatrix;

/// The balance term `α · W(i) / E(i)` of equation 1 for one partition.
/// Callers of [`best_partition_in`] fill its `balance` slice through this
/// one expression, so the cached terms are bitwise the ones [`value_of`]
/// computes.
#[inline]
pub fn balance_term(alpha: f64, load: f64, expected: f64) -> f64 {
    alpha * load / expected
}

/// Evaluates the value `V_i(v)` of assigning a vertex to partition
/// `candidate` (equation 1):
///
/// ```text
/// V_i(v) = −N_i(v) · T_i(v) − α · W(i) / E(i)
/// ```
///
/// * `counts[j]` is `X_j(v)`, the number of (distinct) neighbours of the
///   vertex currently assigned to partition `j`,
/// * `N_i(v)` is the fraction of partitions other than `i` holding at least
///   one neighbour (equations 2–3; the paper writes `X_j(v) > 1`, which we
///   read as "has neighbours", i.e. `X_j(v) ≥ 1` — the strict reading would
///   ignore partitions holding exactly one neighbour, contradicting the
///   metric's intent),
/// * `T_i(v)` is the neighbour count in every partition weighted by the
///   communication cost `C(i, j)` (equation 4; `C(i,i) = 0` so local
///   neighbours are free),
/// * `W(i)` and `E(i)` are the current and expected workloads, and `α`
///   weighs the balance term.
#[inline]
pub fn value_of(
    counts: &[u32],
    candidate: u32,
    cost: &CostMatrix,
    alpha: f64,
    load: f64,
    expected: f64,
) -> f64 {
    let p = counts.len() as f64;
    let row = cost.row(candidate as usize);
    let mut t = 0.0f64;
    let mut neighbour_parts = 0u32;
    for (j, &c) in counts.iter().enumerate() {
        if c > 0 {
            neighbour_parts += 1;
            t += c as f64 * row[j];
        }
    }
    // Partitions other than the candidate holding neighbours.
    if counts[candidate as usize] > 0 {
        neighbour_parts -= 1;
    }
    let n = neighbour_parts as f64 / p;
    -n * t - balance_term(alpha, load, expected)
}

/// The outcome of scoring every candidate partition for one vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredPartition {
    /// The winning partition.
    pub part: u32,
    /// The winner's value `V_part(v)`.
    pub value: f64,
    /// Gap between the winner and the runner-up value (`+∞` with a single
    /// partition). A small margin means the decision was a near-tie — the
    /// signal `hyperpraw-lowmem` uses to pick re-streaming candidates.
    pub margin: f64,
}

/// Reusable buffers for [`best_partition_in`], the allocation-free scorer
/// the restreaming engine keeps per worker. One instance per thread; the
/// contents are meaningless between calls.
#[derive(Clone, Debug, Default)]
pub struct ValueScratch {
    /// Communication terms `T_i(v)`, one per candidate.
    t: Vec<f64>,
    /// The nonzero `(j, X_j(v))` pairs, in ascending `j`.
    sources: Vec<(usize, f64)>,
}

impl ValueScratch {
    /// Creates empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Finds the partition with the highest assignment value for a vertex,
/// reporting the winner's value and its margin over the runner-up, reusing
/// `scratch` across calls.
///
/// `loads[i]` is the workload `W(i)` and `balance[i]` the balance term
/// `α · W(i) / E(i)`, which callers keep cached next to the loads and fill
/// through [`balance_term`]. Ties are broken towards the lighter
/// partition, and then towards the lower partition id, so the stream is
/// fully deterministic.
///
/// The naive scorer evaluates [`value_of`] per candidate — `O(p²)` matrix
/// reads and `p` balance divisions per vertex even when the vertex's
/// neighbours touch only a handful of partitions. This version gathers
/// the source partitions `j` with `X_j(v) > 0` once, then accumulates
/// `T_i(v) = Σ_j X_j(v) · C(i,j)` for every candidate over up to four
/// contiguous columns ([`CostMatrix::col`]) per sweep, so the work is
/// `O(p · |{j : X_j > 0}|)` with a quarter of the passes over `T`. For
/// unit-uniform matrices ([`CostMatrix::is_unit_uniform`]) the terms
/// collapse to the exact integers `Σ_j X_j − X_i` and the matrix is never
/// touched. `N_i(v)` takes only two values, `(K−1)/p` and `K/p` for `K`
/// source partitions, so both are divided out once.
///
/// The result — winner, value, margin and tie-breaking — is
/// **bit-identical** to the per-candidate specification (kept as the test
/// oracle), which the engine equivalence tests rely on: every candidate
/// performs the same IEEE operations in the same order. A four-column
/// sweep computes `(((t + c₀·C₀) + c₁·C₁) + c₂·C₂) + c₃·C₃`, still adding
/// the terms in ascending `j` exactly as [`value_of`] does, Rust never
/// contracts a multiply and an add into one fused operation, and the
/// cached balance term is [`value_of`]'s own subexpression.
pub fn best_partition_in(
    counts: &[u32],
    cost: &CostMatrix,
    loads: &[f64],
    balance: &[f64],
    scratch: &mut ValueScratch,
) -> ScoredPartition {
    debug_assert_eq!(counts.len(), loads.len());
    debug_assert_eq!(counts.len(), balance.len());
    debug_assert_eq!(counts.len(), cost.num_units());
    let p = counts.len();
    let t = &mut scratch.t;
    t.clear();
    t.resize(p, 0.0);
    let neighbour_parts_total;
    if cost.is_unit_uniform() {
        // Exact integer shortcut: every off-diagonal cost is 1.0, so
        // t_i = Σ_j X_j − X_i. Counts are u32 integers, so the sums are
        // exact and bitwise equal to the ordered accumulation.
        let mut parts = 0u32;
        let mut total = 0u64;
        for &c in counts {
            if c > 0 {
                parts += 1;
                total += u64::from(c);
            }
        }
        for (ti, &c) in t.iter_mut().zip(counts) {
            *ti = (total - u64::from(c)) as f64;
        }
        neighbour_parts_total = parts;
    } else {
        let sources = &mut scratch.sources;
        sources.clear();
        sources.extend(
            counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(j, &c)| (j, c as f64)),
        );
        neighbour_parts_total = sources.len() as u32;
        let col = |j: usize| &cost.col(j)[..p];
        let mut groups = sources.chunks_exact(4);
        for g in &mut groups {
            let [(j0, c0), (j1, c1), (j2, c2), (j3, c3)] = [g[0], g[1], g[2], g[3]];
            let cols = col(j0).iter().zip(col(j1)).zip(col(j2)).zip(col(j3));
            for (ti, (((&k0, &k1), &k2), &k3)) in t.iter_mut().zip(cols) {
                *ti = (((*ti + c0 * k0) + c1 * k1) + c2 * k2) + c3 * k3;
            }
        }
        match *groups.remainder() {
            [] => {}
            [(j0, c0)] => {
                for (ti, &k0) in t.iter_mut().zip(col(j0)) {
                    *ti += c0 * k0;
                }
            }
            [(j0, c0), (j1, c1)] => {
                for (ti, (&k0, &k1)) in t.iter_mut().zip(col(j0).iter().zip(col(j1))) {
                    *ti = (*ti + c0 * k0) + c1 * k1;
                }
            }
            [(j0, c0), (j1, c1), (j2, c2)] => {
                let cols = col(j0).iter().zip(col(j1)).zip(col(j2));
                for (ti, ((&k0, &k1), &k2)) in t.iter_mut().zip(cols) {
                    *ti = ((*ti + c0 * k0) + c1 * k1) + c2 * k2;
                }
            }
            _ => unreachable!("chunks_exact(4) leaves at most three"),
        }
    }

    // N_i(v): source partitions other than i, over p.
    let pf = p as f64;
    let n_holding = neighbour_parts_total.saturating_sub(1) as f64 / pf;
    let n_other = neighbour_parts_total as f64 / pf;
    let mut best = 0usize;
    let mut best_value = f64::NEG_INFINITY;
    let mut runner_up = f64::NEG_INFINITY;
    for (i, ((&c, &ti), &b)) in counts.iter().zip(t.iter()).zip(balance).enumerate() {
        let n = if c > 0 { n_holding } else { n_other };
        let v = -n * ti - b;
        let better = v > best_value + 1e-12
            || ((v - best_value).abs() <= 1e-12 && loads[i] < loads[best] - 1e-12);
        if better {
            runner_up = best_value;
            best = i;
            best_value = v;
        } else if v > runner_up {
            runner_up = v;
        }
    }
    ScoredPartition {
        part: best as u32,
        value: best_value,
        margin: if runner_up == f64::NEG_INFINITY {
            f64::INFINITY
        } else {
            best_value - runner_up
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_topology::{BandwidthMatrix, MachineModel};

    /// Specification scorer, the oracle for [`best_partition_in`]: finds
    /// the partition with the highest assignment value for a vertex, one
    /// [`value_of`] call per candidate.
    ///
    /// Ties are broken towards the lighter partition, and then towards the
    /// lower partition id, so the stream is fully deterministic.
    fn best_partition(
        counts: &[u32],
        cost: &CostMatrix,
        alpha: f64,
        loads: &[f64],
        expected: &[f64],
    ) -> u32 {
        best_partition_with_margin(counts, cost, alpha, loads, expected).part
    }

    /// Like [`best_partition`], additionally reporting the winner's value and
    /// its margin over the runner-up. The winning partition is identical to
    /// [`best_partition`]'s — the extra bookkeeping never changes tie-breaking.
    fn best_partition_with_margin(
        counts: &[u32],
        cost: &CostMatrix,
        alpha: f64,
        loads: &[f64],
        expected: &[f64],
    ) -> ScoredPartition {
        debug_assert_eq!(counts.len(), loads.len());
        debug_assert_eq!(counts.len(), cost.num_units());
        let mut best = 0u32;
        let mut best_value = f64::NEG_INFINITY;
        let mut runner_up = f64::NEG_INFINITY;
        for i in 0..counts.len() {
            let v = value_of(counts, i as u32, cost, alpha, loads[i], expected[i]);
            let better = v > best_value + 1e-12
                || ((v - best_value).abs() <= 1e-12 && loads[i] < loads[best as usize] - 1e-12);
            if better {
                runner_up = best_value;
                best = i as u32;
                best_value = v;
            } else if v > runner_up {
                runner_up = v;
            }
        }
        ScoredPartition {
            part: best,
            value: best_value,
            margin: if runner_up == f64::NEG_INFINITY {
                f64::INFINITY
            } else {
                best_value - runner_up
            },
        }
    }

    #[test]
    fn vertex_prefers_the_partition_with_its_neighbours() {
        let cost = CostMatrix::uniform(3);
        // All 4 neighbours in partition 1; loads equal.
        let counts = vec![0u32, 4, 0];
        let loads = vec![10.0, 10.0, 10.0];
        let expected = vec![10.0, 10.0, 10.0];
        let best = best_partition(&counts, &cost, 0.1, &loads, &expected);
        assert_eq!(best, 1);
        // Its value must beat the alternatives.
        let v1 = value_of(&counts, 1, &cost, 0.1, 10.0, 10.0);
        let v0 = value_of(&counts, 0, &cost, 0.1, 10.0, 10.0);
        assert!(v1 > v0);
    }

    #[test]
    fn large_alpha_pushes_towards_the_lightest_partition() {
        let cost = CostMatrix::uniform(3);
        let counts = vec![0u32, 4, 0];
        let loads = vec![20.0, 30.0, 5.0];
        let expected = vec![10.0, 10.0, 10.0];
        // With a huge alpha the balance term dominates: partition 2 wins even
        // though the neighbours are in partition 1.
        let best = best_partition(&counts, &cost, 1e6, &loads, &expected);
        assert_eq!(best, 2);
        // With alpha = 0 the communication term alone decides.
        let best = best_partition(&counts, &cost, 0.0, &loads, &expected);
        assert_eq!(best, 1);
    }

    #[test]
    fn architecture_awareness_prefers_cheap_links() {
        // Three units: 0 and 1 are close (cost 1), unit 2 is far from both
        // (cost 2). Neighbours live in units 0 and 1.
        let cost = CostMatrix::from_raw(
            3,
            vec![
                0.0, 1.0, 2.0, //
                1.0, 0.0, 2.0, //
                2.0, 2.0, 0.0,
            ],
        );
        let counts = vec![3u32, 3, 0];
        let loads = vec![10.0, 10.0, 0.0];
        let expected = vec![10.0, 10.0, 10.0];
        // Candidate 0 or 1: remote neighbours reachable over cost-1 links.
        // Candidate 2: everything remote over cost-2 links. Even though unit
        // 2 is empty (better balance), a small alpha keeps the vertex near
        // its neighbours.
        let best = best_partition(&counts, &cost, 0.01, &loads, &expected);
        assert!(best == 0 || best == 1);
        let v0 = value_of(&counts, 0, &cost, 0.01, 10.0, 10.0);
        let v2 = value_of(&counts, 2, &cost, 0.01, 0.0, 10.0);
        assert!(v0 > v2);
    }

    #[test]
    fn own_partition_neighbours_are_excluded_from_n_and_cost() {
        let cost = CostMatrix::uniform(2);
        // 5 neighbours in partition 0, 1 in partition 1.
        let counts = vec![5u32, 1];
        // Hosted on 0: only the single remote neighbour contributes, and only
        // one remote partition counts.
        let v_home = value_of(&counts, 0, &cost, 0.0, 0.0, 1.0);
        assert!((v_home - (-(1.0 / 2.0) * 1.0)).abs() < 1e-12);
        // Hosted on 1: five remote neighbours over one remote partition.
        let v_away = value_of(&counts, 1, &cost, 0.0, 0.0, 1.0);
        assert!((v_away - (-(1.0 / 2.0) * 5.0)).abs() < 1e-12);
        assert!(v_home > v_away);
    }

    #[test]
    fn ties_break_towards_the_lighter_partition() {
        let cost = CostMatrix::uniform(3);
        let counts = vec![0u32, 0, 0]; // isolated vertex: communication is moot
        let loads = vec![5.0, 3.0, 5.0];
        let expected = vec![4.0, 4.0, 4.0];
        let best = best_partition(&counts, &cost, 1.0, &loads, &expected);
        assert_eq!(best, 1);
        // Full tie (identical loads) goes to the lowest id.
        let best = best_partition(&counts, &cost, 1.0, &[2.0, 2.0, 2.0], &expected);
        assert_eq!(best, 0);
    }

    #[test]
    fn value_is_monotone_in_load() {
        let cost = CostMatrix::uniform(2);
        let counts = vec![1u32, 1];
        let light = value_of(&counts, 0, &cost, 2.0, 1.0, 10.0);
        let heavy = value_of(&counts, 0, &cost, 2.0, 9.0, 10.0);
        assert!(light > heavy);
    }

    #[test]
    fn scratch_scorer_is_bit_identical_to_the_reference_scorer() {
        // Every part count from 1 to 96, every nonzero-part count from 0 to
        // 9 (each remainder of the four-column sweep), over unit-uniform,
        // archer-shaped and random heterogeneous matrices. Even cases are
        // tie-heavy: small counts, loads from {0, 1, 2} and α from
        // {0, 1e-13, 1, 3}, so equal values and the lighter-part and
        // lower-id tie-breaks decide.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut scratch = ValueScratch::new();
        for p in [1usize, 2, 3, 4, 5, 7, 24, 96] {
            let raw: Vec<f64> = (0..p * p).map(|_| 0.5 + next() * 1.5).collect();
            let machine = MachineModel::archer_like(p);
            let costs = [
                CostMatrix::uniform(p),
                CostMatrix::from_raw(p, raw),
                CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.0, 1)),
            ];
            for (k, cost) in costs.iter().enumerate() {
                for nonzero in 0..=p.min(9) {
                    for case in 0..24usize {
                        let tie_heavy = case % 2 == 0;
                        let mut counts = vec![0u32; p];
                        let mut placed = 0;
                        while placed < nonzero {
                            let j = ((next() * p as f64) as usize).min(p - 1);
                            if counts[j] == 0 {
                                let spread = if tie_heavy { 2.0 } else { 9.0 };
                                counts[j] = 1 + (next() * spread) as u32;
                                placed += 1;
                            }
                        }
                        let (loads, alpha): (Vec<f64>, f64) = if tie_heavy {
                            (
                                (0..p).map(|_| (next() * 3.0).floor()).collect(),
                                [0.0, 1e-13, 1.0, 3.0][(case / 2) % 4],
                            )
                        } else {
                            ((0..p).map(|_| next() * 20.0).collect(), next() * 50.0)
                        };
                        let expected = vec![10.0f64; p];
                        let balance: Vec<f64> = loads
                            .iter()
                            .zip(&expected)
                            .map(|(&w, &e)| balance_term(alpha, w, e))
                            .collect();
                        let reference =
                            best_partition_with_margin(&counts, cost, alpha, &loads, &expected);
                        let fast = best_partition_in(&counts, cost, &loads, &balance, &mut scratch);
                        let at = format!("p {p}, matrix {k}, nonzero {nonzero}, case {case}");
                        assert_eq!(fast.part, reference.part, "{at}");
                        assert_eq!(fast.value.to_bits(), reference.value.to_bits(), "{at}");
                        assert_eq!(fast.margin.to_bits(), reference.margin.to_bits(), "{at}");
                    }
                }
            }
        }
    }
}
