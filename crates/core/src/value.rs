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
    -n * t - alpha * load / expected
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
    t: Vec<f64>,
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
/// Ties are broken towards the lighter partition, and then towards the
/// lower partition id, so the stream is fully deterministic.
///
/// The naive scorer evaluates [`value_of`] per candidate — `O(p²)` matrix
/// reads per vertex even when the vertex's neighbours touch only a handful
/// of partitions. This version accumulates the communication terms
/// `t_i = Σ_j X_j(v) · C(i,j)` one *source* partition `j` with `X_j > 0`
/// at a time over the contiguous column cache ([`CostMatrix::col`]),
/// so the work is `O(p · |{j : X_j > 0}|)`; for unit-uniform matrices
/// ([`CostMatrix::is_unit_uniform`]) the terms collapse to the exact
/// integers `Σ_j X_j − X_i` and the matrix is never touched.
///
/// For every candidate `i` the contributions are added in the same
/// ascending-`j` order [`value_of`] uses, so the result — winner, value,
/// margin and tie-breaking — is **bit-identical** to the naive
/// per-candidate scorer (kept as the test oracle); the engine equivalence
/// tests rely on this.
pub fn best_partition_in(
    counts: &[u32],
    cost: &CostMatrix,
    alpha: f64,
    loads: &[f64],
    expected: &[f64],
    scratch: &mut ValueScratch,
) -> ScoredPartition {
    debug_assert_eq!(counts.len(), loads.len());
    debug_assert_eq!(counts.len(), cost.num_units());
    let p = counts.len();
    let t = &mut scratch.t;
    t.clear();
    t.resize(p, 0.0);
    let mut neighbour_parts_total = 0u32;
    if cost.is_unit_uniform() {
        // Exact integer shortcut: every off-diagonal cost is 1.0, so
        // t_i = Σ_j X_j − X_i. Counts are u32 integers, so the sums are
        // exact and bitwise equal to the ordered accumulation.
        let mut total = 0u64;
        for &c in counts {
            if c > 0 {
                neighbour_parts_total += 1;
                total += u64::from(c);
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            t[i] = (total - u64::from(c)) as f64;
        }
    } else {
        for (j, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            neighbour_parts_total += 1;
            let cj = c as f64;
            for (ti, &cij) in t.iter_mut().zip(cost.col(j)) {
                *ti += cj * cij;
            }
        }
    }

    let pf = p as f64;
    let mut best = 0u32;
    let mut best_value = f64::NEG_INFINITY;
    let mut runner_up = f64::NEG_INFINITY;
    for i in 0..p {
        let neighbour_parts = neighbour_parts_total - u32::from(counts[i] > 0);
        let n = neighbour_parts as f64 / pf;
        let v = -n * t[i] - alpha * loads[i] / expected[i];
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // Pseudo-random but deterministic instances over both a unit-uniform
        // and a genuinely heterogeneous cost matrix.
        let p = 7usize;
        let mut raw = vec![0.0f64; p * p];
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for v in raw.iter_mut() {
            *v = 0.5 + next() * 1.5;
        }
        let aware = CostMatrix::from_raw(p, raw);
        let uniform = CostMatrix::uniform(p);
        let mut scratch = ValueScratch::new();
        for cost in [&uniform, &aware] {
            for case in 0..200 {
                let counts: Vec<u32> = (0..p)
                    .map(|i| {
                        if (case + i) % 3 == 0 {
                            0
                        } else {
                            (next() * 9.0) as u32
                        }
                    })
                    .collect();
                let loads: Vec<f64> = (0..p).map(|_| next() * 20.0).collect();
                let expected = vec![10.0f64; p];
                let alpha = next() * 50.0;
                let reference = best_partition_with_margin(&counts, cost, alpha, &loads, &expected);
                let fast = best_partition_in(&counts, cost, alpha, &loads, &expected, &mut scratch);
                assert_eq!(fast.part, reference.part, "case {case}");
                assert_eq!(
                    fast.value.to_bits(),
                    reference.value.to_bits(),
                    "case {case}"
                );
                assert_eq!(
                    fast.margin.to_bits(),
                    reference.margin.to_bits(),
                    "case {case}"
                );
            }
        }
    }
}
