//! Deterministic corpus generator: seeded model families for the
//! cold-vs-warm fleet throughput benchmark and `rtcg corpus`.
//!
//! A corpus is a list of named, fully-built models drawn round-robin
//! from five families that between them exercise every analysis path
//! the engine memoizes:
//!
//! * `chain` — [`chain_family_with_deadline`] instances near the
//!   Theorem 2(i) feasibility boundary;
//! * `mok` — deadline-edited variants of the paper's running example
//!   (the sensitivity-sweep workload);
//! * `threepart` — 3-PARTITION yes-instances through
//!   [`encode_three_partition`] (Theorem 2(ii) restriction shape);
//! * `singleop` — [`single_op_family`] clock-plus-items instances;
//! * `random` — randomized communication DAGs carrying a mixed
//!   periodic/sporadic constraint set (the fleet-ingest shape).
//!
//! Generation is pure in `(count, seed)`: spec `i` is derived from its
//! own splitmix-scrambled [`ChaCha8Rng`] stream, so regenerating a
//! corpus — or any prefix of it — reproduces the same models
//! byte-for-byte through [`rtcg_lang::pretty::render_model`].

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtcg_core::model::{Model, ModelBuilder};
use rtcg_core::sensitivity::with_deadline;
use rtcg_core::task::TaskGraphBuilder;
use rtcg_core::ConstraintId;
use rtcg_hardness::encode::encode_three_partition;
use rtcg_hardness::families::{chain_family_with_deadline, single_op_family};
use rtcg_hardness::three_partition::ThreePartition;

/// One generated spec: a stable name (embedding family and index) and
/// the built model.
pub struct CorpusSpec {
    /// `"{family}_{index:05}"` — unique within a corpus, filesystem- and
    /// manifest-safe.
    pub name: String,
    /// The generated model (validated at build time).
    pub model: Model,
}

/// Periods with pairwise-small LCMs, so heuristic synthesis over the
/// hyperperiod stays cheap on every generated model.
const NICE_PERIODS: &[u64] = &[2, 3, 4, 6, 8, 12];

/// Generates `count` specs from `seed` (see module docs). Deterministic
/// and prefix-stable: `generate_corpus(n, s)` is a prefix of
/// `generate_corpus(m, s)` for `n ≤ m`.
pub fn generate_corpus(count: usize, seed: u64) -> Vec<CorpusSpec> {
    (0..count)
        .map(|i| {
            // splitmix-style scramble decorrelates per-spec streams
            // drawn from consecutive indices
            let mut rng =
                ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let (family, model) = match i % 5 {
                0 => ("chain", chain_spec(&mut rng)),
                1 => ("mok", mok_spec(&mut rng)),
                2 => ("threepart", threepart_spec(&mut rng)),
                3 => ("singleop", singleop_spec(&mut rng)),
                _ => ("random", random_spec(&mut rng)),
            };
            CorpusSpec {
                name: format!("{family}_{i:05}"),
                model,
            }
        })
        .collect()
}

/// Chain family at `n ∈ 1..=3` with deadlines from three below to five
/// above `5 + 6(n-1)`, [`chain_family`]'s deadline. For `n ≥ 2` that
/// sits `3(n − 1)` ticks above the measured feasibility boundary
/// `3n + 2` (see its doc), so only at `n = 1` does the range reach
/// below the boundary.
///
/// [`chain_family`]: rtcg_hardness::families::chain_family
fn chain_spec(rng: &mut ChaCha8Rng) -> Model {
    let n = rng.gen_range(1..=3usize);
    let boundary = 5 + 6 * (n as u64 - 1);
    // each chain computes for 3 ticks; deadlines below that would not
    // even validate
    let d = (boundary - 3 + rng.gen_range(0..=8u64)).max(3);
    chain_family_with_deadline(n, d)
}

/// The Mok running example with one constraint's deadline re-pinned —
/// the edit the sensitivity sweep generates. Deadlines below the
/// constraint's computation time are definitionally infeasible
/// ([`with_deadline`] returns `None`); the probe walks upward until the
/// edit is structurally valid.
fn mok_spec(rng: &mut ChaCha8Rng) -> Model {
    let (base, _) = rtcg_core::mok_example::default_model();
    let ix = rng.gen_range(0..base.constraints().len());
    let id = ConstraintId::new(ix as u32);
    let mut d = rng.gen_range(2..=40u64);
    loop {
        match with_deadline(&base, id, d).expect("edit is structurally valid") {
            Some(model) => return model,
            None => d += 1,
        }
    }
}

/// 3-PARTITION single-triple yes-instances with loosened deadlines.
/// Corpus instances use `m = 1`, `B = 12` (items `{4, 4, 4}`) rather
/// than [`ThreePartition::generate_yes`]'s `B = 20` at `m ∈ {1, 2}`:
/// the larger encodings defeat the heuristic and push every spec into
/// a multi-second game-solver run, and a fleet bench wants many cheap
/// specs over few expensive ones. Variety comes from re-pinning one
/// constraint's deadline, the same probe shape the sensitivity sweep
/// generates.
fn threepart_spec(rng: &mut ChaCha8Rng) -> Model {
    let inst = ThreePartition {
        items: vec![4, 4, 4],
        bound: 12,
    };
    debug_assert!(inst.is_well_formed());
    let base = encode_three_partition(&inst).expect("encoding is valid");
    // constraint 0 is the clock (d = B + 2); 1..=3 the items
    // (d = 2(B + 1)); loosening either keeps the witness feasible
    let ix = rng.gen_range(0..base.constraints().len());
    let d = base.constraints()[ix].deadline + rng.gen_range(0..=8u64);
    with_deadline(&base, ConstraintId::new(ix as u32), d)
        .expect("edit is structurally valid")
        .expect("loosening a deadline stays satisfiable")
}

/// Single-op family at `n ∈ {1, 4}` items, usually with one item's
/// deadline re-pinned a few ticks looser so consecutive specs differ.
fn singleop_spec(rng: &mut ChaCha8Rng) -> Model {
    let n = rng.gen_range(1..=4usize);
    let base = single_op_family(n);
    if rng.gen_bool(0.25) {
        return base;
    }
    // constraint 0 is the clock; 1..=n are items at deadline 3n + 2
    let id = ConstraintId::new(rng.gen_range(1..=n) as u32);
    let d = 3 * n as u64 + 2 + rng.gen_range(1..=6u64);
    with_deadline(&base, id, d)
        .expect("edit is structurally valid")
        .expect("loosening a deadline stays satisfiable")
}

/// Randomized communication DAG with a mixed constraint set: 3–6
/// unit-to-3-weight elements, forward channels with density ~0.4, and
/// 2–4 constraints each either periodic (period from [`NICE_PERIODS`],
/// deadline in `[w, period]`) or asynchronous/sporadic (separation =
/// deadline in `[w, 3w + 4]`) over a random walk through the DAG.
fn random_spec(rng: &mut ChaCha8Rng) -> Model {
    let n = rng.gen_range(3..=6usize);
    let mut b = ModelBuilder::new();
    let elems: Vec<_> = (0..n)
        .map(|i| {
            let w = rng.gen_range(1..=3u64);
            if rng.gen_bool(0.2) {
                b.element_unpipelinable(&format!("e{i}"), w)
            } else {
                b.element(&format!("e{i}"), w)
            }
        })
        .collect();
    // forward edges only: the comm graph stays a DAG by construction
    let mut chans = std::collections::HashSet::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.4) && chans.insert((i, j)) {
                b.channel(elems[i], elems[j]);
            }
        }
    }
    let constraints = rng.gen_range(2..=4usize);
    for c in 0..constraints {
        // a random strictly-increasing element walk = a chain the DAG
        // admits; precedence edges need backing channels, so any the
        // random pass skipped are added here
        let len = rng.gen_range(1..=3.min(n));
        let mut picks: Vec<usize> = (0..n).collect();
        for i in (1..picks.len()).rev() {
            picks.swap(i, rng.gen_range(0..=i));
        }
        let mut walk: Vec<usize> = picks.into_iter().take(len).collect();
        walk.sort_unstable();
        for w in walk.windows(2) {
            if chans.insert((w[0], w[1])) {
                b.channel(elems[w[0]], elems[w[1]]);
            }
        }
        let mut tb = TaskGraphBuilder::new();
        for (k, &e) in walk.iter().enumerate() {
            tb = tb.op(&format!("o{k}"), elems[e]);
            if k > 0 {
                tb = tb.edge(&format!("o{}", k - 1), &format!("o{k}"));
            }
        }
        let task = tb.build().expect("walk chain builds");
        let w: u64 = walk.iter().map(|&e| task_weight(&b, elems[e])).sum();
        if rng.gen_bool(0.5) {
            let period = NICE_PERIODS[rng.gen_range(0..NICE_PERIODS.len())].max(w);
            let d = rng.gen_range(w..=period);
            b.periodic(&format!("p{c}"), task, period, d);
        } else {
            let d = rng.gen_range(w..=3 * w + 4);
            b.asynchronous(&format!("s{c}"), task, d, d);
        }
    }
    b.build().expect("generated model is valid")
}

/// WCET of one element as the builder recorded it.
fn task_weight(b: &ModelBuilder, e: rtcg_core::ElementId) -> u64 {
    b.comm().element(e).expect("element exists").wcet
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_prefix_stable() {
        let a = generate_corpus(25, 7);
        let b = generate_corpus(25, 7);
        let prefix = generate_corpus(10, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                rtcg_lang::pretty::render_model(&x.model),
                rtcg_lang::pretty::render_model(&y.model)
            );
        }
        for (x, p) in a.iter().zip(&prefix) {
            assert_eq!(
                rtcg_lang::pretty::render_model(&x.model),
                rtcg_lang::pretty::render_model(&p.model)
            );
        }
    }

    #[test]
    fn corpus_covers_all_families() {
        let specs = generate_corpus(10, 1);
        for fam in ["chain", "mok", "threepart", "singleop", "random"] {
            assert!(
                specs.iter().any(|s| s.name.starts_with(fam)),
                "family {fam} missing"
            );
        }
    }

    #[test]
    fn every_spec_renders_and_reparses() {
        for spec in generate_corpus(50, 3) {
            let text = rtcg_lang::pretty::render_model(&spec.model);
            let reparsed = rtcg_lang::parse_model(&text)
                .unwrap_or_else(|e| panic!("{}: {}\n{text}", spec.name, e.render(&text)));
            assert_eq!(
                spec.model.content_digest(),
                reparsed.content_digest(),
                "{}: digest drift through render → parse\n{text}",
                spec.name
            );
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let a = generate_corpus(5, 1);
        let b = generate_corpus(5, 2);
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.model.content_digest() != y.model.content_digest()));
    }
}
