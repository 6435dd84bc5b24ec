//! Property-based tests for the RAG layer: embedding and retrieval
//! invariants over arbitrary text.

use infera_rag::{
    cosine, embed, tokenize, Doc, Retriever, MAX_DOC_TOKENS, MMR_LAMBDA, TOP_K_PER_PROMPT,
};
use proptest::prelude::*;

/// The textbook MMR loop `Retriever::mmr` replaced, kept as the reference
/// the linear-time form must equal to the bit: for every pick it recomputes
/// the cosine of every remaining document against every selected one.
/// Returns `(document index, relevance)` in pick order.
fn mmr_quadratic(docs: &[Doc], query: &str, k: usize) -> Vec<(usize, f32)> {
    let embeddings: Vec<Vec<f32>> = docs
        .iter()
        .map(|d| embed(&format!("{} {} {}", d.entity, d.key, d.text)))
        .collect();
    let q = embed(query);
    let rel: Vec<f32> = embeddings.iter().map(|e| cosine(e, &q)).collect();
    let mut selected: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = (0..docs.len()).collect();
    while selected.len() < k && !remaining.is_empty() {
        let mut best: Option<(f32, usize, usize)> = None; // (score, pos-in-remaining, doc idx)
        for (pos, &i) in remaining.iter().enumerate() {
            let redundancy = selected
                .iter()
                .map(|&s| cosine(&embeddings[i], &embeddings[s]))
                .fold(0.0f32, f32::max);
            let score = MMR_LAMBDA * rel[i] - (1.0 - MMR_LAMBDA) * redundancy;
            match best {
                Some((bs, _, _)) if bs >= score => {}
                _ => best = Some((score, pos, i)),
            }
        }
        let (_, pos, i) = best.expect("remaining non-empty");
        remaining.swap_remove(pos);
        selected.push(i);
    }
    selected.into_iter().map(|i| (i, rel[i])).collect()
}

/// A few texts with shared vocabulary; drawing documents from so small a
/// pool makes exact duplicates (and with them exact score ties) the rule.
const TEXT_POOL: [&str; 6] = [
    "halo gas mass fraction critical density",
    "halo gas mass",
    "galaxy stellar mass star formation rate",
    "velocity of the core particle along x",
    "number of dark matter particles in the halo",
    "",
];

/// Queries over the same vocabulary, including ones that embed to zero
/// (empty, stopwords only), where every relevance is 0 and only the
/// tie-break decides.
const QUERY_POOL: [&str; 6] = [
    "",
    "the of and",
    "gas mass fraction of halos",
    "halo gas mass",
    "star formation",
    "velocity dispersion",
];

fn pooled_docs(picks: &[(usize, bool)], unique_keys: bool) -> Vec<Doc> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &(t, important))| {
            let key = if unique_keys {
                format!("col_{i}")
            } else {
                format!("col_{t}")
            };
            Doc::new(&key, "halos", TEXT_POOL[t], important)
        })
        .collect()
}

proptest! {
    /// Embeddings are always unit-norm (or exactly zero for contentless
    /// text), so cosine similarities are bounded.
    #[test]
    fn embeddings_normalized(text in "\\PC{0,300}") {
        let e = embed(&text);
        let norm: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm.abs() < 1e-4 || (norm - 1.0).abs() < 1e-4, "norm {norm}");
    }

    /// Cosine similarity is symmetric and bounded to [-1, 1].
    #[test]
    fn cosine_bounded_symmetric(a in "\\PC{0,120}", b in "\\PC{0,120}") {
        let ea = embed(&a);
        let eb = embed(&b);
        let ab = cosine(&ea, &eb);
        let ba = cosine(&eb, &ea);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0001..=1.0001).contains(&ab), "cos {ab}");
    }

    /// Self-similarity of non-empty text is 1.
    #[test]
    fn self_similarity(text in "[a-z]{2,30}( [a-z]{2,30}){0,10}") {
        let e = embed(&text);
        if e.iter().any(|&x| x != 0.0) {
            prop_assert!((cosine(&e, &e) - 1.0).abs() < 1e-4);
        }
    }

    /// The tokenizer never panics and produces no empty or 1-char tokens.
    #[test]
    fn tokenizer_well_formed(text in "\\PC{0,300}") {
        for tok in tokenize(&text) {
            prop_assert!(tok.len() >= 2);
            prop_assert!(tok.chars().all(|c| c.is_ascii_alphanumeric()));
        }
    }

    /// Documents always respect the chunk-size bound.
    #[test]
    fn chunk_bound(text in "\\PC{0,2000}") {
        let d = Doc::new("k", "e", &text, false);
        prop_assert!(d.token_count() <= MAX_DOC_TOKENS);
    }

    /// MMR returns at most k distinct documents, deterministically.
    #[test]
    fn mmr_bounds_and_determinism(
        texts in proptest::collection::vec("[a-z]{3,12}( [a-z]{3,12}){1,6}", 1..20),
        k in 1usize..25,
        query in "[a-z]{3,12}( [a-z]{3,12}){0,4}",
    ) {
        let docs: Vec<Doc> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| Doc::new(&format!("d{i}"), "t", t, false))
            .collect();
        let n = docs.len();
        let r = Retriever::new(docs);
        let hits1 = r.mmr(&query, k);
        let hits2 = r.mmr(&query, k);
        prop_assert_eq!(&hits1, &hits2);
        prop_assert_eq!(hits1.len(), k.min(n));
        let mut keys: Vec<&str> = hits1.iter().map(|h| h.doc.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), hits1.len());
    }

    /// Pure-relevance ranking returns scores in non-increasing order.
    #[test]
    fn top_hits_sorted(
        texts in proptest::collection::vec("[a-z]{3,12}( [a-z]{3,12}){1,6}", 1..20),
        query in "[a-z]{3,12}",
    ) {
        let docs: Vec<Doc> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| Doc::new(&format!("d{i}"), "t", t, false))
            .collect();
        let r = Retriever::new(docs);
        let hits = r.top_hits(&query, 10);
        prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    /// The linear-time MMR equals the quadratic reference: same documents
    /// (by index, so a duplicate cannot stand in for its twin), same order,
    /// same score bits — over corpora with exact duplicates, queries that
    /// embed to zero, and `k` below, at and beyond the corpus size.
    #[test]
    fn mmr_equals_quadratic_reference(
        picks in proptest::collection::vec((0usize..TEXT_POOL.len(), any::<bool>()), 1..24),
        query in 0usize..QUERY_POOL.len(),
        k_mode in 0usize..4,
    ) {
        let docs = pooled_docs(&picks, false);
        let n = docs.len();
        let k = [0, 1, n, n + 5][k_mode];
        let query = QUERY_POOL[query];
        let expected = mmr_quadratic(&docs, query, k);
        let r = Retriever::new(docs);
        let hits = r.mmr(query, k);
        prop_assert_eq!(hits.len(), expected.len());
        prop_assert_eq!(hits.len(), k.min(n));
        for (hit, (i, score)) in hits.iter().zip(expected) {
            prop_assert!(
                std::ptr::eq(hit.doc, &r.docs()[i]),
                "picked {:?}, reference picked #{i}",
                hit.doc
            );
            prop_assert_eq!(hit.score.to_bits(), score.to_bits());
        }
    }

    /// Four-prompt retrieval is the reference MMR run on the three given
    /// prompts and the "[IMPORTANT]" prompt, first occurrence kept — the
    /// selection precomputed at index build included.
    #[test]
    fn four_prompt_retrieval_equals_reference(
        picks in proptest::collection::vec((0usize..TEXT_POOL.len(), any::<bool>()), 1..40),
        prompts in (0usize..QUERY_POOL.len(), 0usize..QUERY_POOL.len(), 0usize..QUERY_POOL.len()),
    ) {
        let docs = pooled_docs(&picks, true);
        let important: Vec<&str> = docs
            .iter()
            .filter(|d| d.important)
            .map(|d| d.key.as_str())
            .collect();
        let important_prompt = format!("[IMPORTANT] key columns: {}", important.join(" "));
        let (user_query, task, plan) =
            (QUERY_POOL[prompts.0], QUERY_POOL[prompts.1], QUERY_POOL[prompts.2]);
        let mut expected: Vec<usize> = Vec::new();
        for prompt in [user_query, task, plan, important_prompt.as_str()] {
            for (i, _) in mmr_quadratic(&docs, prompt, TOP_K_PER_PROMPT) {
                if !expected.contains(&i) {
                    expected.push(i);
                }
            }
        }
        let expected: Vec<Doc> = expected.into_iter().map(|i| docs[i].clone()).collect();
        let r = Retriever::new(docs);
        prop_assert_eq!(r.retrieve_for_task(user_query, task, plan), expected);
    }
}
