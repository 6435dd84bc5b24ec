//! Fine-grained chunking and maximum-marginal-relevance retrieval (§3.1).
//!
//! The paper's key retrieval choices, reproduced here:
//!
//! * **no size-based chunking** — each column label becomes its own
//!   document of at most [`MAX_DOC_TOKENS`] (80) tokens, so similarity
//!   search is never diluted by unrelated neighbouring descriptions;
//! * **MMR** re-ranking (Carbonell & Goldstein 1998) balances relevance
//!   against redundancy when picking the top [`TOP_K_PER_PROMPT`] (20)
//!   documents per prompt;
//! * retrieval runs for **four prompts** — the user query, the assigned
//!   task, the full plan, and an "\[IMPORTANT\]" prompt boosting columns
//!   tagged important — returning up to 80 documents overall.

use crate::embed::{cosine, embed, tokenize};
use serde::{Deserialize, Serialize};

/// Maximum tokens per document (fine-grained chunking bound).
pub const MAX_DOC_TOKENS: usize = 80;
/// Documents selected per prompt.
pub const TOP_K_PER_PROMPT: usize = 20;
/// MMR relevance/diversity trade-off.
pub const MMR_LAMBDA: f32 = 0.5;

/// One retrievable document: a single column (or structure topic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Doc {
    /// Stable key — the column label for column docs.
    pub key: String,
    /// Owning entity ("halos", "galaxies", ...; empty for structure docs).
    pub entity: String,
    /// The chunk text (truncated to `MAX_DOC_TOKENS` tokens).
    pub text: String,
    /// Boosted by the "\[IMPORTANT\]" prompt.
    pub important: bool,
}

impl Doc {
    /// Build a doc, enforcing the chunk-size bound by word truncation.
    pub fn new(key: &str, entity: &str, text: &str, important: bool) -> Doc {
        let words: Vec<&str> = text.split_whitespace().collect();
        let text = if words.len() > MAX_DOC_TOKENS {
            words[..MAX_DOC_TOKENS].join(" ")
        } else {
            text.to_string()
        };
        Doc {
            key: key.to_string(),
            entity: entity.to_string(),
            text,
            important,
        }
    }

    /// Token count of the chunk.
    pub fn token_count(&self) -> usize {
        tokenize(&self.text).len()
    }
}

/// One retrieval hit: an indexed document and its relevance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit<'a> {
    pub doc: &'a Doc,
    pub score: f32,
}

/// Embedding index over a document set.
///
/// Built once per session and shared by every run: beside the embeddings
/// it holds everything about MMR that does not depend on the query — the
/// document–document similarity table and the selection of the constant
/// "\[IMPORTANT\]" prompt.
#[derive(Debug, Clone)]
pub struct Retriever {
    docs: Vec<Doc>,
    embeddings: Vec<Vec<f32>>,
    /// `sim[i * n + j]` is `cosine(embeddings[i], embeddings[j])`.
    /// `x * y == y * x` in IEEE arithmetic and `cosine` sums in index
    /// order, so the table is symmetric to the bit and each pair is
    /// computed once; the diagonal is never read and stays 0.
    sim: Vec<f32>,
    /// Document indices the "\[IMPORTANT\]" prompt selects, in pick order.
    important_picks: Vec<usize>,
}

impl Retriever {
    /// Index a document set.
    pub fn new(docs: Vec<Doc>) -> Retriever {
        let embeddings: Vec<Vec<f32>> = docs
            .iter()
            .map(|d| embed(&format!("{} {} {}", d.entity, d.key, d.text)))
            .collect();
        let n = docs.len();
        let mut sim = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i + 1..n {
                let s = cosine(&embeddings[i], &embeddings[j]);
                sim[i * n + j] = s;
                sim[j * n + i] = s;
            }
        }
        let mut retriever = Retriever {
            docs,
            embeddings,
            sim,
            important_picks: Vec::new(),
        };
        let names: Vec<&str> = retriever
            .docs
            .iter()
            .filter(|d| d.important)
            .map(|d| d.key.as_str())
            .collect();
        let important_prompt = format!("[IMPORTANT] key columns: {}", names.join(" "));
        retriever.important_picks = retriever
            .mmr_picks(&important_prompt, TOP_K_PER_PROMPT)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        retriever
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// All indexed documents.
    pub fn docs(&self) -> &[Doc] {
        &self.docs
    }

    /// Cosine of every document against `query`, in index order.
    fn relevance(&self, query: &str) -> Vec<f32> {
        let q = embed(query);
        self.embeddings.iter().map(|e| cosine(e, &q)).collect()
    }

    /// Pure relevance ranking (no diversity term): the top `k` documents
    /// by cosine similarity. Used when *precision* matters more than
    /// coverage (e.g. resolving one metric phrase to one column).
    pub fn top_hits(&self, query: &str, k: usize) -> Vec<Hit<'_>> {
        let mut scored: Vec<(f32, usize)> = self
            .relevance(query)
            .into_iter()
            .enumerate()
            .map(|(i, score)| (score, i))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored
            .into_iter()
            .take(k)
            .map(|(score, i)| Hit {
                doc: &self.docs[i],
                score,
            })
            .collect()
    }

    /// MMR selection of `k` documents for one query.
    ///
    /// Iteratively picks the document maximizing
    /// `λ·sim(query, d) − (1−λ)·max over selected s of sim(d, s)`,
    /// the first-visited document winning a tie.
    pub fn mmr(&self, query: &str, k: usize) -> Vec<Hit<'_>> {
        self.mmr_picks(query, k)
            .into_iter()
            .map(|(i, score)| Hit {
                doc: &self.docs[i],
                score,
            })
            .collect()
    }

    /// [`Retriever::mmr`] as `(document index, relevance)` pairs.
    ///
    /// O(k·n): the redundancy term of each candidate is a running maximum
    /// over the similarity table, raised once per pick, where the textbook
    /// loop recomputes every candidate–selected cosine for every pick
    /// (O(k²·n·dim)). The maximum is taken over the same values in the
    /// same (pick) order as that loop's `fold(0.0, f32::max)`, so scores,
    /// and with them the selection and its tie-breaks, are equal to the
    /// bit — `tests/properties.rs` holds this against the quadratic loop.
    fn mmr_picks(&self, query: &str, k: usize) -> Vec<(usize, f32)> {
        let n = self.docs.len();
        let rel = self.relevance(query);
        let mut redundancy = vec![0.0f32; n];
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut picks: Vec<(usize, f32)> = Vec::with_capacity(k.min(n));
        while picks.len() < k {
            let mut best: Option<(f32, usize)> = None; // (score, pos-in-remaining)
            for (pos, &i) in remaining.iter().enumerate() {
                let score = MMR_LAMBDA * rel[i] - (1.0 - MMR_LAMBDA) * redundancy[i];
                match best {
                    Some((bs, _)) if bs >= score => {}
                    _ => best = Some((score, pos)),
                }
            }
            // No candidate left: the corpus is smaller than `k`.
            let Some((_, pos)) = best else { break };
            let pick = remaining.swap_remove(pos);
            picks.push((pick, rel[pick]));
            let sim_to_pick = &self.sim[pick * n..(pick + 1) * n];
            for (r, &s) in redundancy.iter_mut().zip(sim_to_pick) {
                *r = r.max(s);
            }
        }
        picks
    }

    /// The paper's four-prompt retrieval: user query, assigned task, full
    /// plan, and the "\[IMPORTANT\]" prompt over important-tagged columns.
    /// Returns the deduplicated union (≤ 4 × `TOP_K_PER_PROMPT` docs) in
    /// first-retrieved order.
    pub fn retrieve_for_task(&self, user_query: &str, task: &str, plan: &str) -> Vec<Doc> {
        let picks = [user_query, task, plan]
            .into_iter()
            .flat_map(|prompt| self.mmr_picks(prompt, TOP_K_PER_PROMPT))
            .map(|(i, _)| i)
            .chain(self.important_picks.iter().copied());
        let mut seen = vec![false; self.docs.len()];
        let mut out: Vec<Doc> = Vec::new();
        for i in picks {
            if !std::mem::replace(&mut seen[i], true) {
                out.push(self.docs[i].clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Doc> {
        vec![
            Doc::new(
                "fof_halo_mass",
                "halos",
                "Total mass of the friends-of-friends halo in Msun/h; use for mass functions and largest-halo selections.",
                true,
            ),
            Doc::new(
                "fof_halo_count",
                "halos",
                "Number of dark matter particles in the halo, a proxy for halo size.",
                true,
            ),
            Doc::new(
                "sod_halo_MGas500c",
                "halos",
                "Gas mass enclosed within density 500 times the critical density; divide by M500c for the gas fraction.",
                true,
            ),
            Doc::new(
                "gal_stellar_mass",
                "galaxies",
                "Stellar mass of the galaxy; the y axis of the stellar-to-halo mass relation.",
                true,
            ),
            Doc::new(
                "gal_sfr",
                "galaxies",
                "Instantaneous star formation rate of the galaxy.",
                false,
            ),
            Doc::new(
                "core_vx",
                "cores",
                "Velocity of the core particle along x.",
                false,
            ),
        ]
    }

    #[test]
    fn doc_truncation_enforced() {
        let long = "word ".repeat(500);
        let d = Doc::new("k", "e", &long, false);
        assert!(d.token_count() <= MAX_DOC_TOKENS);
        assert_eq!(d.text.split_whitespace().count(), MAX_DOC_TOKENS);
    }

    #[test]
    fn mmr_top_hit_is_relevant() {
        let r = Retriever::new(corpus());
        let hits = r.mmr("what is the gas mass fraction of massive halos", 3);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].doc.key, "sod_halo_MGas500c");
    }

    #[test]
    fn mmr_prefers_diversity_over_duplicates() {
        // Two near-identical docs + one distinct: with k=2 the second
        // pick should be the distinct doc, not the near-duplicate.
        let docs = vec![
            Doc::new("a1", "t", "halo gas mass fraction critical density", false),
            Doc::new("a2", "t", "halo gas mass fraction critical density overdensity", false),
            Doc::new("b", "t", "galaxy stellar mass star formation", false),
        ];
        let r = Retriever::new(docs);
        let hits = r.mmr("gas mass fraction", 2);
        let keys: Vec<&str> = hits.iter().map(|h| h.doc.key.as_str()).collect();
        assert!(keys.contains(&"b"), "{keys:?}");
    }

    #[test]
    fn k_larger_than_corpus_returns_all() {
        let r = Retriever::new(corpus());
        assert_eq!(r.mmr("anything", 100).len(), corpus().len());
    }

    #[test]
    fn four_prompt_retrieval_dedupes_and_bounds() {
        let r = Retriever::new(corpus());
        let docs = r.retrieve_for_task(
            "average halo size per timestep",
            "load halo counts",
            "1. load halos 2. group by step 3. average",
        );
        assert!(docs.len() <= 4 * TOP_K_PER_PROMPT);
        let mut keys: Vec<(String, String)> = docs
            .iter()
            .map(|d| (d.entity.clone(), d.key.clone()))
            .collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "duplicates leaked");
        // The important columns surface through the [IMPORTANT] prompt.
        assert!(docs.iter().any(|d| d.key == "fof_halo_count"));
    }

    #[test]
    fn retrieval_is_deterministic() {
        let r = Retriever::new(corpus());
        let a = r.retrieve_for_task("q", "t", "p");
        let b = r.retrieve_for_task("q", "t", "p");
        assert_eq!(a, b);
    }
}
