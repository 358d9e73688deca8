//! The batched candidate-frontier subsystem.
//!
//! Level-wise subgroup search spends its non-scoring time materializing
//! refinements: every `(frontier parent, condition)` pair needs the
//! intersection of the parent's extension with the condition's row mask,
//! its popcount for the coverage filters, and a dedup decision. Done one
//! `BitSet::and` at a time that is an allocation plus two word traversals
//! per candidate, with the condition masks re-evaluated or scattered
//! across the heap. This crate batches the whole pass:
//!
//! * [`MaskMatrix`] — **the bit-matrix.** Every condition mask of the
//!   description language, evaluated once per dataset and packed row-major
//!   into a word arena per row-range shard of a word-aligned
//!   [`sisd_data::ShardPlan`] (structure-of-arrays; see the type docs for
//!   the exact layout). One shard is the dense unsharded layout. Search
//!   levels, strategies, and repeated searches over the same dataset all
//!   reuse the same rows.
//! * [`sisd_data::kernels`] — **word-blocked kernels.** The fused
//!   AND+popcount primitives live next to `BitSet` in `sisd-data`:
//!   count-only block kernels ([`sisd_data::kernels::and_count_many_select`],
//!   [`sisd_data::kernels::and_count_grid_select`]) for the counting pass
//!   and a store-only AND ([`sisd_data::kernels::and_into`]) for
//!   materialization.
//! * [`FrontierBuilder`] — **count-first deterministic parallel
//!   refinement.** Pass 1 computes support counts for every allowed
//!   `(parent, row)` pair with *no store traffic* (per shard, summed in
//!   shard order — exact integers); the support filters and a
//!   caller-supplied keep predicate ([`FrontierBuilder::refine_with_prune`]
//!   — dedup signature checks, branch-and-bound optimistic bounds) run
//!   serially on the totals; pass 2 materializes only the survivors into a
//!   [`ChildBatch`] — metadata plus one packed word arena, each child's
//!   words written shard by shard into its slot. A rejected candidate
//!   never writes a word, and a heap allocation is paid only when a
//!   surviving child is materialized as a `BitSet`
//!   ([`ChildBatch::child_bitset`]). The builder has two routes: on the
//!   calling thread over a cache-sized matrix the passes fuse per row
//!   block; otherwise they run over `(parent tile, row block, shard)`
//!   work items on the worker pool, merged in item order.
//!
//! # Determinism contract
//!
//! [`FrontierBuilder::refine_parents`] returns children ordered by
//! `(parent, row)` — the exact visit order of the serial nested loop —
//! **at any thread count and any shard count**. Each child's words are a
//! pure function of its parent and row, so the output is bit-identical
//! however the work was scheduled or partitioned. Order-sensitive
//! post-passes (first-wins dedup, top-k selection, batch scoring through
//! `sisd-search`'s evaluator) therefore behave as if the search were
//! single-threaded and unsharded, mirroring the `Evaluator::score_all`
//! contract one layer up.

pub mod builder;
pub mod matrix;
#[cfg(test)]
mod sharded;

pub use builder::{ChildBatch, ChildMeta, FrontierBuilder, FrontierConfig, ParentSpec};
pub use matrix::MaskMatrix;
