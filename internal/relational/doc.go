// Package relational implements the data-engine substrate: a vectorized
// expression evaluator and batch-at-a-time physical operators (scan,
// filter, project, hash join, grouped aggregation, sort). It is the
// Spark SQL / SQL Server stand-in that executes the relational part of
// prediction queries — including ML operators that Raven's MLtoSQL rule
// translated to expressions.
//
// # The byte-identity contract
//
// Every alternative execution of a plan — parallel at any DOP, chunk-
// backed scans, spilled breakers, adaptive strategy switches — must
// produce results byte-identical to the in-memory serial execution,
// including row order and float bit patterns. The building blocks:
// scans emit fixed BatchSize batches in partition order; Exchange splits
// scans into row-range morsels aligned to those batch boundaries and
// merges worker results in morsel order; per-worker partial aggregates
// and sort runs are merged in that same order with first-occurrence
// tie-breaks. Chunk-backed partitions preserve the contract by cutting
// batches at BatchSize boundaries, never chunk boundaries — chunks are
// only the storage unit underneath. Serial batches and parallel morsels
// both range-decode exactly their rows from each chunk they overlap, so
// neither keeps decode state and a chunk read in batches is decoded once.
//
// # Pipeline breakers and spilling
//
// The three pipeline breakers (hash-join build, grouped-aggregation
// merge, sort) materialize state and therefore carry the memory-budget
// hooks: each holds a Reservation on its query's MemBudget, a slice of
// the engine-global GlobalBudget, and spills when a grow is denied. The
// breakers of one query share its bytes. There is one HashJoin: inside
// an exchange its probe side is the worker chain and its worker clones
// share one build index. There is one aggregation operator pair per
// aggregate — PartialAggregate/MergeAggregate (global) and
// PartialGroupAggregate/MergeGroupAggregate (GROUP BY) — with the
// partial inline under its merge at DOP 1 and inside the exchange
// workers when the parallel rewrite splits its input.
// Join builds spill their build rows (typed indexes stay resident, so
// probe order is untouched); grouped aggregation grace-hash-partitions
// spilled partial-aggregate state with fold sequence numbers so
// re-folding reproduces the serial per-key fold; sorts write sorted
// runs to disk and k-way merge them externally with the serial
// tie-break. Cleanup removes every spill file on success, error, cancel
// and panic paths alike.
package relational
