// Package engine binds the substrates together: it implements the
// catalog, lowers unified-IR plans to physical operator trees, executes
// them, and converts measured per-operator work into reported end-to-end
// times under an engine profile (Spark-like cluster, SQL Server
// DOP1/16, MADlib-like).
//
// The catalog owns registered tables (in-memory, partitioned, or
// chunk-backed via RegisterChunked), trained model pipelines, and the
// per-{pipeline, column binding} ML session pools that concurrent
// queries check sessions out of. Lowering builds fresh operators per
// execution from immutable optimized IR, which is what lets one cached
// plan run concurrently.
//
// Execution stamps cross-cutting state onto the lowered tree in one
// walk each: the query context (cancellation), the adaptive runtime
// stats, and the memory budget — a per-query slice of the engine-global
// GlobalBudget (Profile.GlobalBudget); the budget's Cleanup is deferred
// for the whole query so reservations and spill files never survive
// error, cancel or panic paths. Executed results report wall
// time, spill volume and adaptive observations back on the Result.
package engine
