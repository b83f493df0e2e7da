// Package quack is QuackDB's public embedded API: an in-process
// analytical database in the spirit of the system described in
// "Data Management for Data Science — Towards Embedded Analytics"
// (Raasveldt & Mühleisen, CIDR 2020).
//
// The database runs inside the application's process and address space,
// so query results are handed to the application as chunks of column
// slices — the engine's own internal representation — without
// serialization or per-value call overhead (§5 of the paper):
//
//	db, _ := quack.Open("data.qdb")
//	defer db.Close()
//	rows, _ := db.Query("SELECT region, sum(revenue) FROM sales GROUP BY region")
//	for {
//	    chunk := rows.NextChunk()
//	    if chunk == nil {
//	        break
//	    }
//	    sums := chunk.Cols[1].F64 // direct slice access, zero copies
//	    ...
//	}
//
// A conventional value-at-a-time API (Next/Scan) is also provided — it
// is deliberately the unflattering baseline the paper compares against.
// Bulk loading goes through the Appender, which fills chunks in place
// and hands them to the storage layer.
//
// Queries use all of the host's cores by default: plans are decomposed
// into morsel-driven pipelines (see internal/exec and
// docs/ARCHITECTURE.md). There is one executor: WithThreads(1) runs the
// same operators with one worker each, inline on the calling goroutine.
// The worker count never changes results — chunks arrive in the same
// deterministic order at every thread count, so the zero-copy chunk API
// above is unaffected.
//
// All queries — across every session — share one engine-wide worker
// pool sized at Open (WithThreads / QUACK_THREADS, resized by PRAGMA
// threads), so the engine's goroutine count stays bounded by the pool
// size no matter how many sessions run concurrently. The pool runs
// morsel-sized steps in turns: the runnable queries form one ring and
// each turn runs one step of the query at its head, so a runnable query
// waits at most one step of each other runnable query however many
// sessions run, and every query keeps up to the pool size of steps
// runnable. Scheduling, like thread count, never changes results.
//
// When a memory budget is enforced (WithMemoryLimit, PRAGMA
// memory_limit, or the QUACK_MEMORY_LIMIT environment variable), the
// budget is engine-wide — it covers every session together, not each
// session separately — and queries pass one admission gate before they
// start: at most one budgeted query runs at a time, and the others wait
// first come, first served, in a queue of at most 32; one more arrival
// fails with a queue-full error. A budget smaller than any query's need
// still admits one query, and the operators below it spill to stay
// within the real limit. Lifting the limit releases every waiter.
//
// PRAGMA rebuild_stats='t' recomputes table t's per-segment zone-map
// statistics exactly from the currently visible rows; runtime
// maintenance only ever widens them, so this tightens the maps back
// after heavy deletes or rolled-back loads.
//
// Scans keep per-segment zone maps (min/max, null counts, maintained at
// append time and persisted through checkpoints) and skip the segments
// a WHERE conjunct refutes — consulting the compressed encodings
// directly, so skipped segments are never decompressed. Skipping never
// changes results; it only avoids touching bytes the filter would
// discard. EXPLAIN reports the pushed predicates and a "by zone maps
// alone, segments skipped: X/Y" note per scan: it reads no payload, so
// the note does not change once a query has loaded a column, and a scan
// may skip more on the payloads it loads. Skipping is not a knob: the
// differential tests compare it against a scan that reads every segment
// in-process, through the Internal() test hook, and
// scan_segments_scanned_total / scan_segments_skipped_total in the
// metrics registry count what scans did.
//
// Segments that survive skipping can still execute without being
// decompressed: exact pushed conjuncts run as selection kernels over
// the compressed payloads themselves — string predicates evaluated
// once against a segment's dictionary and then matched on the packed
// code array, integer ranges rewritten into the frame-of-reference
// delta domain and compared on the bit-packed words, run-length runs
// answered with one comparison per run — and only the surviving rows
// are materialized (late materialization). Like skipping, encoded
// execution never changes results — the full filter still runs on what
// the scan emits — and it steps aside automatically for segments with
// in-flight updates or payload shapes a kernel cannot answer exactly.
// It is not a knob either (the differential tests switch it off the same
// way); because the kernels consume the pushed zone filters, a scan
// without zone maps runs without encoded execution too. EXPLAIN
// ANALYZE reports the measured enc=N and decoded=N selected=N per scan,
// and scan_segments_encoded_total / scan_rows_encoded_selected_total in
// the metrics registry are the cumulative counters.
//
// # Observability
//
// EXPLAIN ANALYZE <select> executes the query and reports the measured
// per-operator tree — rows, wall and busy time, morsels, segments
// scanned/skipped, spill bytes per operator, aggregated across all
// worker threads — plus the parse/bind/optimize/admit_wait/execute
// phase spans. Sorting operators (SORT, WINDOW, a merge JOIN) also
// report key_bytes, the width of one row's normalized sort key, and
// tie_fallbacks, the comparisons that tied on an encoded VARCHAR
// prefix and compared the full strings: a sort of long strings sharing
// their first 14 bytes shows up here. A JOIN line carries build_rows and
// build_bytes — the materialized build side and what the buffer pool
// held for it and its hash table — and fallback=merge when an Auto join
// degraded to the out-of-core merge join because the build did not fit
// the budget. Every statement is profiled, EXPLAIN ANALYZE or not, and
// PRAGMA last_profile returns the profile of the session's most recent
// statement as a single JSON object. Profiles are deterministic where
// the engine is: per-operator row counts are identical at every thread
// count.
//
// The engine also keeps one process-wide metrics registry covering the
// scheduler (steps, step-wait quantiles, runnable depth), admission
// control (admitted/queued/rejected, wait quantiles, queue depth,
// running), the buffer pool (reserved/peak/limit, evictions), durability
// (WAL bytes, checkpoint latency), scans (segments scanned/skipped,
// bytes decompressed), operator spilling and sort-key tie fallbacks
// (sort_key_tie_fallbacks_total). Read it with DB.Metrics /
// DB.WriteMetrics or PRAGMA metrics; histogram
// metrics expand to _count, _sum_ns, _p50_ns and _p99_ns cells. It is
// the one read surface for engine counters: pool_reserved_bytes,
// pool_peak_bytes, wal_bytes, scan_segments_*_total,
// scan_rows_encoded_selected_total, agg_spill_partitions_total,
// agg_spill_bytes_total and sort_spill_bytes_total are cells of it.
// Each query counts its scans, spills and tie fallbacks into an account
// of its own, and the engine adds that account into those eight cells
// once, when the statement ends, whether it succeeded or failed: the
// cells move when a statement finishes, not while it runs, and equal
// the sum of the finished statements' profiles. The slow-query log's
// and last_profile's spill_bytes and EXPLAIN ANALYZE's totals line read
// the same account.
//
// WithLogger installs a log sink; PRAGMA log_min_duration_ms=N then
// emits one JSON line (query, duration_ms, admit_wait_ms, rows,
// spill_bytes and plan, the statement's operator tree as in
// last_profile) for every statement taking at least N milliseconds
// (0 logs everything, negative — the default — disables).
//
// # Knobs
//
// Six options to Open, and no others: WithMemoryLimit, WithThreads,
// WithTmpDir, WithLogger, WithMemTest and WithoutChecksumVerification.
// An application that shares its machine with the engine cooperates
// through the first one's runtime twin: it moves PRAGMA memory_limit as
// its own memory need changes, and admission, spilling and the join's
// merge fallback follow.
//
// Ten PRAGMAs, and no others. Engine-wide (any session; environment
// variables set the default at Open):
//
//	PRAGMA memory_limit='64MB'        QUACK_MEMORY_LIMIT  buffer-pool budget, unset = unlimited
//	PRAGMA threads=N                  QUACK_THREADS       shared worker-pool size, default GOMAXPROCS
//	PRAGMA log_min_duration_ms=N      —                   slow-query log threshold, default -1 (off)
//	PRAGMA memtest=0|1                —                   buffer allocation memory testing
//	PRAGMA checksum_verification=0|1  —                   block checksum verification on read
//	PRAGMA rebuild_stats='t'          —                   recompute table t's zone maps exactly
//
// Accepted and ignored, reading 1: every statement is profiled.
//
//	PRAGMA profiling=0|1
//
// Every PRAGMA above except rebuild_stats reads its current value back
// when given no argument. Read-only:
//
//	PRAGMA last_profile            profile of this session's most recent statement, JSON
//	PRAGMA metrics                 registry snapshot as (name, value) rows
//	PRAGMA database_size           blocks read, written and free
//
// Two environment variables, and no others: QUACK_MEMORY_LIMIT and
// QUACK_THREADS, the defaults above.
package quack

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/types"
	"repro/internal/vector"
)

// Type aliases re-export the engine's native data representation so
// applications can consume chunks directly.
type (
	// Chunk is a horizontal slice of a result set: column vectors of
	// equal length.
	Chunk = vector.Chunk
	// Vector is a typed column slice with a validity mask.
	Vector = vector.Vector
	// Type is a SQL logical type.
	Type = types.Type
	// Value is a boxed SQL value (value-at-a-time API only).
	Value = types.Value
)

// Re-exported logical types.
const (
	Boolean   = types.Boolean
	Integer   = types.Integer
	BigInt    = types.BigInt
	Double    = types.Double
	Varchar   = types.Varchar
	Timestamp = types.Timestamp
)

// Option configures Open.
type Option func(*core.Config)

// WithMemoryLimit caps the engine's buffer pool, in bytes. An embedded
// database shares the machine with its host application and must not
// assume it owns all resources (§4).
func WithMemoryLimit(bytes int64) Option {
	return func(c *core.Config) { c.MemoryLimit = bytes }
}

// WithoutChecksumVerification disables block checksum verification on
// read. Only the resilience ablation (experiment E8) should use this.
func WithoutChecksumVerification() Option {
	return func(c *core.Config) { c.DisableChecksums = true }
}

// WithMemTest enables moving-inversions memory testing of buffer
// allocations (§3's defense against silent RAM corruption).
func WithMemTest() Option {
	return func(c *core.Config) { c.MemTest = true }
}

// WithTmpDir sets the spill directory for out-of-core operators.
func WithTmpDir(dir string) Option {
	return func(c *core.Config) { c.TmpDir = dir }
}

// WithThreads sets the worker-pool size for parallel query pipelines.
// The default comes from the QUACK_THREADS environment variable if set,
// else runtime.GOMAXPROCS(0) — an embedded analytical engine should use
// all of the hardware its host process owns (§6). n = 1 gives every
// operator one worker, run on the calling goroutine; results are
// identical (including row order,
// floating-point sums, and min/max/ORDER BY over NaN-bearing DOUBLE
// columns, which follow a total order with NaN greatest) at every
// setting. PRAGMA threads changes it at runtime.
func WithThreads(n int) Option {
	return func(c *core.Config) { c.Threads = n }
}

// WithLogger installs a sink for engine log lines — today the
// slow-query log: once PRAGMA log_min_duration_ms is set >= 0, every
// statement at or above the threshold emits one JSON line (query,
// duration_ms, admit_wait_ms, rows, spill_bytes). Each call receives
// one complete line without a trailing newline; the sink may be called
// from multiple sessions concurrently. The default is silence.
func WithLogger(sink func(line string)) Option {
	return func(c *core.Config) { c.LogSink = sink }
}

// DB is an embedded database handle, safe for concurrent use.
type DB struct {
	core *core.Database
}

// Open opens or creates the database file at path. Empty path or
// ":memory:" opens a volatile in-memory database.
func Open(path string, opts ...Option) (*DB, error) {
	cfg := core.Config{Path: path}
	for _, o := range opts {
		o(&cfg)
	}
	db, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{core: db}, nil
}

// Close checkpoints and closes the database.
func (db *DB) Close() error { return db.core.Close() }

// Exec runs a statement and returns the number of affected rows.
func (db *DB) Exec(sql string, args ...any) (int64, error) {
	sess := db.core.NewSession()
	params, err := toValues(args)
	if err != nil {
		return 0, err
	}
	results, err := sess.Execute(sql, params...)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, r := range results {
		n += r.RowsAffected
	}
	return n, nil
}

// Query runs a SELECT and returns its result set.
func (db *DB) Query(sql string, args ...any) (*Rows, error) {
	sess := db.core.NewSession()
	return query(sess, sql, args)
}

// Conn is a dedicated session on the database: its last profile (PRAGMA
// last_profile) persists across its queries, unlike DB.Exec/DB.Query
// which run each call on a fresh session. A Conn is not safe for
// concurrent use; open one per goroutine — they are cheap, and all of
// them share the database's worker pool and memory budget.
type Conn struct {
	sess *core.Session
}

// Conn opens a dedicated session.
func (db *DB) Conn() *Conn { return &Conn{sess: db.core.NewSession()} }

// Exec runs a statement on this session and returns the number of
// affected rows.
func (c *Conn) Exec(sql string, args ...any) (int64, error) {
	params, err := toValues(args)
	if err != nil {
		return 0, err
	}
	results, err := c.sess.Execute(sql, params...)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, r := range results {
		n += r.RowsAffected
	}
	return n, nil
}

// Query runs a SELECT on this session and returns its result set.
func (c *Conn) Query(sql string, args ...any) (*Rows, error) {
	return query(c.sess, sql, args)
}

// Checkpoint forces all committed data into the database file and
// truncates the WAL. Fails with an error if transactions are in flight.
func (db *DB) Checkpoint() error { return db.core.Checkpoint() }

// MemoryUsed returns the engine's currently reserved bytes.
func (db *DB) MemoryUsed() int64 { return db.core.Pool().Used() }

// Metrics snapshots the engine-wide metrics registry as a name→value
// map: scheduler, admission control, buffer pool, WAL/checkpoint, scan
// and spill counters in one read. Histogram metrics expand to _count,
// _sum_ns, _p50_ns and _p99_ns cells.
func (db *DB) Metrics() map[string]int64 { return db.core.MetricsMap() }

// WriteMetrics writes the metrics registry in text exposition form —
// one "name value" line per cell, sorted by name.
func (db *DB) WriteMetrics(w io.Writer) error { return db.core.MetricsText(w) }

// Internal returns the underlying engine facade. It is exported for the
// benchmark harness and examples that exercise engine internals; regular
// applications should not need it.
func (db *DB) Internal() *core.Database { return db.core }

func query(sess *core.Session, sql string, args []any) (*Rows, error) {
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	res, err := sess.ExecuteOne(sql, params...)
	if err != nil {
		return nil, err
	}
	if !res.HasRows {
		return &Rows{res: &core.Result{}}, nil
	}
	return &Rows{res: res}, nil
}

// Rows is a materialized result set offering two consumption styles:
// the bulk chunk interface (NextChunk) that hands over the engine's
// column slices directly, and the conventional value-at-a-time
// interface (Next/Scan) kept as the transfer-efficiency baseline.
type Rows struct {
	res      *core.Result
	chunkIdx int
	rowIdx   int
	cur      *Chunk
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.res.Columns }

// Types returns the result column types.
func (r *Rows) Types() []Type { return r.res.Types }

// NumRows returns the total number of rows.
func (r *Rows) NumRows() int64 { return r.res.NumRows() }

// NextChunk returns the next chunk of the result, or nil when the
// result is exhausted. The chunk is the engine's internal
// representation, handed over without copying; treat it as read-only.
func (r *Rows) NextChunk() *Chunk {
	if r.chunkIdx >= len(r.res.Chunks) {
		return nil
	}
	c := r.res.Chunks[r.chunkIdx]
	r.chunkIdx++
	return c
}

// Chunks returns all result chunks.
func (r *Rows) Chunks() []*Chunk { return r.res.Chunks }

// Next advances the value-at-a-time cursor.
func (r *Rows) Next() bool {
	if r.cur != nil && r.rowIdx+1 < r.cur.Len() {
		r.rowIdx++
		return true
	}
	r.cur = r.NextChunk()
	r.rowIdx = 0
	for r.cur != nil && r.cur.Len() == 0 {
		r.cur = r.NextChunk()
	}
	return r.cur != nil
}

// Scan copies the current row into dest pointers (*int64, *int32,
// *float64, *string, *bool, *time.Time, *Value, or *any).
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("quack: Scan called without Next")
	}
	if len(dest) != r.cur.NumCols() {
		return fmt.Errorf("quack: Scan got %d destinations for %d columns", len(dest), r.cur.NumCols())
	}
	for i, d := range dest {
		if err := assign(d, r.cur.Cols[i], r.rowIdx); err != nil {
			return fmt.Errorf("quack: column %d: %w", i, err)
		}
	}
	return nil
}

// Value returns column i of the current row as a boxed Value.
func (r *Rows) Value(i int) Value {
	return r.cur.Cols[i].Get(r.rowIdx)
}

// Close releases the result (no-op for materialized results; kept for
// API familiarity).
func (r *Rows) Close() {}

func assign(dest any, col *Vector, row int) error {
	null := col.IsNull(row)
	switch d := dest.(type) {
	case *int64:
		if null {
			*d = 0
			return nil
		}
		switch col.Type {
		case types.Integer:
			*d = int64(col.I32[row])
		case types.BigInt, types.Timestamp:
			*d = col.I64[row]
		case types.Double:
			*d = int64(col.F64[row])
		case types.Boolean:
			if col.Bools[row] {
				*d = 1
			}
		default:
			return fmt.Errorf("cannot scan %s into *int64", col.Type)
		}
	case *int32:
		if null {
			*d = 0
			return nil
		}
		if col.Type != types.Integer {
			return fmt.Errorf("cannot scan %s into *int32", col.Type)
		}
		*d = col.I32[row]
	case *float64:
		if null {
			*d = 0
			return nil
		}
		switch col.Type {
		case types.Double:
			*d = col.F64[row]
		case types.Integer:
			*d = float64(col.I32[row])
		case types.BigInt:
			*d = float64(col.I64[row])
		default:
			return fmt.Errorf("cannot scan %s into *float64", col.Type)
		}
	case *string:
		if null {
			*d = ""
			return nil
		}
		*d = col.Get(row).String()
	case *bool:
		if null {
			*d = false
			return nil
		}
		if col.Type != types.Boolean {
			return fmt.Errorf("cannot scan %s into *bool", col.Type)
		}
		*d = col.Bools[row]
	case *time.Time:
		if null {
			*d = time.Time{}
			return nil
		}
		if col.Type != types.Timestamp {
			return fmt.Errorf("cannot scan %s into *time.Time", col.Type)
		}
		*d = time.UnixMicro(col.I64[row]).UTC()
	case *Value:
		*d = col.Get(row)
	case *any:
		if null {
			*d = nil
			return nil
		}
		v := col.Get(row)
		switch v.Type {
		case types.Boolean:
			*d = v.Bool
		case types.Integer:
			*d = int32(v.I64)
		case types.BigInt:
			*d = v.I64
		case types.Double:
			*d = v.F64
		case types.Varchar:
			*d = v.Str
		case types.Timestamp:
			*d = time.UnixMicro(v.I64).UTC()
		}
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
	return nil
}

func toValues(args []any) ([]types.Value, error) {
	out := make([]types.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("quack: argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

func toValue(a any) (types.Value, error) {
	switch v := a.(type) {
	case nil:
		return types.NewNull(types.Null), nil
	case bool:
		return types.NewBool(v), nil
	case int:
		return types.NewBigInt(int64(v)), nil
	case int32:
		return types.NewInt(v), nil
	case int64:
		return types.NewBigInt(v), nil
	case float64:
		return types.NewDouble(v), nil
	case string:
		return types.NewVarchar(v), nil
	case time.Time:
		return types.NewTimestamp(v.UnixMicro()), nil
	case types.Value:
		return v, nil
	default:
		return types.Value{}, fmt.Errorf("unsupported parameter type %T", a)
	}
}

// compile-time check that the core session's strategy type matches.
var _ = exec.JoinAuto
