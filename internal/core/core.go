// Package core wires QuackDB's subsystems into the embedded database the
// paper describes (§6): single-file checksummed storage with shadow-paged
// checkpoints, a separate WAL consumed by those checkpoints, HyPer-style
// MVCC, a cooperating buffer pool with allocation-time memory tests, the
// vectorized execution engine, and the SQL front end. The public quack
// package is a thin veneer over this one.
package core

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/memtest"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/txn"
	"repro/internal/vector"
	"repro/internal/wal"
)

// Config controls a Database instance.
type Config struct {
	// Path of the database file; "" or ":memory:" is volatile.
	Path string
	// MemoryLimit caps the buffer pool (bytes); <0 = unlimited. 0 (the
	// zero value) consults the QUACK_MEMORY_LIMIT environment variable —
	// a byte size like "64MB", plumbed like QUACK_THREADS so harnesses
	// (the CI differential matrix) can pin a budget without touching
	// call sites — and is unlimited when that is unset too. The
	// cooperation requirement (§4): an embedded DBMS must not assume it
	// owns the machine.
	MemoryLimit int64
	// DisableChecksums skips verification on block reads (experiment E8).
	DisableChecksums bool
	// MemTest runs moving-inversions tests on buffer allocation (§3).
	MemTest bool
	// TmpDir for external-sort spill files ("" = os.TempDir()).
	TmpDir string
	// Threads is the default worker-pool size for parallel query
	// pipelines; <=0 consults the QUACK_THREADS environment variable and
	// then runtime.GOMAXPROCS(0). 1 disables intra-query parallelism.
	// Sessions and PRAGMA threads can override it.
	Threads int
	// LogSink receives one line per engine log event (today: the
	// slow-query log enabled by PRAGMA log_min_duration_ms). Each call
	// is one complete JSON object without a trailing newline. nil
	// discards — the embedded default is silence.
	LogSink func(line string)
}

// Database is one embedded database instance. It is safe for concurrent
// use by multiple sessions.
type Database struct {
	cfg    Config
	store  *storage.Manager
	wal    *wal.Log
	cat    *catalog.Catalog
	txns   *txn.Manager
	pool   *buffer.Pool
	logger walLogger
	sched  *sched.Scheduler
	admit  admitState

	ddlMu       sync.Mutex // serializes DDL and checkpoints
	pendingFree []storage.BlockID
	commitCount atomic.Int64
	threads     atomic.Int64 // default parallelism for new queries
	zoneMapsOff atomic.Bool  // disables zone-map segment skipping
	encExecOff  atomic.Bool  // disables encoded execution over compressed segments
	closed      atomic.Bool

	// metrics is the engine-wide registry; every subsystem counter above
	// and beside it is registered there at open, so one snapshot reads
	// the whole engine.
	metrics      *obs.Registry
	queryCells   queryCells          // what finished queries' accounts add up to
	decodeBytes  *obs.ShardedCounter // segment bytes decompressed by scans
	checkpointNs *obs.Histogram
	queryNs      *obs.Histogram

	// Slow-query log: queries at or above this duration (milliseconds)
	// emit one JSON line to logSink; <0 (default) disables.
	logMinDurMs atomic.Int64
	logSink     func(string)
}

// Open opens or creates a database.
func Open(cfg Config) (*Database, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = defaultThreads()
	}
	if cfg.MemoryLimit == 0 {
		cfg.MemoryLimit = defaultMemoryLimit()
	}
	tester := memtest.NewTester(nil)
	pool := buffer.NewPool(cfg.MemoryLimit, tester)
	pool.EnableMemTest(cfg.MemTest)

	store, created, err := storage.Open(cfg.Path, storage.Options{DisableChecksums: cfg.DisableChecksums})
	if err != nil {
		return nil, err
	}
	db := &Database{
		cfg:   cfg,
		store: store,
		cat:   catalog.New(),
		pool:  pool,
	}
	db.threads.Store(int64(cfg.Threads))
	// One engine-wide worker pool multiplexes runnable morsels from every
	// active query (morsel-driven scheduling): total engine goroutines are
	// bounded by the pool size no matter how many sessions run queries
	// concurrently. PRAGMA threads resizes it; per-session Threads only
	// caps how many tasks a single query keeps runnable.
	db.sched = sched.New(cfg.Threads)
	db.admit.init(db)
	db.logSink = cfg.LogSink
	db.logMinDurMs.Store(-1)
	db.initMetrics()

	if !store.InMemory() {
		log, err := wal.Open(cfg.Path + ".wal")
		if err != nil {
			_ = store.Close()
			return nil, err
		}
		db.wal = log
	}
	db.txns = txn.NewManager(func(records []txn.LogRecord, commitTS uint64) error {
		if db.wal == nil {
			return nil
		}
		recs := make([]wal.Record, len(records))
		for i, r := range records {
			recs[i] = wal.Record{Type: wal.RecordType(r.Type), Payload: r.Payload}
		}
		return db.wal.AppendCommit(recs, commitTS)
	})

	if !created {
		if err := db.loadCatalog(); err != nil {
			db.closeFiles()
			return nil, err
		}
	}
	if err := db.replayWAL(); err != nil {
		db.closeFiles()
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return db, nil
}

// initMetrics builds the engine-wide registry and hooks every
// subsystem into it: PRAGMA metrics and DB.Metrics are the one read
// surface for engine counters.
func (db *Database) initMetrics() {
	m := obs.NewRegistry()
	db.metrics = m

	// Scans, operator spilling under an enforced memory_limit and sort
	// tie fallbacks: the sums of every finished query's account
	// (bookQuery). Decode bytes are booked by the table layer on every
	// segment materialization.
	db.queryCells = queryCells{
		segsScanned:      m.Counter("scan_segments_scanned_total"),
		segsSkipped:      m.Counter("scan_segments_skipped_total"),
		segsEncoded:      m.Counter("scan_segments_encoded_total"),
		rowsEncSelected:  m.Counter("scan_rows_encoded_selected_total"),
		aggSpillParts:    m.Counter("agg_spill_partitions_total"),
		aggSpillBytes:    m.Counter("agg_spill_bytes_total"),
		sortSpillBytes:   m.Counter("sort_spill_bytes_total"),
		sortTieFallbacks: m.Counter("sort_key_tie_fallbacks_total"),
	}
	db.decodeBytes = m.Sharded("scan_bytes_decompressed_total")

	// Buffer pool (the cooperation surface of §4).
	m.Gauge("pool_reserved_bytes", db.pool.Used)
	m.Gauge("pool_peak_bytes", db.pool.Peak)
	m.Gauge("pool_limit_bytes", db.pool.Limit)
	m.Gauge("pool_evictions_total", db.pool.Evictions)

	// Durability: WAL growth and checkpoint latency.
	m.Gauge("wal_bytes", db.WALSize)
	db.checkpointNs = m.Histogram("checkpoint")

	// Engine-wide morsel scheduler.
	db.sched.SetMetrics(sched.Metrics{
		Steps:    m.Counter("sched_steps_total"),
		StepWait: m.Histogram("sched_step_wait"),
	})
	m.Gauge("sched_runnable_depth", func() int64 { return int64(db.sched.RunnableDepth()) })

	// Admission control.
	db.admit.met = admitMetrics{
		admitted: m.Counter("admission_admitted_total"),
		queued:   m.Counter("admission_queued_total"),
		rejected: m.Counter("admission_rejected_total"),
		wait:     m.Histogram("admission_wait"),
	}
	m.Gauge("admission_queue_depth", db.admit.queueDepth)
	m.Gauge("admission_running", db.admit.runningCount)

	// Query-level latency (SELECT and DML plans).
	db.queryNs = m.Histogram("query")
}

// queryCells are the registry cells that add up the queries' accounts,
// one per field of exec.QueryStats.
type queryCells struct {
	segsScanned, segsSkipped, segsEncoded, rowsEncSelected *obs.Counter
	aggSpillParts, aggSpillBytes, sortSpillBytes           *obs.Counter
	sortTieFallbacks                                       *obs.Counter
}

// bookQuery adds a finished query's account into the registry. Every
// executed plan books once, when it ends, whether or not it failed.
func (db *Database) bookQuery(st *exec.QueryStats) {
	c := &db.queryCells
	c.segsScanned.Add(st.SegsScanned.Load())
	c.segsSkipped.Add(st.SegsSkipped.Load())
	c.segsEncoded.Add(st.SegsEncoded.Load())
	c.rowsEncSelected.Add(st.RowsEncSelected.Load())
	c.aggSpillParts.Add(st.AggSpillParts.Load())
	c.aggSpillBytes.Add(st.AggSpillBytes.Load())
	c.sortSpillBytes.Add(st.SortSpillBytes.Load())
	c.sortTieFallbacks.Add(st.SortTieFallbacks.Load())
}

// Metrics snapshots the engine-wide registry as sorted samples.
func (db *Database) Metrics() []obs.Sample { return db.metrics.Snapshot() }

// MetricsMap snapshots the registry as a name→value map.
func (db *Database) MetricsMap() map[string]int64 { return db.metrics.SnapshotMap() }

// MetricsText writes the registry in "name value\n" text exposition.
func (db *Database) MetricsText(w io.Writer) error { return db.metrics.WriteText(w) }

// closeFiles releases the store and WAL on Open error paths; the
// original error takes precedence, so close errors are discarded
// explicitly (Database.Close is the path that propagates them).
func (db *Database) closeFiles() {
	if db.wal != nil {
		_ = db.wal.Close()
	}
	_ = db.store.Close()
}

// Catalog exposes the schema objects.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Txns exposes the transaction manager.
func (db *Database) Txns() *txn.Manager { return db.txns }

// Pool exposes the buffer pool.
func (db *Database) Pool() *buffer.Pool { return db.pool }

// Store exposes the block manager (experiments and tools).
func (db *Database) Store() *storage.Manager { return db.store }

// Threads returns the default parallelism for new queries.
func (db *Database) Threads() int { return int(db.threads.Load()) }

// SetThreads changes the default parallelism for new queries; n <= 0
// resets to the same default Open resolves (QUACK_THREADS, then
// runtime.GOMAXPROCS(0)).
func (db *Database) SetThreads(n int) {
	if n <= 0 {
		n = defaultThreads()
	}
	db.threads.Store(int64(n))
	// The shared pool follows the database default so PRAGMA threads
	// sweeps (benchmarks, harnesses) exercise real pool sizes; session
	// Threads overrides never resize it — they only cap task width.
	db.sched.Resize(n)
}

// defaultThreads resolves the engine-wide default parallelism: the
// QUACK_THREADS environment variable lets harnesses (CI matrices,
// benchmarks) pin it without touching call sites; otherwise every core
// the host process owns.
func defaultThreads() int {
	if env := os.Getenv("QUACK_THREADS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			return n
		}
		// A set-but-unusable value is a harness misconfiguration; say so
		// instead of silently testing GOMAXPROCS twice in a CI matrix.
		fmt.Fprintf(os.Stderr, "quack: ignoring invalid QUACK_THREADS=%q\n", env)
	}
	return runtime.GOMAXPROCS(0)
}

// ZoneMapsEnabled reports whether scans may skip segments refuted by
// zone maps. Skipping is exact (the pushed filter is still applied per
// row), so this only trades planning observability for the differential
// baseline.
func (db *Database) ZoneMapsEnabled() bool { return !db.zoneMapsOff.Load() }

// SetZoneMaps toggles zone-map segment skipping at runtime: the
// reference toggle the differential tests and the selectivity sweep
// flip. It is not user surface; skipping is on at Open.
func (db *Database) SetZoneMaps(on bool) { db.zoneMapsOff.Store(!on) }

// EncodedExecEnabled reports whether scans may evaluate exact pushed
// conjuncts directly over compressed segments and materialize only the
// selected rows. Like zone maps this is a pure execution strategy —
// results are byte-identical either way.
func (db *Database) EncodedExecEnabled() bool { return !db.encExecOff.Load() }

// SetEncodedExec toggles encoded execution at runtime (tests and the
// selectivity sweep, like SetZoneMaps); it is on at Open.
func (db *Database) SetEncodedExec(on bool) { db.encExecOff.Store(!on) }

// defaultMemoryLimit resolves the engine-wide default memory budget:
// the QUACK_MEMORY_LIMIT environment variable (a byte size such as
// "64MB") when set, unlimited otherwise. Like QUACK_THREADS it exists
// for harnesses — the CI differential matrix runs a budgeted leg that
// forces the operator spill paths on every push.
func defaultMemoryLimit() int64 {
	env := os.Getenv("QUACK_MEMORY_LIMIT")
	if env == "" {
		return 0
	}
	bytes, err := parseByteSize(env)
	if err != nil || bytes <= 0 {
		// A set-but-unusable value is a harness misconfiguration; say so
		// instead of silently running an unlimited leg twice.
		fmt.Fprintf(os.Stderr, "quack: ignoring invalid QUACK_MEMORY_LIMIT=%q\n", env)
		return 0
	}
	return bytes
}

// WALSize returns the current WAL size in bytes (0 for in-memory).
func (db *Database) WALSize() int64 { return db.wal.Size() }

// LogInsert queues an insert WAL record into tx (bulk appenders).
func (db *Database) LogInsert(tx *txn.Transaction, tableName string, chunk *vector.Chunk) {
	db.logger.LogInsert(tx, tableName, chunk)
}

// TmpDir returns the spill directory.
func (db *Database) TmpDir() string {
	if db.cfg.TmpDir != "" {
		return db.cfg.TmpDir
	}
	return os.TempDir()
}

// loadCatalog reads the catalog chain from the storage root and
// reconstructs the schema with lazy column loaders.
func (db *Database) loadCatalog() error {
	root := db.store.Root()
	if root == storage.InvalidBlock {
		return nil
	}
	payload, _, err := storage.ReadChain(db.store, root)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	tables, views, err := catalog.Deserialize(payload)
	if err != nil {
		return err
	}
	for _, dt := range tables {
		entry := &catalog.Table{
			Name:      dt.Name,
			Columns:   dt.Columns,
			DiskRows:  dt.DiskRows,
			ColChains: dt.ColChains,
			Stats:     dt.Stats,
		}
		entry.ChainBlocks = make([][]storage.BlockID, len(dt.Columns))
		entry.Data = table.NewPersisted(entry.Types(), dt.DiskRows, db.columnLoader(entry), db.pool)
		entry.Data.SetDecodeCounter(db.decodeBytes)
		entry.Data.SetSegmentStats(dt.Stats)
		if err := db.cat.CreateTable(entry); err != nil {
			return err
		}
	}
	for i := range views {
		v := views[i]
		if err := db.cat.CreateView(&v); err != nil {
			return err
		}
	}
	return nil
}

// columnLoader returns the lazy loader reading one column's block chain.
// It closes over the catalog entry so checkpoints that move chains are
// picked up. The loader hands back the still-compressed per-segment
// payloads; segments are decoded only when a scan materializes them, so
// zone-map-refuted segments are never decompressed.
func (db *Database) columnLoader(entry *catalog.Table) table.ColumnLoader {
	return func(col int) ([][]byte, int64, error) {
		head := entry.ColChains[col]
		if head == storage.InvalidBlock {
			return [][]byte{}, 0, nil
		}
		payload, blocks, err := storage.ReadChain(db.store, head)
		if err != nil {
			return nil, 0, err
		}
		entry.ChainBlocks[col] = blocks
		return table.ParseColumnPayload(payload)
	}
}

// replayWAL applies every committed transaction recovered from the log.
func (db *Database) replayWAL() error {
	committed, err := db.wal.Replay()
	if err != nil {
		return err
	}
	for _, tx := range committed {
		for _, rec := range tx.Records {
			if err := db.applyRecord(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (db *Database) applyRecord(rec wal.Record) error {
	switch rec.Type {
	case wal.RecCreateTable:
		name, cols, err := decodeCreateTable(rec.Payload)
		if err != nil {
			return err
		}
		entry := &catalog.Table{Name: name}
		for _, c := range cols {
			entry.Columns = append(entry.Columns, catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull})
		}
		entry.Data = table.New(entry.Types(), db.pool)
		entry.Data.SetDecodeCounter(db.decodeBytes)
		return db.cat.CreateTable(entry)
	case wal.RecDropTable:
		name, _, err := getString(rec.Payload)
		if err != nil {
			return err
		}
		_, err = db.cat.DropTable(name)
		return err
	case wal.RecCreateView:
		name, sqlText, err := decodeCreateView(rec.Payload)
		if err != nil {
			return err
		}
		return db.cat.CreateView(&catalog.View{Name: name, SQL: sqlText})
	case wal.RecDropView:
		name, _, err := getString(rec.Payload)
		if err != nil {
			return err
		}
		return db.cat.DropView(name)
	case wal.RecInsert:
		name, chunk, err := decodeInsert(rec.Payload)
		if err != nil {
			return err
		}
		entry, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		return entry.Data.AppendCommitted(chunk, txn.EpochTS)
	case wal.RecUpdate:
		name, col, rowIDs, vals, err := decodeUpdate(rec.Payload)
		if err != nil {
			return err
		}
		entry, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		return entry.Data.ApplyCommittedUpdate(col, rowIDs, vals)
	case wal.RecDelete:
		name, rowIDs, err := decodeDelete(rec.Payload)
		if err != nil {
			return err
		}
		entry, err := db.cat.Table(name)
		if err != nil {
			return err
		}
		return entry.Data.ApplyCommittedDelete(rowIDs, txn.EpochTS)
	default:
		return fmt.Errorf("unknown WAL record type %d", rec.Type)
	}
}

// vacuumEvery is how many commits pass between undo-chain garbage
// collections.
const vacuumEvery = 256

// afterCommit runs post-commit housekeeping: periodic undo vacuum.
func (db *Database) afterCommit() {
	n := db.commitCount.Add(1)
	if n%vacuumEvery == 0 {
		db.Vacuum()
	}
}

// Vacuum prunes undo versions no snapshot can need anymore.
func (db *Database) Vacuum() {
	oldest := db.txns.OldestVisibleTS()
	for _, t := range db.cat.Tables() {
		t.Data.Vacuum(oldest)
	}
}

// Close checkpoints (persistent databases) and releases all files.
func (db *Database) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	// Callers must have drained their queries; retiring the pool first
	// turns a violation into a loud panic instead of a hung checkpoint.
	db.sched.Stop()
	var firstErr error
	if !db.store.InMemory() {
		if err := db.Checkpoint(); err != nil {
			firstErr = err
		}
	}
	if db.wal != nil {
		if err := db.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := db.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
