package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/quack"
)

// workload is one way of holding the database. Every workload runs the
// same three phases (olap rounds, serve, etl cycles), so every
// end-to-end metric exists on every workload and a change shows where
// its mechanism is used and stays flat where it is bypassed.
type workload struct {
	Name     string
	Why      string
	InMemory bool // t and u live in a ":memory:" database
	Workers  int  // engine pool size; never above nproc = 2
	// BytesPerRow sets the memory limit to this many bytes per fact row;
	// 0 is no limit.
	BytesPerRow int64
	// Reopen makes every olap round, and the serve phase, start from a
	// fresh Open of the checkpointed file and end with Close.
	Reopen bool
}

// coldBytesPerRow is the file_cold budget: the decoded table is about
// 135 B/row, so sort and agg_hc spill in every round and the pool
// evicts. At 48 B/row about one run in ten fails a window query with
// "memory limit exceeded", and from 32 B/row down agg fails ("one
// morsel's distinct groups alone overflow it"); see README, known
// failures. 56 ran 600 rounds without a failed op.
const coldBytesPerRow = 56

var workloads = []workload{
	{
		Name:     "mem_1w",
		Why:      "in-memory t, one worker, no limit: per-core cost of expr, exec, extsort, vector and table; storage, compress, wal, eviction and the scheduler do no work for t",
		InMemory: true, Workers: 1,
	},
	{
		Name:    "file_warm",
		Why:     "checkpointed file held open, WAL on, two workers, no limit: segments decoded once and resident, morsel and exchange paths, fsync per commit, one scheduler for readers and the writer",
		Workers: 2,
	},
	{
		Name:    "file_cold",
		Why:     "same file reopened for every olap round under a 56 B/row limit: cold open, lazy column loads, encoded kernels and decode, sort and agg_hc spill, pool eviction, admission queueing",
		Workers: 2, BytesPerRow: coldBytesPerRow, Reopen: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Shares of -seconds given to the three phases, so that at 32 s on the
// machine the bounds were set on every workload has at least 20 olap
// rounds (0.5 to 0.6 s each), 3000 reads and 100 write transactions in
// the serve window (about 260 reads/s on file_cold), and 20 etl cycles
// (about 0.25 s each).
const (
	olapShare  = 0.40
	serveShare = 0.39
	etlShare   = 0.21

	serveReaders = 3
	serveWarmup  = 500 * time.Millisecond
	// writeEvery is the open-loop writer's schedule: ten transactions a
	// second, each timed from the moment it was due.
	writeEvery = 100 * time.Millisecond
	// quietWrites is how many write transactions run alone afterwards.
	quietWrites = 400
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload workload
	Seed     int64
	Rows     int     // rows of t and of the etl CSV
	Seconds  float64 // timed work, split by the shares above
	Trace    bool
	Dir      string // working directory, inside the checkout
}

func (c runConfig) mainPath() string { return filepath.Join(c.Dir, "main.qdb") }

// mainName is what the measuring process opens to reach t and u.
func (c runConfig) mainName() string {
	if c.Workload.InMemory {
		return ":memory:"
	}
	return c.mainPath()
}
func (c runConfig) etlPath() string { return filepath.Join(c.Dir, "etl.qdb") }
func (c runConfig) csvPath() string { return filepath.Join(c.Dir, "input.csv") }
func (c runConfig) tmpDir() string  { return filepath.Join(c.Dir, "tmp") }

func (c runConfig) options() []quack.Option {
	opts := []quack.Option{quack.WithThreads(c.Workload.Workers), quack.WithTmpDir(c.tmpDir())}
	if c.Workload.BytesPerRow > 0 {
		opts = append(opts, quack.WithMemoryLimit(c.Workload.BytesPerRow*int64(c.Rows)))
	}
	return opts
}

// recorder collects what a run measured. Ops are counted where they are
// issued: an op that errors or fails its check is a failed op.
type recorder struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string
	samples   map[string][]float64 // timings in ms, by metric stem
	counts    map[string]float64   // everything that is not a timing sample
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, counts: map[string]float64{}}
}

// op counts one attempted operation and, when err is not nil, its failure.
func (r *recorder) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
	}
	return err == nil
}

func (r *recorder) sample(name string, d time.Duration) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], float64(d.Nanoseconds())/1e6)
	r.mu.Unlock()
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// peak keeps the largest value seen under name.
func (r *recorder) peak(name string, v float64) {
	r.mu.Lock()
	r.counts[name] = max(r.counts[name], v)
	r.mu.Unlock()
}

// registryCells are the engine registry's cumulative cells the per-layer
// metrics are derived from.
var registryCells = []string{
	"scan_segments_scanned_total", "scan_segments_skipped_total", "scan_segments_encoded_total",
	"scan_bytes_decompressed_total", "agg_spill_bytes_total", "sort_spill_bytes_total",
	"pool_evictions_total", "sched_steps_total", "sched_aging_picks_total", "query_count",
	"admission_queued_total",
}

// addRegistry adds what the registry counted between two snapshots, as
// phase.cell.
func (r *recorder) addRegistry(phase string, before, after map[string]int64) {
	for _, cell := range registryCells {
		r.add(phase+"."+cell, float64(after[cell]-before[cell]))
	}
}

// bench is the state of one measuring process.
type bench struct {
	cfg runConfig
	exp expected
	rec *recorder
	tr  *tracer // nil unless cfg.Trace
	// calibration holds the calibration loop's times in ms: before the
	// first phase and after each phase.
	calibration []float64
}

// open opens a database with the workload's options and times the call.
func (b *bench) open(path string) (*quack.DB, error) {
	t0 := time.Now()
	db, err := quack.Open(path, b.cfg.options()...)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	b.rec.sample("core.open", time.Since(t0))
	return db, nil
}

func (b *bench) close(db *quack.DB) {
	t0 := time.Now()
	err := db.Close()
	b.rec.sample("core.close", time.Since(t0))
	b.rec.op(err)
}

// checked runs one query, consumes it as check says, and counts the op.
// It returns the time from Query to the last chunk.
func (b *bench) checked(conn *quack.Conn, class, sql string, want answer, full bool) time.Duration {
	t0 := time.Now()
	rows, err := conn.Query(sql)
	if err != nil {
		b.rec.op(fmt.Errorf("%s: %w", class, err))
		return time.Since(t0)
	}
	var got answer
	if full {
		got = fingerprint(rows)
	} else {
		got = answer{Rows: drain(rows), Fingerprint: want.Fingerprint}
	}
	d := time.Since(t0)
	if got != want {
		err = fmt.Errorf("%s: got %d rows, fingerprint %x; the reference pass had %d rows, %x: %s",
			class, got.Rows, got.Fingerprint, want.Rows, want.Fingerprint, sql)
	}
	b.rec.op(err)
	return d
}

// olapRound runs the mix once on conn. A full round fingerprints every
// result and is not timed; a timed round checks row counts and adds one
// sample per class, the summed latency of that class's queries.
func (b *bench) olapRound(conn *quack.Conn, mix []query, full, traced bool) {
	if traced {
		b.rec.op(execErr(conn.Exec("PRAGMA profiling=1")))
	}
	sums := map[string]time.Duration{}
	var total time.Duration
	for i, q := range mix {
		start := time.Now()
		d := b.checked(conn, q.Class, q.SQL, b.exp.Olap[i], full)
		sums[q.Class] += d
		total += d
		if traced {
			if err := b.tr.query(conn, q.Class, start, d); err != nil {
				b.rec.op(err)
			}
		}
	}
	if traced {
		b.rec.op(execErr(conn.Exec("PRAGMA profiling=0")))
	}
	if full {
		return
	}
	for class, d := range sums {
		b.rec.sample(class, d)
	}
	if b.cfg.Trace {
		if traced {
			b.rec.sample("round_traced", total)
		} else {
			b.rec.sample("round_untraced", total)
		}
	}
}

func execErr(_ int64, err error) error { return err }

// olapPhase runs a fully checked round, timed rounds for the budget, and
// a fully checked round again. db is nil for a Reopen workload, which
// opens and closes the file around every round.
func (b *bench) olapPhase(db *quack.DB, budget time.Duration) error {
	mix := olapMix(b.cfg.Seed, b.cfg.Rows)
	round := func(full, traced bool) error {
		// Collect first, so that a collection the previous round's
		// garbage triggers does not land in this round's first class.
		runtime.GC()
		rdb := db
		if b.cfg.Workload.Reopen {
			var err error
			if rdb, err = b.open(b.cfg.mainName()); err != nil {
				return err
			}
			defer b.close(rdb)
		}
		before := rdb.Metrics()
		reads0, _ := rdb.Internal().Store().Stats()
		b.olapRound(rdb.Conn(), mix, full, traced)
		if !full {
			after := rdb.Metrics()
			reads1, _ := rdb.Internal().Store().Stats()
			b.rec.addRegistry("olap", before, after)
			b.rec.add("olap.blocks_read", float64(reads1-reads0))
			b.rec.peak("olap.pool_peak_bytes", float64(after["pool_peak_bytes"]))
		}
		return nil
	}
	if err := round(true, false); err != nil {
		return err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	rounds := 0
	for time.Since(start) < budget || rounds < 3 {
		// A traced run alternates traced and untraced rounds; the gap
		// between their medians is the tracing overhead.
		if err := round(false, b.cfg.Trace && rounds%2 == 0); err != nil {
			return err
		}
		rounds++
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	b.rec.add("olap.rounds", float64(rounds))
	b.rec.add("olap.heap_alloc_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc))
	return round(true, false)
}

// servePhase runs three closed-loop reader sessions and one open-loop
// writer session on db for the budget, after a warm-up, and then the
// writer alone. Every reader result is fingerprinted: the writer's
// transactions are net zero on sum(d), so a reader that sees half of
// one fails its check.
func (b *bench) servePhase(db *quack.DB, budget time.Duration) {
	var (
		timing atomic.Bool // set between warm-up end and stop
		stop   atomic.Bool
		wg     sync.WaitGroup
		done   [serveReaders]int64
	)
	for s := 0; s < serveReaders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			conn := db.Conn()
			if b.cfg.Trace {
				b.rec.op(execErr(conn.Exec("PRAGMA profiling=1")))
			}
			for k := s; !stop.Load(); k++ {
				i := k % len(serveMix)
				start := time.Now()
				d := b.checked(conn, "serve", serveMix[i], b.exp.Serve[i], true)
				if timing.Load() && !stop.Load() {
					b.rec.sample("serve", d)
					done[s]++
					if b.cfg.Trace {
						if err := b.tr.query(conn, "serve", start, d); err != nil {
							b.rec.op(err)
						}
					}
				}
			}
		}(s)
	}

	writer := newWriter(b, db)
	wg.Add(1)
	go func() {
		defer wg.Done()
		begin := time.Now()
		for k := 0; ; k++ {
			due := begin.Add(time.Duration(k) * writeEvery)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			if stop.Load() {
				return
			}
			late := time.Since(due)
			if writer.txn() && timing.Load() {
				b.rec.sample("write_beside_reads", time.Since(due))
				b.rec.sample("write_late", late)
			}
		}
	}()

	time.Sleep(serveWarmup)
	warm := db.Metrics()
	timing.Store(true)
	t0 := time.Now()
	time.Sleep(budget)
	stop.Store(true)
	window := time.Since(t0)
	wg.Wait()
	after := db.Metrics()

	// With the readers gone, the same transaction in a closed loop: what
	// a write costs in table, txn and wal when it does not also queue
	// behind reads.
	for k := 0; k < quietWrites; k++ {
		t0 := time.Now()
		if writer.txn() {
			b.rec.sample("write_txn", time.Since(t0))
		}
	}

	b.rec.add("serve.window_s", window.Seconds())
	fair := make([]float64, serveReaders)
	for i, n := range done {
		fair[i] = float64(n)
	}
	b.rec.add("serve.fairness", jain(fair))
	b.rec.add("serve.wal_bytes", float64(after["wal_bytes"]-warm["wal_bytes"]))
	b.rec.addRegistry("serve", warm, after)
	for _, cell := range []string{"sched_step_wait_p50_ns", "sched_step_wait_p99_ns"} {
		b.rec.add("serve."+cell, float64(after[cell]))
	}
}

// writer issues the serve phase's write transaction on a session of its
// own: d goes up on one run of ids and down on the next, both inside the
// newest tenth of the table, so every transaction is net zero on sum(d).
type writer struct {
	b     *bench
	conn  *quack.Conn
	rng   *rand.Rand
	width int
}

func newWriter(b *bench, db *quack.DB) *writer {
	return &writer{b: b, conn: db.Conn(), rng: rand.New(rand.NewSource(b.cfg.Seed ^ 0x77)),
		width: min(500, b.cfg.Rows/40)}
}

// txn runs one transaction, counts it as an op and reports whether it
// committed.
func (w *writer) txn() bool {
	rows := w.b.cfg.Rows
	at := rows - rows/10 + w.rng.Intn(rows/10-2*w.width+1)
	var err error
	for _, s := range []string{
		"BEGIN",
		fmt.Sprintf("UPDATE t SET d = d + 1 WHERE id BETWEEN %d AND %d", at, at+w.width-1),
		fmt.Sprintf("UPDATE t SET d = d - 1 WHERE id BETWEEN %d AND %d", at+w.width, at+2*w.width-1),
	} {
		if _, err = w.conn.Exec(s); err != nil {
			_, _ = w.conn.Exec("ROLLBACK") // the failure is counted just below
			return w.b.rec.op(fmt.Errorf("write txn: %w", err))
		}
	}
	t0 := time.Now()
	_, err = w.conn.Exec("COMMIT")
	w.b.rec.sample("core.txn_commit", time.Since(t0))
	return w.b.rec.op(err)
}

// etlPhase runs ingest-wrangle-persist cycles on a scratch database
// file of its own (the product of an etl job is a file, whatever holds
// t), with the workload's worker count and limit. The first cycle is
// not sampled: the file reaches its steady size in it.
func (b *bench) etlPhase(budget time.Duration) error {
	for _, p := range []string{b.cfg.etlPath(), b.cfg.etlPath() + ".wal"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	db, err := b.open(b.cfg.etlPath())
	if err != nil {
		return err
	}
	defer func() {
		if db != nil {
			b.close(db)
		}
	}()

	start := time.Now()
	for cycle := 0; time.Since(start) < budget || cycle < 4; cycle++ {
		sampled := cycle > 0
		note := func(name string, d time.Duration) {
			if sampled {
				b.rec.sample(name, d)
			}
		}
		runtime.GC() // as before an olap round
		conn := db.Conn()
		_, written0 := db.Internal().Store().Stats()

		b.rec.op(execErr(conn.Exec("CREATE TABLE raw " + factSchema)))
		wal0 := db.Metrics()["wal_bytes"]
		t0 := time.Now()
		n, err := conn.Exec(fmt.Sprintf("COPY raw FROM '%s'", b.cfg.csvPath()))
		d := time.Since(t0)
		if err == nil && n != b.exp.Csv.Rows {
			err = fmt.Errorf("COPY loaded %d rows, the CSV has %d", n, b.exp.Csv.Rows)
		}
		b.rec.op(err)
		note("copy_in", d)
		if sampled {
			b.rec.add("etl.copy_wal_bytes", float64(db.Metrics()["wal_bytes"]-wal0))
		}

		t0 = time.Now()
		for _, s := range etlWrangle {
			b.rec.op(execErr(conn.Exec(s)))
		}
		note("wrangle", time.Since(t0))

		t0 = time.Now()
		err = db.Checkpoint()
		note("checkpoint", time.Since(t0))
		b.rec.op(err)
		if sampled {
			_, written1 := db.Internal().Store().Stats()
			b.rec.add("etl.blocks_written", float64(written1-written0))
			if st, err := os.Stat(b.cfg.etlPath()); err == nil {
				b.rec.peak("etl.file_bytes", float64(st.Size()))
			}
		}
		b.close(db)

		t0 = time.Now()
		if db, err = b.open(b.cfg.etlPath()); err != nil {
			return err // db is nil now; the deferred close skips it
		}
		conn = db.Conn()
		b.checked(conn, "reopen_query", etlFirstQuery, b.exp.EtlFirst, true)
		note("reopen_query", time.Since(t0))

		// Untimed: the wrangled table against the generator's own counts,
		// the derived table against the reference pass, then clean up.
		b.checked(conn, "etl verify", etlCleanQuery, b.exp.EtlClean, true)
		b.rec.op(b.checkKept(conn))
		b.rec.op(execErr(conn.Exec("DROP TABLE raw")))
		b.rec.op(execErr(conn.Exec("DROP TABLE clean")))
		b.rec.op(db.Checkpoint())
		if sampled {
			b.rec.add("etl.cycles", 1)
		}
	}
	return nil
}

// checkKept compares raw after the wrangle block with what the CSV's
// generator counted: rows kept, and kept rows with a measurement.
func (b *bench) checkKept(conn *quack.Conn) error {
	rows, err := conn.Query("SELECT count(*), count(d) FROM raw")
	if err != nil {
		return err
	}
	c := rows.NextChunk()
	if c == nil || c.Len() != 1 {
		return fmt.Errorf("etl verify: no count row")
	}
	if got, want := c.Cols[0].I64[0], b.exp.Csv.Kept; got != want {
		return fmt.Errorf("etl verify: raw has %d rows, generator kept %d", got, want)
	}
	if got, want := c.Cols[1].I64[0], b.exp.Csv.KeptMeasure; got != want {
		return fmt.Errorf("etl verify: raw has %d measurements, generator kept %d", got, want)
	}
	return nil
}

// measure runs the three phases of the workload.
func (b *bench) measure() error {
	if err := os.MkdirAll(b.cfg.tmpDir(), 0o755); err != nil {
		return err
	}
	seconds := func(share float64) time.Duration {
		return time.Duration(b.cfg.Seconds * share * float64(time.Second))
	}
	var db *quack.DB
	var err error
	if !b.cfg.Workload.Reopen {
		if db, err = b.open(b.cfg.mainName()); err != nil {
			return err
		}
		if b.cfg.Workload.InMemory {
			if _, err := loadFact(db, b.cfg.Seed, b.cfg.Rows); err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
	}
	b.calibration = append(b.calibration, calibrate())
	if err := b.olapPhase(db, seconds(olapShare)); err != nil {
		return err
	}
	b.calibration = append(b.calibration, calibrate())
	if db == nil {
		if db, err = b.open(b.cfg.mainName()); err != nil {
			return err
		}
	}
	b.servePhase(db, seconds(serveShare))
	b.close(db)
	b.calibration = append(b.calibration, calibrate())
	err = b.etlPhase(seconds(etlShare))
	b.calibration = append(b.calibration, calibrate())
	return err
}
