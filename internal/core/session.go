package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/csvio"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wal"
)

// Result is the materialized outcome of one statement. SELECT results
// carry chunks in the engine's native representation — the client
// application consumes them without copies or per-value calls (§5).
type Result struct {
	Columns      []string
	Types        []types.Type
	Chunks       []*vector.Chunk
	RowsAffected int64
	HasRows      bool
}

// NumRows returns the total row count across chunks.
func (r *Result) NumRows() int64 {
	var n int64
	for _, c := range r.Chunks {
		n += int64(c.Len())
	}
	return n
}

// Session is one connection to the database: it owns the current
// explicit transaction, if any. Sessions are not safe for concurrent
// use; open one per goroutine (they are cheap).
type Session struct {
	db      *Database
	current *txn.Transaction
	// JoinStrategy overrides the adaptive join choice for experiments.
	JoinStrategy exec.JoinStrategy

	// last is the profile of the session's most recent query (PRAGMA
	// last_profile, EXPLAIN ANALYZE); every query keeps one.
	last     queryProfile
	curQuery string // SQL text of the batch in flight
	parseNs  int64  // parse span attributed to the statement in flight
	bindNs   int64  // bind span of the statement in flight
}

// queryProfile is one query's complete profile: the phase spans around
// execution plus the plan-mirrored operator tree. PRAGMA last_profile
// serializes it; EXPLAIN ANALYZE renders it. The tree is snapshotted
// (and its operators named) only when one of them, or the slow-query
// log, reads it.
type queryProfile struct {
	root *exec.OpProfile // nil before the session's first query

	Query       string              `json:"query"`
	Threads     int                 `json:"threads"`
	ParseNs     int64               `json:"parse_ns"`
	BindNs      int64               `json:"bind_ns"`
	OptimizeNs  int64               `json:"optimize_ns"`
	AdmitWaitNs int64               `json:"admit_wait_ns"`
	ExecuteNs   int64               `json:"execute_ns"`
	Rows        int64               `json:"rows"`
	SpillBytes  int64               `json:"spill_bytes"`
	Plan        *exec.OpProfileSnap `json:"plan,omitempty"`
}

// plan returns the operator tree's snapshot, taking it on first use.
func (p *queryProfile) plan() *exec.OpProfileSnap {
	if p.Plan == nil {
		p.Plan = p.root.Snapshot()
	}
	return p.Plan
}

// slowLogLine is the JSON shape of one slow-query log record (PRAGMA
// log_min_duration_ms): the statement's totals and its operator tree.
type slowLogLine struct {
	Query       string              `json:"query"`
	DurationMs  int64               `json:"duration_ms"`
	AdmitWaitMs int64               `json:"admit_wait_ms"`
	Rows        int64               `json:"rows"`
	SpillBytes  int64               `json:"spill_bytes"`
	Plan        *exec.OpProfileSnap `json:"plan"`
}

// NewSession opens a session.
func (db *Database) NewSession() *Session { return &Session{db: db} }

// InTransaction reports whether an explicit transaction is open.
func (s *Session) InTransaction() bool { return s.current != nil && !s.current.Done() }

// Execute parses and runs one or more semicolon-separated statements,
// returning one result per statement. Parameters substitute `?`
// placeholders across all statements.
func (s *Session) Execute(sqlText string, params ...types.Value) ([]*Result, error) {
	start := time.Now()
	stmts, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	// The parse span covers the whole batch; it is attributed to each
	// statement's profile (batches are overwhelmingly one statement).
	s.curQuery = sqlText
	s.parseNs = time.Since(start).Nanoseconds()
	results := make([]*Result, 0, len(stmts))
	for _, stmt := range stmts {
		s.bindNs = 0
		res, err := s.executeStmt(stmt, params)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// ExecuteOne is Execute for a single statement.
func (s *Session) ExecuteOne(sqlText string, params ...types.Value) (*Result, error) {
	results, err := s.Execute(sqlText, params...)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return &Result{}, nil
	}
	return results[len(results)-1], nil
}

func (s *Session) executeStmt(stmt sql.Statement, params []types.Value) (*Result, error) {
	switch st := stmt.(type) {
	case *sql.BeginStmt:
		if s.InTransaction() {
			return nil, fmt.Errorf("a transaction is already in progress")
		}
		s.current = s.db.txns.Begin()
		return &Result{}, nil
	case *sql.CommitStmt:
		if !s.InTransaction() {
			return nil, fmt.Errorf("no transaction is in progress")
		}
		tx := s.current
		s.current = nil
		if _, err := s.db.txns.Commit(tx); err != nil {
			return nil, err
		}
		s.db.afterCommit()
		return &Result{}, nil
	case *sql.RollbackStmt:
		if !s.InTransaction() {
			return nil, fmt.Errorf("no transaction is in progress")
		}
		tx := s.current
		s.current = nil
		s.db.txns.Rollback(tx)
		return &Result{}, nil
	case *sql.CheckpointStmt:
		if s.InTransaction() {
			return nil, ErrBusy
		}
		if err := s.db.Checkpoint(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.PragmaStmt:
		return s.executePragma(st)
	case *sql.ExplainStmt:
		return s.explain(st, params)
	default:
		return s.inTxn(func(tx *txn.Transaction) (*Result, error) {
			return s.executeInTxn(stmt, params, tx)
		})
	}
}

// inTxn runs fn in the session's explicit transaction, or in a
// one-statement autocommit transaction. Either way a statement that
// fails leaves nothing behind: inside an explicit transaction its
// changes and log records are rolled back to where it began.
func (s *Session) inTxn(fn func(tx *txn.Transaction) (*Result, error)) (*Result, error) {
	if s.InTransaction() {
		mark := s.current.Mark()
		res, err := fn(s.current)
		if err != nil {
			s.current.RollbackTo(mark)
		}
		return res, err
	}
	tx := s.db.txns.Begin()
	res, err := fn(tx)
	if err != nil {
		s.db.txns.Rollback(tx)
		return nil, err
	}
	if _, err := s.db.txns.Commit(tx); err != nil {
		return nil, err
	}
	s.db.afterCommit()
	return res, nil
}

func (s *Session) executeInTxn(stmt sql.Statement, params []types.Value, tx *txn.Transaction) (*Result, error) {
	binder := &plan.Binder{Cat: s.db.cat, Params: params}
	bind := func(f func() (plan.Node, error)) (plan.Node, error) {
		t0 := time.Now()
		node, err := f()
		s.bindNs = time.Since(t0).Nanoseconds()
		return node, err
	}
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		node, err := bind(func() (plan.Node, error) { return binder.BindSelect(st) })
		if err != nil {
			return nil, err
		}
		return s.runPlan(node, tx)
	case *sql.InsertStmt:
		node, err := bind(func() (plan.Node, error) { return binder.BindInsert(st) })
		if err != nil {
			return nil, err
		}
		return s.runDML(node, tx)
	case *sql.UpdateStmt:
		node, err := bind(func() (plan.Node, error) { return binder.BindUpdate(st) })
		if err != nil {
			return nil, err
		}
		return s.runDML(node, tx)
	case *sql.DeleteStmt:
		node, err := bind(func() (plan.Node, error) { return binder.BindDelete(st) })
		if err != nil {
			return nil, err
		}
		return s.runDML(node, tx)
	case *sql.CreateTableStmt:
		return s.createTable(st, binder, tx)
	case *sql.CreateViewStmt:
		if err := s.db.cat.CreateView(&catalog.View{Name: st.Name, SQL: st.SQL}); err != nil {
			return nil, err
		}
		tx.AppendLog(byte(wal.RecCreateView), encodeCreateView(st.Name, st.SQL))
		return &Result{}, nil
	case *sql.DropStmt:
		return s.drop(st, tx)
	case *sql.CopyStmt:
		return s.copy(st, tx)
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

func (s *Session) execContext(tx *txn.Transaction) *exec.Context {
	// Knob snapshot: every db-level knob a query consults (threads,
	// zone maps, memory limit via Pool) is resolved here or read through
	// atomics, so a PRAGMA issued concurrently on another session never
	// tears a running query's view of the configuration.
	return &exec.Context{
		Txn:                tx,
		Pool:               s.db.pool,
		Logger:             s.db.logger,
		TmpDir:             s.db.TmpDir(),
		JoinStrategy:       s.JoinStrategy,
		Threads:            s.db.Threads(),
		DisableZoneMaps:    !s.db.ZoneMapsEnabled(),
		DisableEncodedExec: !s.db.EncodedExecEnabled(),
		Sched:              s.db.sched,
	}
}

// slowLogOn reports whether the slow-query log observes statements.
func (s *Session) slowLogOn() bool {
	return s.db.logSink != nil && s.db.logMinDurMs.Load() >= 0
}

// queryTimes carries the phase spans measured around one plan's
// execution; parse and bind spans live on the session scratch fields.
type queryTimes struct {
	optimizeNs  int64
	admitWaitNs int64
	executeNs   int64
}

// finishQuery closes out one executed plan: it records the engine-wide
// latency histogram, publishes its profile (PRAGMA last_profile), and
// emits a slow-query log line when the statement crossed the session's
// threshold.
func (s *Session) finishQuery(ctx *exec.Context, prof *exec.OpProfile, t queryTimes, rows int64) {
	totalNs := s.parseNs + s.bindNs + t.optimizeNs + t.admitWaitNs + t.executeNs
	if s.db.queryNs != nil {
		s.db.queryNs.Observe(totalNs)
	}
	spill := ctx.Stats.SpillBytes()
	s.last = queryProfile{
		root:        prof,
		Query:       s.curQuery,
		Threads:     ctx.Threads,
		ParseNs:     s.parseNs,
		BindNs:      s.bindNs,
		OptimizeNs:  t.optimizeNs,
		AdmitWaitNs: t.admitWaitNs,
		ExecuteNs:   t.executeNs,
		Rows:        rows,
		SpillBytes:  spill,
	}
	if s.slowLogOn() && totalNs/1e6 >= s.db.logMinDurMs.Load() {
		line, err := json.Marshal(slowLogLine{
			Query:       s.curQuery,
			DurationMs:  totalNs / 1e6,
			AdmitWaitMs: t.admitWaitNs / 1e6,
			Rows:        rows,
			SpillBytes:  spill,
			Plan:        s.last.plan(),
		})
		if err == nil {
			s.db.logSink(string(line))
		}
	}
}

// runPlan executes a query plan and returns its rows.
func (s *Session) runPlan(node plan.Node, tx *txn.Transaction) (*Result, error) {
	return s.runNode(node, tx, false)
}

// runDML executes an INSERT/UPDATE/DELETE plan and returns the affected
// row count its root operator reports.
func (s *Session) runDML(node plan.Node, tx *txn.Transaction) (*Result, error) {
	return s.runNode(node, tx, true)
}

// runNode is the one path every plan takes: admit, optimize, build
// (with its profile), collect, and close the query out (finishQuery).
// DML plans run like any query — their input scans use every worker,
// the write itself runs on the consuming thread, and the scan-open
// segment snapshot keeps self-referencing statements safe.
func (s *Session) runNode(node plan.Node, tx *txn.Transaction, dml bool) (*Result, error) {
	release, admitWait, err := s.db.admit.admit()
	if err != nil {
		return nil, err
	}
	defer release()
	t0 := time.Now()
	node = plan.Optimize(node)
	optimizeNs := time.Since(t0).Nanoseconds()
	ctx := s.execContext(tx)
	defer s.db.bookQuery(&ctx.Stats)
	op, prof, err := exec.Build(node)
	if err != nil {
		return nil, err
	}
	tExec := time.Now()
	chunks, err := exec.Collect(ctx, op)
	if err != nil {
		return nil, err
	}
	executeNs := time.Since(tExec).Nanoseconds()
	var res *Result
	var rows int64
	if dml {
		if len(chunks) > 0 && chunks[0].Len() > 0 {
			rows = chunks[0].Cols[0].I64[0]
		}
		res = &Result{RowsAffected: rows}
	} else {
		res = &Result{HasRows: true, Chunks: chunks}
		for _, c := range node.Schema() {
			res.Columns = append(res.Columns, c.Name)
			res.Types = append(res.Types, c.Type)
		}
		rows = res.NumRows()
	}
	plan.Release(node) // the session keeps the plan (s.last), not its tables
	s.finishQuery(ctx, prof, queryTimes{
		optimizeNs:  optimizeNs,
		admitWaitNs: admitWait.Nanoseconds(),
		executeNs:   executeNs,
	}, rows)
	return res, nil
}

func (s *Session) createTable(st *sql.CreateTableStmt, binder *plan.Binder, tx *txn.Transaction) (*Result, error) {
	s.db.ddlMu.Lock()
	defer s.db.ddlMu.Unlock()
	if st.IfNotExists && s.db.cat.HasTable(st.Name) {
		return &Result{}, nil
	}
	var cols []catalog.Column
	var asPlan plan.Node
	if st.AsSelect != nil {
		node, err := binder.BindSelect(st.AsSelect)
		if err != nil {
			return nil, err
		}
		for _, c := range node.Schema() {
			t := c.Type
			if t == types.Null {
				t = types.Varchar
			}
			cols = append(cols, catalog.Column{Name: c.Name, Type: t})
		}
		asPlan = node
	} else {
		for _, c := range st.Cols {
			cols = append(cols, catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull})
		}
	}
	entry := &catalog.Table{Name: st.Name, Columns: cols}
	entry.Data = table.New(entry.Types(), s.db.pool)
	if err := s.db.cat.CreateTable(entry); err != nil {
		return nil, err
	}
	recCols := make([]colDefRec, len(cols))
	for i, c := range cols {
		recCols[i] = colDefRec{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
	}
	tx.AppendLog(byte(wal.RecCreateTable), encodeCreateTable(st.Name, recCols))

	if asPlan != nil {
		insert := &plan.InsertNode{Table: entry, Child: asPlan}
		res, err := s.runDML(insert, tx)
		if err != nil {
			// Roll the catalog entry back; the data rollback happens
			// via the transaction's undo log.
			s.db.cat.DropTable(st.Name) //nolint:errcheck
			return nil, err
		}
		return res, nil
	}
	return &Result{}, nil
}

func (s *Session) drop(st *sql.DropStmt, tx *txn.Transaction) (*Result, error) {
	s.db.ddlMu.Lock()
	defer s.db.ddlMu.Unlock()
	if st.View {
		if err := s.db.cat.DropView(st.Name); err != nil {
			if st.IfExists {
				return &Result{}, nil
			}
			return nil, err
		}
		tx.AppendLog(byte(wal.RecDropView), putString(nil, st.Name))
		return &Result{}, nil
	}
	entry, err := s.db.cat.DropTable(st.Name)
	if err != nil {
		if st.IfExists {
			return &Result{}, nil
		}
		return nil, err
	}
	// The table's blocks become reusable at the next checkpoint (shadow
	// paging: the previous checkpoint may still reference them).
	for c := range entry.ColChains {
		if entry.ColChains[c] == storage.InvalidBlock {
			continue
		}
		blocks := entry.ChainBlocks[c]
		if blocks == nil {
			_, ids, err := storage.ReadChain(s.db.store, entry.ColChains[c])
			if err == nil {
				blocks = ids
			}
		}
		s.db.pendingFree = append(s.db.pendingFree, blocks...)
	}
	tx.AppendLog(byte(wal.RecDropTable), putString(nil, st.Name))
	return &Result{}, nil
}

func (s *Session) copy(st *sql.CopyStmt, tx *txn.Transaction) (*Result, error) {
	entry, err := s.db.cat.Table(st.Table)
	if err != nil {
		return nil, err
	}
	if st.From {
		r, err := csvio.NewReader(st.Path, entry.Types(), csvio.Options{
			Delimiter: st.Delimiter,
			Header:    st.Header,
		})
		if err != nil {
			return nil, err
		}
		defer func() { _ = r.Close() }()
		var total int64
		for {
			chunk, err := r.NextChunk()
			if err != nil {
				return nil, err
			}
			if chunk == nil {
				break
			}
			if err := entry.CheckNotNull(chunk); err != nil {
				return nil, err
			}
			if err := entry.Data.Append(tx, chunk); err != nil {
				return nil, err
			}
			s.db.logger.LogInsert(tx, entry.Name, chunk)
			total += int64(chunk.Len())
		}
		return &Result{RowsAffected: total}, nil
	}
	// COPY ... TO: stream the table out.
	names := make([]string, len(entry.Columns))
	for i, c := range entry.Columns {
		names[i] = c.Name
	}
	w, err := csvio.NewWriter(st.Path, names, csvio.Options{
		Delimiter: st.Delimiter,
		Header:    st.Header,
	})
	if err != nil {
		return nil, err
	}
	src, err := entry.Data.NewMorselSource(tx, table.ScanOptions{})
	if err != nil {
		_ = w.Close()
		return nil, err
	}
	defer src.Close()
	sc := src.Worker()
	var total int64
	for {
		chunk, err := sc.NextChunk()
		if err != nil {
			_ = w.Close()
			return nil, err
		}
		if chunk == nil {
			break
		}
		if err := w.WriteChunk(chunk); err != nil {
			_ = w.Close()
			return nil, err
		}
		total += int64(chunk.Len())
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: total}, nil
}

func (s *Session) explain(st *sql.ExplainStmt, params []types.Value) (*Result, error) {
	if st.Analyze {
		return s.explainAnalyze(st, params)
	}
	binder := &plan.Binder{Cat: s.db.cat, Params: params}
	var node plan.Node
	var err error
	switch inner := st.Stmt.(type) {
	case *sql.SelectStmt:
		node, err = binder.BindSelect(inner)
	case *sql.InsertStmt:
		node, err = binder.BindInsert(inner)
	case *sql.UpdateStmt:
		node, err = binder.BindUpdate(inner)
	case *sql.DeleteStmt:
		node, err = binder.BindDelete(inner)
	default:
		return nil, fmt.Errorf("EXPLAIN supports SELECT, INSERT, UPDATE and DELETE")
	}
	if err != nil {
		return nil, err
	}
	node = plan.Optimize(node)
	text := plan.ExplainTree(node)
	out := vector.NewChunk([]types.Type{types.Varchar})
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		out.AppendRow(types.NewVarchar(line))
	}
	// Surface what each scan's zone maps can prove right now: the pushed
	// conjuncts it will test per segment, and how many of the table's
	// segments the zone maps alone refute. A scan may skip more (it also
	// tests the compressed payloads it loads) and may run segments
	// encoded: EXPLAIN ANALYZE's segs= and enc= are the measured
	// numbers.
	if s.db.ZoneMapsEnabled() {
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			if sn, ok := n.(*plan.ScanNode); ok {
				if zf := plan.ScanZoneFilters(sn); len(zf) > 0 {
					parts := make([]string, len(zf))
					for i, f := range zf {
						parts[i] = f.String(sn.Table.Columns[f.Col].Name)
					}
					skipped, total := sn.Table.Data.ZoneSkipInfo(zf)
					out.AppendRow(types.NewVarchar(fmt.Sprintf(
						"NOTE: SCAN %s zone filters: %s; by zone maps alone, segments skipped: %d/%d",
						sn.Table.Name, strings.Join(parts, " AND "), skipped, total)))
				}
			}
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(node)
	}
	// Surface how aggregation cooperates with an enforced memory_limit:
	// partitions whose accumulator states outgrow the budget spill to
	// sorted state runs and merge back at finish — at full parallelism.
	if lim, agg := s.db.pool.Limit(), exec.FindAggregate(node); lim > 0 && agg != nil {
		out.AppendRow(types.NewVarchar(
			"NOTE: aggregation spills partition-wise under memory_limit (see agg_spill_partitions_total in PRAGMA metrics)"))
		// Surface the budget floor: states touched by in-flight morsels
		// cannot spill, so a tight budget admits fewer accumulation
		// workers instead of hard-failing the reservation.
		threads := s.db.Threads()
		if w := exec.AggWorkersAdmitted(lim, threads, agg); w < threads {
			out.AppendRow(types.NewVarchar(fmt.Sprintf(
				"NOTE: memory_limit admits %d of %d aggregation workers (unspillable in-flight states)", w, threads)))
		}
	}
	return &Result{
		Columns: []string{"plan"},
		Types:   []types.Type{types.Varchar},
		Chunks:  []*vector.Chunk{out},
		HasRows: true,
	}, nil
}

// explainAnalyze executes the statement and returns its profile — the
// measured operator tree plus the phase spans — instead of its rows.
// The run is a plain execution — same admission, same scheduler, same
// transaction semantics, and every statement is profiled — so the
// numbers are the numbers a plain run produces.
func (s *Session) explainAnalyze(st *sql.ExplainStmt, params []types.Value) (*Result, error) {
	sel, ok := st.Stmt.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("EXPLAIN ANALYZE supports SELECT")
	}
	if _, err := s.inTxn(func(tx *txn.Transaction) (*Result, error) {
		binder := &plan.Binder{Cat: s.db.cat, Params: params}
		t0 := time.Now()
		node, err := binder.BindSelect(sel)
		s.bindNs = time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, err
		}
		return s.runPlan(node, tx)
	}); err != nil {
		return nil, err
	}
	p := &s.last
	out := vector.NewChunk([]types.Type{types.Varchar})
	var sb strings.Builder
	p.plan().WriteTree(&sb, 0)
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		out.AppendRow(types.NewVarchar(line))
	}
	out.AppendRow(types.NewVarchar(fmt.Sprintf(
		"phases: parse=%s bind=%s optimize=%s admit_wait=%s execute=%s",
		exec.FmtDur(p.ParseNs), exec.FmtDur(p.BindNs), exec.FmtDur(p.OptimizeNs),
		exec.FmtDur(p.AdmitWaitNs), exec.FmtDur(p.ExecuteNs))))
	out.AppendRow(types.NewVarchar(fmt.Sprintf(
		"totals: threads=%d rows=%d spilled=%dB", p.Threads, p.Rows, p.SpillBytes)))
	return &Result{
		Columns: []string{"explain analyze"},
		Types:   []types.Type{types.Varchar},
		Chunks:  []*vector.Chunk{out},
		HasRows: true,
	}, nil
}

func (s *Session) executePragma(st *sql.PragmaStmt) (*Result, error) {
	readback := func(val string) *Result {
		out := vector.NewChunk([]types.Type{types.Varchar})
		out.AppendRow(types.NewVarchar(val))
		return &Result{Columns: []string{st.Name}, Types: []types.Type{types.Varchar}, Chunks: []*vector.Chunk{out}, HasRows: true}
	}
	boolback := func(on bool) *Result {
		if on {
			return readback("1")
		}
		return readback("0")
	}
	var strVal string
	var intVal int64
	var hasVal bool
	if st.Value != nil {
		lit, ok := st.Value.(*sql.Literal)
		if !ok {
			return nil, fmt.Errorf("PRAGMA %s requires a literal value", st.Name)
		}
		hasVal = true
		strVal = lit.Val.String()
		intVal = lit.Val.AsInt()
	}
	switch st.Name {
	case "memory_limit":
		if !hasVal {
			return readback(strconv.FormatInt(s.db.pool.Limit(), 10)), nil
		}
		bytes, err := parseByteSize(strVal)
		if err != nil {
			return nil, err
		}
		s.db.pool.SetLimit(bytes)
		s.db.admit.wake()
		return &Result{}, nil
	case "threads":
		if !hasVal {
			return readback(strconv.FormatInt(int64(s.db.Threads()), 10)), nil
		}
		s.db.SetThreads(int(intVal))
		return &Result{}, nil
	case "rebuild_stats":
		// Recompute a table's per-segment zone-map statistics exactly
		// from the currently visible rows: deletes and rollbacks widen
		// stats conservatively at runtime, and this tightens them back
		// so scans can refute the vacated ranges again.
		if !hasVal {
			return nil, fmt.Errorf("PRAGMA rebuild_stats requires a table name, e.g. PRAGMA rebuild_stats='t'")
		}
		entry, err := s.db.cat.Table(strVal)
		if err != nil {
			return nil, err
		}
		if err := entry.Data.RebuildStats(s.db.txns.OldestVisibleTS()); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case "memtest":
		if !hasVal {
			return boolback(s.db.pool.MemTestEnabled()), nil
		}
		s.db.pool.EnableMemTest(intVal != 0 || strings.EqualFold(strVal, "true"))
		return &Result{}, nil
	case "checksum_verification":
		if !hasVal {
			return boolback(s.db.store.ChecksumsEnabled()), nil
		}
		s.db.store.SetChecksums(intVal != 0 || strings.EqualFold(strVal, "true"))
		return &Result{}, nil
	case "database_size":
		read, written := s.db.store.Stats()
		return readback(fmt.Sprintf("blocks read %d, written %d, free %d", read, written, s.db.store.FreeCount())), nil
	case "profiling":
		// Every statement is profiled (PRAGMA last_profile): the switch
		// is accepted, ignored and reads 1.
		if !hasVal {
			return boolback(true), nil
		}
		return &Result{}, nil
	case "last_profile":
		// The most recent query of this session, as one JSON object ("{}"
		// before the session ran one).
		if s.last.root == nil {
			return readback("{}"), nil
		}
		s.last.plan()
		buf, err := json.Marshal(&s.last)
		if err != nil {
			return nil, err
		}
		return readback(string(buf)), nil
	case "log_min_duration_ms":
		// Slow-query log threshold: statements taking at least this many
		// milliseconds emit one JSON line to the configured log sink.
		// 0 logs everything; negative (the default) disables.
		if !hasVal {
			return readback(strconv.FormatInt(s.db.logMinDurMs.Load(), 10)), nil
		}
		s.db.logMinDurMs.Store(intVal)
		return &Result{}, nil
	case "metrics":
		// Engine-wide metrics registry snapshot as (name, value) rows —
		// every subsystem counter, gauge and histogram in one read.
		out := vector.NewChunk([]types.Type{types.Varchar, types.BigInt})
		for _, smp := range s.db.Metrics() {
			out.AppendRow(types.NewVarchar(smp.Name), types.NewBigInt(smp.Value))
		}
		return &Result{
			Columns: []string{"name", "value"},
			Types:   []types.Type{types.Varchar, types.BigInt},
			Chunks:  []*vector.Chunk{out},
			HasRows: true,
		}, nil
	default:
		return nil, fmt.Errorf("unknown PRAGMA %q", st.Name)
	}
}

// parseByteSize parses "512MB", "1GB", "1048576" etc. A negative size
// is returned as is (memory_limit reads it as unlimited); NaN, an
// infinity, a size past MaxInt64 bytes and a positive size under one
// byte are errors rather than a limit nobody asked for.
func parseByteSize(in string) (int64, error) {
	s := strings.TrimSpace(strings.ToUpper(in))
	mult := int64(1)
	for _, suffix := range []struct {
		s string
		m int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"B", 1}} {
		if strings.HasSuffix(s, suffix.s) {
			s = strings.TrimSuffix(s, suffix.s)
			mult = suffix.m
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("cannot parse byte size %q", in)
	}
	b := n * float64(mult)
	if math.IsNaN(b) || math.Abs(b) >= 1<<63 || (b > 0 && b < 1) {
		return 0, fmt.Errorf("byte size %q is not a number of bytes in range", in)
	}
	return int64(b), nil
}
