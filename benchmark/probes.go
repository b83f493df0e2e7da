package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/compress"
	"repro/internal/csvio"
	"repro/internal/expr"
	"repro/internal/extsort"
	"repro/internal/memtest"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wal"
	"repro/quack"
)

// A probe times calls into one layer's exported functions on inputs taken
// from the workload's own data. Each number is the least of probeReps
// runs: a probe asks what the code costs, not how busy the machine was.
const (
	probeReps = 5
	// probeRows bounds the data a probe works on: 32 segments are enough
	// to cost every per-row path and keep all probes within a few seconds.
	probeRows = 32 * chunkRows
)

// best runs f probeReps times and returns the least wall time in ns and
// the least number of heap allocations of one run.
func best(f func() error) (ns, allocs float64, err error) {
	ns, allocs = -1, -1
	var m0, m1 runtime.MemStats
	for i := 0; i < probeReps; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		d := float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&m1)
		a := float64(m1.Mallocs - m0.Mallocs)
		if ns < 0 || d < ns {
			ns = d
		}
		if allocs < 0 || a < allocs {
			allocs = a
		}
	}
	return ns, allocs, nil
}

// probeSet runs the probes against one in-memory copy of the workload's
// tables and one checkpointed file copy, and collects their metrics. The
// probes' scratch files go into cfg.Dir, which its owner removes whole.
type probeSet struct {
	cfg  runConfig
	rows int
	db   *quack.DB // in-memory, one worker
	// data is t, by column, in table order; sorted is (id, qty, price) in
	// the sort class's output order.
	data   []*quack.Chunk
	sorted []*quack.Chunk
	out    map[string]float64
}

func runProbes(cfg runConfig) (map[string]float64, error) {
	p := &probeSet{cfg: cfg, rows: min(cfg.Rows, probeRows), out: map[string]float64{}}
	db, err := quack.Open(":memory:", quack.WithThreads(1))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	p.db = db
	if _, err := loadFact(db, cfg.Seed, p.rows); err != nil {
		return nil, err
	}
	if p.data, err = p.chunks("SELECT id, region, qty, price, d FROM t"); err != nil {
		return nil, err
	}
	if p.sorted, err = p.chunks("SELECT id, qty, price FROM t ORDER BY qty DESC, price, id"); err != nil {
		return nil, err
	}
	for _, probe := range []func() error{
		p.frontEnd, p.expr, p.vector, p.compress, p.table, p.tableCold, p.extsort, p.stateRun,
		p.sched, p.buffer, p.storage, p.wal, p.csvio, p.quackAppend, p.quackFetch,
	} {
		if err := probe(); err != nil {
			return p.out, err
		}
	}
	return p.out, nil
}

func (p *probeSet) chunks(q string) ([]*quack.Chunk, error) {
	rows, err := p.db.Query(q)
	if err != nil {
		return nil, err
	}
	return rows.Chunks(), nil
}

func (p *probeSet) perRow(name string, ns float64) { p.out[name] = ns / float64(p.rows) }

// everyFourth is a one-in-four selection over a full chunk.
func everyFourth() []int {
	sel := make([]int, 0, chunkRows/4)
	for i := 0; i < chunkRows; i += 4 {
		sel = append(sel, i)
	}
	return sel
}

// int64Column gathers column col of data into one slice.
func int64Column(data []*quack.Chunk, col int) []int64 {
	var out []int64
	for _, c := range data {
		out = append(out, c.Cols[col].I64[:c.Len()]...)
	}
	return out
}

// frontEnd probes sql.Parse, Binder.BindSelect and plan.Optimize on every
// SELECT the phases issue, against the live catalog.
func (p *probeSet) frontEnd() error {
	var texts []string
	for _, q := range olapMix(p.cfg.Seed, p.rows) {
		texts = append(texts, q.SQL)
	}
	texts = append(texts, serveMix...)
	n := float64(len(texts))

	stmts := make([]*sql.SelectStmt, len(texts))
	ns, allocs, err := best(func() error {
		for i, t := range texts {
			st, err := sql.ParseOne(t)
			if err != nil {
				return err
			}
			sel, ok := st.(*sql.SelectStmt)
			if !ok {
				return fmt.Errorf("probe: %q is not a SELECT", t)
			}
			stmts[i] = sel
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["sql.parse_ns_per_query"], p.out["sql.parse_allocs_per_query"] = ns/n, allocs/n

	nodes := make([]plan.Node, len(stmts))
	cat := p.db.Internal().Catalog()
	if ns, _, err = best(func() error {
		for i, st := range stmts {
			b := plan.Binder{Cat: cat}
			if nodes[i], err = b.BindSelect(st); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["plan.bind_ns_per_query"] = ns / n

	// Optimize rewrites the tree it is given, so every run binds afresh
	// outside the clock.
	least := -1.0
	for rep := 0; rep < probeReps; rep++ {
		for i, st := range stmts {
			b := plan.Binder{Cat: cat}
			if nodes[i], err = b.BindSelect(st); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for i := range nodes {
			nodes[i] = plan.Optimize(nodes[i])
		}
		if d := float64(time.Since(t0).Nanoseconds()); least < 0 || d < least {
			least = d
		}
	}
	p.out["plan.optimize_ns_per_query"] = least / n
	return nil
}

// expr probes Eval and SelectTrue on the table's chunks: the comparison
// of the scan class (qty > 98 AND price < 10.0) and the arithmetic of
// agg_hc (id - id % 8).
func (p *probeSet) expr() error {
	col := func(i int) *expr.ColRef { return &expr.ColRef{Idx: i, Typ: factTypes[i]} }
	cmp := &expr.Logic{Op: expr.OpAnd,
		L: &expr.Compare{Op: expr.CmpGt, L: col(2), R: &expr.Const{Val: types.NewBigInt(98)}},
		R: &expr.Compare{Op: expr.CmpLt, L: col(3), R: &expr.Const{Val: types.NewDouble(10)}},
	}
	arith := &expr.Arith{Op: expr.OpSub, Typ: types.BigInt, L: col(0),
		R: &expr.Arith{Op: expr.OpMod, Typ: types.BigInt, L: col(0), R: &expr.Const{Val: types.NewBigInt(8)}}}
	var sel []int
	ns, allocs, err := best(func() error {
		for _, c := range p.data {
			mask, err := cmp.Eval(c)
			if err != nil {
				return err
			}
			sel = expr.SelectTrue(mask, sel)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.perRow("expr.compare_ns_per_row", ns)
	p.out["expr.filter_allocs_per_chunk"] = allocs / float64(len(p.data))
	if ns, _, err = best(func() error {
		for _, c := range p.data {
			if _, err := arith.Eval(c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.perRow("expr.arith_ns_per_row", ns)
	return nil
}

// vector probes CompactInto with a one-in-four selection, AppendRange
// of whole chunks, and the spill format's EncodeChunk and DecodeChunk.
func (p *probeSet) vector() error {
	sel := everyFourth()
	dst := vector.NewChunk(factTypes)
	ns, _, err := best(func() error {
		for _, c := range p.data {
			if c.Len() == chunkRows {
				c.CompactInto(dst, sel)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.perRow("vector.compact_ns_per_row", ns)

	if ns, _, err = best(func() error {
		for col, t := range factTypes {
			v := vector.New(t, 0)
			for _, c := range p.data {
				v.AppendRange(c.Cols[col], 0, c.Len())
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.perRow("vector.append_range_ns_per_row", ns)

	var buf []byte
	if ns, _, err = best(func() error {
		for _, c := range p.data {
			buf = vector.EncodeChunk(buf[:0], c)
			if _, _, err := vector.DecodeChunk(buf); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.perRow("vector.codec_ns_per_row", ns)
	return nil
}

// compress probes the codecs and the encoded-execution kernels a segment
// at a time, as checkpoints and scans use them: id, qty and d
// frame-of-reference, qty in sort order run-length, region dictionary.
func (p *probeSet) compress() error {
	segments := func(vals []int64) [][]int64 {
		var segs [][]int64
		for len(vals) > 0 {
			n := min(len(vals), chunkRows)
			segs = append(segs, vals[:n])
			vals = vals[n:]
		}
		return segs
	}
	var plain [][]int64
	for _, col := range []int{0, 2, 4} {
		plain = append(plain, segments(int64Column(p.data, col))...)
	}
	runs := segments(int64Column(p.sorted, 1))

	encode := func(segs [][]int64) (enc [][]byte, ns float64, err error) {
		enc = make([][]byte, len(segs))
		ns, _, err = best(func() error {
			for i, s := range segs {
				enc[i] = compress.CompressInt64(s, compress.Light)
			}
			return nil
		})
		return enc, ns, err
	}
	plainEnc, ns, err := encode(plain)
	if err != nil {
		return err
	}
	values := float64(3 * p.rows)
	p.out["compress.encode_int_ns_per_row"] = ns / values
	var bytes int
	for _, e := range plainEnc {
		bytes += len(e)
	}
	p.out["compress.bytes_per_value"] = float64(bytes) / values
	runEnc, _, err := encode(runs)
	if err != nil {
		return err
	}

	if ns, _, err = best(func() error {
		for _, e := range plainEnc {
			if _, err := compress.DecompressInt64(e); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["compress.decode_int_ns_per_row"] = ns / values

	// The kernels decline payloads they cannot answer exactly; a declined
	// segment is not work done, so it fails the probe.
	match := make([]bool, chunkRows)
	selectAll := func(enc [][]byte, c int64) (float64, error) {
		ns, _, err := best(func() error {
			for _, e := range enc {
				for i := range match {
					match[i] = true
				}
				if !compress.SelectInt64(e, compress.CmpGt, c, match) {
					return fmt.Errorf("probe: SelectInt64 declined a segment")
				}
			}
			return nil
		})
		return ns, err
	}
	if ns, err = selectAll(plainEnc, 50); err != nil {
		return err
	}
	p.out["compress.select_for_ns_per_row"] = ns / values
	if ns, err = selectAll(runEnc, 50); err != nil {
		return err
	}
	p.perRow("compress.select_rle_ns_per_row", ns)

	sel := everyFourth()
	out := make([]int64, chunkRows)
	if ns, _, err = best(func() error {
		for i, e := range plainEnc {
			s := sel
			for len(s) > 0 && s[len(s)-1] >= len(plain[i]) {
				s = s[:len(s)-1]
			}
			if !compress.GatherInt64(e, s, out) {
				return fmt.Errorf("probe: GatherInt64 declined a segment")
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["compress.gather_ns_per_row"] = ns / (values / 4)

	var dicts []compress.StringDict
	var codes [][]byte
	for _, c := range p.data {
		d := compress.EncodeStrings(c.Cols[1].Str[:c.Len()])
		dicts = append(dicts, d)
		codes = append(codes, compress.CompressInt64(d.Indexes, compress.Light))
	}
	if ns, _, err = best(func() error {
		for _, d := range dicts {
			d.Decode()
		}
		return nil
	}); err != nil {
		return err
	}
	p.perRow("compress.dict_decode_ns_per_row", ns)
	if ns, _, err = best(func() error {
		for i, e := range codes {
			member := make([]bool, len(dicts[i].Values))
			for j, v := range dicts[i].Values {
				member[j] = v == "emea"
			}
			for j := range match {
				match[j] = true
			}
			if !compress.SelectInt64In(e, member, match[:len(dicts[i].Indexes)]) {
				return fmt.Errorf("probe: SelectInt64In declined a segment")
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.perRow("compress.select_dict_ns_per_row", ns)
	return nil
}

// scanAll drains one worker of a morsel source over every column of t.
func scanAll(db *quack.DB) (int, error) {
	entry, err := db.Internal().Catalog().Table("t")
	if err != nil {
		return 0, err
	}
	tx := db.Internal().Txns().Begin()
	defer db.Internal().Txns().Rollback(tx)
	src, err := entry.Data.NewMorselSource(tx, table.ScanOptions{})
	if err != nil {
		return 0, err
	}
	defer src.Close()
	w := src.Worker()
	rows := 0
	for {
		seq, c, err := w.Next()
		if err != nil {
			return 0, err
		}
		if seq < 0 {
			return rows, nil
		}
		if c != nil {
			rows += c.Len()
		}
	}
}

// table probes the morsel scan and Append on resident, decoded segments.
func (p *probeSet) table() error {
	ns, allocs, err := best(func() error {
		n, err := scanAll(p.db)
		if err == nil && n != p.rows {
			err = fmt.Errorf("probe: scan saw %d of %d rows", n, p.rows)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.perRow("table.scan_ns_per_row", ns)
	p.perRow("table.scan_allocs_per_row", allocs)

	core := p.db.Internal()
	if ns, _, err = best(func() error {
		dt := table.New(factTypes, core.Pool())
		tx := core.Txns().Begin()
		defer core.Txns().Rollback(tx)
		for _, c := range p.data {
			if err := dt.Append(tx, c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.perRow("table.append_ns_per_row", ns)
	return nil
}

// tableCold probes the same scan on a file opened a moment ago: column
// chains read through storage, every segment decoded.
func (p *probeSet) tableCold() error {
	path := filepath.Join(p.cfg.Dir, "probe.qdb")
	db, err := quack.Open(path, quack.WithThreads(1))
	if err != nil {
		return err
	}
	if _, err := loadFact(db, p.cfg.Seed, p.rows); err != nil {
		_ = db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	ns, _, err := best(func() error {
		db, err := quack.Open(path, quack.WithThreads(1))
		if err != nil {
			return err
		}
		defer db.Close()
		n, err := scanAll(db)
		if err == nil && n != p.rows {
			err = fmt.Errorf("probe: cold scan saw %d of %d rows", n, p.rows)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.perRow("table.scan_cold_ns_per_row", ns)
	return nil
}

// spillBudget makes the sorter spill a few runs of the probe's rows
// (24 B each, about 768 KB in all).
const spillBudget = 128 << 10

// sortKeys are the sort class's keys over (id, qty, price).
var sortKeys = []extsort.Key{{Col: 1, Desc: true}, {Col: 2}, {Col: 0}}

// extsort probes the sorter with the sort class's rows and keys, first
// with no budget (one in-memory run, timed with its read-back) and then
// with spillBudget (sorted runs spilled, then merged, timed apart), and
// CompareRows on neighbouring rows.
func (p *probeSet) extsort() error {
	typs := []types.Type{types.BigInt, types.BigInt, types.Double}
	input, err := p.chunks("SELECT id, qty, price FROM t")
	if err != nil {
		return err
	}
	// sortOnce returns the time to Add and Finish, the time to read the
	// sorted stream back, and the bytes spilled.
	sortOnce := func(budget int64) (sortNs, readNs, spilled float64, err error) {
		s := extsort.NewSorter(typs, sortKeys, budget, p.cfg.tmpDir())
		defer s.Close()
		t0 := time.Now()
		for _, c := range input {
			if err := s.Add(c); err != nil {
				return 0, 0, 0, err
			}
		}
		it, err := s.Finish()
		if err != nil {
			return 0, 0, 0, err
		}
		defer it.Close()
		t1 := time.Now()
		n := 0
		for {
			c, err := it.Next()
			if err != nil {
				return 0, 0, 0, err
			}
			if c == nil {
				break
			}
			n += c.Len()
		}
		if n != p.rows {
			return 0, 0, 0, fmt.Errorf("probe: sorter returned %d of %d rows", n, p.rows)
		}
		return float64(t1.Sub(t0).Nanoseconds()), float64(time.Since(t1).Nanoseconds()), float64(s.SpilledBytes()), nil
	}
	runNs, allocs, err := best(func() error {
		_, _, _, err := sortOnce(0)
		return err
	})
	if err != nil {
		return err
	}
	spillNs, mergeNs, spilled := -1.0, -1.0, 0.0
	for rep := 0; rep < probeReps; rep++ {
		ns, read, bytes, err := sortOnce(spillBudget)
		if err != nil {
			return err
		}
		if spillNs < 0 || ns < spillNs {
			spillNs = ns
		}
		if mergeNs < 0 || read < mergeNs {
			mergeNs = read
		}
		spilled = bytes
	}
	p.perRow("extsort.run_sort_ns_per_row", runNs)
	p.perRow("extsort.run_sort_allocs_per_row", allocs)
	p.perRow("extsort.spill_sort_ns_per_row", spillNs)
	p.perRow("extsort.merge_ns_per_row", mergeNs)
	p.perRow("extsort.spill_bytes_per_row", spilled)

	compares := 0
	ns, _, err := best(func() error {
		compares = 0
		for _, c := range input {
			for r := 1; r < c.Len(); r++ {
				compareSink += extsort.CompareRows(c, r-1, c, r, sortKeys)
				compares++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["extsort.compare_ns"] = ns / float64(compares)
	return nil
}

var compareSink int

// stateRun probes the aggregate spill format: one run of agg_hc's
// states (an 8-byte group key, a 24-byte state) written and read back.
func (p *probeSet) stateRun() error {
	states := p.rows / 8
	ns, _, err := best(func() error {
		sf, err := extsort.NewStateSpillFile(p.cfg.tmpDir())
		if err != nil {
			return err
		}
		defer sf.Close()
		w, err := sf.NewRun()
		if err != nil {
			return err
		}
		var key [8]byte
		var state [24]byte
		for i := 0; i < states; i++ {
			binary.BigEndian.PutUint64(key[:], uint64(i*8))
			binary.LittleEndian.PutUint64(state[:], uint64(i))
			if err := w.Append(key[:], state[:]); err != nil {
				return err
			}
		}
		run, err := w.Finish()
		if err != nil {
			return err
		}
		cur := run.Cursor()
		defer cur.Close()
		n := 0
		for {
			ok, err := cur.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			n++
		}
		if n != states {
			return fmt.Errorf("probe: state run returned %d of %d states", n, states)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["extsort.staterun_ns_per_state"] = ns / float64(states)
	return nil
}

// sched probes a two-worker pool with one query whose every step
// submits the next and does nothing else: the cost of one hand-off.
func (p *probeSet) sched() error {
	const steps = 20_000
	s := sched.New(2)
	defer s.Stop()
	ns, _, err := best(func() error {
		q := s.NewQuery(0)
		done := make(chan struct{})
		left := steps
		var step sched.Task
		step = func() {
			left--
			if left == 0 {
				close(done)
				return
			}
			q.Submit(step)
		}
		q.Submit(step)
		<-done
		return nil
	})
	if err != nil {
		return err
	}
	p.out["sched.step_overhead_ns"] = ns / steps
	return nil
}

func (p *probeSet) buffer() error {
	const pairs = 100_000
	pool := buffer.NewPool(1<<30, memtest.NewTester(nil))
	ns, _, err := best(func() error {
		for i := 0; i < pairs; i++ {
			if err := pool.Reserve(64 << 10); err != nil {
				return err
			}
			pool.Release(64 << 10)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["buffer.reserve_release_ns"] = ns / pairs
	return nil
}

// storage probes full-block writes and reads on a file of its own.
func (p *probeSet) storage() error {
	const blocks = 32
	path := filepath.Join(p.cfg.Dir, "probe.blocks")
	m, _, err := storage.Open(path, storage.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = m.Close() }() // a scratch file; the probed writes and reads are checked
	payload := make([]byte, storage.MaxPayload)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	ids := make([]storage.BlockID, blocks)
	for i := range ids {
		ids[i] = m.Allocate()
	}
	ns, _, err := best(func() error {
		for _, id := range ids {
			if err := m.WriteBlock(id, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["storage.write_block_ns"] = ns / blocks
	if ns, _, err = best(func() error {
		for _, id := range ids {
			if _, err := m.ReadBlock(id); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["storage.read_block_ns"] = ns / blocks
	return nil
}

// wal probes AppendCommit, fsync included, with the record a write
// transaction of the serve phase logs: one update of 500 rows.
func (p *probeSet) wal() error {
	const commits = 20
	path := filepath.Join(p.cfg.Dir, "probe.wal")
	log, err := wal.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = log.Close() }() // a scratch file; every AppendCommit is checked
	rec := []wal.Record{{Type: wal.RecUpdate, Payload: make([]byte, 500*16)}}
	ts := uint64(1)
	ns, _, err := best(func() error {
		for i := 0; i < commits; i++ {
			if err := log.AppendCommit(rec, ts); err != nil {
				return err
			}
			ts++
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["wal.commit_ns"] = ns / commits
	return nil
}

// csvio probes the reader on the head of the set-up CSV and the writer
// on the table's chunks.
func (p *probeSet) csvio() error {
	ns, _, err := best(func() error {
		r, err := csvio.NewReader(p.cfg.csvPath(), factTypes, csvio.Options{})
		if err != nil {
			return err
		}
		defer func() { _ = r.Close() }() // only read
		for n := 0; n < p.rows; {
			c, err := r.NextChunk()
			if err != nil {
				return err
			}
			if c == nil {
				return fmt.Errorf("probe: the CSV ended after %d rows", n)
			}
			n += c.Len()
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.perRow("csvio.read_ns_per_row", ns)

	path := filepath.Join(p.cfg.Dir, "probe.csv")
	if ns, _, err = best(func() error {
		w, err := csvio.NewWriter(path, nil, csvio.Options{})
		if err != nil {
			return err
		}
		for _, c := range p.data {
			if err := w.WriteChunk(c); err != nil {
				_ = w.Close()
				return err
			}
		}
		return w.Close()
	}); err != nil {
		return err
	}
	p.perRow("csvio.write_ns_per_row", ns)
	return nil
}

// quackAppend probes the two bulk-load paths of the public API.
func (p *probeSet) quackAppend() error {
	load := func(name string, fill func(app *quack.Appender) error) (float64, error) {
		ns, _, err := best(func() error {
			if _, err := p.db.Exec("CREATE TABLE " + name + " " + factSchema); err != nil {
				return err
			}
			defer p.db.Exec("DROP TABLE " + name)
			app, err := p.db.Appender(name)
			if err != nil {
				return err
			}
			if err := fill(app); err != nil {
				app.Abort()
				return err
			}
			return app.Close()
		})
		return ns, err
	}
	ns, err := load("by_row", func(app *quack.Appender) error {
		for _, c := range p.data {
			for r := 0; r < c.Len(); r++ {
				if err := app.AppendRow(c.Cols[0].I64[r], c.Cols[1].Str[r], c.Cols[2].I64[r], c.Cols[3].F64[r], c.Cols[4].I64[r]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.perRow("quack.append_row_ns_per_row", ns)
	// AppendChunk takes ownership of the chunk, so each run hands over
	// fresh ones, generated inside the clock as a loader would.
	if ns, err = load("by_chunk", func(app *quack.Appender) error {
		fs := newFactStream(p.cfg.Seed, p.rows)
		for {
			c := app.NewChunk()
			if fs.fill(c) == 0 {
				return nil
			}
			if err := app.AppendChunk(c); err != nil {
				return err
			}
		}
	}); err != nil {
		return err
	}
	p.perRow("quack.append_chunk_ns_per_row", ns)
	return nil
}

// quackFetch probes result transfer: SELECT * FROM t taken as chunks of
// column slices, and taken a value at a time through Next and Scan. The
// query runs outside the clock; only the hand-over is timed.
func (p *probeSet) quackFetch() error {
	fetch := func(consume func(rows *quack.Rows) (int64, error)) (ns, allocs float64, err error) {
		ns, allocs = -1, -1
		var m0, m1 runtime.MemStats
		for rep := 0; rep < probeReps; rep++ {
			rows, err := p.db.Query("SELECT * FROM t")
			if err != nil {
				return 0, 0, err
			}
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			sum, err := consume(rows)
			d := float64(time.Since(t0).Nanoseconds())
			runtime.ReadMemStats(&m1)
			if err != nil {
				return 0, 0, err
			}
			fetchSink = sum
			if ns < 0 || d < ns {
				ns = d
			}
			if a := float64(m1.Mallocs - m0.Mallocs); allocs < 0 || a < allocs {
				allocs = a
			}
		}
		return ns, allocs, nil
	}
	ns, _, err := fetch(func(rows *quack.Rows) (sum int64, err error) {
		for c := rows.NextChunk(); c != nil; c = rows.NextChunk() {
			for _, q := range c.Cols[2].I64[:c.Len()] {
				sum += q
			}
		}
		return sum, nil
	})
	if err != nil {
		return err
	}
	p.perRow("quack.fetch_chunk_ns_per_row", ns)

	ns, allocs, err := fetch(func(rows *quack.Rows) (sum int64, err error) {
		var (
			id, qty, d int64
			region     string
			price      float64
		)
		for rows.Next() {
			if err := rows.Scan(&id, &region, &qty, &price, &d); err != nil {
				return 0, err
			}
			sum += qty
		}
		return sum, nil
	})
	if err != nil {
		return err
	}
	p.perRow("quack.fetch_value_ns_per_row", ns)
	p.perRow("quack.fetch_value_allocs_per_row", allocs)
	return nil
}

var fetchSink int64
