package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"repro/quack"
)

// span is one interval of one op at one layer boundary. Spans of one op
// share Op, the id of its root span. The root is timed here, around
// Query and the drain of its result; the children are filled from what
// the engine reports for that query (PRAGMA last_profile), which gives
// durations and no start times, so children are laid end to end from
// their parent's start, in phase order.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, children []span) int64 {
	self := s.dur()
	for _, c := range children {
		self -= c.dur()
	}
	return max(self, 0)
}

// engineProfile mirrors the JSON of PRAGMA last_profile.
type engineProfile struct {
	Threads     int       `json:"threads"`
	ParseNs     int64     `json:"parse_ns"`
	BindNs      int64     `json:"bind_ns"`
	OptimizeNs  int64     `json:"optimize_ns"`
	AdmitWaitNs int64     `json:"admit_wait_ns"`
	ExecuteNs   int64     `json:"execute_ns"`
	Plan        *engineOp `json:"plan"`
}

type engineOp struct {
	Name            string      `json:"name"`
	WallNs          int64       `json:"wall_ns"`
	BusyNs          int64       `json:"busy_ns"`
	Rows            int64       `json:"rows"`
	SegmentsScanned int64       `json:"segments_scanned"`
	DecodedRows     int64       `json:"decoded_rows"`
	SelectedRows    int64       `json:"selected_rows"`
	Children        []*engineOp `json:"children"`
}

// dur is the operator's time: wall time, or for a scan leaf, which has
// none, its busy time, summed over the workers, divided among them. With
// more than one worker the engine books the work fused into the scan's
// pipeline (accumulation, run generation) to that busy time, so there an
// operator's self time is only what ran outside the pipeline.
func (o *engineOp) dur(threads int) int64 {
	if o.WallNs > 0 {
		return o.WallNs
	}
	return o.BusyNs / int64(max(threads, 1))
}

// opKind names the operator family from the plan node's label.
func opKind(name string) string {
	switch {
	case strings.HasPrefix(name, "SCAN"):
		return "scan"
	case strings.HasPrefix(name, "AGGREGATE"):
		return "agg"
	case strings.HasPrefix(name, "SORT"):
		return "sort"
	case strings.HasPrefix(name, "WINDOW"):
		return "window"
	case strings.Contains(name, "JOIN"):
		return "join"
	default:
		return "other"
	}
}

// classTrace is what the spans of one class add up to.
type classTrace struct {
	Queries   int64            `json:"queries"`
	RootNs    int64            `json:"root_ns"`
	PhaseNs   int64            `json:"phase_ns"` // sum of the root's child spans
	PlanNs    int64            `json:"parse_bind_optimize_ns"`
	AdmitNs   int64            `json:"admit_wait_ns"`
	ExecuteNs int64            `json:"execute_ns"`
	SelfNs    map[string]int64 `json:"self_ns_by_operator"`
	ScanBusy  int64            `json:"scan_busy_ns"`
	ScanRows  int64            `json:"scan_rows_covered"`
	Decoded   int64            `json:"decoded_rows"`
	Selected  int64            `json:"selected_rows"`
}

// tracer keeps the spans of a traced run in memory; they are written
// out once, when the run ends.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	classes map[string]*classTrace
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), classes: map[string]*classTrace{}}
}

func (t *tracer) newSpan(parent, op int, layer, name string, start, dur int64) span {
	s := span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, Start: start, End: start + dur}
	if op == 0 {
		s.Op = s.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// query records the root span of a query that ran on conn from start for
// d, and its child spans from the profile the engine kept of it.
func (t *tracer) query(conn *quack.Conn, class string, start time.Time, d time.Duration) error {
	prof, err := lastProfile(conn)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ct := t.classes[class]
	if ct == nil {
		ct = &classTrace{SelfNs: map[string]int64{}}
		t.classes[class] = ct
	}
	root := t.newSpan(0, 0, "quack", class, start.Sub(t.t0).Nanoseconds(), d.Nanoseconds())
	at := root.Start
	var execute span // the last phase; the operator tree hangs under it
	for _, ph := range []struct {
		layer, name string
		ns          int64
	}{
		{"sql", "parse", prof.ParseNs},
		{"plan", "bind", prof.BindNs},
		{"plan", "optimize", prof.OptimizeNs},
		{"core", "admit_wait", prof.AdmitWaitNs},
		{"exec", "execute", prof.ExecuteNs},
	} {
		execute = t.newSpan(root.ID, root.ID, ph.layer, ph.name, at, ph.ns)
		at += ph.ns
		ct.PhaseNs += ph.ns
	}
	ct.Queries++
	ct.RootNs += root.dur()
	ct.PlanNs += prof.ParseNs + prof.BindNs + prof.OptimizeNs
	ct.AdmitNs += prof.AdmitWaitNs
	ct.ExecuteNs += prof.ExecuteNs
	if prof.Plan != nil {
		t.operator(ct, execute, prof.Plan, prof.Threads)
	}
	return nil
}

// operator records op and its subtree under parent and adds each
// operator's self time to its family.
func (t *tracer) operator(ct *classTrace, parent span, op *engineOp, threads int) span {
	kind := opKind(op.Name)
	layer := "exec"
	if kind == "scan" {
		layer = "table"
		// One worker scans on the caller's goroutine and reports wall time.
		ct.ScanBusy += max(op.BusyNs, op.WallNs)
		ct.ScanRows += op.SegmentsScanned * chunkRows
		ct.Decoded += op.DecodedRows
		ct.Selected += op.SelectedRows
	}
	s := t.newSpan(parent.ID, parent.Op, layer, op.Name, parent.Start, min(op.dur(threads), parent.dur()))
	var children []span
	for _, c := range op.Children {
		children = append(children, t.operator(ct, s, c, threads))
	}
	ct.SelfNs[kind] += selfTime(s, children)
	return s
}

func lastProfile(conn *quack.Conn) (*engineProfile, error) {
	rows, err := conn.Query("PRAGMA last_profile")
	if err != nil {
		return nil, err
	}
	c := rows.NextChunk()
	if c == nil || c.Len() != 1 {
		return nil, fmt.Errorf("last_profile: no row")
	}
	var p engineProfile
	if err := json.Unmarshal([]byte(c.Cols[0].Str[0]), &p); err != nil {
		return nil, fmt.Errorf("last_profile: %w", err)
	}
	return &p, nil
}

// write stores the spans and the per-class sums as one JSON file.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Classes map[string]*classTrace `json:"classes"`
		Spans   []span                 `json:"spans"`
	}{t.classes, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// unattributed is the share of a class's root spans that no child span
// covers: result hand-over and whatever else the engine does not report.
func (ct *classTrace) unattributed() float64 {
	if ct == nil || ct.RootNs == 0 {
		return 0
	}
	return max(0, 1-float64(ct.PhaseNs)/float64(ct.RootNs))
}
