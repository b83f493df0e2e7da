package quack_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/quack"
)

// TestShippedPackageGraph pins what linking the engine drags in: the
// public package, the shell and the examples depend on neither the
// row-engine oracle nor the paper-experiment code (internal/bench and
// the AN-code and Figure-1 packages under it). Those are for tests and
// quack-bench only.
func TestShippedPackageGraph(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command("go", "list", "-deps",
		"repro/quack", "repro/cmd/quack-cli", "repro/examples/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	deps := strings.Fields(string(out))
	if len(deps) < 10 {
		t.Fatalf("go list -deps printed %d packages:\n%s", len(deps), out)
	}
	for _, pkg := range deps {
		if pkg == "repro/internal/oracle" || strings.HasPrefix(pkg, "repro/internal/bench") || strings.Contains(pkg, "ancode") {
			t.Errorf("shipped package graph contains %s", pkg)
		}
	}
}

// TestPragmaSurface pins the PRAGMA names the engine accepts — these
// ten — and that each name this list once also held (ten read-only
// mirrors of metrics-registry cells, two differential-axis switches and
// three session admission and scheduling settings) is gone rather than
// silently accepted.
func TestPragmaSurface(t *testing.T) {
	db, err := quack.Open(filepath.Join(t.TempDir(), "surface.qdb"), quack.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a BIGINT)")
	for _, stmt := range []string{
		"PRAGMA memory_limit", "PRAGMA threads", "PRAGMA rebuild_stats='t'", "PRAGMA memtest",
		"PRAGMA checksum_verification", "PRAGMA database_size", "PRAGMA profiling",
		"PRAGMA last_profile", "PRAGMA log_min_duration_ms", "PRAGMA metrics",
	} {
		if _, err := db.Query(stmt); err != nil {
			t.Errorf("%s: %v", stmt, err)
		}
	}
	for _, name := range []string{
		"segments_scanned", "segments_skipped", "segments_encoded", "rows_encoded_selected",
		"agg_spill_partitions", "agg_spilled_bytes", "sort_spilled_bytes",
		"memory_used", "memory_peak", "wal_size", "zone_maps", "encoded_exec",
		"priority", "memory_share", "admission_queue_depth",
	} {
		for _, stmt := range []string{"PRAGMA " + name, "PRAGMA " + name + "=1"} {
			if _, err := db.Query(stmt); err == nil || !strings.Contains(err.Error(), "unknown PRAGMA") {
				t.Errorf("%s: error %v, want unknown PRAGMA", stmt, err)
			}
		}
	}
}

// TestPragmaSwitchReadback: memtest and checksum_verification read back
// the setting in force, from the pool and the store, after the same
// PRAGMA changed it at runtime (they used to answer a constant string).
func TestPragmaSwitchReadback(t *testing.T) {
	db := openMem(t)
	for _, name := range []string{"memtest", "checksum_verification"} {
		for _, set := range []string{"1", "0"} {
			mustExec(t, db, "PRAGMA "+name+"="+set)
			if got := queryAll(t, db, "PRAGMA "+name)[0][0]; got != set {
				t.Errorf("PRAGMA %s after =%s reads %q", name, set, got)
			}
		}
	}
	// What Open configured reads back the same way.
	on, err := quack.Open(":memory:", quack.WithMemTest())
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	if got := queryAll(t, on, "PRAGMA memtest")[0][0]; got != "1" {
		t.Errorf("PRAGMA memtest under WithMemTest reads %q, want 1", got)
	}
	if got := queryAll(t, on, "PRAGMA checksum_verification")[0][0]; got != "1" {
		t.Errorf("PRAGMA checksum_verification by default reads %q, want 1", got)
	}
}
