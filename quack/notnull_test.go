package quack_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/types"
	"repro/quack"
)

// notNullFixture is a table with a NOT NULL column holding one row.
func notNullFixture(t *testing.T) *quack.DB {
	t.Helper()
	db := openMem(t)
	mustExec(t, db, "CREATE TABLE x (id BIGINT NOT NULL, s VARCHAR)")
	mustExec(t, db, "INSERT INTO x VALUES (1, 'a')")
	return db
}

func requireUnchanged(t *testing.T, db *quack.DB, path string) {
	t.Helper()
	if got := fmt.Sprint(queryAll(t, db, "SELECT id, s FROM x ORDER BY id")); got != "[[1 a]]" {
		t.Fatalf("after a rejected %s the table holds %s", path, got)
	}
}

// TestNotNullOnEveryWritePath: INSERT, COPY FROM and Appender.AppendChunk
// share one NOT NULL check; each rejects a NULL and stores nothing.
func TestNotNullOnEveryWritePath(t *testing.T) {
	t.Run("insert", func(t *testing.T) {
		db := notNullFixture(t)
		if _, err := db.Exec("INSERT INTO x VALUES (2, 'b'), (NULL, 'c')"); err == nil {
			t.Fatal("INSERT of a NULL id accepted")
		}
		requireUnchanged(t, db, "INSERT")
	})
	t.Run("copy", func(t *testing.T) {
		db := notNullFixture(t)
		path := filepath.Join(t.TempDir(), "in.csv")
		if err := os.WriteFile(path, []byte("1,a\n,b\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(fmt.Sprintf("COPY x FROM '%s'", path)); err == nil {
			t.Fatal("COPY of a NULL id accepted")
		}
		requireUnchanged(t, db, "COPY")
	})
	t.Run("append_chunk", func(t *testing.T) {
		db := notNullFixture(t)
		app, err := db.Appender("x")
		if err != nil {
			t.Fatal(err)
		}
		c := app.NewChunk()
		c.AppendRow(types.NewBigInt(2), types.NewVarchar("b"))
		c.AppendRow(types.NewNull(types.BigInt), types.NewVarchar("c"))
		if err := app.AppendChunk(c); err == nil {
			t.Fatal("AppendChunk of a NULL id accepted")
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		requireUnchanged(t, db, "AppendChunk")
	})
}

// TestAppenderRejectedRowLeavesNoRow: a row AppendRow refuses — a NULL
// in a NOT NULL column or a value that does not cast — must not reach
// the table when the appender commits.
func TestAppenderRejectedRowLeavesNoRow(t *testing.T) {
	db := notNullFixture(t)
	app, err := db.Appender("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := app.AppendRow(nil, "d"); err == nil {
		t.Fatal("NULL id accepted")
	}
	if err := app.AppendRow("not a number", "e"); err == nil {
		t.Fatal("uncastable id accepted")
	}
	if err := app.AppendRow(int64(2), "b"); err != nil {
		t.Fatal(err)
	}
	if app.Rows() != 1 {
		t.Fatalf("Rows() = %d after one accepted row", app.Rows())
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(queryAll(t, db, "SELECT id, s FROM x ORDER BY id")); got != "[[1 a] [2 b]]" {
		t.Fatalf("table holds %s", got)
	}
}
