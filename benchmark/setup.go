package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/quack"
)

// expected is what set-up hands to the measuring process: the generator's
// totals and the reference pass's answer to every query.
type expected struct {
	Fact     totals   `json:"fact"`
	Csv      totals   `json:"csv"`
	Olap     []answer `json:"olap"`
	Serve    []answer `json:"serve"`
	EtlFirst answer   `json:"etl_first"`
	EtlClean answer   `json:"etl_clean"`
}

func (c runConfig) expectedPath() string { return filepath.Join(c.Dir, "expected.json") }

// setUp does everything a run needs before its first timed op: generate
// and load the tables, checkpoint the file (file workloads), write the
// etl CSV, and answer every query once on an in-memory, one-worker,
// unlimited database so that the measured configurations are checked
// against a plain one.
func setUp(cfg runConfig) (expected, error) {
	var exp expected
	if err := os.MkdirAll(cfg.tmpDir(), 0o755); err != nil {
		return exp, err
	}
	for _, p := range []string{cfg.mainPath(), cfg.mainPath() + ".wal"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return exp, err
		}
	}
	if !cfg.Workload.InMemory {
		db, err := quack.Open(cfg.mainPath(), quack.WithThreads(cfg.Workload.Workers))
		if err != nil {
			return exp, err
		}
		if _, err := loadFact(db, cfg.Seed, cfg.Rows); err != nil {
			_ = db.Close()
			return exp, fmt.Errorf("load: %w", err)
		}
		if err := db.Checkpoint(); err != nil {
			_ = db.Close()
			return exp, fmt.Errorf("checkpoint: %w", err)
		}
		if err := db.Close(); err != nil {
			return exp, fmt.Errorf("close: %w", err)
		}
	}
	var err error
	if exp.Csv, err = writeCSV(cfg.csvPath(), cfg.Seed, cfg.Rows); err != nil {
		return exp, fmt.Errorf("write csv: %w", err)
	}
	if err := referencePass(cfg, &exp); err != nil {
		return exp, fmt.Errorf("reference pass: %w", err)
	}
	buf, err := json.Marshal(exp)
	if err != nil {
		return exp, err
	}
	return exp, os.WriteFile(cfg.expectedPath(), buf, 0o644)
}

func referencePass(cfg runConfig, exp *expected) error {
	db, err := quack.Open(":memory:", quack.WithThreads(1))
	if err != nil {
		return err
	}
	defer db.Close()
	if exp.Fact, err = loadFact(db, cfg.Seed, cfg.Rows); err != nil {
		return err
	}
	conn := db.Conn()
	ask := func(sql string) (answer, error) {
		rows, err := conn.Query(sql)
		if err != nil {
			return answer{}, fmt.Errorf("%s: %w", sql, err)
		}
		return fingerprint(rows), nil
	}
	checkedAgg := false
	for _, q := range olapMix(cfg.Seed, cfg.Rows) {
		a, err := ask(q.SQL)
		if err != nil {
			return err
		}
		exp.Olap = append(exp.Olap, a)
		// The reference itself is checked where the generator kept totals.
		if q.Class == "agg" && !checkedAgg {
			checkedAgg = true
			rows, err := conn.Query(q.SQL)
			if err != nil {
				return err
			}
			if err := checkAggAgainstTotals(rows, exp.Fact); err != nil {
				return err
			}
		}
	}
	for _, q := range serveMix {
		a, err := ask(q)
		if err != nil {
			return err
		}
		exp.Serve = append(exp.Serve, a)
	}
	stmts := append([]string{
		"CREATE TABLE raw " + factSchema,
		fmt.Sprintf("COPY raw FROM '%s'", cfg.csvPath()),
	}, etlWrangle...)
	for _, s := range stmts {
		if _, err := conn.Exec(s); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	if exp.EtlFirst, err = ask(etlFirstQuery); err != nil {
		return err
	}
	exp.EtlClean, err = ask(etlCleanQuery)
	return err
}

func readExpected(cfg runConfig) (expected, error) {
	var exp expected
	buf, err := os.ReadFile(cfg.expectedPath())
	if err != nil {
		return exp, err
	}
	return exp, json.Unmarshal(buf, &exp)
}
