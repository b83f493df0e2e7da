// Package bench implements the paper's experiments (E1-E10, indexed in
// docs/ARCHITECTURE.md): workload generators, parameter sweeps,
// baselines and harnesses that print the same rows/series the paper's
// Table 1, Figure 1 and quantified claims report. cmd/quack-bench exposes
// each experiment as a CLI mode. The Figure 1 simulation (figure1.go)
// and AN-code hardening (ancode/) live here, beside the experiments that
// are their only callers; nothing the quack package links imports this
// tree.
package bench

import (
	"fmt"
	"math/rand"

	"repro/quack"
)

// Scale nudges every experiment's data sizes: 1.0 is the paper-scale
// default used by quack-bench; tests and -short runs use smaller values.
type Scale float64

// GenSalesTable fills `name` with a synthetic OLAP fact table:
//
//	id BIGINT, region VARCHAR(8 distinct), qty BIGINT(1..100),
//	price DOUBLE, d BIGINT (measurement with -999 missing markers)
//
// This is the "data wrangling" shape from paper §2: wide fact data with
// encoded missing values.
func GenSalesTable(db *quack.DB, name string, rows int, missingFrac float64, seed int64) error {
	if _, err := db.Exec(fmt.Sprintf(
		"CREATE TABLE %s (id BIGINT, region VARCHAR, qty BIGINT, price DOUBLE, d BIGINT)", name)); err != nil {
		return err
	}
	regions := []string{"north", "south", "east", "west", "emea", "apac", "latam", "anz"}
	rng := rand.New(rand.NewSource(seed))
	app, err := db.Appender(name)
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		d := rng.Int63n(10_000)
		if rng.Float64() < missingFrac {
			d = -999
		}
		if err := app.AppendRow(
			int64(i),
			regions[rng.Intn(len(regions))],
			rng.Int63n(100)+1,
			rng.Float64()*1000,
			d,
		); err != nil {
			app.Abort()
			return err
		}
	}
	return app.Close()
}

// GenKeyedTable fills `name` with (k BIGINT, v BIGINT) where k is
// uniform in [0, keyDomain) — the join workload generator.
func GenKeyedTable(db *quack.DB, name string, rows int, keyDomain int64, seed int64) error {
	if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (k BIGINT, v BIGINT)", name)); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	app, err := db.Appender(name)
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		if err := app.AppendRow(rng.Int63n(keyDomain), int64(i)); err != nil {
			app.Abort()
			return err
		}
	}
	return app.Close()
}
