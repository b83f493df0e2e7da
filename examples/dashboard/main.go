// Dashboard (paper §2): ETL writers continuously refresh the data while
// OLAP readers drive visualizations — concurrently, inside one process.
// MVCC gives every query a consistent snapshot without blocking the
// writers. The application cooperates over memory (§4) the one way the
// engine honours: as its own RAM need changes it moves PRAGMA
// memory_limit, which admission re-reads, operators spill to stay under
// and Auto joins fall back to the merge join for.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/quack"
)

func main() {
	db, err := quack.Open(":memory:", quack.WithMemoryLimit(256<<20))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec("CREATE TABLE metrics (host VARCHAR, cpu DOUBLE, mem DOUBLE, ts BIGINT)"); err != nil {
		log.Fatal(err)
	}
	hosts := []string{"web-1", "web-2", "db-1", "cache-1", "batch-1"}
	app, err := db.Appender("metrics")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		app.AppendRow(hosts[rng.Intn(len(hosts))], rng.Float64()*100, rng.Float64()*64, int64(i))
	}
	if err := app.Close(); err != nil {
		log.Fatal(err)
	}

	var (
		wg        sync.WaitGroup
		refreshes atomic.Int64
		queries   atomic.Int64
	)
	deadline := time.Now().Add(2 * time.Second)

	// ETL writer: periodically ingests a new batch and ages out old rows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := int64(200_000)
		for time.Now().Before(deadline) {
			tx, err := db.Begin()
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				host := hosts[rng.Intn(len(hosts))]
				if _, err := tx.Exec("INSERT INTO metrics VALUES (?, ?, ?, ?)",
					host, rng.Float64()*100, rng.Float64()*64, tick); err != nil {
					log.Fatal(err)
				}
				tick++
			}
			if _, err := tx.Exec("DELETE FROM metrics WHERE ts < ?", tick-250_000); err != nil {
				tx.Rollback()
				continue
			}
			if err := tx.Commit(); err != nil {
				continue // write-write conflict: retry next round
			}
			refreshes.Add(1)
		}
	}()

	// Dashboard readers: each "panel" re-runs its aggregation. The first
	// one also stands in for the app layer's own memory use, which swings
	// between 128MB and 384MB of the 512MB the process may take: the
	// engine's budget is what is left.
	const processRAM = 512 << 20
	for panel := 0; panel < 3; panel++ {
		wg.Add(1)
		go func(panel int) {
			defer wg.Done()
			for round := 0; time.Now().Before(deadline); round++ {
				if panel == 0 {
					appRAM := int64(128+64*(round%5)) << 20
					if _, err := db.Exec(fmt.Sprintf("PRAGMA memory_limit='%dMB'", (processRAM-appRAM)>>20)); err != nil {
						log.Fatal(err)
					}
				}
				rows, err := db.Query(`
					SELECT host, count(*), avg(cpu), max(mem)
					FROM metrics GROUP BY host ORDER BY host`)
				if err != nil {
					log.Fatal(err)
				}
				n := 0
				for rows.Next() {
					n++
				}
				if n == 0 {
					log.Fatal("dashboard lost its data")
				}
				queries.Add(1)
			}
		}(panel)
	}
	wg.Wait()

	fmt.Printf("2s of dashboard traffic: %d ETL refresh transactions, %d OLAP panel queries\n",
		refreshes.Load(), queries.Load())

	rows, err := db.Query("SELECT host, count(*) AS points FROM metrics GROUP BY host ORDER BY host")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("final panel:")
	for rows.Next() {
		var host string
		var points int64
		rows.Scan(&host, &points)
		fmt.Printf("  %-8s %8d points\n", host, points)
	}
}
