// Package hotpath exercises the hotpath analyzer: allocation and clock
// work inside //quack:hotpath functions.
package hotpath

import (
	"fmt"
	"sync/atomic"
	"time"
)

type op struct {
	busyNs atomic.Int64
}

//quack:hotpath
func (o *op) badClock(rows []int64) int64 {
	var total int64
	for _, r := range rows {
		t0 := time.Now() // want `clock read inside a loop in a //quack:hotpath function`
		total += r
		o.busyNs.Add(time.Since(t0).Nanoseconds()) // want `clock read inside a loop in a //quack:hotpath function`
		o.busyNs.Add(-nanotime())                  // want `clock read inside a loop in a //quack:hotpath function`
	}
	return total
}

var clockBase = time.Now()

// nanotime wraps the clock: a call to it is a clock read.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// goodClock reads the clock once per call, at its boundaries.
//
//quack:hotpath
func (o *op) goodClock(rows []int64) int64 {
	t0 := time.Now()
	var total int64
	for _, r := range rows {
		total += r
	}
	o.busyNs.Add(time.Since(t0).Nanoseconds() + nanotime())
	return total
}

//quack:hotpath
func (o *op) badFormat(v int) string {
	return fmt.Sprintf("row %d", v) // want `fmt\.Sprintf in a //quack:hotpath function allocates per row`
}

// goodPanic may format: panic paths are cold by definition.
//
//quack:hotpath
func (o *op) goodPanic(n, max int) {
	if n > max {
		panic(fmt.Sprintf("row %d out of range %d", n, max))
	}
}

//quack:hotpath
func badAlloc(rows [][]int) int {
	total := 0
	for range rows {
		buf := make([]int, 8) // want `make\(\) inside a loop in a //quack:hotpath function`
		total += len(buf)
	}
	return total
}

// goodAlloc hoists the buffer out of the loop and reuses it.
//
//quack:hotpath
func goodAlloc(rows [][]int) int {
	buf := make([]int, 0, 8)
	total := 0
	for _, r := range rows {
		buf = append(buf, r...)
		total += len(buf)
		buf = buf[:0]
	}
	return total
}

// Value mirrors the engine's boxed scalar (internal/types.Value): the
// analyzer recognizes it by name.
type Value struct {
	I64  int64
	Null bool
}

type column struct{ i64 []int64 }

func (c *column) Get(i int) Value { return Value{I64: c.i64[i]} }

func (c *column) Row(i int) []Value { return []Value{c.Get(i)} }

//quack:hotpath
func badBoxing(c *column) int64 {
	var total int64
	for i := range c.i64 {
		total += c.Get(i).I64        // want `call returning a boxed types\.Value inside a loop`
		for _, v := range c.Row(i) { // want `call returning a boxed types\.Value inside a loop`
			total += v.I64
		}
	}
	return total
}

// goodBoxing reads the typed payload per row and boxes once, outside
// the loop.
//
//quack:hotpath
func goodBoxing(c *column) Value {
	var total int64
	for _, v := range c.i64 {
		total += v
	}
	first := c.Get(0)
	first.I64 += total
	return first
}

//quack:hotpath
func badClosure(rows []int64) int64 {
	var total int64
	for _, r := range rows {
		add := func(d int64) { total += d } // want `function literal inside a loop in a //quack:hotpath function`
		add(r)
	}
	return total
}

// goodClosure builds its one closure before the loop.
//
//quack:hotpath
func goodClosure(rows []int64) int64 {
	var total int64
	add := func(d int64) { total += d }
	for _, r := range rows {
		add(r)
	}
	return total
}

// coldFormat is unmarked: the analyzer leaves it alone.
func coldFormat(v int) string {
	return fmt.Sprintf("row %d", v)
}

var _ = []any{(*op).badClock, (*op).goodClock, (*op).badFormat, (*op).goodPanic, badAlloc, goodAlloc, badBoxing, goodBoxing, badClosure, goodClosure, coldFormat}
