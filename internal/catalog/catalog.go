// Package catalog manages QuackDB's schema objects: tables (with their
// column definitions and persistent column chains) and views. The
// catalog serializes into the storage file's root block chain at every
// checkpoint (paper §6: "the first block contains a header that points
// to the table catalog").
package catalog

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/table"
	"repro/internal/types"
	"repro/internal/vector"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    types.Type
	NotNull bool
}

// Table is a catalog entry for one base table.
type Table struct {
	Name    string
	Columns []Column
	Data    *table.DataTable

	// Persistence state, maintained by the checkpointer.
	DiskRows    int64
	ColChains   []storage.BlockID   // chain head per column (InvalidBlock = none)
	ChainBlocks [][]storage.BlockID // every block of each column chain
	// Stats are the per-segment zone maps of the persisted image,
	// Stats[c][i] covering segment i of column c. They ride in the catalog
	// chain so a cold open restores zone maps without touching any column
	// chain (stats are loaded, never recomputed).
	Stats [][]table.ColStats

	shell atomic.Pointer[Table] // Shell, made on first use
}

// Shell returns the table's name and columns without its data: a
// finished query's plan keeps it instead of the table (plan.Release), so
// a kept plan still explains itself but pins no table's data. It is made
// once per table.
func (t *Table) Shell() *Table {
	if s := t.shell.Load(); s != nil {
		return s
	}
	s := &Table{Name: t.Name, Columns: t.Columns}
	s.shell.Store(s)
	t.shell.CompareAndSwap(nil, s)
	return t.shell.Load()
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// CheckNotNull rejects a NULL among the first n rows of v when the
// column is NOT NULL. Every write path checks before it stores: INSERT,
// UPDATE, COPY FROM and the Appender.
func (c Column) CheckNotNull(v *vector.Vector, n int) error {
	if !c.NotNull || v.Valid.CountValid(n) == n {
		return nil
	}
	return fmt.Errorf("NOT NULL constraint violated: column %q", c.Name)
}

// CheckNotNull runs Column.CheckNotNull over every column of chunk.
func (t *Table) CheckNotNull(chunk *vector.Chunk) error {
	for i, c := range t.Columns {
		if err := c.CheckNotNull(chunk.Cols[i], chunk.Len()); err != nil {
			return err
		}
	}
	return nil
}

// Types returns the column types in order.
func (t *Table) Types() []types.Type {
	out := make([]types.Type, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Type
	}
	return out
}

// View is a named stored query.
type View struct {
	Name string
	SQL  string // the view's SELECT statement text
}

// Catalog is the set of schema objects. Names are case-insensitive.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	views  map[string]*View
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
	}
}

func key(name string) string { return strings.ToLower(name) }

// CreateTable registers a table entry.
func (c *Catalog) CreateTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("table %q already exists", t.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("view %q already exists", t.Name)
	}
	if len(t.ColChains) == 0 {
		t.ColChains = make([]storage.BlockID, len(t.Columns))
		for i := range t.ColChains {
			t.ColChains[i] = storage.InvalidBlock
		}
		t.ChainBlocks = make([][]storage.BlockID, len(t.Columns))
	}
	c.tables[k] = t
	return nil
}

// DropTable removes a table and returns its entry (for block freeing).
func (c *Catalog) DropTable(name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", name)
	}
	delete(c.tables, key(name))
	return t, nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", name)
	}
	return t, nil
}

// HasTable reports whether a table exists.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[key(name)]
	return ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateView registers a view.
func (c *Catalog) CreateView(v *View) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(v.Name)
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("view %q already exists", v.Name)
	}
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("table %q already exists", v.Name)
	}
	c.views[k] = v
	return nil
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[key(name)]; !ok {
		return fmt.Errorf("view %q does not exist", name)
	}
	delete(c.views, key(name))
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[key(name)]
	return v, ok
}

// ---- serialization (checkpoint root chain payload) ----

// Serialize encodes the catalog: table schemas with their column chain
// heads and view definitions. DataTable contents are not included; they
// live in the per-column chains.
func (c *Catalog) Serialize() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []byte
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	out = binary.LittleEndian.AppendUint32(out, uint32(len(tables)))
	for _, t := range tables {
		out = appendString(out, t.Name)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(t.Columns)))
		for _, col := range t.Columns {
			out = appendString(out, col.Name)
			out = append(out, byte(col.Type))
			if col.NotNull {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(t.DiskRows))
		for i := range t.Columns {
			head := storage.InvalidBlock
			if i < len(t.ColChains) {
				head = t.ColChains[i]
			}
			out = binary.LittleEndian.AppendUint64(out, uint64(head))
		}
		for i, col := range t.Columns {
			var stats []table.ColStats
			if i < len(t.Stats) {
				stats = t.Stats[i]
			}
			out = table.AppendColStats(out, col.Type, stats)
		}
	}
	views := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		views = append(views, v)
	}
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	out = binary.LittleEndian.AppendUint32(out, uint32(len(views)))
	for _, v := range views {
		out = appendString(out, v.Name)
		out = appendString(out, v.SQL)
	}
	return out
}

// DeserializedTable is the schema-level result of parsing a catalog
// payload; the caller wires up DataTables and loaders.
type DeserializedTable struct {
	Name      string
	Columns   []Column
	DiskRows  int64
	ColChains []storage.BlockID
	Stats     [][]table.ColStats
}

// Deserialize parses a catalog payload.
func Deserialize(data []byte) ([]DeserializedTable, []View, error) {
	r := &reader{data: data}
	nt := r.u32()
	tables := make([]DeserializedTable, 0, nt)
	for i := uint32(0); i < nt && r.err == nil; i++ {
		var t DeserializedTable
		t.Name = r.str()
		nc := r.u32()
		for j := uint32(0); j < nc && r.err == nil; j++ {
			col := Column{Name: r.str(), Type: types.Type(r.u8())}
			col.NotNull = r.u8() == 1
			t.Columns = append(t.Columns, col)
		}
		t.DiskRows = int64(r.u64())
		for j := 0; j < len(t.Columns) && r.err == nil; j++ {
			t.ColChains = append(t.ColChains, storage.BlockID(r.u64()))
		}
		for j := 0; j < len(t.Columns) && r.err == nil; j++ {
			stats, rest, err := table.DecodeColStats(r.data, t.Columns[j].Type)
			if err != nil {
				r.err = err
				break
			}
			r.data = rest
			t.Stats = append(t.Stats, stats)
		}
		tables = append(tables, t)
	}
	nv := r.u32()
	views := make([]View, 0, nv)
	for i := uint32(0); i < nv && r.err == nil; i++ {
		views = append(views, View{Name: r.str(), SQL: r.str()})
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("catalog: corrupt payload: %w", r.err)
	}
	return tables, views, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

type reader struct {
	data []byte
	err  error
}

func (r *reader) take(n int) []byte {
	if r.err != nil || len(r.data) < n {
		if r.err == nil {
			r.err = fmt.Errorf("truncated at %d remaining bytes, need %d", len(r.data), n)
		}
		return nil
	}
	out := r.data[:n]
	r.data = r.data[n:]
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	n := r.u32()
	b := r.take(int(n))
	return string(b)
}
