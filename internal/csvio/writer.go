package csvio

import (
	"encoding/csv"
	"fmt"
	"os"

	"repro/internal/vector"
)

// Writer streams chunks into a CSV file.
type Writer struct {
	f  *os.File
	cw *csv.Writer
}

// NewWriter creates (truncates) path and optionally writes a header row.
func NewWriter(path string, colNames []string, opts Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("csv: %w", err)
	}
	cw := csv.NewWriter(f)
	if opts.Delimiter != 0 {
		cw.Comma = opts.Delimiter
	}
	w := &Writer{f: f, cw: cw}
	if opts.Header {
		if err := cw.Write(colNames); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	return w, nil
}

// WriteChunk appends every row of the chunk.
func (w *Writer) WriteChunk(c *vector.Chunk) error {
	rec := make([]string, c.NumCols())
	for r := 0; r < c.Len(); r++ {
		for i, col := range c.Cols {
			if col.IsNull(r) {
				rec[i] = ""
			} else {
				rec[i] = col.Get(r).String()
			}
		}
		if err := w.cw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the file.
func (w *Writer) Close() error {
	w.cw.Flush()
	if err := w.cw.Error(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}
