//go:build !unix

package tiered

import (
	"io"
	"os"
)

// Fallback for hosts without mmap: read the whole file into memory.
// Capacity is then bounded by RAM again, but the format, CRCs, and query
// path are identical.
type mapping struct{ data []byte }

func mapFile(f *os.File, size int64) (*mapping, []byte, error) {
	buf := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), buf); err != nil {
		return nil, nil, err
	}
	return &mapping{data: buf}, buf, nil
}

func (m *mapping) close() error {
	if m != nil {
		m.data = nil
	}
	return nil
}
