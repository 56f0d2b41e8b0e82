package chunk

// This file implements FastCDC content-defined chunking (Xia et al.,
// USENIX ATC'16) — the splitter behind the content-addressed snapshot
// store. It coexists with the simpler Rabin-style CDC above, which remains
// the Figure 8 transmission baseline.
//
// A rolling gear hash walks the byte stream and declares a chunk boundary
// wherever the hash's top bits are all zero under a mask. Because the
// boundary decision depends only on a small window of content (the last ~64
// bytes feeding the gear hash), inserting or deleting bytes shifts at most
// the chunks around the edit: the cut points downstream re-synchronize on
// the same content, so unchanged regions of consecutive snapshots produce
// byte-identical chunks and deduplicate perfectly.
//
// Two FastCDC refinements over plain gear CDC are used:
//
//   - cut-point skipping: the first MinSize bytes of every chunk are not
//     hashed at all, which both enforces the minimum and skips ~MinSize of
//     hashing work per chunk;
//   - normalized chunking: before the AvgSize point a *harder* mask
//     (Normalization extra bits) suppresses early cuts, after it an *easier*
//     mask encourages one — pulling the size distribution toward AvgSize and
//     away from the exponential tail plain CDC produces.

import (
	"fmt"
	"math/bits"
)

// Default chunk geometry: 2 KB / 64 KB / 1 MB with normalization level 2.
// These are the production snapshot-store settings; a laptop-scale corpus
// wants a proportionally smaller geometry (fastd -snapshot-chunk-avg) so
// the granularity-to-payload ratio stays representative.
const (
	DefaultMinSize       = 2 << 10
	DefaultAvgSize       = 64 << 10
	DefaultMaxSize       = 1 << 20
	DefaultNormalization = 2
)

// Config is the chunking geometry. The zero value selects the defaults
// above via WithDefaults.
type Config struct {
	// MinSize is the smallest chunk ever emitted (except the final chunk of
	// a stream, which may be shorter). Bytes below MinSize are not hashed.
	MinSize int
	// AvgSize is the target expected chunk size; must be a power of two.
	AvgSize int
	// MaxSize forces a cut regardless of content.
	MaxSize int
	// Normalization is how many mask bits to add before the AvgSize point
	// and remove after it (FastCDC's "normalized chunking" level).
	Normalization int
}

// WithDefaults fills zero fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.MinSize == 0 {
		c.MinSize = DefaultMinSize
	}
	if c.AvgSize == 0 {
		c.AvgSize = DefaultAvgSize
	}
	if c.MaxSize == 0 {
		c.MaxSize = DefaultMaxSize
	}
	if c.Normalization == 0 {
		c.Normalization = DefaultNormalization
	}
	return c
}

// validate rejects geometries the cut loop cannot honor.
func (c Config) validate() error {
	if c.MinSize < 64 {
		return fmt.Errorf("chunk: MinSize %d below minimum 64", c.MinSize)
	}
	if c.MaxSize > 1<<30 {
		return fmt.Errorf("chunk: MaxSize %d above maximum %d", c.MaxSize, 1<<30)
	}
	if c.AvgSize&(c.AvgSize-1) != 0 {
		return fmt.Errorf("chunk: AvgSize %d is not a power of two", c.AvgSize)
	}
	if !(c.MinSize <= c.AvgSize && c.AvgSize <= c.MaxSize) {
		return fmt.Errorf("chunk: need MinSize <= AvgSize <= MaxSize, got %d/%d/%d",
			c.MinSize, c.AvgSize, c.MaxSize)
	}
	if c.Normalization < 0 || c.Normalization > 4 {
		return fmt.Errorf("chunk: Normalization %d outside [0,4]", c.Normalization)
	}
	b := bits.TrailingZeros(uint(c.AvgSize))
	if b-c.Normalization < 1 || b+c.Normalization > 48 {
		return fmt.Errorf("chunk: AvgSize %d with normalization %d leaves no usable mask",
			c.AvgSize, c.Normalization)
	}
	return nil
}

// gearTable is the deterministic per-byte random table the rolling hash
// mixes in. It is generated once from a fixed seed with splitmix64, so the
// cut points — and therefore chunk identities and cross-generation dedup —
// are stable across processes and versions. Changing the seed is safe for
// correctness (manifests record explicit chunk lists) but would break
// dedup between snapshots written before and after the change.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	s := uint64(0xfa57c0dec4a11d01) // fixed seed; see comment above
	for i := range t {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// Writer is a push-mode chunker: bytes stream in through Write, and every
// completed chunk is handed to the emit callback in order. The slice passed
// to emit aliases the Writer's internal buffer and is only valid for the
// duration of the call — hash or copy it before returning. Call Flush after
// the last Write to emit the trailing chunk(s).
type Writer struct {
	cfg          Config
	maskS, maskL uint64 // harder mask before AvgSize, easier after
	buf          []byte
	emit         func(chunk []byte) error
	flushed      bool
}

// NewWriter validates the geometry (after applying defaults) and returns a
// push-mode chunker feeding emit.
func NewWriter(cfg Config, emit func(chunk []byte) error) (*Writer, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, fmt.Errorf("chunk: NewWriter needs an emit callback")
	}
	b := bits.TrailingZeros(uint(cfg.AvgSize))
	sBits := uint(b + cfg.Normalization)
	lBits := uint(b - cfg.Normalization)
	return &Writer{
		cfg: cfg,
		// Top-of-word masks: with the gear hash's left shift, the high bits
		// carry the most mixed entropy.
		maskS: ^uint64(0) << (64 - sBits),
		maskL: ^uint64(0) << (64 - lBits),
		emit:  emit,
	}, nil
}

// Write buffers p and emits every chunk whose boundary is already
// determined by the bytes seen so far. It always reports len(p) consumed
// unless emit fails.
func (w *Writer) Write(p []byte) (int, error) {
	if w.flushed {
		return 0, fmt.Errorf("chunk: Write after Flush")
	}
	w.buf = append(w.buf, p...)
	for {
		cut, ok := w.cut(w.buf, false)
		if !ok {
			return len(p), nil
		}
		if err := w.emit(w.buf[:cut]); err != nil {
			return 0, err
		}
		w.buf = w.buf[:copy(w.buf, w.buf[cut:])]
	}
}

// Flush emits the buffered tail as one or more final chunks. The stream's
// last chunk may be shorter than MinSize. The Writer cannot be reused.
func (w *Writer) Flush() error {
	w.flushed = true
	for len(w.buf) > 0 {
		cut, _ := w.cut(w.buf, true)
		if err := w.emit(w.buf[:cut]); err != nil {
			return err
		}
		w.buf = w.buf[:copy(w.buf, w.buf[cut:])]
	}
	w.buf = nil
	return nil
}

// cut finds the next boundary in data. It returns (n, true) when the first
// chunk is data[:n], or (0, false) when more bytes are needed to decide.
// With final set, end-of-data is itself a boundary.
func (w *Writer) cut(data []byte, final bool) (int, bool) {
	if len(data) == 0 {
		return 0, false
	}
	if len(data) <= w.cfg.MinSize {
		if final {
			return len(data), true
		}
		return 0, false
	}
	n, forced := len(data), false
	if n >= w.cfg.MaxSize {
		n, forced = w.cfg.MaxSize, true
	}
	mid := w.cfg.AvgSize
	if mid > n {
		mid = n
	}
	var h uint64
	i := w.cfg.MinSize // cut-point skipping: bytes [0,MinSize) are never hashed
	for ; i < mid; i++ {
		h = (h << 1) + gearTable[data[i]]
		if h&w.maskS == 0 {
			return i + 1, true
		}
	}
	for ; i < n; i++ {
		h = (h << 1) + gearTable[data[i]]
		if h&w.maskL == 0 {
			return i + 1, true
		}
	}
	if forced || final {
		return n, true
	}
	return 0, false
}

// Split cuts data in one call and returns the boundary offsets (exclusive
// chunk ends; the last offset equals len(data) unless data is empty). It is
// the batch convenience over Writer, used by tests and benchmarks.
func Split(cfg Config, data []byte) ([]int, error) {
	var (
		cuts []int
		off  int
	)
	w, err := NewWriter(cfg, func(c []byte) error {
		off += len(c)
		cuts = append(cuts, off)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return cuts, nil
}
