package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"htdp/internal/vecmath"
)

// CSVSource streams chunks of a numeric CSV file from disk, so n can
// exceed local memory: opening the file scans it once to index the byte
// offset of every row (8 bytes per row — 0.8 MB for 100k rows, versus
// 320 MB for a materialized 100k×400 matrix), and Chunk(t, T) seeks to
// the chunk's first row and parses exactly the rows [t·n/T, (t+1)·n/T).
// A one-slot cache keeps the most recently parsed chunk, so repeated
// requests for the same (t, T) — the pattern of a training pass
// followed by an evaluation pass over few chunks — cost no extra I/O
// while peak residency stays bounded by a single chunk.
//
// Parsing matches ReadCSV exactly (both parse rows through one parser:
// strconv.ParseFloat on every field, non-finite values rejected), and
// WriteCSV emits shortest round-trip decimal, so a dataset written
// with WriteCSV and streamed back yields bit-identical chunk contents
// to MemSource over the original — the property TestSourceEquivalence
// locks in.
type CSVSource struct {
	f        *os.File
	path     string
	label    string
	labelCol int
	n, d     int
	// offsets[i] is the byte offset of data row i; offsets[n] is the
	// offset one past the last row. Immutable after open; Reopen shares
	// it.
	offsets []int64

	cached           *Dataset
	cachedT, cacheOf int
	// bufX/bufY back the cached chunk and are recycled across Chunk
	// calls (the m·d parse target is by far the backend's largest
	// allocation; reusing it makes steady-state streaming generate no
	// matrix garbage). The previous chunk's contents are overwritten —
	// the Source contract already forbids using a chunk after the next
	// Chunk call.
	bufX, bufY []float64

	// RowAt's seek-locality cache: parsed rows grouped into fixed-size
	// blocks, a handful of blocks resident at once (see rowBlockRows /
	// rowCacheBlocks). One random access parses one block — never the
	// file — and nearby or repeated indices hit the cache outright, so
	// a shuffled pass costs O(n/blockSize) seeks and O(n) row parses
	// total, not O(n) parses per access.
	rowBlocks map[int]*rowBlock
	rowTick   int64
}

// rowBlockRows is the granularity of the RowAt row cache: a cache miss
// seeks once and parses this many consecutive rows. Large enough to
// amortize the csv.Reader setup per seek, small enough that a resident
// block stays trivial (256 rows × 400 features ≈ 0.8 MB).
const rowBlockRows = 256

// rowCacheBlocks bounds the blocks resident at once; the least
// recently used block is evicted (and its storage recycled) beyond it.
const rowCacheBlocks = 8

// rowBlock is one cached run of parsed rows [lo, hi).
type rowBlock struct {
	lo, hi int
	x      []float64 // (hi-lo)×d features, row-major
	y      []float64 // hi-lo labels
	used   int64     // LRU tick of the last access
}

// OpenCSV opens a numeric CSV file as a streaming Source. labelCol
// selects the label column (negative counts from the end: −1 is the
// last column); all remaining columns become features, in order.
// hasHeader skips the first row. The scan validates the shape (every
// row the same width ≥ 2) but defers numeric parsing to Chunk, which
// rejects bad fields with a row-numbered error.
func OpenCSV(path, label string, labelCol int, hasHeader bool) (*CSVSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: opening CSV: %w", err)
	}
	src, err := indexCSV(f, label, labelCol, hasHeader)
	if err != nil {
		f.Close()
		return nil, err
	}
	src.path = path
	return src, nil
}

// Reopen returns an independent CSVSource over the same file, sharing
// the already-built row-offset index — no rescan. The receiver may be
// shared across goroutines for Reopen calls (the index is immutable),
// but each returned source is single-goroutine like any other. Sweeps
// that open one source per trial index the file once this way.
func (s *CSVSource) Reopen() (*CSVSource, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("data: reopening CSV: %w", err)
	}
	return &CSVSource{
		f: f, path: s.path, label: s.label, labelCol: s.labelCol,
		n: s.n, d: s.d, offsets: s.offsets,
		cachedT: -1,
	}, nil
}

// indexCSV scans f once, recording row offsets and validating shape.
func indexCSV(f *os.File, label string, labelCol int, hasHeader bool) (*CSVSource, error) {
	cr := csv.NewReader(f)
	cr.ReuseRecord = true
	if hasHeader {
		if _, err := cr.Read(); err != nil {
			return nil, fmt.Errorf("data: reading CSV header: %w", err)
		}
	}
	var offsets []int64
	width := -1
	for {
		off := cr.InputOffset()
		rec, err := cr.Read()
		if err == io.EOF {
			offsets = append(offsets, off)
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: scanning CSV row %d: %w", len(offsets), err)
		}
		if width == -1 {
			width = len(rec)
			if width < 2 {
				return nil, fmt.Errorf("data: CSV needs ≥2 columns, got %d", width)
			}
			lc := labelCol
			if lc < 0 {
				lc = width + lc
			}
			if lc < 0 || lc >= width {
				return nil, fmt.Errorf("data: label column %d outside row of width %d", labelCol, width)
			}
		} else if len(rec) != width {
			return nil, fmt.Errorf("data: CSV row %d has %d fields, want %d", len(offsets), len(rec), width)
		}
		offsets = append(offsets, off)
	}
	n := len(offsets) - 1
	if n < 1 {
		return nil, fmt.Errorf("data: empty CSV")
	}
	return &CSVSource{
		f: f, label: label, labelCol: labelCol,
		n: n, d: width - 1, offsets: offsets,
		cachedT: -1,
	}, nil
}

// N returns the number of data rows.
func (s *CSVSource) N() int { return s.n }

// D returns the feature dimension (columns minus the label column).
func (s *CSVSource) D() int { return s.d }

// Chunk seeks to row t·n/T and parses the chunk's rows into the
// source's reusable one-slot buffer (or returns the cached chunk when
// (t, T) repeats). Only this one chunk is resident; the previous
// chunk's storage is recycled, not reallocated.
func (s *CSVSource) Chunk(t, T int) (*Dataset, error) {
	if err := checkChunk(t, T, s.n); err != nil {
		return nil, err
	}
	if s.cached != nil && s.cachedT == t && s.cacheOf == T {
		return s.cached, nil
	}
	lo, hi := ChunkBounds(t, T, s.n)
	if _, err := s.f.Seek(s.offsets[lo], io.SeekStart); err != nil {
		return nil, fmt.Errorf("data: seeking CSV row %d: %w", lo, err)
	}
	cr := csv.NewReader(io.LimitReader(s.f, s.offsets[hi]-s.offsets[lo]))
	cr.ReuseRecord = true
	m := hi - lo
	if cap(s.bufX) < m*s.d {
		s.bufX = make([]float64, m*s.d)
	}
	if cap(s.bufY) < m {
		s.bufY = make([]float64, m)
	}
	// Fresh headers over the recycled buffers: the previous chunk's
	// *Dataset stays distinct (callers can tell chunks apart) while the
	// m·d float storage is reused.
	x := &vecmath.Mat{Rows: m, Cols: s.d, Data: s.bufX[:m*s.d]}
	y := s.bufY[:m]
	for i := 0; i < m; i++ {
		rec, err := cr.Read()
		if err != nil {
			s.cached = nil // the buffer now holds a partial parse
			return nil, fmt.Errorf("data: reading CSV row %d: %w", lo+i, err)
		}
		if err := parseNumericRow(rec, s.labelCol, x.Row(i), &y[i]); err != nil {
			s.cached = nil
			return nil, fmt.Errorf("data: CSV row %d %w", lo+i, err)
		}
	}
	ck := &Dataset{Label: s.label, X: x, Y: y}
	s.cached, s.cachedT, s.cacheOf = ck, t, T
	return ck, nil
}

// RowAt returns row i through the block cache: a miss seeks to the
// block holding i and parses its rowBlockRows rows once; hits — the
// common case under seek-local or repeated access — return a view into
// the resident block. The view is valid until the next RowAt call (the
// block may be evicted); buf is unused. Parse failures surface with
// the absolute row number, exactly as Chunk reports them.
func (s *CSVSource) RowAt(i int, _ []float64) ([]float64, float64, error) {
	if err := checkRow(i, s.n); err != nil {
		return nil, 0, err
	}
	b := i / rowBlockRows
	blk := s.rowBlocks[b]
	if blk == nil {
		var err error
		if blk, err = s.loadRowBlock(b); err != nil {
			return nil, 0, err
		}
	}
	s.rowTick++
	blk.used = s.rowTick
	r := i - blk.lo
	return blk.x[r*s.d : (r+1)*s.d : (r+1)*s.d], blk.y[r], nil
}

// loadRowBlock seeks to block b's first row, parses the block, and
// installs it in the cache — evicting (and recycling the storage of)
// the least recently used block when the cache is full.
func (s *CSVSource) loadRowBlock(b int) (*rowBlock, error) {
	lo := b * rowBlockRows
	hi := lo + rowBlockRows
	if hi > s.n {
		hi = s.n
	}
	blk := s.evictRowBlock()
	if blk == nil {
		blk = &rowBlock{}
	}
	m := hi - lo
	if cap(blk.x) < m*s.d {
		blk.x = make([]float64, m*s.d)
	}
	if cap(blk.y) < m {
		blk.y = make([]float64, m)
	}
	blk.lo, blk.hi = lo, hi
	blk.x, blk.y = blk.x[:m*s.d], blk.y[:m]
	if _, err := s.f.Seek(s.offsets[lo], io.SeekStart); err != nil {
		return nil, fmt.Errorf("data: seeking CSV row %d: %w", lo, err)
	}
	cr := csv.NewReader(io.LimitReader(s.f, s.offsets[hi]-s.offsets[lo]))
	cr.ReuseRecord = true
	for r := 0; r < m; r++ {
		rec, err := cr.Read()
		if err != nil {
			return nil, fmt.Errorf("data: reading CSV row %d: %w", lo+r, err)
		}
		if err := parseNumericRow(rec, s.labelCol, blk.x[r*s.d:(r+1)*s.d], &blk.y[r]); err != nil {
			return nil, fmt.Errorf("data: CSV row %d %w", lo+r, err)
		}
	}
	if s.rowBlocks == nil {
		s.rowBlocks = make(map[int]*rowBlock, rowCacheBlocks)
	}
	s.rowBlocks[b] = blk
	return blk, nil
}

// evictRowBlock removes and returns the least recently used block once
// the cache is at capacity, nil while there is still room.
func (s *CSVSource) evictRowBlock() *rowBlock {
	if len(s.rowBlocks) < rowCacheBlocks {
		return nil
	}
	oldKey, oldTick := -1, int64(0)
	for k, blk := range s.rowBlocks {
		if oldKey == -1 || blk.used < oldTick {
			oldKey, oldTick = k, blk.used
		}
	}
	blk := s.rowBlocks[oldKey]
	delete(s.rowBlocks, oldKey)
	return blk
}

// Close closes the underlying file and drops the cached chunk and row
// blocks.
func (s *CSVSource) Close() error {
	s.cached = nil
	s.rowBlocks = nil
	return s.f.Close()
}

// parseNumericRow parses one CSV record into a feature row and a label
// — the one row parser of ReadCSV and CSVSource. Every field must parse
// as a finite float64: strconv.ParseFloat also accepts nan, inf and
// infinity, which would otherwise enter a dataset and surface only as
// a NaN result (or an unencodable JSON response) after a full run.
func parseNumericRow(rec []string, labelCol int, feat []float64, y *float64) error {
	width := len(rec)
	lc := labelCol
	if lc < 0 {
		lc = width + lc
	}
	if lc < 0 || lc >= width {
		return fmt.Errorf("label column %d outside row of width %d", labelCol, width)
	}
	k := 0
	for j, f := range rec {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return fmt.Errorf("col %d: %w", j, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("col %d: non-finite value %q", j, f)
		}
		if j == lc {
			*y = v
		} else {
			feat[k] = v
			k++
		}
	}
	return nil
}
