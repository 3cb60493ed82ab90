package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"htdp/internal/vecmath"
)

// The paper evaluates on four UCI datasets this offline module cannot
// download, so DESIGN.md substitutes simulators. CSV I/O closes the
// loop for users who do have the files: load the real Blog
// Feedback/Twitter/Winnipeg/YearPrediction CSVs and run the same
// figure code on them.

// ReadCSV parses a numeric CSV into a Dataset. labelCol selects the
// label column (negative counts from the end: −1 is the last column);
// all remaining columns become features, in order. hasHeader skips the
// first row. Rows with non-numeric or non-finite fields (nan, inf) are
// rejected with a row- and column-numbered error; rows parse exactly as
// CSVSource parses them.
func ReadCSV(r io.Reader, label string, labelCol int, hasHeader bool) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	rowNum := 0
	if hasHeader {
		if _, err := cr.Read(); err != nil {
			return nil, fmt.Errorf("data: reading CSV header: %w", err)
		}
		rowNum++
	}
	var xs, ys []float64
	width := -1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: reading CSV row %d: %w", rowNum, err)
		}
		rowNum++
		if width == -1 {
			width = len(rec)
			if width < 2 {
				return nil, fmt.Errorf("data: CSV needs ≥2 columns, got %d", width)
			}
		} else if len(rec) != width {
			return nil, fmt.Errorf("data: CSV row %d has %d fields, want %d", rowNum, len(rec), width)
		}
		xs = append(xs, make([]float64, width-1)...)
		ys = append(ys, 0)
		if err := parseNumericRow(rec, labelCol, xs[len(xs)-(width-1):], &ys[len(ys)-1]); err != nil {
			return nil, fmt.Errorf("data: CSV row %d %w", rowNum, err)
		}
	}
	if len(ys) == 0 {
		return nil, fmt.Errorf("data: empty CSV")
	}
	return &Dataset{
		Label: label,
		X:     &vecmath.Mat{Rows: len(ys), Cols: width - 1, Data: xs},
		Y:     ys,
	}, nil
}

// WriteCSV writes the dataset as numeric CSV with the label as the last
// column (the inverse of ReadCSV with labelCol = −1, no header).
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	rec := make([]string, d.D()+1)
	for i := 0; i < d.N(); i++ {
		row := d.X.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		rec[d.D()] = strconv.FormatFloat(d.Y[i], 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("data: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
