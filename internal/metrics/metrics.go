// Package metrics provides the statistics plumbing the experiment
// harness shares: geometric means (the paper's aggregation across
// benchmarks), normalization, and plain-text rendering of the tables and
// bar-chart series the paper's figures report.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// GeoMean returns the geometric mean of xs, ignoring non-positive values
// (which would otherwise collapse the product). It returns 0 for an
// empty input.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Normalize divides each value by base, returning 0 ratios when base is
// not positive.
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	if base <= 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// NormalizeToMax scales xs so the largest value is 1 (the paper's
// Figures 1 and 20 normalize to the highest result).
func NormalizeToMax(xs []float64) []float64 {
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return Normalize(xs, max)
}

// Series is one named row of values (one bar group in a figure).
type Series struct {
	Name   string
	Values []float64
}

// Table renders labelled rows x columns as aligned plain text.
type Table struct {
	Title   string
	Columns []string
	rows    []Series
}

// NewTable creates a table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the value count must match the column count.
func (t *Table) AddRow(name string, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row %q has %d values for %d columns", name, len(values), len(t.Columns)))
	}
	t.rows = append(t.rows, Series{Name: name, Values: values})
}

// Rows returns the accumulated rows.
func (t *Table) Rows() []Series { return t.rows }

// Row returns the named row's values, or nil.
func (t *Table) Row(name string) []float64 {
	for _, r := range t.rows {
		if r.Name == name {
			return r.Values
		}
	}
	return nil
}

// GeoMeanRow appends a geometric-mean row computed column-wise over all
// current rows and returns its values.
func (t *Table) GeoMeanRow(name string) []float64 {
	vals := make([]float64, len(t.Columns))
	for c := range t.Columns {
		col := make([]float64, 0, len(t.rows))
		for _, r := range t.rows {
			col = append(col, r.Values[c])
		}
		vals[c] = GeoMean(col)
	}
	t.AddRow(name, vals...)
	return vals
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	nameW := 4
	for _, r := range t.rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		if colW[i] < 8 {
			colW[i] = 8
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", colW[i]+2, c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", nameW+2, r.Name)
		for i, v := range r.Values {
			fmt.Fprintf(&b, "%*s", colW[i]+2, formatVal(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row.
//
// Values are written with %g (shortest exact representation), NOT the
// rounded formatVal used by String: the console view rounds for
// readability (e.g. 0.12345 prints as "0.123", 1234567 as "1.23e+06"),
// while the CSV is a data export and keeps full float64 precision.
// Diffing a CSV against the printed table will therefore show more
// digits; that divergence is deliberate and pinned by TestCSVPrecision.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("name")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(csvEscape(r.Name))
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
	}
	return s
}

func formatVal(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// SimRate accumulates the simulated-vs-wall-time ratio across simulation
// cells: how many simulated cycles each wall-clock second buys. It is
// safe for concurrent use (sweep workers and the cbsimd daemon observe
// cells from many goroutines).
type SimRate struct {
	mu     sync.Mutex
	cells  uint64
	cycles uint64
	wall   time.Duration
}

// Observe records one completed cell: its simulated cycle count and the
// wall-clock time the simulation took.
func (r *SimRate) Observe(cycles uint64, wall time.Duration) {
	r.mu.Lock()
	r.cells++
	r.cycles += cycles
	r.wall += wall
	r.mu.Unlock()
}

// Snapshot returns the totals so far: cells observed, simulated cycles,
// and wall-clock time.
func (r *SimRate) Snapshot() (cells, cycles uint64, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cells, r.cycles, r.wall
}

// CyclesPerSecond returns the aggregate simulation rate in simulated
// cycles per wall-clock second, or 0 before any wall time has been
// observed.
func (r *SimRate) CyclesPerSecond() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wall <= 0 {
		return 0
	}
	return float64(r.cycles) / r.wall.Seconds()
}
