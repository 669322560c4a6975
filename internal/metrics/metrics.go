// Package metrics holds the end-to-end time accounting used throughout the
// benchmarks: the paper's central argument is that algorithm execution time
// alone is misleading, so every experiment reports a breakdown into loading,
// pre-processing and algorithm execution.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Breakdown is the end-to-end execution time of one run, split into the
// phases of the paper's Figures (pre-processing / algorithm, plus loading
// when the edges were read from a file).
type Breakdown struct {
	// Load is the measured time to read the edge array from storage. Zero
	// when the graph is already in memory.
	Load time.Duration
	// Preprocess is the time to build the data layout (adjacency lists,
	// grid) from the edge array.
	Preprocess time.Duration
	// Algorithm is the algorithm execution time.
	Algorithm time.Duration
	// IOWait is worker time stalled on storage during out-of-core
	// (streamed) execution: the storage time prefetching failed to hide.
	// It is summed across workers (several can stall concurrently), so it
	// may exceed the Algorithm wall time; it annotates Algorithm rather
	// than adding to the total.
	IOWait time.Duration
	// IOHidden is storage time that WAS hidden behind compute by the
	// prefetch overlap — the out-of-core counterpart of the loading/
	// pre-processing overlap of Section 3.4. Purely informational; it
	// never contributes to the total.
	IOHidden time.Duration
}

// Total returns the end-to-end time.
func (b Breakdown) Total() time.Duration {
	return b.Load + b.Preprocess + b.Algorithm
}

// Add returns the phase-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Load:       b.Load + o.Load,
		Preprocess: b.Preprocess + o.Preprocess,
		Algorithm:  b.Algorithm + o.Algorithm,
		IOWait:     b.IOWait + o.IOWait,
		IOHidden:   b.IOHidden + o.IOHidden,
	}
}

// Scale returns the breakdown with every phase multiplied by f (used to
// average repeated runs).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		Load:       time.Duration(float64(b.Load) * f),
		Preprocess: time.Duration(float64(b.Preprocess) * f),
		Algorithm:  time.Duration(float64(b.Algorithm) * f),
		IOWait:     time.Duration(float64(b.IOWait) * f),
		IOHidden:   time.Duration(float64(b.IOHidden) * f),
	}
}

// String formats the breakdown as "pre=12ms algo=34ms total=46ms"
// (load omitted when zero).
func (b Breakdown) String() string {
	var sb strings.Builder
	if b.Load > 0 {
		fmt.Fprintf(&sb, "load=%v ", b.Load.Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, "pre=%v ", b.Preprocess.Round(time.Millisecond))
	fmt.Fprintf(&sb, "algo=%v total=%v", b.Algorithm.Round(time.Millisecond), b.Total().Round(time.Millisecond))
	if b.IOWait > 0 || b.IOHidden > 0 {
		fmt.Fprintf(&sb, " io-wait=%v io-hidden=%v", b.IOWait.Round(time.Millisecond), b.IOHidden.Round(time.Millisecond))
	}
	return sb.String()
}

// Stopwatch measures consecutive phases of a run.
type Stopwatch struct {
	start time.Time
	last  time.Time
}

// NewStopwatch starts a stopwatch.
func NewStopwatch() *Stopwatch {
	now := time.Now()
	return &Stopwatch{start: now, last: now}
}

// Lap returns the time elapsed since the previous Lap (or since creation)
// and restarts the lap timer.
func (s *Stopwatch) Lap() time.Duration {
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	return d
}

// Total returns the time elapsed since creation.
func (s *Stopwatch) Total() time.Duration {
	return time.Since(s.start)
}

// Row is one labeled result row of an experiment table.
type Row struct {
	Label  string
	Values map[string]string
}

// Table accumulates rows and renders them with aligned columns, mirroring
// the tables of the paper.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
}

// NewTable creates a table with the given title and column order.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are matched to columns by name.
func (t *Table) AddRow(label string, values map[string]string) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// AddDurations is a convenience for the common breakdown row.
func (t *Table) AddDurations(label string, b Breakdown) {
	t.AddRow(label, map[string]string{
		"load":       FormatSeconds(b.Load),
		"preprocess": FormatSeconds(b.Preprocess),
		"algorithm":  FormatSeconds(b.Algorithm),
		"total":      FormatSeconds(b.Total()),
	})
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	// Column widths.
	labelW := len("configuration")
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
		for _, r := range t.Rows {
			if v := r.Values[c]; len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	fmt.Fprintf(&sb, "%-*s", labelW, "configuration")
	for i, c := range t.Columns {
		fmt.Fprintf(&sb, "  %*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", labelW, r.Label)
		for i, c := range t.Columns {
			fmt.Fprintf(&sb, "  %*s", widths[i], r.Values[c])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SortRows orders rows by label (stable output for golden tests).
func (t *Table) SortRows() {
	sort.SliceStable(t.Rows, func(i, j int) bool { return t.Rows[i].Label < t.Rows[j].Label })
}

// CompressPlanTrace renders a per-iteration plan trace as runs of identical
// plans: ["a/push/atomics", "a/push/atomics", "a/pull/no-lock"] becomes
// "a/push/atomics x2 -> a/pull/no-lock". Benchmarks and the CLI print this
// compact form so adaptive runs can show what the planner chose without one
// line per iteration.
func CompressPlanTrace(steps []string) string {
	// Fast paths for the run-length boundaries: a run that never iterated
	// (nil or empty trace) compresses to the empty string, and a single
	// iteration is its own label with no "xN" suffix.
	if len(steps) == 0 {
		return ""
	}
	if len(steps) == 1 {
		return steps[0]
	}
	var sb strings.Builder
	for i := 0; i < len(steps); {
		j := i
		for j < len(steps) && steps[j] == steps[i] {
			j++
		}
		if i > 0 {
			sb.WriteString(" -> ")
		}
		sb.WriteString(steps[i])
		if n := j - i; n > 1 {
			fmt.Fprintf(&sb, " x%d", n)
		}
		i = j
	}
	return sb.String()
}

// FormatSeconds renders a duration as seconds with three decimals, the unit
// used by the paper's tables.
func FormatSeconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// Speedup returns a/b as a human-readable factor ("2.4x"); it guards against
// division by zero.
func Speedup(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(a)/float64(b))
}
