package figures

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Scale is how long and how wide a figure runs.
type Scale struct {
	Duration   time.Duration // measurement window per point
	Reps       int           // repetitions per point; the median is kept
	MaxThreads int           // thread-sweep ceiling; 0 is 2×GOMAXPROCS+8
	Quick      bool          // smoke-test size: fewer iterations where a run counts them (Figure 11)
	// Contention, if set, makes the systems figures attach a telemetry
	// registry to every lock configuration and write each cell's most
	// contended roles here.
	Contention io.Writer
}

// Quick is glsbench -quick's scale: one 40 ms repetition a point.
func Quick() Scale {
	return Scale{Duration: 40 * time.Millisecond, Reps: 1, Quick: true}
}

// Column is one column of a Table: its header and how it prints.
type Column struct {
	Name   string
	Width  int    // printed width
	Prec   int    // digits after the point, for a value column
	Right  bool   // right-align a label column; value columns always are
	Signed bool   // a difference, which may be negative
	Zero   string // printed instead of a zero value, if set
}

// Row is one labelled line of numbers.
type Row struct {
	Labels []string // one per label column; with fewer, the last spans the rest
	Values []float64
	Note   string // printed after the values as it stands
}

// Table is one block of a figure's result.
type Table struct {
	Heading string   // a line printed above the header, if set
	Labels  []Column // the row-label columns
	Values  []Column // the value columns
	Unit    string   // printed after the header as it stands
	Rows    []Row
}

// check reports the first row of tables that does not fit its table's
// columns, or that holds a value that is not finite or is negative outside
// a Signed column.
func check(tables []Table) error {
	for _, t := range tables {
		if len(t.Rows) == 0 {
			return fmt.Errorf("a table has no rows")
		}
		for _, r := range t.Rows {
			if len(r.Labels) == 0 || len(r.Labels) > len(t.Labels) || len(r.Values) != len(t.Values) {
				return fmt.Errorf("row %q has %d labels and %d values; its table has %d and %d",
					r.Labels, len(r.Labels), len(r.Values), len(t.Labels), len(t.Values))
			}
			for i, v := range r.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && !t.Values[i].Signed) {
					return fmt.Errorf("row %q, column %q: %v", r.Labels, t.Values[i].Name, v)
				}
			}
		}
	}
	return nil
}

// Print writes t as glsbench -fig shows it: the heading, the header, then
// one line per row.
func (t Table) Print(w io.Writer) {
	if t.Heading != "" {
		fmt.Fprintln(w, t.Heading)
	}
	var labels, values []string
	for _, c := range t.Labels {
		labels = append(labels, c.Name)
	}
	for _, c := range t.Values {
		values = append(values, c.Name)
	}
	fmt.Fprintln(w, t.line(labels, values)+t.Unit)
	for _, r := range t.Rows {
		values = values[:0]
		for i, v := range r.Values {
			if c := t.Values[i]; v == 0 && c.Zero != "" {
				values = append(values, c.Zero)
			} else {
				values = append(values, strconv.FormatFloat(v, 'f', c.Prec, 64))
			}
		}
		fmt.Fprintln(w, t.line(r.Labels, values)+r.Note)
	}
}

// line lays out one line, one space between columns: the labels, the last
// spanning the label columns it lacks, then the values, right-aligned.
func (t Table) line(labels, values []string) string {
	var b strings.Builder
	for i, l := range labels {
		c := t.Labels[i]
		if i == len(labels)-1 {
			for _, rest := range t.Labels[i+1:] {
				c.Width += 1 + rest.Width
			}
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		if c.Right {
			fmt.Fprintf(&b, "%*s", c.Width, l)
		} else {
			fmt.Fprintf(&b, "%-*s", c.Width, l)
		}
	}
	for i, v := range values {
		fmt.Fprintf(&b, " %*s", t.Values[i].Width, v)
	}
	return b.String()
}
