package figures

import (
	"math"
	"strings"
	"testing"
)

// layout is a table with every print feature: a heading, a right-aligned
// label column, a spanning label, a Zero text, a Signed column and a note.
func layout() Table {
	return Table{
		Heading: "-- heading --",
		Labels:  []Column{{Name: "phase", Width: 6}, {Name: "threads", Width: 8, Right: true}},
		Values: []Column{
			{Name: "A", Width: 6, Prec: 2},
			{Name: "cross", Width: 4, Zero: ">8"},
			{Name: "ovh", Width: 5, Signed: true},
		},
		Unit: "  (Mops/s)",
		Rows: []Row{
			{Labels: []string{"0", "16"}, Values: []float64{1.5, 3, -2}},
			{Labels: []string{"average"}, Values: []float64{0.25, 0, 7}, Note: "   # note"},
		},
	}
}

func TestPrintLayout(t *testing.T) {
	var b strings.Builder
	layout().Print(&b)
	want := "-- heading --\n" +
		"phase   threads      A cross   ovh  (Mops/s)\n" +
		"0            16   1.50    3    -2\n" +
		"average           0.25   >8     7   # note\n"
	if b.String() != want {
		t.Errorf("got\n%s\nwant\n%s", b.String(), want)
	}
}

func TestCheck(t *testing.T) {
	if err := check([]Table{layout()}); err != nil {
		t.Fatalf("well-formed table rejected: %v", err)
	}
	bad := map[string]func(*Table){
		"no rows":        func(t *Table) { t.Rows = nil },
		"short row":      func(t *Table) { t.Rows[0].Values = t.Rows[0].Values[:2] },
		"long row":       func(t *Table) { t.Rows[0].Values = append(t.Rows[0].Values, 1) },
		"no labels":      func(t *Table) { t.Rows[0].Labels = nil },
		"extra label":    func(t *Table) { t.Rows[0].Labels = append(t.Rows[0].Labels, "x") },
		"NaN":            func(t *Table) { t.Rows[0].Values[0] = math.NaN() },
		"Inf":            func(t *Table) { t.Rows[1].Values[2] = math.Inf(-1) },
		"negative value": func(t *Table) { t.Rows[1].Values[0] = -0.5 },
	}
	for name, spoil := range bad {
		tab := layout()
		spoil(&tab)
		if err := check([]Table{layout(), tab}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
