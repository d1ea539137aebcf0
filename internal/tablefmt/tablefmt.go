// Package tablefmt renders aligned ASCII tables and CSV for the experiment
// harness's paper-style reports.
package tablefmt

import (
	"fmt"
	"strings"
)

// Table is one named-column table: a title, column headers and rows of
// formatted cells. Experiments fill it with Row; a structured result
// (internal/result) carries it as is, which keeps its JSON trivially
// deterministic, and String and CSV render it.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// New creates a table with the given title and column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Columns: header, Rows: [][]string{}}
}

// Row appends a row; values are formatted with %v (floats compactly).
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = format(c)
	}
	t.Rows = append(t.Rows, row)
}

func format(c any) string {
	switch v := c.(type) {
	case float64:
		switch {
		case v == 0:
			return "0"
		case v >= 1e7 || v < 1e-3:
			return fmt.Sprintf("%.3g", v)
		case v >= 100:
			return fmt.Sprintf("%.0f", v)
		default:
			return fmt.Sprintf("%.3g", v)
		}
	case float32:
		return format(float64(v))
	default:
		return fmt.Sprint(c)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, h := range t.Columns {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
